//! Simulated time.
//!
//! [`Cycle`] lives here, at the bottom of the workspace dependency graph,
//! so every clocked component — DRAM banks, controllers, mesh routers —
//! shares one time domain and the engine can reason about "the next event"
//! across all of them.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in clock cycles.
///
/// `Cycle` is ordered and supports saturating arithmetic with plain cycle
/// counts (`u64`), which is how timing constraints are expressed.
///
/// # Examples
///
/// ```
/// use ia_sim::Cycle;
/// let t = Cycle::ZERO + 15;
/// assert_eq!(t.as_u64(), 15);
/// assert!(t < t + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The origin of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle timestamp from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the later of two timestamps.
    #[must_use]
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Distance in cycles. Saturates at zero rather than panicking so that
    /// "how long until" queries are total.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_is_ordered_and_saturating() {
        let a = Cycle::new(10);
        let b = a + 5;
        assert_eq!(b.as_u64(), 15);
        assert_eq!(b - a, 5);
        assert_eq!(a - b, 0, "cycle subtraction saturates");
        assert_eq!(a.max(b), b);
        assert_eq!(Cycle::from(7u64).as_u64(), 7);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", Cycle::new(1)), "1cy");
    }
}
