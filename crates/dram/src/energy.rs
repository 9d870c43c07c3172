//! Energy accounting for DRAM operation and off-chip data movement.
//!
//! The counter attributes energy to the event classes that matter for the
//! paper's argument: row activation, column access in the array, off-chip
//! I/O (the data-movement cost), and refresh; plus background power
//! integrated over elapsed time.

use std::fmt;

use crate::{Command, Cycle, EnergyParams, TimingParams};

/// Accumulated DRAM energy, broken down by event class (all picojoules).
///
/// # Examples
///
/// ```
/// use ia_dram::{Command, Cycle, DramConfig, EnergyCounter};
/// let cfg = DramConfig::ddr3_1600();
/// let mut e = EnergyCounter::new();
/// e.record(&Command::Activate { row: 0 }, 64, &cfg.energy);
/// e.record(&Command::Read { column: 0 }, 64, &cfg.energy);
/// assert!(e.dynamic_pj() > 0.0);
/// assert!(e.io_pj > 0.0, "reads move data off-chip");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounter {
    /// Row activate + precharge energy.
    pub act_pre_pj: f64,
    /// Column access energy inside the array.
    pub array_pj: f64,
    /// Off-chip I/O energy (the "data movement" component).
    pub io_pj: f64,
    /// Refresh energy.
    pub refresh_pj: f64,
    /// Number of ACTs recorded (one ACT implies one eventual PRE).
    pub activates: u64,
    /// Column bursts recorded.
    pub bursts: u64,
    /// Refreshes recorded.
    pub refreshes: u64,
}

impl EnergyCounter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        EnergyCounter::default()
    }

    /// Records the energy of one command. `burst_bytes` is the data moved
    /// by a column command (ignored for others).
    pub fn record(&mut self, cmd: &Command, burst_bytes: u64, params: &EnergyParams) {
        match cmd {
            Command::Activate { .. } => {
                // The ACT/PRE pair is charged on ACT: every activate is
                // eventually closed, and charging eagerly keeps bulk-copy
                // style command sequences simple to account.
                self.act_pre_pj += params.act_pre_pj;
                self.activates += 1;
            }
            Command::Precharge => {}
            Command::Read { .. } => {
                self.array_pj += params.read_pj;
                self.io_pj += params.io_pj_per_bit * (burst_bytes * 8) as f64;
                self.bursts += 1;
            }
            Command::Write { .. } => {
                self.array_pj += params.write_pj;
                self.io_pj += params.io_pj_per_bit * (burst_bytes * 8) as f64;
                self.bursts += 1;
            }
            Command::Refresh => {
                self.refresh_pj += params.refresh_pj;
                self.refreshes += 1;
            }
        }
    }

    /// Total dynamic energy (excludes background power).
    #[must_use]
    pub fn dynamic_pj(&self) -> f64 {
        self.act_pre_pj + self.array_pj + self.io_pj + self.refresh_pj
    }

    /// Background (standby) energy over an elapsed interval.
    #[must_use]
    pub fn background_pj(
        elapsed: Cycle,
        ranks: usize,
        timing: &TimingParams,
        params: &EnergyParams,
    ) -> f64 {
        let seconds = elapsed.as_u64() as f64 * timing.tck_ns() * 1e-9;
        // mW × s = mJ = 1e9 pJ
        params.background_mw * seconds * ranks as f64 * 1e9
    }

    /// Total energy including background power over `elapsed`.
    #[must_use]
    pub fn total_pj(
        &self,
        elapsed: Cycle,
        ranks: usize,
        timing: &TimingParams,
        params: &EnergyParams,
    ) -> f64 {
        self.dynamic_pj() + Self::background_pj(elapsed, ranks, timing, params)
    }

    /// Fraction of dynamic energy spent on off-chip data movement.
    ///
    /// Returns zero when no dynamic energy has been recorded.
    #[must_use]
    pub fn movement_fraction(&self) -> f64 {
        let total = self.dynamic_pj();
        if total == 0.0 {
            0.0
        } else {
            self.io_pj / total
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.act_pre_pj += other.act_pre_pj;
        self.array_pj += other.array_pj;
        self.io_pj += other.io_pj;
        self.refresh_pj += other.refresh_pj;
        self.activates += other.activates;
        self.bursts += other.bursts;
        self.refreshes += other.refreshes;
    }
}

impl fmt::Display for EnergyCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy: act/pre {:.1} nJ, array {:.1} nJ, io {:.1} nJ, refresh {:.1} nJ ({} ACT, {} bursts, {} REF)",
            self.act_pre_pj / 1000.0,
            self.array_pj / 1000.0,
            self.io_pj / 1000.0,
            self.refresh_pj / 1000.0,
            self.activates,
            self.bursts,
            self.refreshes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    #[test]
    fn read_charges_array_and_io() {
        let p = DramConfig::ddr3_1600().energy;
        let mut e = EnergyCounter::new();
        e.record(&Command::Read { column: 0 }, 64, &p);
        assert!((e.array_pj - p.read_pj).abs() < 1e-9);
        assert!((e.io_pj - p.io_pj_per_bit * 512.0).abs() < 1e-9);
        assert_eq!(e.bursts, 1);
    }

    #[test]
    fn act_charged_once_per_pair() {
        let p = DramConfig::ddr3_1600().energy;
        let mut e = EnergyCounter::new();
        e.record(&Command::Activate { row: 0 }, 0, &p);
        e.record(&Command::Precharge, 0, &p);
        assert!((e.act_pre_pj - p.act_pre_pj).abs() < 1e-9);
        assert_eq!(e.activates, 1);
    }

    #[test]
    fn movement_fraction_bounds() {
        let p = DramConfig::ddr3_1600().energy;
        let mut e = EnergyCounter::new();
        assert_eq!(e.movement_fraction(), 0.0);
        e.record(&Command::Read { column: 0 }, 64, &p);
        let f = e.movement_fraction();
        assert!(f > 0.0 && f < 1.0);
    }

    #[test]
    fn background_scales_with_time_and_ranks() {
        let cfg = DramConfig::ddr3_1600();
        let one =
            EnergyCounter::background_pj(Cycle::new(800_000_000), 1, &cfg.timing, &cfg.energy);
        let two =
            EnergyCounter::background_pj(Cycle::new(800_000_000), 2, &cfg.timing, &cfg.energy);
        // 800M cycles at 1.25 ns = 1 second; 60 mW ≈ 60 mJ = 6e10 pJ.
        assert!((one - 6e10).abs() / 6e10 < 1e-6, "got {one}");
        assert!((two / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let p = DramConfig::ddr3_1600().energy;
        let mut a = EnergyCounter::new();
        let mut b = EnergyCounter::new();
        a.record(&Command::Activate { row: 0 }, 0, &p);
        b.record(&Command::Refresh, 0, &p);
        a.merge(&b);
        assert_eq!(a.activates, 1);
        assert_eq!(a.refreshes, 1);
        assert!(a.dynamic_pj() > 0.0);
        assert!(!a.to_string().is_empty());
    }
}
