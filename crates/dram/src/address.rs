//! Physical-address to device-coordinate mapping.
//!
//! The mapping determines how much row-buffer locality and bank-level
//! parallelism a given access stream sees — one of the main levers the
//! data-centric experiments sweep.

use crate::{Geometry, Location, PhysAddr};

/// How physical addresses interleave across the device hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// Consecutive cache lines fill a row before moving to the next bank:
    /// `row : rank : bank-group : bank : column : channel : offset`.
    /// Maximizes row-buffer locality for sequential streams (open-page
    /// friendly).
    #[default]
    RowInterleaved,
    /// Consecutive cache lines stripe across banks:
    /// `row : column : rank : bank-group : bank : channel : offset`.
    /// Maximizes bank-level parallelism for sequential streams.
    BankInterleaved,
}

impl AddressMapping {
    /// Decodes a physical byte address into device coordinates.
    ///
    /// Addresses beyond the module capacity wrap (the simulator treats the
    /// address space as the module, mirroring trace-driven methodology).
    ///
    /// Every radix that is a power of two — all of them in the presets —
    /// splits off with a mask and a shift; any other radix divides. The
    /// coordinates are the same either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use ia_dram::{AddressMapping, Geometry, PhysAddr};
    /// let geo = Geometry::default();
    /// let loc = AddressMapping::RowInterleaved.decode(PhysAddr::new(0), &geo);
    /// assert_eq!(loc.row, 0);
    /// assert_eq!(loc.column, 0);
    /// ```
    #[must_use]
    pub fn decode(self, addr: PhysAddr, geo: &Geometry) -> Location {
        let line = div(addr.as_u64(), geo.column_bytes);
        let (channel, rest) = split(line, geo.channels as u64);
        match self {
            AddressMapping::RowInterleaved => {
                let (column, rest) = split(rest, geo.columns_per_row());
                let (bank, rest) = split(rest, geo.banks_per_group as u64);
                let (bank_group, rest) = split(rest, geo.bank_groups as u64);
                let (rank, rest) = split(rest, geo.ranks as u64);
                let row = split(rest, geo.rows_per_bank).0;
                Location {
                    channel: channel as usize,
                    rank: rank as usize,
                    bank_group: bank_group as usize,
                    bank: bank as usize,
                    subarray: geo.subarray_of_row(row),
                    row,
                    column,
                }
            }
            AddressMapping::BankInterleaved => {
                let (bank, rest) = split(rest, geo.banks_per_group as u64);
                let (bank_group, rest) = split(rest, geo.bank_groups as u64);
                let (rank, rest) = split(rest, geo.ranks as u64);
                let (column, rest) = split(rest, geo.columns_per_row());
                let row = split(rest, geo.rows_per_bank).0;
                Location {
                    channel: channel as usize,
                    rank: rank as usize,
                    bank_group: bank_group as usize,
                    bank: bank as usize,
                    subarray: geo.subarray_of_row(row),
                    row,
                    column,
                }
            }
        }
    }

    /// Re-encodes device coordinates into the physical byte address that
    /// decodes to them (inverse of [`AddressMapping::decode`] for in-range
    /// locations).
    #[must_use]
    pub fn encode(self, loc: &Location, geo: &Geometry) -> PhysAddr {
        let line = match self {
            AddressMapping::RowInterleaved => {
                let mut v = loc.row;
                v = v * geo.ranks as u64 + loc.rank as u64;
                v = v * geo.bank_groups as u64 + loc.bank_group as u64;
                v = v * geo.banks_per_group as u64 + loc.bank as u64;
                v = v * geo.columns_per_row() + loc.column;
                v * geo.channels as u64 + loc.channel as u64
            }
            AddressMapping::BankInterleaved => {
                let mut v = loc.row;
                v = v * geo.columns_per_row() + loc.column;
                v = v * geo.ranks as u64 + loc.rank as u64;
                v = v * geo.bank_groups as u64 + loc.bank_group as u64;
                v = v * geo.banks_per_group as u64 + loc.bank as u64;
                v * geo.channels as u64 + loc.channel as u64
            }
        };
        PhysAddr::new(line * geo.column_bytes)
    }
}

/// `(value % radix, value / radix)`, by mask and shift when `radix` is
/// a power of two.
#[inline]
fn split(value: u64, radix: u64) -> (u64, u64) {
    if radix.is_power_of_two() {
        (value & (radix - 1), value >> radix.trailing_zeros())
    } else {
        (value % radix, value / radix)
    }
}

/// `value / radix`, by shift when `radix` is a power of two.
#[inline]
pub(crate) fn div(value: u64, radix: u64) -> u64 {
    if radix.is_power_of_two() {
        value >> radix.trailing_zeros()
    } else {
        value / radix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::default()
    }

    #[test]
    fn sequential_lines_stay_in_row_with_row_interleaving() {
        let g = geo();
        let m = AddressMapping::RowInterleaved;
        let a = m.decode(PhysAddr::new(0), &g);
        let b = m.decode(PhysAddr::new(64), &g);
        assert!(a.same_bank(&b));
        assert_eq!(a.row, b.row);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn sequential_lines_stripe_banks_with_bank_interleaving() {
        let g = geo();
        let m = AddressMapping::BankInterleaved;
        let a = m.decode(PhysAddr::new(0), &g);
        let b = m.decode(PhysAddr::new(64), &g);
        assert!(
            !a.same_bank(&b),
            "consecutive lines should hit different banks"
        );
    }

    #[test]
    fn roundtrip_row_interleaved() {
        let g = geo();
        let m = AddressMapping::RowInterleaved;
        for addr in [0u64, 64, 4096, 1 << 20, (1 << 30) + 640] {
            let loc = m.decode(PhysAddr::new(addr), &g);
            let back = m.encode(&loc, &g);
            assert_eq!(back.as_u64(), addr & !63, "addr {addr:#x}");
        }
    }

    #[test]
    fn roundtrip_bank_interleaved() {
        let g = geo();
        let m = AddressMapping::BankInterleaved;
        for addr in [0u64, 64, 8192, (1 << 22) + 128] {
            let loc = m.decode(PhysAddr::new(addr), &g);
            let back = m.encode(&loc, &g);
            assert_eq!(back.as_u64(), addr & !63, "addr {addr:#x}");
        }
    }

    #[test]
    fn subarray_tracks_row() {
        let g = geo();
        let m = AddressMapping::RowInterleaved;
        let loc = m.decode(PhysAddr::new(0), &g);
        assert_eq!(loc.subarray, g.subarray_of_row(loc.row));
    }

    #[test]
    fn decode_respects_geometry_bounds() {
        let g = geo();
        for m in [
            AddressMapping::RowInterleaved,
            AddressMapping::BankInterleaved,
        ] {
            for addr in (0..(1u64 << 33)).step_by(1 << 27) {
                let loc = m.decode(PhysAddr::new(addr), &g);
                assert!(loc.channel < g.channels);
                assert!(loc.rank < g.ranks);
                assert!(loc.bank_group < g.bank_groups);
                assert!(loc.bank < g.banks_per_group);
                assert!(loc.row < g.rows_per_bank);
                assert!(loc.column < g.columns_per_row());
            }
        }
    }
}
