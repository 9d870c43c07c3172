//! Core value types shared across the DRAM simulator.
//!
//! Newtypes ([`Cycle`], [`PhysAddr`]) statically distinguish the two numeric
//! domains the simulator juggles constantly — simulation time and memory
//! addresses — so they can never be confused (C-NEWTYPE).
//!
//! [`Cycle`] itself lives in `ia-sim` (the simulation engine sits below
//! every clocked component in the dependency graph); it is re-exported here
//! so `ia_dram::Cycle` keeps working for downstream crates.

use std::fmt;

pub use ia_sim::Cycle;

/// A physical memory byte address.
///
/// # Examples
///
/// ```
/// use ia_dram::PhysAddr;
/// let a = PhysAddr::new(0x4000);
/// assert_eq!(a.as_u64(), 0x4000);
/// assert_eq!(a.offset(64).as_u64(), 0x4040);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the address `bytes` past this one.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }

    /// Aligns the address down to a power-of-two boundary.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    #[must_use]
    pub fn align_down(self, align: u64) -> PhysAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        PhysAddr(self.0 & !(align - 1))
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Fully decoded coordinates of one column of one row within the device
/// hierarchy: channel → rank → bank group → bank → subarray → row → column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group index within the rank.
    pub bank_group: usize,
    /// Bank index within the bank group.
    pub bank: usize,
    /// Subarray index within the bank (derived from the row index).
    pub subarray: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (cache-line granule) index within the row.
    pub column: u64,
}

impl Location {
    /// Returns the flat bank index within the whole module
    /// (channel-major, then rank, bank group, bank).
    #[must_use]
    pub fn flat_bank(&self, geo: &crate::Geometry) -> usize {
        ((self.channel * geo.ranks + self.rank) * geo.bank_groups + self.bank_group)
            * geo.banks_per_group
            + self.bank
    }

    /// True if `other` names the same bank (ignoring row/column/subarray).
    #[must_use]
    pub fn same_bank(&self, other: &Location) -> bool {
        self.channel == other.channel
            && self.rank == other.rank
            && self.bank_group == other.bank_group
            && self.bank == other.bank
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}.rk{}.bg{}.bk{}.sa{}.row{}.col{}",
            self.channel,
            self.rank,
            self.bank_group,
            self.bank,
            self.subarray,
            self.row,
            self.column
        )
    }
}

/// The DRAM command set understood by the bank/rank state machines.
///
/// This mirrors the JEDEC command vocabulary plus the in-memory-compute
/// extensions used by the PUM crate (RowClone's back-to-back activate and
/// Ambit's triple-row activate are modelled as command sequences built from
/// these primitives by the PUM layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Activate (open) a row: latches the row into the row buffer.
    Activate {
        /// Row to open.
        row: u64,
    },
    /// Precharge (close) the currently open row.
    Precharge,
    /// Column read burst from the open row.
    Read {
        /// Column granule to read.
        column: u64,
    },
    /// Column write burst to the open row.
    Write {
        /// Column granule to write.
        column: u64,
    },
    /// Per-rank auto refresh.
    Refresh,
}

impl Command {
    /// Short mnemonic, matching datasheet vocabulary.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Command::Activate { .. } => "ACT",
            Command::Precharge => "PRE",
            Command::Read { .. } => "RD",
            Command::Write { .. } => "WR",
            Command::Refresh => "REF",
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Activate { row } => write!(f, "ACT(row={row})"),
            Command::Read { column } => write!(f, "RD(col={column})"),
            Command::Write { column } => write!(f, "WR(col={column})"),
            _ => f.write_str(self.mnemonic()),
        }
    }
}

/// Direction of a data access as seen by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load / read request.
    Read,
    /// A store / write request.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// Classification of a column access relative to the row-buffer state,
/// the key locality signal exploited by FR-FCFS-class schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowBufferOutcome {
    /// The needed row was already open: column access only.
    Hit,
    /// The bank was idle (no row open): activate then access.
    Miss,
    /// A different row was open: precharge, activate, then access.
    Conflict,
}

impl fmt::Display for RowBufferOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RowBufferOutcome::Hit => "row-hit",
            RowBufferOutcome::Miss => "row-miss",
            RowBufferOutcome::Conflict => "row-conflict",
        })
    }
}

/// Every command gate of one bank plus its open row, gathered in a
/// single walk of the channel/rank/bank hierarchy (see
/// [`crate::DramModule::bank_gates`]).
///
/// Each gate is the earliest legal issue cycle for that command kind at
/// the bank, with every level's constraint already folded in: bank-local
/// timing, the rank's refresh window and activate throttles (tRRD,
/// tFAW), and the channel's bus serialization and write-to-read
/// turnaround. Gate for gate equal to [`crate::DramModule::ready_at`] —
/// timing depends on the command kind, never its row/column operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGates {
    /// The open row, `None` when the bank is closed.
    pub open_row: Option<u64>,
    /// Earliest legal `Read`.
    pub read: Cycle,
    /// Earliest legal `Write`.
    pub write: Cycle,
    /// Earliest legal `Activate`.
    pub activate: Cycle,
    /// Earliest legal `Precharge`.
    pub precharge: Cycle,
}

impl BankGates {
    /// Recombines a bank's own gates with the gates its (channel, rank)
    /// shares with every other bank there. Equal, field for field, to
    /// [`crate::DramModule::bank_gates`] on the same state.
    #[must_use]
    pub fn combine(local: &LocalGates, shared: &SharedGates) -> BankGates {
        let column = local.column.max(shared.refresh_until);
        BankGates {
            open_row: local.open_row,
            read: column.max(shared.read),
            write: column.max(shared.write),
            activate: local
                .activate
                .max(shared.refresh_until)
                .max(shared.activate),
            precharge: local.precharge.max(shared.refresh_until),
        }
    }
}

/// The part of a bank's [`BankGates`] that only a command to that bank
/// changes (see [`crate::DramModule::local_gates`]): its open row and
/// its bank-local activate, precharge and column deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalGates {
    /// The open row, `None` when the bank is closed.
    pub open_row: Option<u64>,
    /// Bank-local activate deadline (tRC, tRP).
    pub activate: Cycle,
    /// Bank-local precharge deadline (tRAS, tRTP, write recovery).
    pub precharge: Cycle,
    /// Bank-local column deadline (tRCD, tCCD).
    pub column: Cycle,
}

/// The part of [`BankGates`] that every bank of one (channel, rank)
/// shares (see [`crate::DramModule::shared_gates`]). A command anywhere
/// on the channel can change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedGates {
    /// The rank is refreshing until this cycle; no command issues before.
    pub refresh_until: Cycle,
    /// The rank's activate throttle: tRRD and the tFAW window.
    pub activate: Cycle,
    /// The channel's data-bus gate for a read, write-to-read turnaround
    /// (tWTR) included.
    pub read: Cycle,
    /// The channel's data-bus gate for a write.
    pub write: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_align_down() {
        let a = PhysAddr::new(0x1234);
        assert_eq!(a.align_down(64).as_u64(), 0x1200);
        assert_eq!(a.align_down(1).as_u64(), 0x1234);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn phys_addr_align_down_rejects_non_power_of_two() {
        let _ = PhysAddr::new(0x100).align_down(48);
    }

    #[test]
    fn command_mnemonics() {
        assert_eq!(Command::Activate { row: 3 }.mnemonic(), "ACT");
        assert_eq!(Command::Precharge.mnemonic(), "PRE");
        assert_eq!(Command::Read { column: 0 }.mnemonic(), "RD");
        assert_eq!(Command::Write { column: 0 }.mnemonic(), "WR");
        assert_eq!(Command::Refresh.mnemonic(), "REF");
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert!(!format!("{}", PhysAddr::new(1)).is_empty());
        assert!(!format!("{}", Location::default()).is_empty());
        assert!(!format!("{}", Command::Refresh).is_empty());
        assert!(!format!("{}", AccessKind::Read).is_empty());
        assert!(!format!("{}", RowBufferOutcome::Conflict).is_empty());
    }

    #[test]
    fn same_bank_ignores_row_and_column() {
        let a = Location {
            row: 1,
            column: 2,
            ..Location::default()
        };
        let b = Location {
            row: 9,
            column: 7,
            subarray: 3,
            ..Location::default()
        };
        assert!(a.same_bank(&b));
        let c = Location {
            bank: 1,
            ..Location::default()
        };
        assert!(!a.same_bank(&c));
    }
}
