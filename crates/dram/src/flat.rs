//! Flat struct-of-arrays storage for per-bank protocol state.
//!
//! [`BankStates`] holds the open row and the per-command timing
//! deadlines of every bank in a rank as parallel arrays indexed by bank
//! id. The hot controller queries (`row_buffer_outcome`, `local_gates`)
//! walk contiguous memory instead of chasing one heap object per bank,
//! and the rank-wide refresh eligibility (`all_closed`) is one counter.
//!
//! The store only applies transitions; whether a command is legal is
//! decided once, by [`crate::DramModule`], from the gates.

use crate::{Command, Cycle, IssueOutcome, LocalGates, RowBufferOutcome, TimingParams};

/// Sentinel for "no row open". Activates are range-checked against
/// `rows_per_bank` before they reach the store, so `u64::MAX` is never a
/// real row.
const NO_ROW: u64 = u64::MAX;

/// Per-bank protocol state for a whole rank, stored struct-of-arrays.
///
/// Each array is indexed by the flat bank id within the rank. All
/// methods taking a `bank` index panic if it is out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BankStates {
    /// Open row per bank (`NO_ROW` = closed).
    open_row: Vec<u64>,
    /// Earliest legal activate (doubles as the refresh gate).
    next_act: Vec<Cycle>,
    /// Earliest legal precharge.
    next_pre: Vec<Cycle>,
    /// Earliest legal column command.
    next_col: Vec<Cycle>,
    /// Number of banks with an open row, kept in sync so rank-wide
    /// refresh eligibility is O(1) instead of a scan.
    open_banks: usize,
}

impl BankStates {
    /// Creates state for `banks` freshly powered-up banks: idle,
    /// everything legal at cycle zero.
    pub(crate) fn new(banks: usize) -> Self {
        BankStates {
            open_row: vec![NO_ROW; banks],
            next_act: vec![Cycle::ZERO; banks],
            next_pre: vec![Cycle::ZERO; banks],
            next_col: vec![Cycle::ZERO; banks],
            open_banks: 0,
        }
    }

    /// The currently open row of `bank`, if any.
    pub(crate) fn open_row(&self, bank: usize) -> Option<u64> {
        let row = self.open_row[bank];
        (row != NO_ROW).then_some(row)
    }

    /// True if no bank has an open row.
    pub(crate) fn all_closed(&self) -> bool {
        self.open_banks == 0
    }

    /// Classifies a prospective access to `row` of `bank` against the
    /// row buffer.
    pub(crate) fn row_buffer_outcome(&self, bank: usize, row: u64) -> RowBufferOutcome {
        match self.open_row[bank] {
            open if open == row => RowBufferOutcome::Hit,
            NO_ROW => RowBufferOutcome::Miss,
            _ => RowBufferOutcome::Conflict,
        }
    }

    /// The open row and bank-local deadlines of `bank` in one indexed
    /// load.
    pub(crate) fn local_gates(&self, bank: usize) -> LocalGates {
        LocalGates {
            open_row: self.open_row(bank),
            activate: self.next_act[bank],
            precharge: self.next_pre[bank],
            column: self.next_col[bank],
        }
    }

    /// Applies the state transition of `cmd` to `bank` at `now`. The
    /// caller has already checked that the command is legal. A
    /// [`Command::Refresh`] is rank-wide: it closes every bank.
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
                self.open_row[bank] = row;
                self.open_banks += 1;
                self.next_col[bank] = now + timing.t_rcd;
                self.next_pre[bank] = now + timing.t_ras;
                self.next_act[bank] = now + timing.t_rc();
            }
            Command::Precharge => {
                self.open_row[bank] = NO_ROW;
                self.open_banks -= 1;
                self.next_act[bank] = self.next_act[bank].max(now + timing.t_rp);
            }
            Command::Read { .. } => {
                out.data_ready = Some(now + timing.t_cl + timing.t_bl);
                self.next_col[bank] = now + timing.t_ccd;
                self.next_pre[bank] = self.next_pre[bank].max(now + timing.t_rtp);
            }
            Command::Write { .. } => {
                let data_end = now + timing.t_cwl + timing.t_bl;
                out.data_ready = Some(data_end);
                self.next_col[bank] = now + timing.t_ccd;
                self.next_pre[bank] = self.next_pre[bank].max(data_end + timing.t_wr);
            }
            Command::Refresh => {
                // The rank's blackout gates every command from here on
                // (see `command_gate`); the banks just close.
                self.open_row.fill(NO_ROW);
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
