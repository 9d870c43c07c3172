//! Rank-level state: activate throttling (tRRD, tFAW) and refresh.

use crate::flat::BankStates;
use crate::types::command_gate;
use crate::{
    Command, Cycle, IssueOutcome, LocalGates, RowBufferOutcome, SharedGates, TimingParams,
};

/// Fixed-size ring of the most recent activate issue times, sized to the
/// tFAW window (four activates). Replaces an unbounded `VecDeque`: the
/// gate only ever needs the oldest of the last four activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActWindow {
    slots: [Cycle; 4],
    total: u64,
}

impl ActWindow {
    fn new() -> Self {
        ActWindow {
            slots: [Cycle::ZERO; 4],
            total: 0,
        }
    }

    fn push(&mut self, now: Cycle) {
        self.slots[(self.total % 4) as usize] = now;
        self.total += 1;
    }

    /// With 4 activates inside the window, the next is legal tFAW after
    /// the oldest of the last 4.
    fn gate(&self, timing: &TimingParams) -> Cycle {
        if self.total >= 4 {
            self.slots[(self.total % 4) as usize] + timing.t_faw
        } else {
            Cycle::ZERO
        }
    }
}

/// A rank: a set of banks sharing activate-rate limits and refresh.
///
/// Bank state is one record per bank (see [`BankStates`]), so a
/// command's timing query reads one cache line of its bank.
#[derive(Debug, Clone)]
pub(crate) struct Rank {
    banks: BankStates,
    /// Issue times of recent activates (the tFAW window).
    recent_acts: ActWindow,
    /// The activate throttle: earliest next activate under tRRD and
    /// tFAW, set when an activate issues.
    activate_gate: Cycle,
    /// Rank busy (refreshing) until this cycle.
    refresh_until: Cycle,
}

impl Rank {
    /// Creates a rank with `banks` idle banks.
    pub(crate) fn new(banks: usize) -> Self {
        Rank {
            banks: BankStates::new(banks),
            recent_acts: ActWindow::new(),
            activate_gate: Cycle::ZERO,
            refresh_until: Cycle::ZERO,
        }
    }

    /// The open row in `bank`, if any.
    pub(crate) fn open_row(&self, bank: usize) -> Option<u64> {
        self.banks.open_row(bank)
    }

    /// Row-buffer classification of a prospective access to `row` of
    /// `bank`.
    pub(crate) fn row_buffer_outcome(&self, bank: usize, row: u64) -> RowBufferOutcome {
        self.banks.row_buffer_outcome(bank, row)
    }

    /// True if no bank has an open row.
    pub(crate) fn all_banks_closed(&self) -> bool {
        self.banks.all_closed()
    }

    /// The cycle until which the whole rank is blocked by an in-progress
    /// refresh (tRFC).
    pub(crate) fn busy_until(&self) -> Cycle {
        self.refresh_until
    }

    /// The open row and bank-local gates of `bank`: the part of its
    /// gates no command to another bank can change.
    pub(crate) fn local_gates(&self, bank: usize) -> LocalGates {
        self.banks.local_gates(bank)
    }

    /// The earliest cycle a refresh of this rank can issue: every bank
    /// past its activate gate, folded with the rank's `shared` gates.
    pub(crate) fn refresh_gate(&self, shared: &SharedGates) -> Cycle {
        (0..self.banks.bank_count())
            .map(|bank| command_gate(&self.banks.local_gates(bank), shared, &Command::Refresh))
            .fold(Cycle::ZERO, Cycle::max)
    }

    /// The rank's activate throttle: tRRD after the last activate and
    /// the tFAW window over the last four.
    pub(crate) fn activate_gate(&self) -> Cycle {
        self.activate_gate
    }

    /// Applies the state transition of a legal `cmd` to `bank` at `now`.
    /// A [`Command::Refresh`] is rank-wide and blocks the rank for tRFC.
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> IssueOutcome {
        match cmd {
            Command::Activate { .. } => {
                self.recent_acts.push(now);
                self.activate_gate = (now + timing.t_rrd).max(self.recent_acts.gate(timing));
            }
            Command::Refresh => self.refresh_until = now + timing.t_rfc,
            _ => {}
        }
        self.banks.apply(bank, cmd, now, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn timing() -> TimingParams {
        DramConfig::ddr3_1600().timing
    }

    #[test]
    fn trrd_gates_cross_bank_activates() {
        let t = timing();
        let mut rank = Rank::new(8);
        rank.apply(0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        assert_eq!(rank.activate_gate(), Cycle::new(t.t_rrd));
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let t = timing();
        let mut rank = Rank::new(8);
        let mut now = Cycle::ZERO;
        for b in 0..4 {
            now = rank.activate_gate().max(rank.local_gates(b).activate);
            rank.apply(b, Command::Activate { row: 0 }, now, &t);
        }
        // Fifth activate must wait until tFAW after the first.
        let fifth_ready = rank.activate_gate();
        assert_eq!(fifth_ready, Cycle::new(t.t_faw));
        assert!(fifth_ready > now, "tFAW stricter than tRRD for DDR3 parts");
    }

    #[test]
    fn tfaw_window_slides_past_the_oldest_activate() {
        let t = timing();
        let mut rank = Rank::new(8);
        for b in 0..6 {
            let at = rank.activate_gate();
            rank.apply(b, Command::Activate { row: 0 }, at, &t);
        }
        // The seventh activate is gated by the fourth-most-recent (index
        // 3), not the very first: the fixed ring must slide.
        assert!(
            rank.activate_gate() > Cycle::new(t.t_faw),
            "window must keep sliding"
        );
    }

    #[test]
    fn refresh_closes_banks_and_blocks_rank() {
        let t = timing();
        let mut rank = Rank::new(2);
        rank.apply(0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        rank.apply(0, Command::Precharge, Cycle::new(t.t_ras), &t);
        let ref_at = Cycle::new(t.t_rc());
        rank.apply(0, Command::Refresh, ref_at, &t);
        assert!(rank.all_banks_closed());
        assert_eq!(rank.busy_until(), ref_at + t.t_rfc);
    }
}
