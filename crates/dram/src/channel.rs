//! Channel-level constraints: the shared command/data bus.

use crate::error::{IssueError, IssueErrorReason};
use crate::{AccessKind, BankGates, Command, Cycle, IssueOutcome, Rank, SharedGates, TimingParams};

/// A channel: ranks sharing one command/address/data bus.
///
/// The channel enforces data-bus serialization between column commands
/// (bursts are `tBL` long) and the write-to-read turnaround `tWTR`.
///
/// # Examples
///
/// ```
/// use ia_dram::{Channel, Command, Cycle, DramConfig};
/// let cfg = DramConfig::ddr3_1600();
/// let mut ch = Channel::new(cfg.geometry.ranks, cfg.geometry.banks_per_rank());
/// ch.issue(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &cfg.timing)?;
/// # Ok::<(), ia_dram::IssueError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    ranks: Vec<Rank>,
    /// Earliest cycle the next column command may be issued (bus gap).
    next_col: Cycle,
    /// Kind of the last column operation, for turnaround penalties.
    last_col: Option<AccessKind>,
    /// When the last column operation's data burst finishes.
    last_data_end: Cycle,
}

impl Channel {
    /// Creates a channel with `ranks` ranks of `banks_per_rank` banks.
    #[must_use]
    pub fn new(ranks: usize, banks_per_rank: usize) -> Self {
        Channel {
            ranks: (0..ranks).map(|_| Rank::new(banks_per_rank)).collect(),
            next_col: Cycle::ZERO,
            last_col: None,
            last_data_end: Cycle::ZERO,
        }
    }

    /// Number of ranks on the channel.
    #[must_use]
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Immutable view of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn rank(&self, rank: usize) -> &Rank {
        &self.ranks[rank]
    }

    /// Mutable view of a rank (for refresh policies that need direct access).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank_mut(&mut self, rank: usize) -> &mut Rank {
        &mut self.ranks[rank]
    }

    /// Earliest cycle the shared data bus can accept another column
    /// command (ignoring turnaround penalties). A next-event hint for the
    /// simulation engine.
    #[must_use]
    pub fn bus_free_at(&self) -> Cycle {
        self.next_col
    }

    fn bus_gate(&self, cmd: &Command, timing: &TimingParams) -> Cycle {
        match cmd {
            Command::Read { .. } => {
                let mut gate = self.next_col;
                if self.last_col == Some(AccessKind::Write) {
                    // Write data must drain, then tWTR, before a read command.
                    gate = gate.max(self.last_data_end + timing.t_wtr);
                }
                gate
            }
            Command::Write { .. } => self.next_col,
            _ => Cycle::ZERO,
        }
    }

    /// Earliest cycle at which `cmd` satisfies bank, rank, and bus timing.
    #[must_use]
    pub fn ready_at(
        &self,
        rank: usize,
        bank: usize,
        cmd: &Command,
        timing: &TimingParams,
    ) -> Cycle {
        self.ranks[rank]
            .ready_at(bank, cmd, timing)
            .max(self.bus_gate(cmd, timing))
    }

    /// The open row and every command gate of `(rank, bank)` in one
    /// hierarchy walk, bus constraints included. Gate for gate equal to
    /// [`Channel::ready_at`] per command kind.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `bank` is out of range.
    #[must_use]
    pub fn bank_gates(&self, rank: usize, bank: usize, timing: &TimingParams) -> BankGates {
        let (open_row, activate, precharge, col) = self.ranks[rank].bank_gates(bank, timing);
        let write = col.max(self.next_col);
        let read = if self.last_col == Some(AccessKind::Write) {
            // Write data must drain, then tWTR, before a read command.
            write.max(self.last_data_end + timing.t_wtr)
        } else {
            write
        };
        BankGates {
            open_row,
            read,
            write,
            activate,
            precharge,
        }
    }

    /// The gates every bank of `rank` shares: the rank's refresh
    /// blackout and activate throttle, and this channel's data-bus gates.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn shared_gates(&self, rank: usize, timing: &TimingParams) -> SharedGates {
        let r = &self.ranks[rank];
        SharedGates {
            refresh_until: r.busy_until(),
            activate: r.activate_gate(timing),
            read: self.bus_gate(&Command::Read { column: 0 }, timing),
            write: self.next_col,
        }
    }

    /// True if `cmd` is legal at `now` across all levels.
    #[must_use]
    pub fn can_issue(
        &self,
        rank: usize,
        bank: usize,
        cmd: &Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> bool {
        now >= self.bus_gate(cmd, timing) && self.ranks[rank].can_issue(bank, cmd, now, timing)
    }

    /// Issues `cmd` at `now`, updating bus state on column commands.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] on a timing or protocol violation at any
    /// level of the hierarchy.
    pub fn issue(
        &mut self,
        rank: usize,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> Result<IssueOutcome, IssueError> {
        if rank >= self.ranks.len() {
            return Err(IssueError::new(cmd, now, IssueErrorReason::OutOfRange));
        }
        let gate = self.bus_gate(&cmd, timing);
        if now < gate {
            return Err(IssueError::new(cmd, now, IssueErrorReason::TooEarly(gate)));
        }
        let out = self.ranks[rank].issue(bank, cmd, now, timing)?;
        match cmd {
            Command::Read { .. } => {
                self.next_col = now + timing.t_bl.max(timing.t_ccd);
                self.last_col = Some(AccessKind::Read);
                self.last_data_end = out.data_ready.unwrap_or(now);
            }
            Command::Write { .. } => {
                self.next_col = now + timing.t_bl.max(timing.t_ccd);
                self.last_col = Some(AccessKind::Write);
                self.last_data_end = out.data_ready.unwrap_or(now);
            }
            _ => {}
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn setup() -> (Channel, TimingParams) {
        let cfg = DramConfig::ddr3_1600();
        (Channel::new(2, cfg.geometry.banks_per_rank()), cfg.timing)
    }

    #[test]
    fn bus_serializes_reads_across_ranks() {
        let (mut ch, t) = setup();
        ch.issue(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        ch.issue(1, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let rd0 = ch.ready_at(0, 0, &Command::Read { column: 0 }, &t);
        ch.issue(0, 0, Command::Read { column: 0 }, rd0, &t)
            .unwrap();
        // Read on the other rank shares the data bus: must wait the burst gap.
        let rd1 = ch.ready_at(1, 0, &Command::Read { column: 0 }, &t);
        assert!(rd1 >= rd0 + t.t_bl.max(t.t_ccd));
        ch.issue(1, 0, Command::Read { column: 0 }, rd1, &t)
            .unwrap();
    }

    #[test]
    fn write_to_read_turnaround() {
        let (mut ch, t) = setup();
        ch.issue(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let wr = ch.ready_at(0, 0, &Command::Write { column: 0 }, &t);
        let out = ch
            .issue(0, 0, Command::Write { column: 0 }, wr, &t)
            .unwrap();
        let data_end = out.data_ready.unwrap();
        let rd = ch.ready_at(0, 0, &Command::Read { column: 1 }, &t);
        assert!(
            rd >= data_end + t.t_wtr,
            "tWTR must separate WR data from the next RD"
        );
    }

    #[test]
    fn activates_ignore_the_data_bus() {
        let (mut ch, t) = setup();
        ch.issue(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let rd = ch.ready_at(0, 0, &Command::Read { column: 0 }, &t);
        ch.issue(0, 0, Command::Read { column: 0 }, rd, &t).unwrap();
        // An activate on the other rank can go immediately (no bus conflict).
        assert!(ch.can_issue(1, 0, &Command::Activate { row: 0 }, rd, &t));
    }

    #[test]
    fn out_of_range_rank() {
        let (mut ch, t) = setup();
        let err = ch
            .issue(9, 0, Command::Precharge, Cycle::ZERO, &t)
            .unwrap_err();
        assert_eq!(err.reason(), IssueErrorReason::OutOfRange);
    }

    #[test]
    fn ready_at_never_lies() {
        // Whatever ready_at returns must be issuable at exactly that cycle.
        let (mut ch, t) = setup();
        let cmds = [
            (0usize, 0usize, Command::Activate { row: 3 }),
            (0, 0, Command::Read { column: 0 }),
            (0, 1, Command::Activate { row: 1 }),
            (0, 1, Command::Write { column: 2 }),
            (0, 0, Command::Read { column: 1 }),
            (0, 1, Command::Precharge),
            (0, 0, Command::Precharge),
        ];
        for (rank, bank, cmd) in cmds {
            let at = ch.ready_at(rank, bank, &cmd, &t);
            ch.issue(rank, bank, cmd, at, &t)
                .unwrap_or_else(|e| panic!("{cmd} not issuable at its own ready_at: {e}"));
        }
    }
}
