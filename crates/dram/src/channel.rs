//! Channel-level state: the shared command/data bus.

use crate::rank::Rank;
use crate::{Command, Cycle, IssueOutcome, LocalGates, SharedGates, TimingParams};

/// A channel: ranks sharing one command/address/data bus.
///
/// The channel tracks data-bus serialization between column commands
/// (bursts are `tBL` long) and the write-to-read turnaround `tWTR`.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    ranks: Vec<Rank>,
    /// Earliest legal read: the burst gap after the last column
    /// command, and tWTR after the end of a write's data burst.
    read_gate: Cycle,
    /// Earliest legal write: the burst gap after the last column
    /// command.
    write_gate: Cycle,
}

impl Channel {
    /// Creates a channel with `ranks` ranks of `banks_per_rank` banks.
    pub(crate) fn new(ranks: usize, banks_per_rank: usize) -> Self {
        Channel {
            ranks: (0..ranks).map(|_| Rank::new(banks_per_rank)).collect(),
            read_gate: Cycle::ZERO,
            write_gate: Cycle::ZERO,
        }
    }

    /// Immutable view of a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub(crate) fn rank(&self, rank: usize) -> &Rank {
        &self.ranks[rank]
    }

    /// The gates every bank of `rank` shares: the rank's refresh
    /// blackout and activate throttle, and this channel's data-bus
    /// gates, the write-to-read turnaround included.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub(crate) fn shared_gates(&self, rank: usize) -> SharedGates {
        self.shared_of(&self.ranks[rank])
    }

    /// The bank-local gates of `bank` in `rank` and the gates every bank
    /// of `rank` shares, from one rank lookup: everything a command to
    /// that bank is gated by.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `bank` is out of range.
    pub(crate) fn gates(&self, rank: usize, bank: usize) -> (LocalGates, SharedGates) {
        let r = &self.ranks[rank];
        (r.local_gates(bank), self.shared_of(r))
    }

    fn shared_of(&self, r: &Rank) -> SharedGates {
        SharedGates {
            refresh_until: r.busy_until(),
            activate: r.activate_gate(),
            read: self.read_gate,
            write: self.write_gate,
        }
    }

    /// Applies the state transition of a legal `cmd` at `now`; a column
    /// command sets the data-bus gates. Always inlined into the issue
    /// path, like `DramModule::commit` and the rank's and bank store's
    /// `apply`, so the outcome stays in registers.
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        rank: usize,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> IssueOutcome {
        let out = self.ranks[rank].apply(bank, cmd, now, timing);
        let gap = now + timing.t_bl.max(timing.t_ccd);
        match cmd {
            Command::Read { .. } => {
                self.read_gate = gap;
                self.write_gate = gap;
            }
            Command::Write { .. } => {
                // Write data must drain, then tWTR, before a read command.
                let data_end = out.data_ready.unwrap_or(now);
                self.read_gate = gap.max(data_end + timing.t_wtr);
                self.write_gate = gap;
            }
            _ => {}
        }
        out
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
        ch.apply(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        ch.apply(1, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        let rd0 = Cycle::new(t.t_rcd);
        ch.apply(0, 0, Command::Read { column: 0 }, rd0, &t);
        // The other rank shares the data bus: it waits the burst gap.
        assert_eq!(ch.shared_gates(1).read, rd0 + t.t_bl.max(t.t_ccd));
    }

    #[test]
    fn write_to_read_turnaround() {
        let (mut ch, t) = setup();
        ch.apply(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        let wr = Cycle::new(t.t_rcd);
        let out = ch.apply(0, 0, Command::Write { column: 0 }, wr, &t);
        let data_end = out.data_ready.unwrap();
        let gates = ch.shared_gates(0);
        assert_eq!(gates.read, data_end + t.t_wtr, "tWTR after WR data");
        assert_eq!(gates.write, wr + t.t_bl.max(t.t_ccd), "no tWTR for WR");
    }

    #[test]
    fn activates_ignore_the_data_bus() {
        let (mut ch, t) = setup();
        ch.apply(0, 0, Command::Activate { row: 0 }, Cycle::ZERO, &t);
        ch.apply(0, 0, Command::Read { column: 0 }, Cycle::new(t.t_rcd), &t);
        // The other rank's activate throttle is untouched by the burst.
        assert_eq!(ch.shared_gates(1).activate, Cycle::ZERO);
    }
}
