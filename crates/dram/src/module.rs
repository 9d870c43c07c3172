//! The top-level DRAM module: channels + mapping + stats + energy, with a
//! Ramulator-style fine-grained command interface and an open-page
//! convenience interface.

use ia_trace::{ComponentTrace, Tracer};

use crate::channel::Channel;
use crate::error::{ConfigError, IssueError, IssueErrorReason};
use crate::latency::{ChargeCacheState, LatencyMode};
use crate::types::command_gate;
use crate::{
    AccessKind, AddressMapping, BankGates, Command, Cycle, DramConfig, DramStats, EnergyCounter,
    IssueOutcome, LocalGates, Location, PhysAddr, RowBufferOutcome, SharedGates, TimingParams,
};

/// Result of a full open-page access performed by [`DramModule::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the column command was issued.
    pub issued_at: Cycle,
    /// Cycle at which the data burst completed.
    pub data_ready: Cycle,
    /// How the access met the row buffer.
    pub outcome: RowBufferOutcome,
}

/// A complete simulated DRAM module.
///
/// Two interfaces are offered:
///
/// * the **command interface** ([`probe_next`](DramModule::probe_next),
///   [`next_needed`](DramModule::next_needed),
///   [`ready_at`](DramModule::ready_at), [`issue`](DramModule::issue)) used
///   by the `ia-memctrl` schedulers: `probe_next` answers `next_needed`
///   and that command's `ready_at` from one read of the bank, and
///   `issue` checks a command against one read of it, and
/// * the **access interface** ([`access`](DramModule::access)) which plays
///   an open-page controller for callers that do not care about scheduling.
///
/// # Examples
///
/// ```
/// use ia_dram::{AccessKind, Cycle, DramConfig, DramModule, PhysAddr};
/// let mut dram = DramModule::new(DramConfig::ddr3_1600())?;
/// let r = dram.access(PhysAddr::new(0x1000), AccessKind::Read, Cycle::ZERO)?;
/// assert!(r.data_ready > Cycle::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DramModule {
    config: DramConfig,
    mapping: AddressMapping,
    channels: Vec<Channel>,
    stats: DramStats,
    energy: EnergyCounter,
    latency: LatencyMode,
    charge_cache: ChargeCacheState,
    tracer: Tracer,
}

impl DramModule {
    /// Creates a module from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: DramConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let channels = (0..config.geometry.channels)
            .map(|_| Channel::new(config.geometry.ranks, config.geometry.banks_per_rank()))
            .collect();
        Ok(DramModule {
            config,
            mapping: AddressMapping::default(),
            channels,
            stats: DramStats::new(),
            energy: EnergyCounter::new(),
            latency: LatencyMode::Standard,
            charge_cache: ChargeCacheState::new(),
            tracer: Tracer::disabled(),
        })
    }

    /// Enables `ia-trace` instant recording of issued commands
    /// (`bank.act`/`bank.pre`/`bank.rd`/`bank.wr`/`bank.ref`) on track
    /// `"dram"`. Off by default; one branch per issued command.
    pub fn enable_cycle_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::new("dram", capacity);
    }

    /// Drains the module's `ia-trace` recording (empty unless
    /// [`enable_cycle_trace`](DramModule::enable_cycle_trace) was called).
    #[must_use]
    pub fn take_cycle_trace(&mut self) -> ComponentTrace {
        self.tracer.take()
    }

    /// Sets the latency mode.
    #[must_use]
    pub fn with_latency_mode(mut self, mode: LatencyMode) -> Self {
        self.latency = mode;
        self
    }

    /// The module configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The active address mapping.
    #[must_use]
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Accumulated command statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Accumulated energy.
    #[must_use]
    pub fn energy(&self) -> &EnergyCounter {
        &self.energy
    }

    /// ChargeCache hit rate (zero unless that latency mode is active).
    #[must_use]
    pub fn charge_cache_hit_rate(&self) -> f64 {
        self.charge_cache.hit_rate()
    }

    /// Decodes a physical address to device coordinates.
    #[must_use]
    pub fn decode(&self, addr: PhysAddr) -> Location {
        self.mapping.decode(addr, &self.config.geometry)
    }

    /// The open row in the bank addressed by `loc`, if any.
    #[must_use]
    pub fn open_row(&self, loc: &Location) -> Option<u64> {
        self.channels[loc.channel]
            .rank(loc.rank)
            .open_row(self.bank_index(loc))
    }

    fn bank_index(&self, loc: &Location) -> usize {
        loc.bank_group * self.config.geometry.banks_per_group + loc.bank
    }

    /// The next command required to serve an access to `loc`, under
    /// open-page bank management.
    #[must_use]
    pub fn next_needed(&self, loc: &Location, kind: AccessKind) -> Command {
        next_command(self.open_row(loc), loc, kind)
    }

    /// [`DramModule::next_needed`] and the cycle it becomes issuable
    /// ([`DramModule::ready_at`] of that command), from one read of the
    /// bank's [`LocalGates`] and its rank's [`SharedGates`]: the
    /// wake-up bound and the issue probe of an in-order policy, which
    /// serves only the oldest queued request.
    #[must_use]
    pub fn probe_next(&self, loc: &Location, kind: AccessKind) -> (Command, Cycle) {
        let (local, shared) = self.channels[loc.channel].gates(loc.rank, self.bank_index(loc));
        let cmd = next_command(local.open_row, loc, kind);
        (cmd, command_gate(&local, &shared, &cmd))
    }

    /// Row-buffer classification of a prospective access to `loc`.
    #[must_use]
    pub fn row_buffer_outcome(&self, loc: &Location) -> RowBufferOutcome {
        self.channels[loc.channel]
            .rank(loc.rank)
            .row_buffer_outcome(self.bank_index(loc), loc.row)
    }

    /// Timing parameters in effect for an activate of `loc.row` at `now`
    /// (reduced under AL-DRAM, or on a ChargeCache hit).
    fn effective_timing(&mut self, loc: &Location, cmd: &Command, now: Cycle) -> TimingParams {
        let nominal = self.config.timing;
        match (self.latency, cmd) {
            (LatencyMode::AlDram { scale }, _) => LatencyMode::scaled(&nominal, scale),
            (LatencyMode::ChargeCache { window, scale, .. }, Command::Activate { row }) => {
                let bank = loc.flat_bank(&self.config.geometry);
                if self.charge_cache.lookup(bank, *row, now, window) {
                    LatencyMode::scaled(&nominal, scale)
                } else {
                    nominal
                }
            }
            (
                LatencyMode::TieredLatency {
                    near_fraction,
                    near_scale,
                    far_scale,
                },
                Command::Activate { row },
            ) => {
                let near_rows = (self.config.geometry.rows_per_bank as f64 * near_fraction) as u64;
                if *row < near_rows {
                    LatencyMode::scaled(&nominal, near_scale)
                } else {
                    LatencyMode::scaled(&nominal, far_scale)
                }
            }
            _ => nominal,
        }
    }

    /// The open row and every command gate of the bank addressed by
    /// `loc`: [`BankGates::combine`] of its [`DramModule::local_gates`]
    /// and its (channel, rank)'s [`DramModule::shared_gates`]. The
    /// scheduler's per-bank fast path: one probe answers what would
    /// otherwise take four [`DramModule::ready_at`] calls.
    #[must_use]
    pub fn bank_gates(&self, loc: &Location) -> BankGates {
        BankGates::combine(
            &self.local_gates(loc),
            &self.shared_gates(loc.channel, loc.rank),
        )
    }

    /// The part of [`DramModule::bank_gates`] that only a command to
    /// this bank changes: its open row and bank-local deadlines.
    #[must_use]
    pub fn local_gates(&self, loc: &Location) -> LocalGates {
        self.channels[loc.channel]
            .rank(loc.rank)
            .local_gates(self.bank_index(loc))
    }

    /// The part of [`DramModule::bank_gates`] that every bank of
    /// `(channel, rank)` shares: refresh blackout, tRRD/tFAW, and the
    /// channel's data-bus gates with tWTR. A command to any bank of the
    /// channel, or a refresh of the rank, can change it.
    #[must_use]
    pub fn shared_gates(&self, channel: usize, rank: usize) -> SharedGates {
        self.channels[channel].shared_gates(rank)
    }

    /// Earliest cycle at which `cmd` for `loc` satisfies all timing: the
    /// [`DramModule::bank_gates`] entry for the command's kind. A
    /// refresh waits until every bank of the rank is past its activate
    /// gate and the rank's refresh blackout.
    #[must_use]
    pub fn ready_at(&self, loc: &Location, cmd: &Command) -> Cycle {
        let channel = &self.channels[loc.channel];
        match cmd {
            Command::Refresh => channel
                .rank(loc.rank)
                .refresh_gate(&channel.shared_gates(loc.rank)),
            _ => {
                let (local, shared) = channel.gates(loc.rank, self.bank_index(loc));
                command_gate(&local, &shared, cmd)
            }
        }
    }

    /// Checks `loc`, and an activate's row, against the geometry.
    fn check_range(&self, loc: &Location, cmd: Command, now: Cycle) -> Result<(), IssueError> {
        let geo = &self.config.geometry;
        let in_range = loc.channel < geo.channels
            && loc.rank < geo.ranks
            && loc.bank_group < geo.bank_groups
            && loc.bank < geo.banks_per_group
            && match cmd {
                Command::Activate { row } => row < geo.rows_per_bank,
                _ => true,
            };
        if in_range {
            Ok(())
        } else {
            Err(IssueError::new(cmd, now, IssueErrorReason::OutOfRange))
        }
    }

    /// Validates `cmd` for the in-range `loc` at `now` against the bank
    /// and rank protocol state, then against its gate (what
    /// [`DramModule::ready_at`] returns), both from one read of the
    /// bank, and applies its state transition with `timing`. No
    /// statistics, energy or trace accounting. Always
    /// inlined: returned through memory, its `Result` cost `issue` a
    /// stalled reload on every command.
    #[inline(always)]
    fn commit(
        &mut self,
        loc: &Location,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> Result<IssueOutcome, IssueError> {
        let bank = self.bank_index(loc);
        let channel = &mut self.channels[loc.channel];
        let (local, shared) = channel.gates(loc.rank, bank);
        let open = local.open_row.is_some();
        let rank = channel.rank(loc.rank);
        let protocol = match cmd {
            Command::Activate { .. } if open => Err(IssueErrorReason::BankAlreadyOpen),
            Command::Precharge | Command::Read { .. } | Command::Write { .. } if !open => {
                Err(IssueErrorReason::BankClosed)
            }
            Command::Refresh if !rank.all_banks_closed() => Err(IssueErrorReason::RankNotIdle),
            _ => Ok(()),
        };
        protocol.map_err(|reason| IssueError::new(cmd, now, reason))?;
        let ready = match cmd {
            Command::Refresh => rank.refresh_gate(&shared),
            _ => command_gate(&local, &shared, &cmd),
        };
        if now < ready {
            return Err(IssueError::new(cmd, now, IssueErrorReason::TooEarly(ready)));
        }
        Ok(channel.apply(loc.rank, bank, cmd, now, timing))
    }

    /// Issues `cmd` for `loc` at `now`, updating stats and energy.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] on any protocol or timing violation, and
    /// [`IssueErrorReason::OutOfRange`] if `loc`'s bank or an activate's
    /// row lies outside the geometry.
    pub fn issue(
        &mut self,
        loc: &Location,
        cmd: Command,
        now: Cycle,
    ) -> Result<IssueOutcome, IssueError> {
        self.check_range(loc, cmd, now)?;
        // Reduced-latency modes scale only tRCD/tRAS/tRP, which the
        // transition stores as deadlines; the gates checked in `commit`
        // use none of them at query time.
        let timing = self.effective_timing(loc, &cmd, now);
        // ChargeCache remembers the row a precharge closes; only then is
        // the row read before the command.
        let closing = match (self.latency, cmd) {
            (
                LatencyMode::ChargeCache {
                    entries_per_bank, ..
                },
                Command::Precharge,
            ) => self.open_row(loc).map(|row| (row, entries_per_bank)),
            _ => None,
        };
        let out = self.commit(loc, cmd, now, &timing)?;
        if self.tracer.is_enabled() {
            let name = match cmd {
                Command::Activate { .. } => "bank.act",
                Command::Read { .. } => "bank.rd",
                Command::Write { .. } => "bank.wr",
                Command::Refresh => "bank.ref",
                Command::Precharge => "bank.pre",
            };
            self.tracer.instant(name, now.as_u64());
        }
        self.energy
            .record(&cmd, self.config.geometry.column_bytes, &self.config.energy);
        match cmd {
            Command::Activate { .. } => self.stats.activates += 1,
            Command::Precharge => {
                self.stats.precharges += 1;
                if let Some((row, entries_per_bank)) = closing {
                    let bank = loc.flat_bank(&self.config.geometry);
                    self.charge_cache
                        .note_close(bank, row, now, entries_per_bank);
                }
            }
            Command::Read { .. } => self.stats.reads += 1,
            Command::Write { .. } => self.stats.writes += 1,
            Command::Refresh => self.stats.refreshes += 1,
        }
        Ok(out)
    }

    /// Performs a complete access to `addr` no earlier than `earliest`,
    /// acting as an open-page controller: precharge and/or activate as
    /// needed, then issue the column command at the first legal cycle.
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`]; with correct internal sequencing this
    /// only occurs on geometry violations.
    pub fn access(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        earliest: Cycle,
    ) -> Result<AccessResult, IssueError> {
        let loc = self.decode(addr);
        self.access_loc(&loc, kind, earliest)
    }

    /// [`DramModule::access`] with pre-decoded coordinates.
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] from command issue.
    fn access_loc(
        &mut self,
        loc: &Location,
        kind: AccessKind,
        earliest: Cycle,
    ) -> Result<AccessResult, IssueError> {
        let outcome = self.row_buffer_outcome(loc);
        self.stats.record_outcome(outcome);
        loop {
            let (cmd, gate) = self.probe_next(loc, kind);
            let at = gate.max(earliest);
            let out = self.issue(loc, cmd, at)?;
            if let Some(data_ready) = out.data_ready {
                return Ok(AccessResult {
                    issued_at: at,
                    data_ready,
                    outcome,
                });
            }
        }
    }

    /// Issues a rank refresh at the first legal cycle at or after
    /// `earliest`, precharging any open banks first. Returns the cycle at
    /// which the refresh completes (rank usable again).
    ///
    /// # Errors
    ///
    /// Propagates [`IssueError`] from command issue.
    pub fn refresh_rank(
        &mut self,
        channel: usize,
        rank: usize,
        earliest: Cycle,
    ) -> Result<Cycle, IssueError> {
        let timing = self.config.timing;
        let geo = self.config.geometry;
        let mut loc = Location {
            channel,
            rank,
            ..Location::default()
        };
        self.check_range(&loc, Command::Refresh, earliest)?;
        // Close any open banks.
        for bank in 0..geo.banks_per_rank() {
            loc.bank_group = bank / geo.banks_per_group;
            loc.bank = bank % geo.banks_per_group;
            if self.open_row(&loc).is_some() {
                let at = self.ready_at(&loc, &Command::Precharge).max(earliest);
                self.commit(&loc, Command::Precharge, at, &timing)?;
                self.stats.precharges += 1;
            }
        }
        let at = self.ready_at(&loc, &Command::Refresh).max(earliest);
        self.commit(&loc, Command::Refresh, at, &timing)?;
        self.stats.refreshes += 1;
        self.energy
            .record(&Command::Refresh, 0, &self.config.energy);
        Ok(at + timing.t_rfc)
    }

    /// Mutable access to the energy counter (PUM operations account their
    /// own internal bursts).
    pub fn energy_mut(&mut self) -> &mut EnergyCounter {
        &mut self.energy
    }

    /// Mutable access to the stats counter (for composite operations).
    pub fn stats_mut(&mut self) -> &mut DramStats {
        &mut self.stats
    }
}

/// The open-page next command for an access of `kind` to `loc` in a
/// bank whose open row is `open_row`: the column command on a row hit,
/// an activate when the bank is closed, a precharge on a conflict.
fn next_command(open_row: Option<u64>, loc: &Location, kind: AccessKind) -> Command {
    match open_row {
        Some(row) if row == loc.row => match kind {
            AccessKind::Read => Command::Read { column: loc.column },
            AccessKind::Write => Command::Write { column: loc.column },
        },
        Some(_) => Command::Precharge,
        None => Command::Activate { row: loc.row },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_trace::TraceEvent;

    fn module() -> DramModule {
        DramModule::new(DramConfig::ddr3_1600()).expect("valid preset")
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut dram = module();
        let r = dram
            .access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(r.outcome, RowBufferOutcome::Miss);
        let t = dram.config().timing;
        assert_eq!(r.data_ready, Cycle::new(t.t_rcd + t.t_cl + t.t_bl));
        assert_eq!(dram.stats().activates, 1);
        assert_eq!(dram.stats().reads, 1);
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let r = dram
            .access(PhysAddr::new(64), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(r.outcome, RowBufferOutcome::Hit);
        assert_eq!(dram.stats().activates, 1, "no second activate");
    }

    #[test]
    fn conflicting_row_precharges_first() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        // Same bank, different row (row-interleaved: one full row stride × banks).
        let geo = dram.config().geometry;
        let row_stride = geo.row_bytes
            * (geo.banks_per_group * geo.bank_groups * geo.ranks) as u64
            * geo.channels as u64;
        let r = dram
            .access(PhysAddr::new(row_stride), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(r.outcome, RowBufferOutcome::Conflict);
        assert_eq!(dram.stats().precharges, 1);
        assert_eq!(dram.stats().activates, 2);
    }

    #[test]
    fn writes_are_counted_and_charged() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Write, Cycle::ZERO)
            .unwrap();
        assert_eq!(dram.stats().writes, 1);
        assert!(dram.energy().io_pj > 0.0);
    }

    #[test]
    fn refresh_rank_closes_banks_and_blocks() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let done = dram.refresh_rank(0, 0, Cycle::new(100)).unwrap();
        assert!(done > Cycle::new(100 + dram.config().timing.t_rfc - 1));
        assert_eq!(dram.stats().refreshes, 1);
        // Next access must be after the refresh completes.
        let r = dram
            .access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(r.issued_at >= done);
    }

    #[test]
    fn al_dram_mode_is_faster() {
        let mut nominal = module();
        let mut fast = DramModule::new(DramConfig::ddr3_1600())
            .unwrap()
            .with_latency_mode(LatencyMode::AlDram { scale: 0.6 });
        let a = nominal
            .access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let b = fast
            .access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(
            b.data_ready < a.data_ready,
            "AL-DRAM must reduce miss latency"
        );
    }

    #[test]
    fn charge_cache_accelerates_reopened_rows() {
        let mode = LatencyMode::ChargeCache {
            entries_per_bank: 8,
            window: 100_000,
            scale: 0.6,
        };
        let mut dram = DramModule::new(DramConfig::ddr3_1600())
            .unwrap()
            .with_latency_mode(mode);
        let geo = dram.config().geometry;
        let row_stride = geo.row_bytes
            * (geo.banks_per_group * geo.bank_groups * geo.ranks) as u64
            * geo.channels as u64;

        // Open row 0, conflict to row 1 (closing row 0), then re-open row 0.
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        dram.access(PhysAddr::new(row_stride), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let t0 = dram.ready_at(&dram.decode(PhysAddr::new(0)), &Command::Precharge);
        let reopen = dram.access(PhysAddr::new(0), AccessKind::Read, t0).unwrap();
        assert_eq!(reopen.outcome, RowBufferOutcome::Conflict);
        assert!(
            dram.charge_cache_hit_rate() > 0.0,
            "row 0 was recently closed"
        );
    }

    #[test]
    fn cycle_trace_records_a_miss_as_act_then_rd() {
        let mut dram = module();
        dram.enable_cycle_trace(16);
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let t = dram.config().timing;
        let events: Vec<(&str, u64)> = dram
            .take_cycle_trace()
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Instant { name, at, .. } => Some((name, at)),
                _ => None,
            })
            .collect();
        assert_eq!(
            events,
            [("bank.act", 0), ("bank.rd", t.t_rcd)],
            "miss = ACT then RD"
        );
    }

    #[test]
    fn write_counts_in_stats_and_energy() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Write, Cycle::ZERO)
            .unwrap();
        assert_eq!(dram.stats().writes, 1);
        assert_eq!(dram.energy().bursts, 1);
        assert!(dram.energy().io_pj > 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = DramConfig::ddr3_1600();
        cfg.geometry.channels = 0;
        assert!(DramModule::new(cfg).is_err());
    }

    #[test]
    fn access_loc_and_decode_agree() {
        let mut dram = module();
        let addr = PhysAddr::new(0x12340);
        let loc = dram.decode(addr);
        let a = dram
            .access_loc(&loc, AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(a.data_ready > Cycle::ZERO);
        assert_eq!(dram.open_row(&loc), Some(loc.row));
    }

    /// Bank 0 of channel 0, rank 0.
    fn bank0() -> Location {
        Location::default()
    }

    fn reason(r: Result<IssueOutcome, IssueError>) -> IssueErrorReason {
        r.unwrap_err().reason()
    }

    #[test]
    fn double_activate_is_rejected() {
        let mut dram = module();
        dram.issue(&bank0(), Command::Activate { row: 1 }, Cycle::ZERO)
            .unwrap();
        let again = dram.issue(&bank0(), Command::Activate { row: 2 }, Cycle::new(1000));
        assert_eq!(reason(again), IssueErrorReason::BankAlreadyOpen);
    }

    #[test]
    fn column_command_or_precharge_to_a_closed_bank_is_rejected() {
        let mut dram = module();
        for cmd in [
            Command::Read { column: 0 },
            Command::Write { column: 0 },
            Command::Precharge,
        ] {
            let r = dram.issue(&bank0(), cmd, Cycle::new(1000));
            assert_eq!(reason(r), IssueErrorReason::BankClosed, "{cmd}");
        }
    }

    #[test]
    fn refresh_with_an_open_row_is_rejected() {
        let mut dram = module();
        dram.issue(&bank0(), Command::Activate { row: 1 }, Cycle::ZERO)
            .unwrap();
        let r = dram.issue(&bank0(), Command::Refresh, Cycle::new(1000));
        assert_eq!(reason(r), IssueErrorReason::RankNotIdle);
    }

    #[test]
    fn row_buffer_outcomes() {
        let mut dram = module();
        let at = |row| Location { row, ..bank0() };
        assert_eq!(dram.row_buffer_outcome(&at(5)), RowBufferOutcome::Miss);
        let out = dram
            .issue(&at(5), Command::Activate { row: 5 }, Cycle::ZERO)
            .unwrap();
        assert_eq!(out.outcome, Some(RowBufferOutcome::Miss));
        assert_eq!(dram.row_buffer_outcome(&at(5)), RowBufferOutcome::Hit);
        assert_eq!(dram.row_buffer_outcome(&at(6)), RowBufferOutcome::Conflict);
    }

    #[test]
    fn activation_count_increments() {
        let mut dram = module();
        for row in 0..3u64 {
            let loc = Location { row, ..bank0() };
            let act = Command::Activate { row };
            dram.issue(&loc, act, dram.ready_at(&loc, &act)).unwrap();
            let pre = dram.ready_at(&loc, &Command::Precharge);
            dram.issue(&loc, Command::Precharge, pre).unwrap();
        }
        assert_eq!(dram.stats().activates, 3);
        assert_eq!(dram.stats().precharges, 3);
    }

    #[test]
    fn too_early_names_the_earliest_legal_cycle() {
        let mut dram = module();
        let t = dram.config().timing;
        dram.issue(&bank0(), Command::Activate { row: 1 }, Cycle::ZERO)
            .unwrap();
        let early = dram.issue(
            &bank0(),
            Command::Read { column: 0 },
            Cycle::new(t.t_rcd - 1),
        );
        assert_eq!(
            reason(early),
            IssueErrorReason::TooEarly(Cycle::new(t.t_rcd))
        );
        let out = dram
            .issue(&bank0(), Command::Read { column: 0 }, Cycle::new(t.t_rcd))
            .unwrap();
        assert_eq!(out.data_ready, Some(Cycle::new(t.t_rcd + t.t_cl + t.t_bl)));
    }

    #[test]
    fn out_of_range_coordinates_are_reported() {
        let cfg = DramConfig::ddr4_2400();
        let geo = cfg.geometry;
        let mut dram = DramModule::new(cfg).unwrap();
        let act = Command::Activate { row: 0 };
        let cases = [
            (
                Location {
                    channel: geo.channels,
                    ..bank0()
                },
                act,
            ),
            (
                Location {
                    rank: geo.ranks,
                    ..bank0()
                },
                act,
            ),
            (
                Location {
                    bank_group: geo.bank_groups,
                    ..bank0()
                },
                act,
            ),
            (
                Location {
                    bank: geo.banks_per_group,
                    ..bank0()
                },
                act,
            ),
            (
                bank0(),
                Command::Activate {
                    row: geo.rows_per_bank,
                },
            ),
            (bank0(), Command::Activate { row: u64::MAX }),
        ];
        for (loc, cmd) in cases {
            let r = dram.issue(&loc, cmd, Cycle::ZERO);
            assert_eq!(reason(r), IssueErrorReason::OutOfRange, "{cmd} at {loc}");
        }
        assert_eq!(dram.stats().activates, 0, "nothing was issued");
        for bank in 0..geo.banks_per_rank() {
            let loc = Location {
                bank_group: bank / geo.banks_per_group,
                bank: bank % geo.banks_per_group,
                ..bank0()
            };
            assert_eq!(dram.open_row(&loc), None, "no bank was opened");
        }
        let r = dram.refresh_rank(0, geo.ranks, Cycle::ZERO);
        assert_eq!(r.unwrap_err().reason(), IssueErrorReason::OutOfRange);
        dram.refresh_rank(0, 0, Cycle::ZERO).unwrap();
    }
}
