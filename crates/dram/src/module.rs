//! The top-level DRAM module: channels + mapping + stats + energy, with a
//! Ramulator-style fine-grained command interface and an open-page
//! convenience interface.

use ia_telemetry::{MetricSource, Scope, TraceBuffer};
use ia_trace::{ComponentTrace, Tracer};

use crate::error::{ConfigError, IssueError};
use crate::inject::{InjectEvent, InjectLog};
use crate::latency::{ChargeCacheState, LatencyMode};
use crate::{
    AccessKind, AddressMapping, BankGates, Channel, Command, Cycle, DramConfig, DramStats,
    EnergyCounter, IssueOutcome, LocalGates, Location, PhysAddr, RowBufferOutcome, SharedGates,
    TimingParams,
};

/// One DRAM command as captured by the module's trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandEvent {
    /// Cycle at which the command was issued.
    pub at: Cycle,
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Flat bank index within the rank.
    pub bank: usize,
    /// The command itself.
    pub cmd: Command,
}

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
/// * the **command interface** ([`next_needed`](DramModule::next_needed),
///   [`ready_at`](DramModule::ready_at), [`issue`](DramModule::issue)) used
///   by the `ia-memctrl` schedulers, and
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
    trace: TraceBuffer<CommandEvent>,
    inject: InjectLog,
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
            trace: TraceBuffer::disabled(),
            inject: InjectLog::default(),
            tracer: Tracer::disabled(),
        })
    }

    /// Enables command-level tracing into a bounded ring of `capacity`
    /// events (older events are overwritten and counted as dropped).
    /// Tracing is off by default and costs one branch per issued command.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::new(capacity);
    }

    /// The command trace buffer (empty unless
    /// [`enable_trace`](DramModule::enable_trace) was called).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer<CommandEvent> {
        &self.trace
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

    /// Enables the fault-injection observation point: activates, column
    /// reads/writes, and rank refreshes are recorded as [`InjectEvent`]s
    /// for the controller to drain via
    /// [`drain_inject_events`](DramModule::drain_inject_events) and feed
    /// to its fault model. Off by default; one branch per command when
    /// off.
    pub fn enable_injection(&mut self) {
        self.inject.enable();
    }

    /// Whether the injection observation point is recording.
    #[must_use]
    pub fn injection_enabled(&self) -> bool {
        self.inject.is_enabled()
    }

    /// Moves all pending injection events into `out` in issue order.
    pub fn drain_inject_events(&mut self, out: &mut Vec<InjectEvent>) {
        self.inject.drain_into(out);
    }

    /// Sets the address mapping (consumes and returns `self` for chaining).
    #[must_use]
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
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
        match self.row_buffer_outcome(loc) {
            RowBufferOutcome::Hit => match kind {
                AccessKind::Read => Command::Read { column: loc.column },
                AccessKind::Write => Command::Write { column: loc.column },
            },
            RowBufferOutcome::Miss => Command::Activate { row: loc.row },
            RowBufferOutcome::Conflict => Command::Precharge,
        }
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

    /// Earliest cycle at which `cmd` for `loc` satisfies all timing.
    #[must_use]
    pub fn ready_at(&self, loc: &Location, cmd: &Command) -> Cycle {
        self.channels[loc.channel].ready_at(
            loc.rank,
            self.bank_index(loc),
            cmd,
            &self.config.timing,
        )
    }

    /// The open row and every command gate of the bank addressed by
    /// `loc`, in one walk of the channel/rank/bank hierarchy. Gate for
    /// gate equal to [`DramModule::ready_at`] per command kind and to
    /// [`DramModule::open_row`] — the scheduler's per-bank fast path:
    /// one probe answers what would otherwise take four.
    #[must_use]
    pub fn bank_gates(&self, loc: &Location) -> BankGates {
        self.channels[loc.channel].bank_gates(loc.rank, self.bank_index(loc), &self.config.timing)
    }

    /// The part of [`DramModule::bank_gates`] that only a command to
    /// this bank changes: its open row and bank-local deadlines.
    /// [`BankGates::combine`] with [`DramModule::shared_gates`] of its
    /// (channel, rank) gives back exactly `bank_gates`.
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
        self.channels[channel].shared_gates(rank, &self.config.timing)
    }

    /// Earliest cycle at which *the next command needed* to serve an
    /// access to `loc` becomes issuable — the controller's wake-up
    /// bound for an in-order policy, which serves only the oldest
    /// queued request.
    #[must_use]
    pub fn next_ready_for(&self, loc: &Location, kind: AccessKind) -> Cycle {
        self.ready_at(loc, &self.next_needed(loc, kind))
    }

    /// Issues `cmd` for `loc` at `now`, updating stats and energy.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] on any protocol or timing violation.
    pub fn issue(
        &mut self,
        loc: &Location,
        cmd: Command,
        now: Cycle,
    ) -> Result<IssueOutcome, IssueError> {
        let timing = self.effective_timing(loc, &cmd, now);
        let bank_idx = self.bank_index(loc);
        let open_before = self.channels[loc.channel].rank(loc.rank).open_row(bank_idx);
        let out = self.channels[loc.channel].issue(loc.rank, bank_idx, cmd, now, &timing)?;
        self.trace.record_with(|| CommandEvent {
            at: now,
            channel: loc.channel,
            rank: loc.rank,
            bank: bank_idx,
            cmd,
        });
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
        match cmd {
            Command::Activate { row } => self.inject.record_with(|| InjectEvent::Activate {
                at: now,
                channel: loc.channel,
                rank: loc.rank,
                bank: bank_idx,
                row,
            }),
            Command::Read { column } => self.inject.record_with(|| InjectEvent::Read {
                at: now,
                channel: loc.channel,
                rank: loc.rank,
                bank: bank_idx,
                row: loc.row,
                column,
            }),
            Command::Write { column } => self.inject.record_with(|| InjectEvent::Write {
                at: now,
                channel: loc.channel,
                rank: loc.rank,
                bank: bank_idx,
                row: loc.row,
                column,
            }),
            Command::Refresh => self.inject.record_with(|| InjectEvent::Refresh {
                at: now,
                channel: loc.channel,
                rank: loc.rank,
            }),
            Command::Precharge => {}
        }
        self.energy
            .record(&cmd, self.config.geometry.column_bytes, &self.config.energy);
        match cmd {
            Command::Activate { .. } => self.stats.activates += 1,
            Command::Precharge => {
                self.stats.precharges += 1;
                if let (
                    LatencyMode::ChargeCache {
                        entries_per_bank, ..
                    },
                    Some(row),
                ) = (self.latency, open_before)
                {
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
    pub fn access_loc(
        &mut self,
        loc: &Location,
        kind: AccessKind,
        earliest: Cycle,
    ) -> Result<AccessResult, IssueError> {
        let outcome = self.row_buffer_outcome(loc);
        self.stats.record_outcome(outcome);
        loop {
            let cmd = self.next_needed(loc, kind);
            let at = self.ready_at(loc, &cmd).max(earliest);
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
        let banks = self.config.geometry.banks_per_rank();
        // Close any open banks.
        for bank in 0..banks {
            if self.channels[channel].rank(rank).open_row(bank).is_some() {
                let at = self.channels[channel]
                    .ready_at(rank, bank, &Command::Precharge, &timing)
                    .max(earliest);
                self.channels[channel].issue(rank, bank, Command::Precharge, at, &timing)?;
                self.stats.precharges += 1;
            }
        }
        let at = self.channels[channel]
            .ready_at(rank, 0, &Command::Refresh, &timing)
            .max(earliest);
        self.channels[channel].issue(rank, 0, Command::Refresh, at, &timing)?;
        self.inject
            .record_with(|| InjectEvent::Refresh { at, channel, rank });
        self.stats.refreshes += 1;
        self.energy
            .record(&Command::Refresh, 0, &self.config.energy);
        Ok(at + timing.t_rfc)
    }

    /// Per-bank activation counts for one rank (RowHammer accounting).
    #[must_use]
    pub fn activation_counts(&self, channel: usize, rank: usize) -> Vec<u64> {
        self.channels[channel].rank(rank).activation_counts()
    }

    /// Direct channel access for advanced callers (PUM command sequences).
    #[must_use]
    pub fn channel(&self, channel: usize) -> &Channel {
        &self.channels[channel]
    }

    /// Mutable channel access for advanced callers.
    pub fn channel_mut(&mut self, channel: usize) -> &mut Channel {
        &mut self.channels[channel]
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

impl MetricSource for DramModule {
    /// Publishes command/locality counters at this scope, energy under an
    /// `energy` child scope, and the trace-buffer occupancy counters.
    fn export_into(&self, scope: &mut Scope<'_>) {
        self.stats.export_into(scope);
        scope.collect("energy", &self.energy);
        scope.set_gauge("charge_cache_hit_rate", self.charge_cache.hit_rate());
        scope.set_counter("trace_recorded", self.trace.recorded());
        scope.set_counter("trace_dropped", self.trace.dropped());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn trace_captures_command_sequence_when_enabled() {
        let mut dram = module();
        dram.enable_trace(16);
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let cmds: Vec<Command> = dram.trace().iter().map(|e| e.cmd).collect();
        assert_eq!(cmds.len(), 2, "miss = ACT then RD");
        assert!(matches!(cmds[0], Command::Activate { .. }));
        assert!(matches!(cmds[1], Command::Read { .. }));
        assert_eq!(dram.trace().dropped(), 0);
    }

    #[test]
    fn trace_is_off_by_default_and_bounded_when_on() {
        let mut dram = module();
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(dram.trace().is_empty());
        dram.enable_trace(2);
        for i in 0..8u64 {
            dram.access(PhysAddr::new(i * 64), AccessKind::Read, Cycle::ZERO)
                .unwrap();
        }
        assert_eq!(dram.trace().len(), 2, "ring stays bounded");
        assert!(dram.trace().dropped() > 0, "overwrites are counted");
    }

    #[test]
    fn injection_log_captures_activate_read_write_refresh() {
        let mut dram = module();
        assert!(!dram.injection_enabled());
        dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        let mut events = Vec::new();
        dram.drain_inject_events(&mut events);
        assert!(events.is_empty(), "off by default");

        dram.enable_injection();
        dram.access(PhysAddr::new(64), AccessKind::Read, Cycle::ZERO)
            .unwrap();
        dram.access(PhysAddr::new(128), AccessKind::Write, Cycle::ZERO)
            .unwrap();
        dram.refresh_rank(0, 0, Cycle::new(10_000)).unwrap();
        dram.drain_inject_events(&mut events);
        assert!(
            matches!(
                events[0],
                InjectEvent::Read {
                    row: 0,
                    column: 1,
                    ..
                }
            ),
            "row already open: read only — got {:?}",
            events[0]
        );
        assert!(matches!(
            events[1],
            InjectEvent::Write {
                row: 0,
                column: 2,
                ..
            }
        ));
        assert!(matches!(events.last(), Some(InjectEvent::Refresh { .. })));
        let drained = events.len();
        let mut again = Vec::new();
        dram.drain_inject_events(&mut again);
        assert!(again.is_empty(), "drain is destructive");
        assert!(drained >= 3);
    }

    #[test]
    fn module_exports_stats_energy_and_trace_counters() {
        let mut dram = module();
        dram.enable_trace(4);
        dram.access(PhysAddr::new(0), AccessKind::Write, Cycle::ZERO)
            .unwrap();
        let mut reg = ia_telemetry::Registry::new();
        reg.collect("dram", &dram);
        let snap = reg.snapshot(0);
        assert_eq!(snap.counter("dram.writes"), Some(1));
        assert_eq!(snap.counter("dram.energy.bursts"), Some(1));
        assert_eq!(snap.counter("dram.trace_recorded"), Some(2));
        assert!(snap.gauge("dram.energy.io_pj").unwrap() > 0.0);
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
}
