//! The memory controller: request queue, scheduler invocation, refresh
//! engine, and a closed-loop multi-programmed run harness.
//!
//! The controller implements [`ia_sim::Clocked`], so the event-driven
//! [`SimLoop`] can cycle-skip over idle spans (refresh gaps, long DRAM
//! timing waits) with results numerically identical to per-cycle polling
//! — see `crates/sim/src/lib.rs` for the contract and
//! [`run_closed_loop_per_cycle`] for the differential-testing oracle.

use std::fmt;

use ia_dram::{Command, ConfigError, Cycle, DramConfig, DramModule, RowBufferOutcome};
use ia_reliability::Raidr;
use ia_sim::{Clocked, CompletionSink, EngineStats, SimLoop, StepOutcome};
use ia_telemetry::{Histogram, MetricSource, Scope, TraceBuffer};
use ia_trace::{TraceLog, Tracer};

use crate::error::CtrlError;
use crate::pool::{IssueView, RequestQueue, ViewMode};
use crate::reliability::{ReliabilityPipeline, ReliabilityReport};
use crate::request::{Completed, MemRequest, Pending};
use crate::scheduler::Scheduler;

/// One scheduler decision as captured by the controller's trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Cycle of the decision.
    pub at: Cycle,
    /// Id of the request the command serves.
    pub request: u64,
    /// Thread that issued the request.
    pub thread: usize,
    /// The DRAM command issued on its behalf.
    pub cmd: Command,
}

/// How the controller refreshes the devices.
#[derive(Debug, Clone)]
pub enum RefreshMode {
    /// No refresh (short simulations where retention is out of scope).
    Disabled,
    /// Standard auto-refresh: one REF per rank every tREFI.
    AllBank,
    /// RAIDR retention-aware refresh: REF slots are skipped for windows in
    /// which the corresponding row bins do not need service.
    Raidr(Raidr),
}

#[derive(Debug, Clone)]
struct RefreshEngine {
    mode: RefreshMode,
    next_at: Cycle,
    t_refi: u64,
    /// REF slots per 64 ms retention window.
    slots_per_window: u64,
    slot: u64,
    window: u64,
    /// Slots to actually issue this window (RAIDR skips the rest).
    issue_slots: u64,
    /// Total REF commands issued / skipped.
    issued: u64,
    skipped: u64,
}

impl RefreshEngine {
    fn new(mode: RefreshMode, config: &DramConfig) -> Self {
        let t_refi = config.timing.t_refi;
        let window_cycles = (64_000_000.0 / config.timing.tck_ns()) as u64;
        let slots_per_window = (window_cycles / t_refi).max(1);
        let mut engine = RefreshEngine {
            mode,
            next_at: Cycle::new(t_refi),
            t_refi,
            slots_per_window,
            slot: 0,
            window: 0,
            issue_slots: slots_per_window,
            issued: 0,
            skipped: 0,
        };
        engine.recompute_window();
        engine
    }

    fn recompute_window(&mut self) {
        self.issue_slots = match &self.mode {
            RefreshMode::Disabled => 0,
            RefreshMode::AllBank => self.slots_per_window,
            RefreshMode::Raidr(raidr) => {
                // Slots proportional to the fraction of rows whose bin is
                // due in this window.
                let rows = raidr.baseline_refreshes_over(1);
                let needed = raidr.refreshes_over_window(self.window);
                ((needed as f64 / rows as f64) * self.slots_per_window as f64).ceil() as u64
            }
        };
    }

    /// Returns true if a REF must be issued at `now`.
    fn due(&self, now: Cycle) -> Option<bool> {
        if matches!(self.mode, RefreshMode::Disabled) {
            return None;
        }
        (now >= self.next_at).then_some(self.slot < self.issue_slots)
    }

    fn advance(&mut self, issued: bool) {
        if issued {
            self.issued += 1;
        } else {
            self.skipped += 1;
        }
        self.next_at += self.t_refi;
        self.slot += 1;
        if self.slot >= self.slots_per_window {
            self.slot = 0;
            self.window += 1;
            self.recompute_window();
        }
    }
}

/// Extension used by the refresh engine to ask RAIDR how many row
/// refreshes a single 64 ms window needs.
trait RaidrWindow {
    fn refreshes_over_window(&self, window: u64) -> u64;
}

impl RaidrWindow for Raidr {
    fn refreshes_over_window(&self, window: u64) -> u64 {
        let rows = self.baseline_refreshes_over(1);
        (0..rows).filter(|&r| self.needs_refresh(r, window)).count() as u64
    }
}

/// Controller-level statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtrlStats {
    /// Requests completed.
    pub completed: u64,
    /// Sum of request latencies (cycles).
    pub total_latency: u64,
    /// Refresh commands issued.
    pub refreshes_issued: u64,
    /// Refresh slots skipped (RAIDR).
    pub refreshes_skipped: u64,
    /// Cycles in which a column command issued (bus utilization).
    pub busy_cycles: u64,
}

impl CtrlStats {
    /// Mean request latency in cycles.
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Merges another counter set into this one (e.g. to aggregate the
    /// stats of several controllers or epochs).
    pub fn merge(&mut self, other: &CtrlStats) {
        self.completed += other.completed;
        self.total_latency += other.total_latency;
        self.refreshes_issued += other.refreshes_issued;
        self.refreshes_skipped += other.refreshes_skipped;
        self.busy_cycles += other.busy_cycles;
    }
}

impl fmt::Display for CtrlStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed, avg latency {:.1} cyc | REF {} issued / {} skipped | {} busy cycles",
            self.completed,
            self.avg_latency(),
            self.refreshes_issued,
            self.refreshes_skipped,
            self.busy_cycles
        )
    }
}

impl MetricSource for CtrlStats {
    fn export_into(&self, scope: &mut Scope<'_>) {
        scope.set_counter("completed", self.completed);
        scope.set_counter("total_latency", self.total_latency);
        scope.set_counter("refreshes_issued", self.refreshes_issued);
        scope.set_counter("refreshes_skipped", self.refreshes_skipped);
        scope.set_counter("busy_cycles", self.busy_cycles);
        scope.set_gauge("avg_latency", self.avg_latency());
    }
}

/// A single-module memory controller driving [`DramModule`] through a
/// pluggable [`Scheduler`].
///
/// # Examples
///
/// ```
/// use ia_dram::DramConfig;
/// use ia_memctrl::{FrFcfs, MemRequest, MemoryController};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))?;
/// ctrl.enqueue(MemRequest::read(0x1000, 0))?;
/// let done = ctrl.run_until_drained(100_000);
/// assert_eq!(done.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    dram: DramModule,
    scheduler: Box<dyn Scheduler>,
    queue: RequestQueue,
    /// Reused per-cycle scheduling view (capacity persists across ticks).
    view: IssueView,
    inflight: Vec<(Pending, Cycle)>,
    now: Cycle,
    next_id: u64,
    queue_capacity: usize,
    refresh: RefreshEngine,
    stats: CtrlStats,
    latency: Histogram,
    queue_depth: Histogram,
    sched_column: u64,
    sched_prep: u64,
    sched_idle: u64,
    engine: EngineStats,
    trace: TraceBuffer<SchedEvent>,
    /// Cycle-attribution tracer (track `"ctrl"`): every simulated cycle
    /// is classified into exactly one phase, so the profile partition
    /// sums to the run's total cycles. Disabled by default — each trace
    /// point costs one branch.
    tracer: Tracer,
    reliability: Option<ReliabilityPipeline>,
}

impl MemoryController {
    /// Creates a controller over a fresh DRAM module.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the DRAM configuration is invalid.
    pub fn new(config: DramConfig, scheduler: Box<dyn Scheduler>) -> Result<Self, ConfigError> {
        let refresh = RefreshEngine::new(RefreshMode::Disabled, &config);
        Ok(MemoryController {
            dram: DramModule::new(config)?,
            scheduler,
            queue: RequestQueue::new(),
            view: IssueView::default(),
            inflight: Vec::new(),
            now: Cycle::ZERO,
            next_id: 1,
            queue_capacity: 64,
            refresh,
            stats: CtrlStats::default(),
            latency: Histogram::new(),
            queue_depth: Histogram::new(),
            sched_column: 0,
            sched_prep: 0,
            sched_idle: 0,
            engine: EngineStats::default(),
            trace: TraceBuffer::disabled(),
            tracer: Tracer::disabled(),
            reliability: None,
        })
    }

    /// Sets the refresh mode (chainable).
    #[must_use]
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        self.refresh = RefreshEngine::new(mode, self.dram.config());
        self
    }

    /// Sets the request-queue capacity (chainable).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Replaces the scheduling policy (chainable) — the fork-side half
    /// of a warm sweep: construct and warm one controller, fork it per
    /// configuration ([`ia_sim::SnapshotState::fork`]), and hand each
    /// fork its own policy. Construction is scheduler-independent, so a
    /// fork with a swapped scheduler is bit-identical to a controller
    /// built fresh with that scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        // The outgoing policy may have been a Skip one, which leaves the
        // queue's gate cache unsynced.
        self.queue.resync_all(&self.dram);
        self
    }

    /// Attaches a reliability pipeline (chainable). Turns on the DRAM
    /// module's injection event log; from then on every activate, read,
    /// write, and refresh flows through the pipeline's closed
    /// detect → correct → degrade loop at the end of each tick.
    #[must_use]
    pub fn with_reliability(mut self, pipeline: ReliabilityPipeline) -> Self {
        self.dram.enable_injection();
        self.reliability = Some(pipeline);
        self
    }

    /// The attached reliability pipeline, if any.
    #[must_use]
    pub fn reliability(&self) -> Option<&ReliabilityPipeline> {
        self.reliability.as_ref()
    }

    /// Sets the DRAM latency mode (AL-DRAM / ChargeCache) (chainable).
    #[must_use]
    pub fn with_latency_mode(mut self, mode: ia_dram::LatencyMode) -> Self {
        // Rebuilding the module would lose state; the module applies the
        // mode to future commands only, which is exactly what we want.
        let dram = std::mem::replace(
            &mut self.dram,
            // lint: allow(P001, the ddr3_1600 preset is statically valid)
            DramModule::new(DramConfig::ddr3_1600()).expect("preset is valid"),
        );
        self.dram = dram.with_latency_mode(mode);
        self
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Outstanding queued (not yet issued) requests.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Outstanding requests including in-flight data transfers.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight.len()
    }

    /// Controller statistics.
    #[must_use]
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Request-latency distribution (one sample per completed request).
    #[must_use]
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Queue-depth distribution (one sample per simulated cycle).
    #[must_use]
    pub fn queue_depth_histogram(&self) -> &Histogram {
        &self.queue_depth
    }

    /// Enables scheduler-decision tracing into a bounded ring of
    /// `capacity` events. Off by default; one branch per issued command.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::new(capacity);
    }

    /// The scheduler-decision trace (empty unless
    /// [`enable_trace`](MemoryController::enable_trace) was called).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer<SchedEvent> {
        &self.trace
    }

    /// Enables cycle-attribution tracing on this controller (track
    /// `"ctrl"`) and its DRAM module (track `"dram"`): each simulated
    /// cycle is classified into exactly one phase
    /// (`sched.issue_column`, `sched.issue_prep`, `refresh.auto`,
    /// `dram.burst_retire`, `dram.timing_stall`, `dram.data_burst`,
    /// `idle.empty`), and reliability-ladder activity is recorded as
    /// instant deltas. Off by default; one branch per cycle.
    pub fn enable_cycle_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::new("ctrl", capacity);
        self.dram.enable_cycle_trace(capacity);
    }

    /// Drains the controller's and DRAM module's cycle traces into a
    /// [`TraceLog`]; `None` if cycle tracing was never enabled.
    #[must_use]
    pub fn take_trace_log(&mut self) -> Option<TraceLog> {
        if !self.tracer.is_enabled() {
            return None;
        }
        let mut log = TraceLog::new();
        log.push(self.tracer.take());
        log.push(self.dram.take_cycle_trace());
        Some(log)
    }

    /// The underlying DRAM module (timing/energy statistics).
    #[must_use]
    pub fn dram(&self) -> &DramModule {
        &self.dram
    }

    /// The scheduler's display name.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Enqueues a request, assigning it an id.
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError::QueueFull`] when at capacity.
    pub fn enqueue(&mut self, mut request: MemRequest) -> Result<u64, CtrlError> {
        if self.queue.len() >= self.queue_capacity {
            return Err(CtrlError::QueueFull);
        }
        if request.id == 0 {
            request.id = self.next_id;
            self.next_id += 1;
        }
        let loc = self.dram.decode(request.addr);
        self.queue.insert(
            Pending {
                request,
                loc,
                arrival: self.now,
                batched: false,
                started: false,
            },
            &self.dram,
        );
        Ok(request.id)
    }

    /// Advances one cycle, delivering any completed requests into `sink`.
    ///
    /// This is the allocation-free core of the controller: the caller owns
    /// the completion storage (a reused scratch `Vec`, or a closure via
    /// [`ia_sim::FnSink`]), so the steady-state tick path never touches
    /// the heap.
    pub fn tick_into(&mut self, sink: &mut dyn CompletionSink<Completed>) {
        self.scheduler.on_tick(self.now);
        // A Skip policy builds no view and reads no cached gates, so the
        // queue's gate cache is resynced only for the other modes.
        let mode = self.scheduler.view_mode();
        let cached = mode != ViewMode::Skip;

        // 1. Retire in-flight requests whose data burst has finished,
        //    compacting in place so retirement order (= insertion order)
        //    is preserved.
        let now = self.now;
        let had_inflight = self.inflight.len();
        let mut kept = 0;
        for i in 0..self.inflight.len() {
            if self.inflight[i].1 <= now {
                let (p, ready) = self.inflight[i];
                let c = Completed {
                    request: p.request,
                    arrival: p.arrival,
                    finished: ready,
                };
                self.stats.completed += 1;
                self.stats.total_latency += c.latency();
                self.latency.record(c.latency());
                self.scheduler.on_complete(&c, now);
                sink.complete(c);
            } else {
                // Shift only once a gap exists, like `Vec::retain`: the
                // common all-kept tick never copies an entry.
                if kept != i {
                    self.inflight[kept] = self.inflight[i];
                }
                kept += 1;
            }
        }
        self.inflight.truncate(kept);
        self.queue_depth.record(self.queue.len() as u64);

        // 2. Refresh engine.
        let mut refresh_fired = false;
        if let Some(must_issue) = self.refresh.due(self.now) {
            refresh_fired = true;
            if must_issue {
                for ch in 0..self.dram.config().geometry.channels {
                    for rk in 0..self.dram.config().geometry.ranks {
                        // refresh_rank sequences precharges internally.
                        let _ = self.dram.refresh_rank(ch, rk, self.now);
                    }
                }
                if cached {
                    self.queue.resync_all(&self.dram);
                }
                self.stats.refreshes_issued += 1;
            } else {
                self.stats.refreshes_skipped += 1;
            }
            self.refresh.advance(must_issue);
        }

        // 3. Scheduling: one command per cycle. The view is built from
        //    the queue's indexed per-bank ready lists and gate cache at the
        //    depth the policy asks for — O(occupied banks), not O(queue
        //    depth), and no DRAM probe. The issued command resyncs the
        //    cache for what it changed: its bank and its channel.
        self.scheduler.prepare(&mut self.queue);
        let mut issued_this_cycle = false;
        let mut column_issued = false;
        self.queue.build_view(self.now, mode, &mut self.view);
        if let Some(h) = self.scheduler.select(&self.queue, &self.view) {
            // `next_event_at` wakes a Skip-mode policy only for the head.
            debug_assert!(
                mode != ViewMode::Skip || self.queue.head() == Some(h),
                "a ViewMode::Skip policy must serve only the queue head"
            );
            if let Some(&p) = self.queue.get(h) {
                let (cmd, ready) = if cached {
                    self.queue.next_command(h)
                } else {
                    let cmd = self.dram.next_needed(&p.loc, p.request.kind);
                    (cmd, self.dram.ready_at(&p.loc, &cmd))
                };
                if ready <= self.now {
                    // Classify the row-buffer outcome once, when the
                    // request first makes progress.
                    if !p.started {
                        let outcome = match cmd {
                            Command::Read { .. } | Command::Write { .. } => RowBufferOutcome::Hit,
                            Command::Activate { .. } => RowBufferOutcome::Miss,
                            _ => RowBufferOutcome::Conflict,
                        };
                        self.dram.stats_mut().record_outcome(outcome);
                        self.queue.set_started(h);
                    }
                    let column = matches!(cmd, Command::Read { .. } | Command::Write { .. });
                    if let Ok(out) = self.dram.issue(&p.loc, cmd, self.now) {
                        issued_this_cycle = true;
                        column_issued = column;
                        if column {
                            self.sched_column += 1;
                        } else {
                            self.sched_prep += 1;
                        }
                        self.trace.record_with(|| SchedEvent {
                            at: now,
                            request: p.request.id,
                            thread: p.request.thread,
                            cmd,
                        });
                        self.scheduler.on_issue(column, self.now);
                        if column {
                            self.stats.busy_cycles += 1;
                            let ready = out.data_ready.unwrap_or(self.now);
                            let p = self.queue.remove(h);
                            self.inflight.push((p, ready));
                        }
                        if cached {
                            self.queue.resync(&self.dram, &p.loc);
                        }
                    }
                }
            }
        }
        if !issued_this_cycle && !self.queue.is_empty() {
            self.sched_idle += 1;
        }

        // Cycle attribution: classify this cycle into exactly one phase
        // (highest-priority activity wins) so the per-phase totals
        // partition the run's cycles exactly.
        if self.tracer.is_enabled() {
            let phase = if column_issued {
                "sched.issue_column"
            } else if issued_this_cycle {
                "sched.issue_prep"
            } else if refresh_fired {
                "refresh.auto"
            } else if kept != had_inflight {
                "dram.burst_retire"
            } else if !self.queue.is_empty() {
                "dram.timing_stall"
            } else if !self.inflight.is_empty() {
                "dram.data_burst"
            } else {
                "idle.empty"
            };
            self.tracer.mark(phase, now.as_u64());
        }

        if let Some(rel) = &mut self.reliability {
            if self.tracer.is_enabled() {
                // Record the reliability ladder's per-tick activity as
                // instant deltas (counts since the previous tick).
                let stats_before = *rel.stats();
                let faults_before = rel.fault_stats().injected();
                rel.process(&mut self.dram);
                let s = *rel.stats();
                let at = now.as_u64();
                for (name, before, after) in [
                    ("reliability.corrected", stats_before.corrected, s.corrected),
                    (
                        "reliability.uncorrected",
                        stats_before.uncorrected,
                        s.uncorrected,
                    ),
                    ("reliability.scrubs", stats_before.scrubs, s.scrubs),
                    ("reliability.remaps", stats_before.remaps, s.remaps),
                    (
                        "reliability.quarantines",
                        stats_before.quarantines,
                        s.quarantines,
                    ),
                    (
                        "reliability.escalated_refreshes",
                        stats_before.escalated_refreshes,
                        s.escalated_refreshes,
                    ),
                ] {
                    let delta = after.saturating_sub(before);
                    if delta > 0 {
                        self.tracer.instant_value(name, at, delta as f64);
                    }
                }
                let injected = rel.fault_stats().injected().saturating_sub(faults_before);
                if injected > 0 {
                    self.tracer
                        .instant_value("faults.injected", at, injected as f64);
                }
            } else {
                rel.process(&mut self.dram);
            }
        }
        // The pipeline only drains the DRAM's injection log, so the gate
        // cache still matches the DRAM at the end of every tick.
        debug_assert!(
            !cached || self.queue.cache_matches(&self.dram),
            "request-queue gate cache out of sync with the DRAM at {now:?}"
        );

        self.now += 1;
    }

    /// Advances one cycle, returning any requests that completed.
    ///
    /// Compatibility wrapper over [`tick_into`](MemoryController::tick_into)
    /// that allocates a fresh `Vec` per call; hot loops should pass a
    /// reused sink to `tick_into` instead.
    pub fn tick(&mut self) -> Vec<Completed> {
        let mut done = Vec::new();
        self.tick_into(&mut done);
        done
    }

    /// Runs until the queue and in-flight set drain or `max_cycles` pass.
    /// Returns all completions in retirement order.
    ///
    /// Driven by the event-skipping [`SimLoop`]; numerically identical to
    /// ticking every cycle.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Vec<Completed> {
        let deadline = self.now + max_cycles;
        let mut engine = SimLoop::new();
        let mut all = Vec::new();
        engine.run_while(self, &mut all, deadline, |c| c.outstanding() > 0);
        self.engine.merge(engine.stats());
        all
    }

    /// Simulation-engine counters accumulated by this controller's runs
    /// (events processed, cycles skipped, sink high-water mark).
    #[must_use]
    pub fn engine_stats(&self) -> &EngineStats {
        &self.engine
    }

    /// Folds an external driver's engine counters into this controller's
    /// accumulated [`MemoryController::engine_stats`].
    pub fn merge_engine_stats(&mut self, stats: &EngineStats) {
        self.engine.merge(stats);
    }
}

impl Clocked for MemoryController {
    type Completion = Completed;

    fn now(&self) -> Cycle {
        self.now
    }

    fn tick_into(&mut self, sink: &mut dyn CompletionSink<Completed>) {
        MemoryController::tick_into(self, sink);
    }

    /// Exact next cycle at which a tick can do anything observable: an
    /// in-flight burst retiring, a refresh slot falling due, or the
    /// scheduler's view holding a command that can issue
    /// ([`RequestQueue::next_issue_at`], which applies the open-page rule
    /// and, for a [`ViewMode::Skip`] policy, gates on the queue head
    /// alone). Every tick before it retires, refreshes and issues
    /// nothing, so skipping straight to it is exact — after any tick,
    /// busy or idle, and after any enqueue. Except for a Skip policy,
    /// which probes its head, the issue bound is a minimum over the
    /// queue's cached per-bank wake cycles, with no DRAM probe: every
    /// enqueue, issued command and refresh resyncs that cache, so it is
    /// current whenever the engine asks. Each source returns `now` as
    /// soon as it is already due.
    fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now;
        let mut next: Option<Cycle> = None;
        for (_, ready) in &self.inflight {
            if *ready <= now {
                return Some(now);
            }
            next = Some(next.map_or(*ready, |n| n.min(*ready)));
        }
        if !matches!(self.refresh.mode, RefreshMode::Disabled) {
            let at = self.refresh.next_at;
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        let mode = self.scheduler.view_mode();
        if let Some(at) = self.queue.next_issue_at(&self.dram, now, mode) {
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Applies the bookkeeping the skipped idle ticks would have done, in
    /// bulk: per-cycle queue-depth samples, the stalled-cycle counter, and
    /// scheduler epoch housekeeping (via [`Scheduler::on_advance`]).
    fn skip_to(&mut self, target: Cycle) {
        if target <= self.now {
            return;
        }
        let n = target - self.now;
        self.scheduler.on_advance(self.now, target);
        self.queue_depth.record_n(self.queue.len() as u64, n);
        if !self.queue.is_empty() {
            self.sched_idle += n;
        }
        if self.tracer.is_enabled() {
            // Bulk-attribute the skipped idle span with the same
            // classification a per-cycle loop would have produced.
            let phase = if !self.queue.is_empty() {
                "dram.timing_stall"
            } else if !self.inflight.is_empty() {
                "dram.data_burst"
            } else {
                "idle.empty"
            };
            self.tracer.mark_n(phase, self.now.as_u64(), n);
        }
        self.now = target;
    }
}

impl ia_sim::SnapshotState for MemoryController {
    type Snapshot = MemoryController;

    /// The snapshot is a deep copy of the whole controller: DRAM timing
    /// and row-buffer state, queue and in-flight requests, refresh
    /// engine position, scheduler state (via [`Scheduler::clone_box`]),
    /// reliability pipeline (fault-hook state included), and every
    /// statistic. A restored controller is bit-identical to the donor —
    /// the warm-fork guarantee parameter sweeps rely on.
    fn snapshot(&self) -> MemoryController {
        self.clone()
    }

    fn restore(&mut self, saved: &MemoryController) {
        *self = saved.clone();
    }
}

impl MetricSource for MemoryController {
    /// Publishes controller counters and distributions at this scope and
    /// the DRAM module's metrics under a `dram` child scope.
    fn export_into(&self, scope: &mut Scope<'_>) {
        self.stats.export_into(scope);
        scope.set_histogram("latency_cycles", &self.latency);
        scope.set_histogram("queue_depth", &self.queue_depth);
        scope.set_counter("sched_column", self.sched_column);
        scope.set_counter("sched_prep", self.sched_prep);
        scope.set_counter("sched_stalled", self.sched_idle);
        scope.set_counter("trace_recorded", self.trace.recorded());
        scope.set_counter("trace_dropped", self.trace.dropped());
        scope.collect("engine", &self.engine);
        scope.collect("dram", &self.dram);
        if let Some(rel) = &self.reliability {
            scope.collect("reliability", rel);
        }
    }
}

/// Per-thread results of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadReport {
    /// Requests completed.
    pub completed: u64,
    /// Mean latency in cycles.
    pub avg_latency: f64,
    /// Cycle at which this thread's last request completed.
    pub finish: u64,
}

/// Results of a closed-loop multi-programmed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheduler used.
    pub scheduler: String,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Per-thread outcomes.
    pub threads: Vec<ThreadReport>,
    /// Aggregate controller stats.
    pub stats: CtrlStats,
    /// DRAM row-buffer hit rate over the run.
    pub row_hit_rate: f64,
    /// ChargeCache hit rate (0 unless that latency mode is active).
    pub charge_cache_hit_rate: f64,
    /// Dynamic DRAM energy consumed, picojoules.
    pub dynamic_energy_pj: f64,
    /// Off-chip I/O (data movement) energy, picojoules.
    pub io_energy_pj: f64,
    /// Simulation-engine effort counters (events processed vs cycles
    /// skipped). Describes how the run was *driven*, not what it
    /// computed — excluded from [`RunReport::same_results`].
    pub engine: EngineStats,
    /// Reliability outcome (fault and mitigation counters); `None`
    /// unless the controller ran with a reliability pipeline attached.
    pub reliability: Option<ReliabilityReport>,
    /// Cycle-attribution trace of the run (`None` unless tracing was
    /// enabled — see [`MemoryController::enable_cycle_tracing`]).
    /// Describes how the run was *observed*, not what it computed, so
    /// it is excluded from [`RunReport::same_results`].
    pub trace: Option<TraceLog>,
}

impl RunReport {
    /// Aggregate throughput: requests per kilo-cycle.
    #[must_use]
    pub fn throughput_rpkc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stats.completed as f64 / self.cycles as f64 * 1000.0
    }

    /// True if two runs produced identical simulated results — every
    /// field except [`RunReport::engine`], which describes how the
    /// simulation was driven rather than the simulated outcome. This is
    /// the equality the event-driven engine guarantees against the
    /// per-cycle oracle ([`run_closed_loop_per_cycle`]).
    #[must_use]
    pub fn same_results(&self, other: &RunReport) -> bool {
        self.scheduler == other.scheduler
            && self.cycles == other.cycles
            && self.threads == other.threads
            && self.stats == other.stats
            && self.row_hit_rate == other.row_hit_rate
            && self.charge_cache_hit_rate == other.charge_cache_hit_rate
            && self.dynamic_energy_pj == other.dynamic_energy_pj
            && self.io_energy_pj == other.io_energy_pj
            && self.reliability == other.reliability
    }
}

/// Runs `traces` (one request list per thread) through a controller in
/// closed-loop fashion: each thread keeps up to `window` requests
/// outstanding. Returns the per-thread and aggregate report.
///
/// # Errors
///
/// Returns [`CtrlError`] if the DRAM configuration is invalid or a trace
/// is empty.
pub fn run_closed_loop(
    config: DramConfig,
    scheduler: Box<dyn Scheduler>,
    traces: &[Vec<MemRequest>],
    window: usize,
    max_cycles: u64,
) -> Result<RunReport, CtrlError> {
    let ctrl = MemoryController::new(config, scheduler).map_err(CtrlError::Config)?;
    run_closed_loop_with(ctrl, traces, window, max_cycles)
}

/// [`run_closed_loop`] over a caller-configured controller (custom refresh
/// mode, latency mode on the DRAM module, queue capacity…). The queue
/// capacity is raised to fit the per-thread windows if needed.
///
/// # Errors
///
/// Returns [`CtrlError::EmptyTrace`] if any trace is empty.
pub fn run_closed_loop_with(
    ctrl: MemoryController,
    traces: &[Vec<MemRequest>],
    window: usize,
    max_cycles: u64,
) -> Result<RunReport, CtrlError> {
    if traces.is_empty() || traces.iter().any(Vec::is_empty) {
        return Err(CtrlError::EmptyTrace);
    }
    let mut ctrl = ctrl.with_queue_capacity(traces.len() * window.max(1) + 8);
    // Session capture (the bench CLI's `--trace`/`--profile`) turns on
    // cycle tracing for every closed-loop run; the trace rides back on
    // the report so parallel sweeps can submit it in task order.
    let tracing = ia_trace::capture_enabled();
    if tracing {
        ctrl.enable_cycle_tracing(ia_trace::DEFAULT_EVENT_CAPACITY);
    }
    let mut cursor = vec![0usize; traces.len()];
    let mut outstanding = vec![0usize; traces.len()];
    let mut completed = vec![0u64; traces.len()];
    let mut latency = vec![0u64; traces.len()];
    let mut finish = vec![0u64; traces.len()];

    let all_done = |cursor: &[usize], outstanding: &[usize]| {
        cursor.iter().zip(traces).all(|(&c, t)| c >= t.len()) && outstanding.iter().all(|&o| o == 0)
    };

    // Event-driven drive: feed, process exactly one event, account. The
    // scratch buffer is reused across steps, so the steady-state loop
    // performs no heap allocation. Feeding opportunities only arise after
    // completions (the queue never rejects: capacity covers every
    // window), so feeding once per processed event sees exactly the
    // states the per-cycle loop would feed in.
    let mut engine = SimLoop::new();
    if tracing {
        engine.enable_tracing(ia_trace::DEFAULT_EVENT_CAPACITY);
        engine.tracer_mut().begin("run", 0);
    }
    let deadline = Cycle::new(max_cycles);
    let mut scratch: Vec<Completed> = Vec::new();
    while !all_done(&cursor, &outstanding) && ctrl.now().as_u64() < max_cycles {
        // Feed each thread up to its window.
        for (t, trace) in traces.iter().enumerate() {
            while outstanding[t] < window && cursor[t] < trace.len() {
                let mut req = trace[cursor[t]];
                req.thread = t;
                if ctrl.enqueue(req).is_err() {
                    break;
                }
                cursor[t] += 1;
                outstanding[t] += 1;
            }
        }
        scratch.clear();
        match engine.step(&mut ctrl, &mut scratch, deadline) {
            StepOutcome::Drained => {
                // Degenerate case (window == 0): nothing can ever enter
                // the controller. The per-cycle loop would idle-tick out
                // the whole horizon; jump there with the same
                // bookkeeping.
                Clocked::skip_to(&mut ctrl, deadline);
                break;
            }
            StepOutcome::Stalled(report) => return Err(CtrlError::Stalled(report)),
            _ => {}
        }
        for c in &scratch {
            let t = c.request.thread;
            outstanding[t] -= 1;
            completed[t] += 1;
            latency[t] += c.latency();
            finish[t] = c.finished.as_u64();
        }
    }
    ctrl.merge_engine_stats(engine.stats());
    let threads = (0..traces.len())
        .map(|t| ThreadReport {
            completed: completed[t],
            avg_latency: if completed[t] == 0 {
                0.0
            } else {
                latency[t] as f64 / completed[t] as f64
            },
            finish: finish[t],
        })
        .collect();
    let mut report = report_of(&mut ctrl, threads);
    if tracing {
        let now = report.cycles;
        engine.tracer_mut().end(now);
        if let Some(log) = &mut report.trace {
            log.components.insert(0, engine.take_trace());
        }
    }
    Ok(report)
}

/// Per-cycle oracle for [`run_closed_loop_with`]: drives the controller
/// with [`MemoryController::tick`] every single cycle instead of the
/// event-skipping engine. Slow by design — kept public so differential
/// tests (and skeptical users) can verify that the engine's reports are
/// identical (`RunReport::same_results`).
///
/// # Errors
///
/// Returns [`CtrlError::EmptyTrace`] if any trace is empty.
pub fn run_closed_loop_per_cycle(
    ctrl: MemoryController,
    traces: &[Vec<MemRequest>],
    window: usize,
    max_cycles: u64,
) -> Result<RunReport, CtrlError> {
    if traces.is_empty() || traces.iter().any(Vec::is_empty) {
        return Err(CtrlError::EmptyTrace);
    }
    let mut ctrl = ctrl.with_queue_capacity(traces.len() * window.max(1) + 8);
    let mut cursor = vec![0usize; traces.len()];
    let mut outstanding = vec![0usize; traces.len()];
    let mut completed = vec![0u64; traces.len()];
    let mut latency = vec![0u64; traces.len()];
    let mut finish = vec![0u64; traces.len()];

    let all_done = |cursor: &[usize], outstanding: &[usize]| {
        cursor.iter().zip(traces).all(|(&c, t)| c >= t.len()) && outstanding.iter().all(|&o| o == 0)
    };

    while !all_done(&cursor, &outstanding) && ctrl.now().as_u64() < max_cycles {
        for (t, trace) in traces.iter().enumerate() {
            while outstanding[t] < window && cursor[t] < trace.len() {
                let mut req = trace[cursor[t]];
                req.thread = t;
                if ctrl.enqueue(req).is_err() {
                    break;
                }
                cursor[t] += 1;
                outstanding[t] += 1;
            }
        }
        for c in ctrl.tick() {
            let t = c.request.thread;
            outstanding[t] -= 1;
            completed[t] += 1;
            latency[t] += c.latency();
            finish[t] = c.finished.as_u64();
        }
    }
    let threads = (0..traces.len())
        .map(|t| ThreadReport {
            completed: completed[t],
            avg_latency: if completed[t] == 0 {
                0.0
            } else {
                latency[t] as f64 / completed[t] as f64
            },
            finish: finish[t],
        })
        .collect();
    Ok(report_of(&mut ctrl, threads))
}

fn report_of(ctrl: &mut MemoryController, threads: Vec<ThreadReport>) -> RunReport {
    let trace = ctrl.take_trace_log();
    RunReport {
        scheduler: ctrl.scheduler_name().to_owned(),
        cycles: ctrl.now().as_u64(),
        threads,
        stats: ctrl.stats().clone(),
        row_hit_rate: ctrl.dram().stats().row_hit_rate(),
        charge_cache_hit_rate: ctrl.dram().charge_cache_hit_rate(),
        dynamic_energy_pj: ctrl.dram().energy().dynamic_pj(),
        io_energy_pj: ctrl.dram().energy().io_pj,
        engine: *ctrl.engine_stats(),
        reliability: ctrl.reliability().map(ReliabilityPipeline::report),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Fcfs, FrFcfs};

    #[test]
    fn single_request_completes_with_miss_latency() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        ctrl.enqueue(MemRequest::read(0, 0)).unwrap();
        let done = ctrl.run_until_drained(10_000);
        assert_eq!(done.len(), 1);
        let t = DramConfig::ddr3_1600().timing;
        // ACT at 0, RD at tRCD, data at tRCD+tCL+tBL; retire next cycle.
        assert!(done[0].latency() >= t.t_rcd + t.t_cl + t.t_bl);
        assert!(done[0].latency() < t.t_rcd + t.t_cl + t.t_bl + 10);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), Box::new(Fcfs::new()))
            .unwrap()
            .with_queue_capacity(2);
        ctrl.enqueue(MemRequest::read(0, 0)).unwrap();
        ctrl.enqueue(MemRequest::read(64, 0)).unwrap();
        assert!(matches!(
            ctrl.enqueue(MemRequest::read(128, 0)),
            Err(CtrlError::QueueFull)
        ));
    }

    #[test]
    fn row_hits_finish_faster_than_conflicts() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        // Stream within one row: after the first miss, all hits.
        for i in 0..16u64 {
            ctrl.enqueue(MemRequest::read(i * 64, 0)).unwrap();
        }
        let done = ctrl.run_until_drained(100_000);
        assert_eq!(done.len(), 16);
        assert!(ctrl.dram().stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn refresh_blocks_and_counts() {
        let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
            .unwrap()
            .with_refresh_mode(RefreshMode::AllBank);
        // Run past several tREFI intervals with no load.
        for _ in 0..40_000 {
            ctrl.tick();
        }
        let expected = 40_000 / DramConfig::ddr3_1600().timing.t_refi;
        assert!(ctrl.stats().refreshes_issued >= expected - 1);
    }

    #[test]
    fn raidr_engine_skips_most_slots_across_windows() {
        use ia_reliability::{Raidr, RetentionModel};
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let profile = RetentionModel::typical().profile(8192, &mut rng);
        let raidr = Raidr::from_profile(&profile).unwrap();
        let cfg = DramConfig::ddr3_1600();
        let mut engine = RefreshEngine::new(RefreshMode::Raidr(raidr), &cfg);
        // Drive the engine through 4 full 64 ms windows slot-by-slot.
        let slots = engine.slots_per_window * 4;
        for _ in 0..slots {
            let must_issue = engine.due(engine.next_at).expect("mode enabled");
            engine.advance(must_issue);
        }
        let reduction = engine.skipped as f64 / (engine.issued + engine.skipped) as f64;
        // Window 0 refreshes every bin; windows 1-3 only the weak tails, so
        // the average over the 4-window period approaches RAIDR's ~74.6%.
        assert!(
            (0.65..0.80).contains(&reduction),
            "expected ≈3/4 of slots skipped, got {reduction:.3}"
        );
    }

    #[test]
    fn all_bank_engine_never_skips() {
        let cfg = DramConfig::ddr3_1600();
        let mut engine = RefreshEngine::new(RefreshMode::AllBank, &cfg);
        for _ in 0..100 {
            assert_eq!(engine.due(engine.next_at), Some(true));
            engine.advance(true);
        }
        assert_eq!(engine.skipped, 0);
    }

    #[test]
    fn closed_loop_run_completes_all_requests() {
        let traces: Vec<Vec<MemRequest>> = (0..2)
            .map(|t| {
                (0..50u64)
                    .map(|i| MemRequest::read((t * (1 << 22)) as u64 + i * 64, t))
                    .collect()
            })
            .collect();
        let report = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(FrFcfs::new()),
            &traces,
            4,
            1_000_000,
        )
        .unwrap();
        assert_eq!(report.stats.completed, 100);
        assert_eq!(report.threads.len(), 2);
        assert!(report.threads.iter().all(|t| t.completed == 50));
        assert!(report.throughput_rpkc() > 0.0);
        assert_eq!(report.scheduler, "FR-FCFS");
    }

    #[test]
    fn closed_loop_rejects_empty_traces() {
        let r = run_closed_loop(DramConfig::ddr3_1600(), Box::new(Fcfs::new()), &[], 4, 1000);
        assert!(r.is_err());
        let r = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(Fcfs::new()),
            &[vec![]],
            4,
            1000,
        );
        assert!(r.is_err());
    }

    #[test]
    fn stats_avg_latency() {
        let s = CtrlStats {
            completed: 4,
            total_latency: 100,
            ..CtrlStats::default()
        };
        assert!((s.avg_latency() - 25.0).abs() < 1e-12);
        assert_eq!(CtrlStats::default().avg_latency(), 0.0);
    }

    #[test]
    fn stats_merge_and_display() {
        let mut a = CtrlStats {
            completed: 4,
            total_latency: 100,
            ..CtrlStats::default()
        };
        let b = CtrlStats {
            completed: 6,
            total_latency: 200,
            refreshes_issued: 2,
            refreshes_skipped: 1,
            busy_cycles: 50,
        };
        a.merge(&b);
        assert_eq!(a.completed, 10);
        assert_eq!(a.total_latency, 300);
        assert_eq!(a.refreshes_issued, 2);
        assert!((a.avg_latency() - 30.0).abs() < 1e-12);
        let shown = a.to_string();
        assert!(shown.contains("10 completed"), "got: {shown}");
        assert!(shown.contains("avg latency 30.0"), "got: {shown}");
    }

    #[test]
    fn controller_exports_latency_histogram_and_dram_child() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        for i in 0..16u64 {
            ctrl.enqueue(MemRequest::read(i * 64, 0)).unwrap();
        }
        let done = ctrl.run_until_drained(100_000);
        assert_eq!(done.len(), 16);

        let mut reg = ia_telemetry::Registry::new();
        reg.collect("ctrl", &ctrl);
        let snap = reg.snapshot(ctrl.now().as_u64());
        assert_eq!(snap.counter("ctrl.completed"), Some(16));
        assert_eq!(snap.counter("ctrl.dram.reads"), Some(16));
        match snap.get("ctrl.latency_cycles") {
            Some(ia_telemetry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 16, "one sample per completion");
                assert!(h.p50() <= h.p99());
                assert!(h.max() >= ctrl.stats().avg_latency() as u64);
            }
            other => panic!("expected latency histogram, got {other:?}"),
        }
        match snap.get("ctrl.queue_depth") {
            Some(ia_telemetry::MetricValue::Histogram(h)) => {
                assert!(h.count() > 0, "sampled every cycle");
            }
            other => panic!("expected queue-depth histogram, got {other:?}"),
        }
        assert!(snap.counter("ctrl.sched_column").unwrap() >= 16);
    }

    #[test]
    fn reliability_pipeline_detects_corrects_and_exports_through_a_real_run() {
        use crate::reliability::ReliabilityConfig;
        use ia_faults::FaultPlan;

        let config = DramConfig::ddr3_1600();
        let plan = FaultPlan::new(7).transient(0.2).stuck(0.002);
        let pipeline =
            ReliabilityPipeline::new(ReliabilityConfig::full(100_000), plan, &config.geometry);
        let mut ctrl = MemoryController::new(config, Box::new(FrFcfs::new()))
            .unwrap()
            .with_refresh_mode(RefreshMode::AllBank)
            .with_queue_capacity(512)
            .with_reliability(pipeline);
        for i in 0..256u64 {
            ctrl.enqueue(MemRequest::read(i * 64, 0)).unwrap();
        }
        let done = ctrl.run_until_drained(1_000_000);
        assert_eq!(done.len(), 256);

        let rel = ctrl.reliability().expect("pipeline attached");
        assert_eq!(
            rel.stats().reads_checked,
            256,
            "every read went through ECC"
        );
        let faults = rel.fault_stats();
        assert!(faults.injected() > 0, "fault model was active: {faults:?}");
        assert!(
            rel.stats().corrected > 0,
            "single-bit flips get corrected: {:?}",
            rel.stats()
        );

        let mut reg = ia_telemetry::Registry::new();
        reg.collect("ctrl", &ctrl);
        let snap = reg.snapshot(ctrl.now().as_u64());
        assert!(snap.counter("ctrl.reliability.faults_injected").unwrap() > 0);
        for key in [
            "ctrl.reliability.corrected",
            "ctrl.reliability.uncorrected",
            "ctrl.reliability.remaps",
            "ctrl.reliability.quarantines",
            "ctrl.reliability.scrubs",
            "ctrl.reliability.retries",
        ] {
            assert!(snap.counter(key).is_some(), "missing counter {key}");
        }
    }

    #[test]
    fn reliability_report_is_deterministic_and_part_of_same_results() {
        use crate::reliability::ReliabilityConfig;
        use ia_faults::FaultPlan;

        let run = || {
            let config = DramConfig::ddr3_1600();
            let plan = FaultPlan::new(11).transient(0.1);
            let pipeline =
                ReliabilityPipeline::new(ReliabilityConfig::full(100_000), plan, &config.geometry);
            let ctrl = MemoryController::new(config, Box::new(FrFcfs::new()))
                .unwrap()
                .with_refresh_mode(RefreshMode::AllBank)
                .with_reliability(pipeline);
            let trace: Vec<MemRequest> = (0..64).map(|i| MemRequest::read(i * 64, 0)).collect();
            run_closed_loop_with(ctrl, &[trace], 8, 1_000_000).unwrap()
        };
        let a = run();
        let b = run();
        let rel = a.reliability.as_ref().expect("report carries reliability");
        assert!(rel.stats.reads_checked > 0);
        assert_eq!(a.reliability, b.reliability, "same seed, same outcome");
        assert!(a.same_results(&b));
    }

    #[test]
    fn cycle_trace_partitions_every_simulated_cycle() {
        let traces: Vec<Vec<MemRequest>> = (0..2)
            .map(|t| {
                (0..40u64)
                    .map(|i| MemRequest::read((t * (1 << 22)) as u64 + i * 64, t))
                    .collect()
            })
            .collect();
        let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
            .unwrap()
            .with_refresh_mode(RefreshMode::AllBank);
        ctrl.enable_cycle_tracing(1024);
        let report = run_closed_loop_with(ctrl, &traces, 4, 1_000_000).unwrap();
        let log = report.trace.as_ref().expect("tracing was enabled");
        let ctrl_trace = log
            .components
            .iter()
            .find(|c| c.track == "ctrl")
            .expect("ctrl track present");
        assert_eq!(
            ctrl_trace.attributed(),
            report.cycles,
            "per-phase attribution must partition the run exactly: {:?}",
            ctrl_trace.marks
        );
        assert!(
            ctrl_trace
                .marks
                .iter()
                .any(|&(p, _)| p == "sched.issue_column"),
            "column issues attributed"
        );
        let dram_trace = log
            .components
            .iter()
            .find(|c| c.track == "dram")
            .expect("dram track present");
        assert!(
            dram_trace.instants.iter().any(|i| i.name == "bank.act"),
            "activates recorded"
        );
        let reads = dram_trace
            .instants
            .iter()
            .find(|i| i.name == "bank.rd")
            .expect("reads recorded");
        assert_eq!(
            reads.count, report.stats.completed,
            "one bank.rd instant per completed read"
        );
    }

    #[test]
    fn cycle_trace_is_identical_between_engine_and_per_cycle_oracle() {
        let traces: Vec<Vec<MemRequest>> =
            vec![(0..32u64).map(|i| MemRequest::read(i * 64, 0)).collect()];
        let run = |per_cycle: bool| {
            let mut ctrl =
                MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
            ctrl.enable_cycle_tracing(4096);
            if per_cycle {
                run_closed_loop_per_cycle(ctrl, &traces, 4, 100_000).unwrap()
            } else {
                run_closed_loop_with(ctrl, &traces, 4, 100_000).unwrap()
            }
        };
        let engine = run(false);
        let oracle = run(true);
        assert!(engine.same_results(&oracle));
        let et = engine.trace.expect("engine run traced");
        let ot = oracle.trace.expect("oracle run traced");
        let phase_totals = |log: &TraceLog| {
            log.components
                .iter()
                .find(|c| c.track == "ctrl")
                .map(|c| c.marks.clone())
                .expect("ctrl track")
        };
        assert_eq!(
            phase_totals(&et),
            phase_totals(&ot),
            "skip bulk-marks must attribute exactly what per-cycle marks do"
        );
    }

    #[test]
    fn scheduler_trace_records_decisions_when_enabled() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        ctrl.enable_trace(8);
        ctrl.enqueue(MemRequest::read(0, 0)).unwrap();
        ctrl.run_until_drained(10_000);
        let cmds: Vec<Command> = ctrl.trace().iter().map(|e| e.cmd).collect();
        assert_eq!(cmds.len(), 2, "miss = ACT then RD");
        assert!(matches!(cmds[0], Command::Activate { .. }));
        assert!(matches!(cmds[1], Command::Read { .. }));
        assert!(ctrl.trace().iter().all(|e| e.request == 1));
    }
}
