//! The memory controller: request queue, scheduler invocation, refresh
//! engine, and a closed-loop multi-programmed run harness.
//!
//! The controller implements [`ia_sim::Clocked`], so the event-driven
//! [`SimLoop`] can cycle-skip over idle spans (refresh gaps, long DRAM
//! timing waits) with results numerically identical to per-cycle polling
//! — see `crates/sim/src/lib.rs` for the contract; the per-cycle oracle
//! the engine is tested against lives in `tests/properties.rs`.

use std::fmt;

use ia_dram::{Command, ConfigError, Cycle, DramConfig, DramModule, RowBufferOutcome};
use ia_reliability::Raidr;
use ia_sim::{Clocked, CompletionSink, EngineStats, SimLoop, StepOutcome};
use ia_trace::{TraceLog, Tracer};

use crate::error::CtrlError;
use crate::pool::{IssueView, ReqId, RequestQueue, ViewMode};
use crate::reliability::{ReliabilityPipeline, ReliabilityReport};
use crate::request::{thread_index, Completed, MemRequest, Pending};
use crate::scheduler::Scheduler;

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
    /// The installed policy's [`Scheduler::view_mode`], read once when
    /// the policy is installed: the trait forbids it from changing.
    mode: ViewMode,
    queue: RequestQueue,
    /// For a [`ViewMode::Skip`] policy: the queue head, its next command
    /// and that command's gate, from one [`RequestQueue::probe_head`].
    /// The controller serves this head itself, without calling the
    /// policy, and sleeps until its gate.
    /// The probe depends only on the DRAM state and on which request is
    /// the head, so it is taken again only when one of those changes:
    /// after an issued command (the head may also have left the queue),
    /// after a refresh that issued, on an enqueue into an empty queue,
    /// and when the policy or the latency mode is swapped. An enqueue
    /// into a non-empty queue never displaces the head: arrivals are
    /// `now` and ids rise, so the newcomer orders after every queued
    /// request. `None` for other modes and for an empty queue.
    head: Option<(ReqId, Command, Cycle)>,
    /// Reused per-cycle scheduling view (capacity persists across ticks).
    view: IssueView,
    /// Requests whose column command has issued, as the [`Completed`]
    /// each delivers once its `finished` cycle comes, in issue order.
    inflight: Vec<Completed>,
    now: Cycle,
    /// The id the next enqueued request receives.
    next_id: u64,
    queue_capacity: usize,
    refresh: RefreshEngine,
    stats: CtrlStats,
    engine: EngineStats,
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
            mode: scheduler.view_mode(),
            scheduler,
            queue: RequestQueue::new(),
            head: None,
            view: IssueView::default(),
            inflight: Vec::new(),
            now: Cycle::ZERO,
            next_id: 1,
            queue_capacity: 64,
            refresh,
            stats: CtrlStats::default(),
            engine: EngineStats::default(),
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
        self.mode = scheduler.view_mode();
        self.scheduler = scheduler;
        // The outgoing policy may have been a Skip one, which leaves the
        // queue's gate cache unsynced.
        self.queue.resync_all(&self.dram);
        self.reprobe_head();
        self
    }

    /// Attaches a reliability pipeline (chainable). From then on every
    /// activate, read, write, and rank refresh the DRAM accepts flows
    /// through the pipeline's closed detect → correct → degrade loop as
    /// soon as it is issued.
    #[must_use]
    pub fn with_reliability(mut self, pipeline: ReliabilityPipeline) -> Self {
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
        self.dram = self.dram.with_latency_mode(mode);
        self.reprobe_head();
        self
    }

    /// Takes the [`ViewMode::Skip`] head probe again (see `head`).
    fn reprobe_head(&mut self) {
        self.head = if self.mode == ViewMode::Skip {
            self.queue.probe_head(&self.dram)
        } else {
            None
        };
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
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

    /// Whether [`enable_cycle_tracing`](Self::enable_cycle_tracing) was
    /// called on this controller.
    #[must_use]
    pub fn is_cycle_tracing(&self) -> bool {
        self.tracer.is_enabled()
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

    /// Enqueues a request and returns the id assigned to it: ids start
    /// at 1 and rise by one per accepted request, and the request
    /// retires with the same id on its [`Completed`].
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError::QueueFull`] when at capacity; no id is used.
    pub fn enqueue(&mut self, request: MemRequest) -> Result<u64, CtrlError> {
        if self.queue.len() >= self.queue_capacity {
            return Err(CtrlError::QueueFull);
        }
        let id = self.next_id;
        self.next_id += 1;
        let loc = self.dram.decode(request.addr);
        self.queue.insert(
            Pending {
                id,
                request,
                loc,
                arrival: self.now,
                batched: false,
                started: false,
            },
            &self.dram,
        );
        // Only an enqueue into an empty queue changes the head (see `head`).
        if self.queue.len() == 1 {
            self.reprobe_head();
        }
        Ok(id)
    }

    /// Advances one cycle, delivering any completed requests into `sink`.
    ///
    /// This is the allocation-free core of the controller: the caller owns
    /// the completion storage (a reused scratch `Vec`, or a closure via
    /// [`ia_sim::FnSink`]), so the steady-state tick path never touches
    /// the heap.
    pub fn tick_into(&mut self, sink: &mut dyn CompletionSink<Completed>) {
        // For a Skip policy the controller serves the queue head itself:
        // it calls none of the policy's hooks, builds no view and reads
        // no cached gates, so the queue's gate cache is resynced only for
        // the other modes.
        let mode = self.mode;
        let cached = mode != ViewMode::Skip;
        if cached {
            self.scheduler.on_tick(self.now);
        }
        // A traced run records the reliability ladder's activity this
        // tick as instant deltas against these counts.
        let rel_before = match &self.reliability {
            Some(rel) if self.tracer.is_enabled() => {
                Some((*rel.stats(), rel.fault_stats().injected()))
            }
            _ => None,
        };

        // 1. Retire in-flight requests whose data burst has finished,
        //    compacting in place so retirement order (= insertion order)
        //    is preserved.
        let now = self.now;
        let had_inflight = self.inflight.len();
        let mut kept = 0;
        for i in 0..self.inflight.len() {
            if self.inflight[i].finished <= now {
                let c = self.inflight[i];
                self.stats.completed += 1;
                self.stats.total_latency += c.latency();
                if cached {
                    self.scheduler.on_complete(&c, now);
                }
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

        // 2. Refresh engine.
        let mut refresh_fired = false;
        if let Some(must_issue) = self.refresh.due(self.now) {
            refresh_fired = true;
            if must_issue {
                for ch in 0..self.dram.config().geometry.channels {
                    for rk in 0..self.dram.config().geometry.ranks {
                        // refresh_rank sequences precharges internally,
                        // so the refresh itself issues tRFC before `done`.
                        let Ok(done) = self.dram.refresh_rank(ch, rk, self.now) else {
                            continue;
                        };
                        if let Some(rel) = &mut self.reliability {
                            let t_rfc = self.dram.config().timing.t_rfc;
                            rel.on_refresh(Cycle::new(done.as_u64() - t_rfc), ch, rk);
                        }
                    }
                }
                if cached {
                    self.queue.resync_all(&self.dram);
                } else {
                    self.reprobe_head();
                }
                self.stats.refreshes_issued += 1;
            } else {
                self.stats.refreshes_skipped += 1;
            }
            self.refresh.advance(must_issue);
        }

        // 3. Scheduling: one command per cycle. A Skip policy's pick is
        //    the cached head probe. Otherwise the view is built from the
        //    queue's indexed per-bank ready lists and gate cache at the
        //    depth the policy asks for — O(occupied banks), not O(queue
        //    depth), and no DRAM probe — and the issued command resyncs
        //    the cache for what it changed: its bank and its channel.
        let mut issued_this_cycle = false;
        let mut column_issued = false;
        let pick = if cached {
            self.scheduler.prepare(&mut self.queue);
            self.queue.build_view(self.now, mode, &mut self.view);
            self.scheduler
                .select(&self.queue, &self.view)
                .filter(|&h| self.queue.get(h).is_some())
                .map(|h| {
                    let (cmd, gate) = self.queue.next_command(h);
                    (h, cmd, gate)
                })
        } else {
            debug_assert_eq!(
                self.head,
                self.queue.probe_head(&self.dram),
                "the Skip head probe is out of sync with the DRAM at {:?}",
                self.now
            );
            self.head
        };
        if let Some((h, cmd, _)) = pick.filter(|&(_, _, gate)| gate <= self.now) {
            let p = *self.queue.req(h);
            // Classify the row-buffer outcome once, when the request
            // first makes progress.
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
                if let Some(rel) = &mut self.reliability {
                    let geo = &self.dram.config().geometry;
                    let bank = p.loc.bank_group * geo.banks_per_group + p.loc.bank;
                    rel.on_command(&p.loc, bank, cmd, self.now);
                }
                issued_this_cycle = true;
                column_issued = column;
                if cached {
                    self.scheduler.on_issue(column, self.now);
                }
                if column {
                    self.stats.busy_cycles += 1;
                    let ready = out.data_ready.unwrap_or(self.now);
                    let p = self.queue.remove(h);
                    self.inflight.push(Completed {
                        id: p.id,
                        request: p.request,
                        arrival: p.arrival,
                        finished: ready,
                    });
                }
                if cached {
                    self.queue.resync(&self.dram, &p.loc);
                } else {
                    self.reprobe_head();
                }
            }
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

        if let (Some(rel), Some((before, faults_before))) = (&self.reliability, rel_before) {
            let s = *rel.stats();
            let at = now.as_u64();
            for (name, before, after) in [
                ("reliability.corrected", before.corrected, s.corrected),
                ("reliability.uncorrected", before.uncorrected, s.uncorrected),
                ("reliability.scrubs", before.scrubs, s.scrubs),
                ("reliability.remaps", before.remaps, s.remaps),
                ("reliability.quarantines", before.quarantines, s.quarantines),
                (
                    "reliability.escalated_refreshes",
                    before.escalated_refreshes,
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
        }
        // The pipeline issues no DRAM command, so the gate cache still
        // matches the DRAM at the end of every tick.
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
    /// ([`RequestQueue::next_issue_at`], which applies the open-page
    /// rule, or for a [`ViewMode::Skip`] policy the queue head's gate).
    /// Every tick before it retires, refreshes and issues nothing, so
    /// skipping straight to it is exact — after any tick, busy or idle,
    /// and after any enqueue. Neither issue bound probes the DRAM: a
    /// view-building policy's is a minimum over the queue's cached
    /// per-bank wake cycles, and a Skip policy's is the gate of its
    /// cached head probe. Every enqueue, issued command and refresh
    /// keeps the cache in use current, so it is current whenever the
    /// engine asks. Each source returns `now` as soon as it is already
    /// due.
    fn next_event_at(&self) -> Option<Cycle> {
        let now = self.now;
        let mut next: Option<Cycle> = None;
        for c in &self.inflight {
            let ready = c.finished;
            if ready <= now {
                return Some(now);
            }
            next = Some(next.map_or(ready, |n| n.min(ready)));
        }
        if !matches!(self.refresh.mode, RefreshMode::Disabled) {
            let at = self.refresh.next_at;
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        let issue = if self.mode == ViewMode::Skip {
            self.head.map(|(_, _, gate)| gate.max(now))
        } else {
            self.queue.next_issue_at(now)
        };
        if let Some(at) = issue {
            if at <= now {
                return Some(now);
            }
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        next
    }

    /// Applies the bookkeeping the skipped idle ticks would have done, in
    /// bulk: scheduler epoch housekeeping (via [`Scheduler::on_advance`],
    /// which a [`ViewMode::Skip`] policy never receives) and, when
    /// tracing, the cycle attribution of the skipped span.
    fn skip_to(&mut self, target: Cycle) {
        if target <= self.now {
            return;
        }
        let n = target - self.now;
        if self.mode != ViewMode::Skip {
            self.scheduler.on_advance(self.now, target);
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
    /// the equality the event-driven engine guarantees against ticking
    /// every cycle.
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
/// capacity is raised to fit the per-thread windows if needed. A
/// controller with [cycle tracing](MemoryController::enable_cycle_tracing)
/// on also traces the engine, and the report carries the merged log.
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
    // A controller handed in with cycle tracing on gets the engine
    // traced too; the trace rides back on the report so parallel sweeps
    // can merge it in task order.
    let tracing = ctrl.is_cycle_tracing();
    let mut cursor = vec![0usize; traces.len()];
    let mut outstanding = vec![0usize; traces.len()];
    let mut completed = vec![0u64; traces.len()];
    let mut latency = vec![0u64; traces.len()];
    let mut finish = vec![0u64; traces.len()];
    // Requests not yet fed, and fed but not yet completed: the run is
    // done when both reach zero.
    let mut unfed: usize = traces.iter().map(Vec::len).sum();
    let mut unfinished = 0usize;
    // One bit per thread that may take new work, every thread at the
    // start. A thread leaves the set once its window is full or its
    // trace has run out, and only a completion of its own brings it
    // back; a thread whose enqueue was refused stays in it.
    let mut hungry = vec![0u64; traces.len().div_ceil(64)];
    for t in 0..traces.len() {
        hungry[t / 64] |= 1 << (t % 64);
    }

    // Event-driven drive: feed, process exactly one event, account. The
    // scratch buffer is reused across steps, so the steady-state loop
    // performs no heap allocation. Feeding opportunities only arise after
    // completions (the queue never rejects: capacity covers every
    // window), so feeding once per processed event sees exactly the
    // states the per-cycle loop would feed in, and feeding only the
    // hungry threads, in ascending order, makes exactly the enqueues a
    // pass over every thread would.
    let mut engine = SimLoop::new();
    if tracing {
        engine.enable_tracing(ia_trace::DEFAULT_EVENT_CAPACITY);
        engine.tracer_mut().begin("run", 0);
    }
    let deadline = Cycle::new(max_cycles);
    let mut scratch: Vec<Completed> = Vec::new();
    while (unfed > 0 || unfinished > 0) && ctrl.now().as_u64() < max_cycles {
        for (w, word) in hungry.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let t = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let trace = &traces[t];
                while outstanding[t] < window && cursor[t] < trace.len() {
                    let mut req = trace[cursor[t]];
                    req.thread = thread_index(t);
                    if ctrl.enqueue(req).is_err() {
                        break;
                    }
                    cursor[t] += 1;
                    outstanding[t] += 1;
                    unfed -= 1;
                    unfinished += 1;
                }
                if outstanding[t] >= window || cursor[t] >= trace.len() {
                    *word &= !(1 << (t % 64));
                }
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
            let t = c.request.thread as usize;
            outstanding[t] -= 1;
            unfinished -= 1;
            completed[t] += 1;
            latency[t] += c.latency();
            finish[t] = c.finished.as_u64();
            hungry[t / 64] |= 1 << (t % 64);
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
    let trace = ctrl.take_trace_log();
    let mut report = RunReport {
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
    };
    if tracing {
        let now = report.cycles;
        engine.tracer_mut().end(now);
        if let Some(log) = &mut report.trace {
            log.components.insert(0, engine.take_trace());
        }
    }
    Ok(report)
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
    fn enqueue_ids_rise_and_retire_with_their_requests() {
        let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
            .unwrap()
            .with_queue_capacity(12);
        // Rows far apart in one bank, interleaved with row hits, so
        // FR-FCFS retires them out of enqueue order.
        let mut sent = Vec::new();
        for i in 0..12u64 {
            let addr = if i % 3 == 0 { i << 22 } else { i * 64 };
            let req = if i % 4 == 1 {
                MemRequest::write(addr, (i % 3) as usize)
            } else {
                MemRequest::read(addr, (i % 3) as usize)
            };
            sent.push((ctrl.enqueue(req).unwrap(), req));
        }
        // A refused request takes no id.
        assert!(matches!(
            ctrl.enqueue(MemRequest::read(0, 0)),
            Err(CtrlError::QueueFull)
        ));
        let ids: Vec<u64> = sent.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            ids,
            (1..=12).collect::<Vec<u64>>(),
            "ids rise in enqueue order"
        );

        let done = ctrl.run_until_drained(1_000_000);
        assert_eq!(done.len(), sent.len());
        let order: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_ne!(order, ids, "the mix must retire out of enqueue order");
        for c in &done {
            let (id, req) = sent[(c.id - 1) as usize];
            assert_eq!(
                (c.id, c.request),
                (id, req),
                "a request retires with its id"
            );
        }
        let mut retired = order.clone();
        retired.sort_unstable();
        assert_eq!(retired, ids, "every id retires exactly once");
        assert_eq!(ctrl.enqueue(MemRequest::read(0, 0)).unwrap(), 13);
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

    /// A Skip policy whose every hook panics: the controller must serve
    /// the queue head itself and never call it.
    #[derive(Debug, Clone)]
    struct SkipOnly;

    impl Scheduler for SkipOnly {
        fn name(&self) -> &'static str {
            "FCFS"
        }
        fn clone_box(&self) -> Box<dyn Scheduler> {
            Box::new(SkipOnly)
        }
        fn view_mode(&self) -> ViewMode {
            ViewMode::Skip
        }
        fn select(&mut self, _queue: &RequestQueue, _view: &IssueView) -> Option<ReqId> {
            panic!("select called on a Skip policy")
        }
        fn prepare(&mut self, _queue: &mut RequestQueue) {
            panic!("prepare called on a Skip policy")
        }
        fn on_issue(&mut self, _column: bool, _now: Cycle) {
            panic!("on_issue called on a Skip policy")
        }
        fn on_complete(&mut self, _completed: &Completed, _now: Cycle) {
            panic!("on_complete called on a Skip policy")
        }
        fn on_tick(&mut self, _now: Cycle) {
            panic!("on_tick called on a Skip policy")
        }
        fn on_advance(&mut self, _from: Cycle, _to: Cycle) {
            panic!("on_advance called on a Skip policy")
        }
    }

    #[test]
    fn skip_policy_is_served_by_the_controller_without_a_hook_call() {
        // Row scans in two threads and a conflicting pair in a third, so
        // the run activates, precharges, reads, refreshes and skips idle
        // spans.
        let traces: Vec<Vec<MemRequest>> = (0..3u64)
            .map(|t| {
                (0..300u64)
                    .map(|i| {
                        let addr = if t == 2 {
                            (1 << 20) + ((i % 2) << 17)
                        } else {
                            (t << 23) + (i % 64) * 64 + ((i / 64) << 16)
                        };
                        MemRequest::read(addr, t as usize)
                    })
                    .collect()
            })
            .collect();
        let run = |scheduler: Box<dyn Scheduler>| {
            let ctrl = MemoryController::new(DramConfig::ddr3_1600(), scheduler)
                .unwrap()
                .with_refresh_mode(RefreshMode::AllBank);
            run_closed_loop_with(ctrl, &traces, 4, 2_000_000).unwrap()
        };
        let skip = run(Box::new(SkipOnly));
        let fcfs = run(Box::new(Fcfs::new()));
        assert_eq!(skip.stats.completed, 900);
        assert!(skip.stats.refreshes_issued > 0, "{}", skip.stats);
        assert!(skip.engine.cycles_skipped > 0, "no idle span was skipped");
        assert!(skip.same_results(&fcfs), "{skip:?}\n{fcfs:?}");
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
    fn controller_counts_completions_and_dram_reads() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        for i in 0..16u64 {
            ctrl.enqueue(MemRequest::read(i * 64, 0)).unwrap();
        }
        let done = ctrl.run_until_drained(100_000);
        assert_eq!(done.len(), 16);
        assert_eq!(ctrl.stats().completed, 16);
        assert_eq!(ctrl.stats().busy_cycles, 16, "one column command each");
        assert_eq!(ctrl.dram().stats().reads, 16);
    }

    #[test]
    fn reliability_pipeline_detects_and_corrects_through_a_real_run() {
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
    }

    #[test]
    fn reliability_is_deterministic_and_traced_instants_sum_to_its_counters() {
        use crate::reliability::ReliabilityConfig;
        use ia_faults::{FaultKind, FaultPlan, ScriptedFault};

        let run = |traced: bool| {
            let config = DramConfig::ddr3_1600();
            // Two stuck bits in the first word read: a persistent
            // uncorrectable, so the ladder remaps as well.
            let first = DramModule::new(config.clone()).unwrap().decode(0.into());
            let stuck = |bit| ScriptedFault {
                at: 0,
                channel: first.channel,
                rank: first.rank,
                bank: first.bank_group * config.geometry.banks_per_group + first.bank,
                row: first.row,
                word: first.column,
                bit,
                kind: FaultKind::StuckAt,
            };
            let plan = FaultPlan::new(3).transient(0.2).stuck(0.002);
            let plan = plan.script(stuck(3)).script(stuck(40));
            let pipeline =
                ReliabilityPipeline::new(ReliabilityConfig::full(8), plan, &config.geometry);
            let mut ctrl = MemoryController::new(config, Box::new(FrFcfs::new()))
                .unwrap()
                .with_refresh_mode(RefreshMode::AllBank)
                .with_reliability(pipeline);
            if traced {
                ctrl.enable_cycle_tracing(1024);
            }
            // Row scans plus a hammered pair.
            let scan = (0..512u64).map(|i| MemRequest::read((i % 128) * 64 + ((i / 128) << 16), 0));
            let hammer = (0..512u64).map(|i| MemRequest::read((1 << 20) + ((i % 2) << 17), 1));
            let traces = [scan.collect(), hammer.collect()];
            run_closed_loop_with(ctrl, &traces, 4, 2_000_000).unwrap()
        };
        let (plain, traced) = (run(false), run(true));
        assert!(plain.same_results(&run(false)), "same seed, same outcome");
        assert!(plain.same_results(&traced), "tracing changed the run");
        let rel = traced.reliability.expect("report carries reliability");
        let log = traced.trace.as_ref().expect("tracing was enabled");
        let ctrl = log.components.iter().find(|c| c.track == "ctrl").unwrap();
        let s = rel.stats;
        for (name, want) in [
            ("reliability.corrected", s.corrected),
            ("reliability.uncorrected", s.uncorrected),
            ("reliability.scrubs", s.scrubs),
            ("reliability.remaps", s.remaps),
            ("reliability.quarantines", s.quarantines),
            ("reliability.escalated_refreshes", s.escalated_refreshes),
            ("faults.injected", rel.faults.injected()),
        ] {
            let sum = ctrl.instants.iter().find(|i| i.name == name);
            assert!(want > 0, "{name} never moved: {s:?}");
            assert_eq!(sum.map_or(0, |i| i.sum as u64), want, "{name}");
        }
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
    fn cycle_trace_records_a_miss_as_act_then_rd() {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        ctrl.enable_cycle_tracing(64);
        ctrl.enqueue(MemRequest::read(0, 0)).unwrap();
        ctrl.run_until_drained(10_000);
        let log = ctrl.take_trace_log().expect("tracing was enabled");
        let dram = log
            .components
            .iter()
            .find(|c| c.track == "dram")
            .expect("dram track present");
        let cmds: Vec<&str> = dram
            .events
            .iter()
            .filter_map(|e| match *e {
                ia_trace::TraceEvent::Instant { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(cmds, ["bank.act", "bank.rd"], "miss = ACT then RD");
    }
}
