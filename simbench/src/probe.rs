//! Timing wrappers at the library's trait boundaries, and the span log
//! they feed.
//!
//! Each wrapper delegates every trait method to the wrapped value,
//! counts the calls and times a sample of them into a [`Tally`]. The
//! controller takes ownership of its scheduler and fault hook (and
//! `run_closed_loop_with` consumes the controller), so the scheduler and
//! hook wrappers report through an `Arc` handle the benchmark keeps.
//! Wrapping never changes what the wrapped value computes: a traced job
//! must produce the same digest as an untraced one, and the gate checks
//! that it does.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use ia_faults::{FaultStats, FlipMask, Inject, RowSite};
use ia_memctrl::{Completed, IssueView, ReqId, RequestQueue, Scheduler, ViewMode};
use ia_sim::{Clocked, CompletionSink, Cycle};

/// One call in this many through a boundary is timed; every call is
/// counted. Timing every call would cost two clock reads (tens of ns)
/// around calls that themselves take a few ns. Prime, so the sample
/// does not lock onto a periodic pattern in the simulation.
const SAMPLE_EVERY: u64 = 31;

/// Nanoseconds since `t`, saturating at `u64::MAX`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls through one boundary: how many, how many were timed, and the
/// host ns the timed ones took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Calls.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Host ns of the timed calls.
    pub ns: u64,
}

impl Tally {
    /// Counts a call; returns its start time if this call is sampled.
    #[inline]
    fn enter(&mut self) -> Option<Instant> {
        self.calls += 1;
        self.calls.is_multiple_of(SAMPLE_EVERY).then(Instant::now)
    }

    #[inline]
    fn exit(&mut self, start: Option<Instant>) {
        if let Some(t) = start {
            self.timed += 1;
            self.ns += ns_since(t);
        }
    }
}

/// A [`Tally`] that several wrappers (a wrapper and its clones) add
/// into when they are dropped. Relaxed atomics: the counts publish no
/// other data.
#[derive(Debug, Default)]
pub struct SharedTally {
    calls: AtomicU64,
    timed: AtomicU64,
    ns: AtomicU64,
}

impl SharedTally {
    fn absorb(&self, t: &Tally) {
        self.calls.fetch_add(t.calls, Relaxed);
        self.timed.fetch_add(t.timed, Relaxed);
        self.ns.fetch_add(t.ns, Relaxed);
    }

    /// The sum so far.
    pub fn get(&self) -> Tally {
        Tally {
            calls: self.calls.load(Relaxed),
            timed: self.timed.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }
}

/// What the [`TimedScheduler`] of one job reports.
#[derive(Debug, Default)]
pub struct SchedProbe {
    /// `select` calls.
    pub select: SharedTally,
    /// `select` calls that returned `None`.
    idle: AtomicU64,
    /// `prepare` calls.
    pub prepare: SharedTally,
    /// The notification hooks: `on_issue`, `on_complete`, `on_tick` and
    /// `on_advance`.
    pub hook: SharedTally,
}

impl SchedProbe {
    /// `select` calls that returned `None`.
    pub fn idle(&self) -> u64 {
        self.idle.load(Relaxed)
    }
}

/// The host cost of one timed section, measured on the running machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCost {
    /// What an empty timed section reads: the part of the probe's cost
    /// inside the interval it measures.
    pub inside_ns: f64,
    /// What an empty timed section costs its caller in total.
    pub pair_ns: f64,
}

/// Measures [`ProbeCost`]: the median of five batches of empty timed
/// sections.
pub fn calibrate() -> ProbeCost {
    const N: u32 = 20_000;
    let mut inside = Vec::new();
    let mut pair = Vec::new();
    for _ in 0..5 {
        let outer = Instant::now();
        let mut sum = 0u64;
        for _ in 0..N {
            let t = Instant::now();
            sum += std::hint::black_box(ns_since(t));
        }
        pair.push(ns_since(outer) as f64 / f64::from(N));
        inside.push(sum as f64 / f64::from(N));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    ProbeCost {
        inside_ns: median(&mut inside),
        pair_ns: median(&mut pair),
    }
}

/// Per-call tallies a scheduler wrapper keeps until it is dropped.
#[derive(Debug, Clone, Copy, Default)]
struct SchedTallies {
    select: Tally,
    idle: u64,
    prepare: Tally,
    hook: Tally,
}

/// A [`Scheduler`] that times every call into the policy it wraps.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    probe: Arc<SchedProbe>,
    local: SchedTallies,
}

impl TimedScheduler {
    /// Wraps `inner`, reporting into `probe` when dropped.
    pub fn new(inner: Box<dyn Scheduler>, probe: Arc<SchedProbe>) -> Self {
        TimedScheduler {
            inner,
            probe,
            local: SchedTallies::default(),
        }
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.probe.select.absorb(&self.local.select);
        self.probe.idle.fetch_add(self.local.idle, Relaxed);
        self.probe.prepare.absorb(&self.local.prepare);
        self.probe.hook.absorb(&self.local.hook);
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler::new(
            self.inner.clone_box(),
            Arc::clone(&self.probe),
        ))
    }

    fn view_mode(&self) -> ViewMode {
        self.inner.view_mode()
    }

    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        let t = self.local.select.enter();
        let pick = self.inner.select(queue, view);
        self.local.select.exit(t);
        if pick.is_none() {
            self.local.idle += 1;
        }
        pick
    }

    fn prepare(&mut self, queue: &mut RequestQueue) {
        let t = self.local.prepare.enter();
        self.inner.prepare(queue);
        self.local.prepare.exit(t);
    }

    fn on_issue(&mut self, column: bool, now: Cycle) {
        let t = self.local.hook.enter();
        self.inner.on_issue(column, now);
        self.local.hook.exit(t);
    }

    fn on_complete(&mut self, completed: &Completed, now: Cycle) {
        let t = self.local.hook.enter();
        self.inner.on_complete(completed, now);
        self.local.hook.exit(t);
    }

    fn on_tick(&mut self, now: Cycle) {
        let t = self.local.hook.enter();
        self.inner.on_tick(now);
        self.local.hook.exit(t);
    }

    fn on_advance(&mut self, from: Cycle, to: Cycle) {
        let t = self.local.hook.enter();
        self.inner.on_advance(from, to);
        self.local.hook.exit(t);
    }
}

/// An [`Inject`] hook that times every event the reliability pipeline
/// forwards to the fault model it wraps.
#[derive(Debug)]
pub struct TimedInject {
    inner: Box<dyn Inject>,
    probe: Arc<SharedTally>,
    local: Tally,
}

impl TimedInject {
    /// Wraps `inner`, reporting into `probe` when dropped.
    pub fn new(inner: Box<dyn Inject>, probe: Arc<SharedTally>) -> Self {
        TimedInject {
            inner,
            probe,
            local: Tally::default(),
        }
    }
}

impl Drop for TimedInject {
    fn drop(&mut self) {
        self.probe.absorb(&self.local);
    }
}

impl Inject for TimedInject {
    fn on_activate(&mut self, site: &RowSite, now: u64) {
        let t = self.local.enter();
        self.inner.on_activate(site, now);
        self.local.exit(t);
    }

    fn on_read(&mut self, site: &RowSite, word: u64, now: u64) -> FlipMask {
        let t = self.local.enter();
        let mask = self.inner.on_read(site, word, now);
        self.local.exit(t);
        mask
    }

    fn on_write(&mut self, site: &RowSite, word: u64, now: u64) {
        let t = self.local.enter();
        self.inner.on_write(site, word, now);
        self.local.exit(t);
    }

    fn on_refresh(&mut self, channel: usize, rank: usize, now: u64) {
        let t = self.local.enter();
        self.inner.on_refresh(channel, rank, now);
        self.local.exit(t);
    }

    fn on_row_refresh(&mut self, site: &RowSite, now: u64) {
        let t = self.local.enter();
        self.inner.on_row_refresh(site, now);
        self.local.exit(t);
    }

    fn stats(&self) -> FaultStats {
        self.inner.stats()
    }

    fn clone_box(&self) -> Box<dyn Inject> {
        Box::new(TimedInject::new(
            self.inner.clone_box(),
            Arc::clone(&self.probe),
        ))
    }
}

/// A [`Clocked`] component that times the calls the engine makes into
/// the component it wraps. The benchmark owns it for the whole run, so
/// it keeps its tallies itself.
#[derive(Debug)]
pub struct TimedClocked<C> {
    inner: C,
    tick: Tally,
    next_event: Cell<Tally>,
    skip: Tally,
}

impl<C> TimedClocked<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TimedClocked {
            inner,
            tick: Tally::default(),
            next_event: Cell::new(Tally::default()),
            skip: Tally::default(),
        }
    }

    /// Unwraps the component, returning its `tick_into`, `next_event_at`
    /// and `skip_to` tallies.
    pub fn into_parts(self) -> (C, [Tally; 3]) {
        (self.inner, [self.tick, self.next_event.get(), self.skip])
    }
}

impl<C: Clocked> Clocked for TimedClocked<C> {
    type Completion = C::Completion;

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn tick_into(&mut self, sink: &mut dyn CompletionSink<C::Completion>) {
        let t = self.tick.enter();
        self.inner.tick_into(sink);
        self.tick.exit(t);
    }

    fn next_event_at(&self) -> Option<Cycle> {
        let mut tally = self.next_event.get();
        let t = tally.enter();
        let at = self.inner.next_event_at();
        tally.exit(t);
        self.next_event.set(tally);
        at
    }

    fn skip_to(&mut self, target: Cycle) {
        let t = self.skip.enter();
        self.inner.skip_to(target);
        self.skip.exit(t);
    }
}

/// One span: a layer boundary crossed while running one job. Calls that
/// happen millions of times per job (a scheduler pick, a mesh tick) are
/// folded into one span per job that carries their [`Tally`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `memctrl.sched.select`.
    pub name: &'static str,
    /// Index of the causing span within the same job, if any.
    pub parent: Option<usize>,
    /// Start, in host ns since the job began.
    pub start_ns: u64,
    /// The calls folded into this span; a single timed interval is one
    /// call, timed.
    pub tally: Tally,
}

impl Span {
    /// Estimated host ns inside the span's calls, less the probe's own
    /// cost: the timed calls' mean, scaled to every call.
    pub fn est_ns(&self, cost: ProbeCost) -> f64 {
        let t = &self.tally;
        if t.timed == 0 {
            return 0.0;
        }
        let per_call = (t.ns as f64 / t.timed as f64 - cost.inside_ns).max(0.0);
        per_call * t.calls as f64
    }

    /// Host ns the probe added to the span's parent.
    pub fn probe_ns(&self, cost: ProbeCost) -> f64 {
        self.tally.timed as f64 * cost.pair_ns
    }
}

/// The spans of one job, in the order they were opened.
#[derive(Debug, Clone, Default)]
pub struct JobSpans {
    spans: Vec<Span>,
}

impl JobSpans {
    /// Records a single timed interval and returns its index for use as
    /// a parent.
    pub fn interval(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        let tally = Tally {
            calls: 1,
            timed: 1,
            ns: dur_ns,
        };
        self.push(name, parent, start_ns, tally)
    }

    /// Records the calls of one boundary under `parent`.
    pub fn calls(&mut self, name: &'static str, parent: usize, tally: Tally) -> usize {
        let start = self.spans[parent].start_ns;
        self.push(name, Some(parent), start, tally)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        tally: Tally,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            tally,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Estimated host ns of span `i` outside its direct children and
    /// outside the probes timing them.
    pub fn self_ns(&self, i: usize, cost: ProbeCost) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.est_ns(cost) + s.probe_ns(cost))
            .sum();
        (self.spans[i].est_ns(cost) - children).max(0.0)
    }
}
