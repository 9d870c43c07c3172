//! The per-component [`Tracer`]: cycle-attribution marks, nested spans,
//! and instant events, all timestamped in **simulated cycles**.
//!
//! A `Tracer` is owned by the component it observes (a memory
//! controller, a mesh, the sim engine) and costs one branch per trace
//! point when disabled: the private `Ring` that holds its events
//! allocates once, at construction, and not at all when disabled.
//! Aggregation (per-phase cycle totals, span inclusive/exclusive time,
//! instant counts) is folded in *at record time*, so a full ring
//! overwriting old events never corrupts the profile totals.

use std::collections::BTreeMap;

use crate::log::{ComponentTrace, InstantStat, SpanStat};

/// Default per-component event-ring capacity used by the `--trace` path.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// One recorded trace event, timestamped in simulated cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A closed nested span covering `[begin, end)` cycles; `depth` is
    /// the number of enclosing spans still open when it closed.
    Span {
        /// Phase label (`"run"`, `"drain"`, …).
        phase: &'static str,
        /// First cycle covered.
        begin: u64,
        /// One past the last cycle covered.
        end: u64,
        /// Nesting depth at close (0 = top level).
        depth: u32,
    },
    /// A coalesced run of per-cycle attribution marks: `cycles`
    /// contiguous cycles starting at `begin`, attributed to `phase`.
    Mark {
        /// Phase label (`"sched.issue_column"`, `"idle.empty"`, …).
        phase: &'static str,
        /// First cycle of the run.
        begin: u64,
        /// Length of the run in cycles.
        cycles: u64,
    },
    /// A point event at cycle `at` carrying a value.
    // lint: allow(D002, a Chrome "instant" event stamped with a simulated cycle, not std::time)
    Instant {
        /// Event name (`"engine.skip"`, `"reliability.corrected"`, …).
        name: &'static str,
        /// Cycle at which the event fired.
        at: u64,
        /// Event payload (count delta, cycles skipped, …).
        value: f64,
    },
}

/// A fixed-capacity ring of trace events with drop counting.
///
/// When full, the oldest event is overwritten and the drop counter
/// increments. The default ring has capacity 0: it is disabled, and
/// pushing to it is one branch that allocates nothing, ever.
#[derive(Debug, Clone)]
struct Ring<T> {
    buf: Vec<T>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(0)
    }
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` events; enabled when
    /// `capacity > 0`.
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn push(&mut self, event: T) {
        if !self.is_enabled() {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
        self.recorded += 1;
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever pushed while enabled (held + dropped).
    fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Iterates the held events oldest → newest.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, linear) = self.buf.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    phase: &'static str,
    begin: u64,
    child_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct MarkRun {
    phase: &'static str,
    begin: u64,
    cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SpanTotals {
    inclusive: u64,
    exclusive: u64,
    count: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct InstantTotals {
    count: u64,
    sum: f64,
}

/// A deterministic per-component trace recorder.
///
/// Phase labels are `&'static str` by design: recording never allocates
/// per event (the only allocations are the bounded ring at construction
/// and the first insertion of each distinct label into the fold maps).
///
/// # Examples
///
/// ```
/// use ia_trace::Tracer;
/// let mut t = Tracer::new("ctrl", 64);
/// t.mark("sched.issue", 0);
/// t.mark("sched.issue", 1); // coalesces with the previous cycle
/// t.mark("idle.empty", 2);
/// t.instant("refresh", 2);
/// let trace = t.take();
/// assert_eq!(trace.attributed(), 3);
/// assert_eq!(trace.marks, vec![("idle.empty", 1), ("sched.issue", 2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    track: String,
    events: Ring<TraceEvent>,
    stack: Vec<OpenSpan>,
    run: Option<MarkRun>,
    marks: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanTotals>,
    instants: BTreeMap<&'static str, InstantTotals>,
    truncated_spans: u64,
}

impl Tracer {
    /// An enabled tracer for track `track`, ringing at most `capacity`
    /// events (aggregated totals are unbounded and exact regardless).
    #[must_use]
    pub fn new(track: &str, capacity: usize) -> Self {
        Tracer {
            track: track.to_owned(),
            events: Ring::new(capacity),
            ..Tracer::default()
        }
    }

    /// A disabled tracer: every record call is a single branch and
    /// nothing ever allocates. This is what components embed by default.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether trace points currently record anything.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.events.is_enabled()
    }

    /// The track label events are attributed to.
    #[must_use]
    pub fn track(&self) -> &str {
        &self.track
    }

    /// Attributes cycle `at` to `phase` (the profiler's unit of work).
    /// Contiguous same-phase cycles coalesce into one ring event.
    pub fn mark(&mut self, phase: &'static str, at: u64) {
        self.mark_n(phase, at, 1);
    }

    /// Attributes `n` contiguous cycles starting at `at` to `phase` —
    /// the bulk form used by `skip_to` fast-forwarding.
    pub fn mark_n(&mut self, phase: &'static str, at: u64, n: u64) {
        if !self.is_enabled() || n == 0 {
            return;
        }
        *self.marks.entry(phase).or_insert(0) += n;
        match &mut self.run {
            Some(run) if run.phase == phase && run.begin + run.cycles == at => run.cycles += n,
            _ => {
                self.flush_run();
                self.run = Some(MarkRun {
                    phase,
                    begin: at,
                    cycles: n,
                });
            }
        }
    }

    /// Opens a nested span labelled `phase` at cycle `at`.
    pub fn begin(&mut self, phase: &'static str, at: u64) {
        if !self.is_enabled() {
            return;
        }
        self.stack.push(OpenSpan {
            phase,
            begin: at,
            child_cycles: 0,
        });
    }

    /// Closes the innermost open span at cycle `at`. Inclusive time is
    /// `at - begin`; exclusive time subtracts the inclusive time of
    /// child spans. A close with no open span is ignored.
    pub fn end(&mut self, at: u64) {
        if !self.is_enabled() {
            return;
        }
        let Some(open) = self.stack.pop() else {
            return;
        };
        let inclusive = at.saturating_sub(open.begin);
        let exclusive = inclusive.saturating_sub(open.child_cycles);
        let totals = self.spans.entry(open.phase).or_default();
        totals.inclusive += inclusive;
        totals.exclusive += exclusive;
        totals.count += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += inclusive;
        }
        let depth = self.stack.len() as u32;
        self.events.push(TraceEvent::Span {
            phase: open.phase,
            begin: open.begin,
            end: at,
            depth,
        });
    }

    /// Records a point event named `name` at cycle `at` with value `1`.
    pub fn instant(&mut self, name: &'static str, at: u64) {
        self.instant_value(name, at, 1.0);
    }

    /// Records a point event carrying an explicit `value` (a count
    /// delta, cycles skipped, …). Inlined to the enabled check, so a
    /// disabled tracer costs its caller one branch and no call (the
    /// engine calls this on every cycle skip).
    #[inline]
    pub fn instant_value(&mut self, name: &'static str, at: u64, value: f64) {
        if self.is_enabled() {
            self.record_instant(name, at, value);
        }
    }

    #[cold]
    #[inline(never)]
    fn record_instant(&mut self, name: &'static str, at: u64, value: f64) {
        let totals = self.instants.entry(name).or_default();
        totals.count += 1;
        totals.sum += value;
        // lint: allow(D002, a Chrome "instant" event stamped with a simulated cycle, not std::time)
        self.events.push(TraceEvent::Instant { name, at, value });
    }

    /// Drains the tracer into a [`ComponentTrace`], resetting it for the
    /// next run (capacity and track label are kept). Open spans are
    /// discarded and counted in
    /// [`truncated_spans`](ComponentTrace::truncated_spans).
    #[must_use]
    pub fn take(&mut self) -> ComponentTrace {
        self.flush_run();
        self.truncated_spans += self.stack.len() as u64;
        self.stack.clear();
        let fresh = Ring::new(self.events.capacity());
        let ring = std::mem::replace(&mut self.events, fresh);
        ComponentTrace {
            track: self.track.clone(),
            events: ring.iter().copied().collect(),
            marks: std::mem::take(&mut self.marks).into_iter().collect(),
            spans: std::mem::take(&mut self.spans)
                .into_iter()
                .map(|(phase, t)| SpanStat {
                    phase,
                    inclusive: t.inclusive,
                    exclusive: t.exclusive,
                    count: t.count,
                })
                .collect(),
            instants: std::mem::take(&mut self.instants)
                .into_iter()
                .map(|(name, t)| InstantStat {
                    name,
                    count: t.count,
                    sum: t.sum,
                })
                .collect(),
            recorded: ring.recorded(),
            dropped: ring.dropped(),
            truncated_spans: std::mem::take(&mut self.truncated_spans),
        }
    }

    fn flush_run(&mut self) {
        if let Some(run) = self.run.take() {
            self.events.push(TraceEvent::Mark {
                phase: run.phase,
                begin: run.begin,
                cycles: run.cycles,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(ring: &Ring<u64>) -> Vec<u64> {
        ring.iter().copied().collect()
    }

    #[test]
    fn ring_keeps_newest_in_wrap_order_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..7u64 {
            r.push(i);
        }
        assert_eq!(held(&r), vec![4, 5, 6]);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.recorded(), 7);
    }

    #[test]
    fn ring_iterates_in_order_before_wrap_and_at_exactly_full() {
        let mut r = Ring::new(4);
        r.push(0);
        r.push(1);
        assert_eq!(held(&r), vec![0, 1]);
        // Exactly full, head still at 0: every element once, oldest
        // first, with zero drops.
        r.push(2);
        r.push(3);
        assert_eq!(held(&r), vec![0, 1, 2, 3]);
        assert_eq!(r.dropped(), 0);
        // One more push tips it over: exactly one drop, order kept.
        r.push(4);
        assert_eq!(held(&r), vec![1, 2, 3, 4]);
        assert_eq!((r.recorded(), r.dropped()), (5, 1));
    }

    #[test]
    fn disabled_ring_never_allocates() {
        let mut r: Ring<[u64; 4]> = Ring::default();
        for i in 0..1_000_000u64 {
            r.push([i; 4]);
        }
        assert!(!r.is_enabled());
        assert_eq!(r.buf.capacity(), 0, "a disabled ring must not allocate");
        assert_eq!((r.recorded(), r.dropped()), (0, 0));
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_allocates() {
        let mut t = Tracer::disabled();
        for at in 0..10_000u64 {
            t.mark("phase", at);
            t.begin("span", at);
            t.end(at);
            t.instant("evt", at);
        }
        assert!(!t.is_enabled());
        let trace = t.take();
        assert!(trace.events.is_empty());
        assert!(trace.marks.is_empty());
        assert_eq!(trace.attributed(), 0);
    }

    #[test]
    fn contiguous_marks_coalesce_into_one_event() {
        let mut t = Tracer::new("ctrl", 16);
        for at in 0..5 {
            t.mark("busy", at);
        }
        t.mark("idle", 5);
        t.mark("busy", 6);
        let trace = t.take();
        assert_eq!(
            trace.events,
            vec![
                TraceEvent::Mark {
                    phase: "busy",
                    begin: 0,
                    cycles: 5
                },
                TraceEvent::Mark {
                    phase: "idle",
                    begin: 5,
                    cycles: 1
                },
                TraceEvent::Mark {
                    phase: "busy",
                    begin: 6,
                    cycles: 1
                },
            ]
        );
        assert_eq!(trace.marks, vec![("busy", 6), ("idle", 1)]);
        assert_eq!(trace.attributed(), 7);
    }

    #[test]
    fn mark_n_bulk_attribution_extends_runs() {
        let mut t = Tracer::new("ctrl", 16);
        t.mark("busy", 0);
        t.mark_n("busy", 1, 99); // skip_to-style bulk mark, same phase
        t.mark_n("stall", 100, 20);
        let trace = t.take();
        assert_eq!(trace.marks, vec![("busy", 100), ("stall", 20)]);
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn nested_spans_split_inclusive_and_exclusive() {
        let mut t = Tracer::new("engine", 16);
        t.begin("outer", 0);
        t.begin("inner", 10);
        t.end(30); // inner: 20 cycles
        t.end(50); // outer: 50 inclusive, 30 exclusive
        let trace = t.take();
        let outer = trace.spans.iter().find(|s| s.phase == "outer").cloned();
        let inner = trace.spans.iter().find(|s| s.phase == "inner").cloned();
        assert_eq!(
            outer,
            Some(SpanStat {
                phase: "outer",
                inclusive: 50,
                exclusive: 30,
                count: 1
            })
        );
        assert_eq!(
            inner,
            Some(SpanStat {
                phase: "inner",
                inclusive: 20,
                exclusive: 20,
                count: 1
            })
        );
        // Ring order: inner closed first, at depth 1.
        assert_eq!(
            trace.events[0],
            TraceEvent::Span {
                phase: "inner",
                begin: 10,
                end: 30,
                depth: 1
            }
        );
    }

    #[test]
    fn totals_survive_ring_overflow() {
        let mut t = Tracer::new("ctrl", 2);
        for at in 0..100 {
            // Alternate phases so nothing coalesces: 100 ring events.
            let phase = if at % 2 == 0 { "a" } else { "b" };
            t.mark(phase, at);
        }
        let trace = t.take();
        assert_eq!(trace.events.len(), 2, "ring is bounded");
        assert!(trace.dropped > 0);
        assert_eq!(trace.attributed(), 100, "profile totals stay exact");
    }

    #[test]
    fn take_resets_for_the_next_run() {
        let mut t = Tracer::new("ctrl", 8);
        t.mark("busy", 0);
        t.begin("open", 0);
        let first = t.take();
        assert_eq!(first.truncated_spans, 1);
        assert!(t.is_enabled(), "capacity survives take()");
        t.mark("busy", 7);
        let second = t.take();
        assert_eq!(second.marks, vec![("busy", 1)]);
        assert_eq!(second.truncated_spans, 0);
        assert_eq!(second.recorded, 1);
    }

    #[test]
    fn unbalanced_end_is_ignored() {
        let mut t = Tracer::new("x", 4);
        t.end(10);
        let trace = t.take();
        assert!(trace.events.is_empty());
        assert_eq!(trace.truncated_spans, 0);
    }

    #[test]
    fn instants_fold_counts_and_sums() {
        let mut t = Tracer::new("rel", 8);
        t.instant("corrected", 5);
        t.instant_value("corrected", 9, 3.0);
        t.instant("scrub", 9);
        let trace = t.take();
        assert_eq!(
            trace.instants,
            vec![
                InstantStat {
                    name: "corrected",
                    count: 2,
                    sum: 4.0
                },
                InstantStat {
                    name: "scrub",
                    count: 1,
                    sum: 1.0
                },
            ]
        );
    }
}
