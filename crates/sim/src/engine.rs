//! The event-driven driver: cycle-skips to the next scheduled event
//! instead of polling idle cycles.

use std::fmt;

use ia_trace::{ComponentTrace, Tracer};

use crate::clocked::Clocked;
use crate::cycle::Cycle;
use crate::sink::{CompletionSink, CountingSink};

/// Counters describing how much work the engine did and how much it
/// avoided. Experiments put them in their reports (exp05's
/// `engine_cycles_skipped`), so the cycle-skipping payoff is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Ticks actually executed (events processed).
    pub events_processed: u64,
    /// Idle cycles bypassed via [`Clocked::skip_to`].
    pub cycles_skipped: u64,
    /// Number of skip jumps performed.
    pub skips: u64,
    /// Sink high-water mark: most completions delivered by a single tick.
    pub sink_high_water: u64,
}

impl EngineStats {
    /// Merges another engine's counters into this one (e.g. to aggregate
    /// several runs of one experiment).
    pub fn merge(&mut self, other: &EngineStats) {
        self.events_processed += other.events_processed;
        self.cycles_skipped += other.cycles_skipped;
        self.skips += other.skips;
        self.sink_high_water = self.sink_high_water.max(other.sink_high_water);
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} cycles skipped in {} jumps, sink high-water {}",
            self.events_processed, self.cycles_skipped, self.skips, self.sink_high_water
        )
    }
}

/// Which [`Clocked`] contract violation the engine detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// The component kept claiming an imminent event while its clock
    /// never advanced (the watchdog bound was exceeded).
    NoProgress,
    /// `next_event_at()` returned a cycle *behind* the component's own
    /// clock — an event in the past the engine can never reach.
    TimeTravel {
        /// The past cycle the component promised an event at.
        event: Cycle,
    },
}

/// Structured evidence of a [`Clocked`] contract violation: either a
/// no-progress spin (the component kept claiming a next event while its
/// clock never advanced) or a time-traveling `next_event_at()` (an
/// event promised behind the clock). Both used to be silent — an
/// infinite spin and a `debug_assert!` compiled out of release builds —
/// and are now data a harness can report and exit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallReport {
    /// The detected violation.
    pub kind: StallKind,
    /// The cycle the component's clock was at when the violation was
    /// detected.
    pub at: Cycle,
    /// Consecutive ticks executed without the clock advancing (zero for
    /// [`StallKind::TimeTravel`], which is detected immediately).
    pub stuck_steps: u64,
    /// The configured watchdog bound.
    pub bound: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            StallKind::NoProgress => write!(
                f,
                "component stalled at cycle {}: {} consecutive ticks without progress (watchdog bound {})",
                self.at, self.stuck_steps, self.bound
            ),
            StallKind::TimeTravel { event } => write!(
                f,
                "component time-traveled at cycle {}: next_event_at() returned {event}, which is in the past",
                self.at
            ),
        }
    }
}

impl std::error::Error for StallReport {}

/// What one [`SimLoop::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One tick was executed (possibly after a skip).
    Ticked,
    /// The next event lies at or beyond the deadline; the clock was
    /// advanced to the deadline and nothing was executed.
    DeadlineReached,
    /// `next_event_at()` returned `None`: the component is drained and the
    /// clock was left untouched.
    Drained,
    /// The no-progress watchdog fired: the component kept reporting an
    /// imminent event but its clock has not advanced for the configured
    /// number of ticks.
    Stalled(StallReport),
}

/// Why a [`SimLoop::run_while`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The predicate turned false.
    Stopped,
    /// The component reported no further events.
    Drained,
    /// The deadline was reached.
    DeadlineReached,
    /// The no-progress watchdog fired (see [`StallReport`]).
    Stalled(StallReport),
}

/// The event-driven simulation driver.
///
/// `SimLoop` never executes an idle cycle: before each tick it asks the
/// component for its next event and jumps the clock straight there via
/// [`Clocked::skip_to`]. Results are bit-identical to a per-cycle polling
/// loop as long as the component honors the [`Clocked`] contract.
#[derive(Debug, Clone)]
pub struct SimLoop {
    stats: EngineStats,
    /// No-progress watchdog bound: the maximum number of consecutive
    /// ticks the component may execute without `now()` advancing before
    /// [`StepOutcome::Stalled`] is reported.
    watchdog_bound: u64,
    /// Consecutive ticks observed with a frozen clock, and the cycle the
    /// clock froze at.
    stuck_steps: u64,
    stuck_at: Cycle,
    /// Trace recorder for engine-level events (`engine.skip` instants).
    /// Disabled by default: each trace point costs one branch.
    tracer: Tracer,
}

impl Default for SimLoop {
    fn default() -> Self {
        SimLoop::new()
    }
}

/// Default watchdog bound. A correct [`Clocked`] component advances its
/// clock on *every* tick, so any value > 0 would do; the default leaves
/// generous headroom for exotic-but-legal implementations while still
/// tripping in well under a millisecond of wall time.
pub const DEFAULT_WATCHDOG_BOUND: u64 = 10_000;

impl SimLoop {
    /// Creates an engine with zeroed counters and the default no-progress
    /// watchdog ([`DEFAULT_WATCHDOG_BOUND`] ticks).
    #[must_use]
    pub fn new() -> Self {
        SimLoop::with_watchdog(DEFAULT_WATCHDOG_BOUND)
    }

    /// Creates an engine whose watchdog trips after `bound` consecutive
    /// ticks without clock progress. `bound == 0` disables the watchdog
    /// (restoring the historical spin-forever behavior).
    #[must_use]
    pub fn with_watchdog(bound: u64) -> Self {
        SimLoop {
            stats: EngineStats::default(),
            watchdog_bound: bound,
            stuck_steps: 0,
            stuck_at: Cycle::ZERO,
            tracer: Tracer::disabled(),
        }
    }

    /// The engine's work/savings counters.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Enables trace recording of engine events (`engine.skip` instants
    /// whose value is the number of cycles jumped) on track `"engine"`,
    /// ringing at most `capacity` events.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::new("engine", capacity);
    }

    /// The engine's tracer — the harness uses it to wrap a run in a
    /// `"run"` span (`begin`/`end` with the component's clock).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Drains the engine's trace (empty if tracing was never enabled).
    #[must_use]
    pub fn take_trace(&mut self) -> ComponentTrace {
        self.tracer.take()
    }

    /// Advances the component by exactly one *processed* tick: skips idle
    /// cycles up to the next event (never past `deadline`), then ticks.
    ///
    /// The caller regains control after every tick, which is what lets a
    /// closed-loop harness feed new work in response to completions.
    pub fn step<C: Clocked + ?Sized>(
        &mut self,
        component: &mut C,
        sink: &mut dyn CompletionSink<C::Completion>,
        deadline: Cycle,
    ) -> StepOutcome {
        let Some(event) = component.next_event_at() else {
            return StepOutcome::Drained;
        };
        if event < component.now() {
            // An event promised in the past can never be reached: ticking
            // would simulate the wrong cycle and skipping goes backwards.
            // This used to be a debug_assert! (silent in release builds);
            // it is the same class of contract violation as a no-progress
            // spin, so it reports through the watchdog's stall path.
            return StepOutcome::Stalled(StallReport {
                kind: StallKind::TimeTravel { event },
                at: component.now(),
                stuck_steps: 0,
                bound: self.watchdog_bound,
            });
        }
        if event >= deadline {
            // A per-cycle loop would idle-tick up to the deadline; jump
            // there so time-bounded runs report identical final clocks.
            let now = component.now();
            if now < deadline {
                component.skip_to(deadline);
                self.stats.skips += 1;
                self.stats.cycles_skipped += deadline - now;
                self.tracer
                    .instant_value("engine.skip", now.as_u64(), (deadline - now) as f64);
            }
            return StepOutcome::DeadlineReached;
        }
        let now = component.now();
        if event > now {
            component.skip_to(event);
            self.stats.skips += 1;
            self.stats.cycles_skipped += event - now;
            self.tracer
                .instant_value("engine.skip", now.as_u64(), (event - now) as f64);
        }
        let mut counting = CountingSink {
            inner: sink,
            delivered: 0,
        };
        let before = component.now();
        component.tick_into(&mut counting);
        self.stats.sink_high_water = self.stats.sink_high_water.max(counting.delivered);
        self.stats.events_processed += 1;
        if self.watchdog_bound > 0 {
            // A tick that leaves the clock where it was makes no forward
            // progress; enough of them in a row is a stall, not a
            // simulation. (A healthy component resets the streak on every
            // tick, so this costs one comparison in the common case.)
            if component.now() > before {
                self.stuck_steps = 0;
            } else {
                if self.stuck_steps == 0 {
                    self.stuck_at = before;
                }
                self.stuck_steps += 1;
                if self.stuck_steps >= self.watchdog_bound {
                    let report = StallReport {
                        kind: StallKind::NoProgress,
                        at: self.stuck_at,
                        stuck_steps: self.stuck_steps,
                        bound: self.watchdog_bound,
                    };
                    self.stuck_steps = 0;
                    return StepOutcome::Stalled(report);
                }
            }
        }
        StepOutcome::Ticked
    }

    /// Steps until `keep_going` turns false, the component drains, or the
    /// deadline is reached. The predicate is checked before every step.
    pub fn run_while<C: Clocked + ?Sized>(
        &mut self,
        component: &mut C,
        sink: &mut dyn CompletionSink<C::Completion>,
        deadline: Cycle,
        mut keep_going: impl FnMut(&C) -> bool,
    ) -> RunOutcome {
        loop {
            if !keep_going(component) {
                return RunOutcome::Stopped;
            }
            match self.step(component, sink, deadline) {
                StepOutcome::Ticked => {}
                StepOutcome::Drained => return RunOutcome::Drained,
                StepOutcome::DeadlineReached => return RunOutcome::DeadlineReached,
                StepOutcome::Stalled(report) => return RunOutcome::Stalled(report),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy component: a delay line that completes one item every `period`
    /// cycles until `remaining` hits zero.
    #[derive(Debug)]
    struct Pulse {
        now: Cycle,
        period: u64,
        next_fire: Cycle,
        remaining: u32,
        ticked: u64,
    }

    impl Pulse {
        fn new(period: u64, count: u32) -> Self {
            Pulse {
                now: Cycle::ZERO,
                period,
                next_fire: Cycle::new(period),
                remaining: count,
                ticked: 0,
            }
        }
    }

    impl Clocked for Pulse {
        type Completion = Cycle;

        fn now(&self) -> Cycle {
            self.now
        }

        fn tick_into(&mut self, sink: &mut dyn CompletionSink<Cycle>) {
            self.ticked += 1;
            if self.remaining > 0 && self.now >= self.next_fire {
                sink.complete(self.now);
                self.remaining -= 1;
                self.next_fire = self.now + self.period;
            }
            self.now += 1;
        }

        fn next_event_at(&self) -> Option<Cycle> {
            (self.remaining > 0).then(|| self.next_fire.max(self.now))
        }

        fn skip_to(&mut self, target: Cycle) {
            if target > self.now {
                self.now = target;
            }
        }
    }

    #[test]
    fn engine_skips_idle_cycles_and_preserves_event_times() {
        let mut engine = SimLoop::new();
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(100, 3);
        let out = engine.run_while(&mut pulse, &mut done, Cycle::new(10_000), |_| true);
        assert_eq!(out, RunOutcome::Drained);
        assert_eq!(
            done,
            vec![Cycle::new(100), Cycle::new(200), Cycle::new(300)]
        );
        assert_eq!(pulse.ticked, 3, "only event cycles were executed");
        let s = engine.stats();
        assert_eq!(s.events_processed, 3);
        assert_eq!(
            s.cycles_skipped, 298,
            "100-cycle lead-in plus two 99-cycle idle gaps"
        );
        assert_eq!(s.sink_high_water, 1);
    }

    #[test]
    fn engine_matches_per_cycle_polling() {
        // Event-driven run.
        let mut engine = SimLoop::new();
        let mut fast: Vec<Cycle> = Vec::new();
        let mut p1 = Pulse::new(7, 5);
        engine.run_while(&mut p1, &mut fast, Cycle::new(1000), |_| true);

        // Per-cycle polling loop over an identical component.
        let mut slow: Vec<Cycle> = Vec::new();
        let mut p2 = Pulse::new(7, 5);
        while p2.next_event_at().is_some() {
            p2.tick_into(&mut slow);
        }
        assert_eq!(fast, slow);
        assert_eq!(p1.now(), p2.now());
    }

    #[test]
    fn deadline_advances_clock_without_ticking() {
        let mut engine = SimLoop::new();
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(500, 1);
        let out = engine.step(&mut pulse, &mut done, Cycle::new(50));
        assert_eq!(out, StepOutcome::DeadlineReached);
        assert_eq!(
            pulse.now(),
            Cycle::new(50),
            "clock advanced to the deadline"
        );
        assert!(done.is_empty());
        assert_eq!(engine.stats().events_processed, 0);
    }

    #[test]
    fn drained_component_stops_the_run() {
        let mut engine = SimLoop::new();
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(10, 0);
        assert_eq!(
            engine.step(&mut pulse, &mut done, Cycle::new(100)),
            StepOutcome::Drained
        );
    }

    #[test]
    fn predicate_stops_the_run() {
        let mut engine = SimLoop::new();
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(10, 100);
        let out = engine.run_while(&mut pulse, &mut done, Cycle::new(100_000), |p| {
            p.now() < Cycle::new(35)
        });
        assert_eq!(out, RunOutcome::Stopped);
        // The predicate is evaluated once per processed event, not per
        // cycle: the step that fires the event at 40 begins while now=31
        // still satisfies the predicate.
        assert_eq!(done.len(), 4, "events at 10, 20, 30, 40");
    }

    #[test]
    fn default_skip_to_ticks_through() {
        // A component relying on the default skip_to still works: ticks
        // happen per cycle during the "skip", with no completions allowed.
        #[derive(Debug)]
        struct Lazy {
            now: Cycle,
            fire: Cycle,
            fired: bool,
        }
        impl Clocked for Lazy {
            type Completion = ();
            fn now(&self) -> Cycle {
                self.now
            }
            fn tick_into(&mut self, sink: &mut dyn CompletionSink<()>) {
                if !self.fired && self.now >= self.fire {
                    sink.complete(());
                    self.fired = true;
                }
                self.now += 1;
            }
            fn next_event_at(&self) -> Option<Cycle> {
                (!self.fired).then_some(self.fire.max(self.now))
            }
        }
        let mut engine = SimLoop::new();
        let mut done: Vec<()> = Vec::new();
        let mut lazy = Lazy {
            now: Cycle::ZERO,
            fire: Cycle::new(40),
            fired: false,
        };
        let out = engine.run_while(&mut lazy, &mut done, Cycle::new(1000), |_| true);
        assert_eq!(out, RunOutcome::Drained);
        assert_eq!(done.len(), 1);
        assert_eq!(engine.stats().cycles_skipped, 40);
    }

    /// A broken component: `next_event_at()` always promises an imminent
    /// event, but `tick_into` never advances the clock — the classic
    /// silent-spin bug the watchdog exists to catch.
    #[derive(Debug)]
    struct Liar {
        now: Cycle,
        ticked: u64,
    }

    impl Clocked for Liar {
        type Completion = ();
        fn now(&self) -> Cycle {
            self.now
        }
        fn tick_into(&mut self, _sink: &mut dyn CompletionSink<()>) {
            self.ticked += 1; // clock deliberately frozen
        }
        fn next_event_at(&self) -> Option<Cycle> {
            Some(self.now) // "an event is due right now" — forever
        }
        fn skip_to(&mut self, target: Cycle) {
            if target > self.now {
                self.now = target;
            }
        }
    }

    #[test]
    fn watchdog_converts_silent_spin_into_structured_stall() {
        let mut engine = SimLoop::with_watchdog(64);
        let mut done: Vec<()> = Vec::new();
        let mut liar = Liar {
            now: Cycle::new(17),
            ticked: 0,
        };
        let out = engine.run_while(&mut liar, &mut done, Cycle::new(1_000_000), |_| true);
        let RunOutcome::Stalled(report) = out else {
            panic!("expected Stalled, got {out:?}");
        };
        assert_eq!(
            report.at,
            Cycle::new(17),
            "stall pinned to the frozen cycle"
        );
        assert_eq!(report.stuck_steps, 64);
        assert_eq!(report.bound, 64);
        assert!(
            liar.ticked <= 64,
            "watchdog fired within the bound, not after {} ticks",
            liar.ticked
        );
        // Structured error propagation: the report is a std::error::Error.
        let err: &dyn std::error::Error = &report;
        assert!(err.to_string().contains("stalled at cycle 17"));
    }

    /// A component whose `next_event_at()` falls *behind* its clock — the
    /// contract violation the old `debug_assert!` only caught in debug
    /// builds.
    #[derive(Debug)]
    struct TimeTraveler {
        now: Cycle,
    }

    impl Clocked for TimeTraveler {
        type Completion = ();
        fn now(&self) -> Cycle {
            self.now
        }
        fn tick_into(&mut self, _sink: &mut dyn CompletionSink<()>) {
            self.now += 1;
        }
        fn next_event_at(&self) -> Option<Cycle> {
            // Promises an event 10 cycles in the past, forever.
            Some(Cycle::new(self.now.as_u64().saturating_sub(10)))
        }
        fn skip_to(&mut self, target: Cycle) {
            if target > self.now {
                self.now = target;
            }
        }
    }

    #[test]
    fn time_traveling_component_stalls_in_release_builds_too() {
        // This check must not depend on debug_assert!: it is compiled
        // unconditionally, so the test is meaningful under --release.
        let mut engine = SimLoop::new();
        let mut done: Vec<()> = Vec::new();
        let mut tt = TimeTraveler {
            now: Cycle::new(50),
        };
        let out = engine.step(&mut tt, &mut done, Cycle::new(1_000));
        let StepOutcome::Stalled(report) = out else {
            panic!("expected Stalled, got {out:?}");
        };
        assert_eq!(
            report.kind,
            StallKind::TimeTravel {
                event: Cycle::new(40)
            }
        );
        assert_eq!(report.at, Cycle::new(50));
        assert_eq!(report.stuck_steps, 0);
        assert!(report.to_string().contains("time-traveled at cycle 50"));
        assert!(report.to_string().contains("returned 40"));
        // Nothing was executed or skipped: the violation is detected
        // before the engine touches the component.
        assert_eq!(engine.stats().events_processed, 0);
        assert_eq!(engine.stats().skips, 0);
        // The run-level driver surfaces it the same way.
        let out = engine.run_while(&mut tt, &mut done, Cycle::new(1_000), |_| true);
        assert!(matches!(
            out,
            RunOutcome::Stalled(r) if matches!(r.kind, StallKind::TimeTravel { .. })
        ));
    }

    #[test]
    fn watchdog_fires_with_default_bound() {
        let mut engine = SimLoop::new();
        let mut done: Vec<()> = Vec::new();
        let mut liar = Liar {
            now: Cycle::ZERO,
            ticked: 0,
        };
        let out = engine.run_while(&mut liar, &mut done, Cycle::new(u64::MAX), |_| true);
        assert!(matches!(out, RunOutcome::Stalled(r) if r.bound == DEFAULT_WATCHDOG_BOUND));
    }

    #[test]
    fn watchdog_never_trips_on_healthy_components() {
        // A tight watchdog bound against a long healthy run: the streak
        // resets on every tick, so the run drains normally.
        let mut engine = SimLoop::with_watchdog(2);
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(3, 500);
        let out = engine.run_while(&mut pulse, &mut done, Cycle::new(100_000), |_| true);
        assert_eq!(out, RunOutcome::Drained);
        assert_eq!(done.len(), 500);
    }

    #[test]
    fn watchdog_zero_disables_the_bound() {
        let mut engine = SimLoop::with_watchdog(0);
        let mut done: Vec<()> = Vec::new();
        let mut liar = Liar {
            now: Cycle::ZERO,
            ticked: 0,
        };
        // Bounded by the predicate instead; 100k frozen ticks draw no stall.
        let out = engine.run_while(&mut liar, &mut done, Cycle::new(u64::MAX), |l| {
            l.ticked < 100_000
        });
        assert_eq!(out, RunOutcome::Stopped);
    }

    #[test]
    fn stats_merge_and_display() {
        let mut a = EngineStats {
            events_processed: 1,
            cycles_skipped: 10,
            skips: 2,
            sink_high_water: 3,
        };
        let b = EngineStats {
            events_processed: 4,
            cycles_skipped: 5,
            skips: 1,
            sink_high_water: 7,
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 5);
        assert_eq!(a.cycles_skipped, 15);
        assert_eq!(a.sink_high_water, 7);
        assert!(a.to_string().contains("5 events"));
    }

    #[test]
    fn tracing_records_skip_instants() {
        let mut engine = SimLoop::new();
        engine.enable_tracing(64);
        let mut done: Vec<Cycle> = Vec::new();
        let mut pulse = Pulse::new(100, 3);
        engine.tracer_mut().begin("run", 0);
        let out = engine.run_while(&mut pulse, &mut done, Cycle::new(10_000), |_| true);
        assert_eq!(out, RunOutcome::Drained);
        let now = pulse.now().as_u64();
        engine.tracer_mut().end(now);
        let trace = engine.take_trace();
        assert_eq!(trace.track, "engine");
        let skip = trace
            .instants
            .iter()
            .find(|i| i.name == "engine.skip")
            .expect("skip instants recorded");
        assert_eq!(skip.count, engine.stats().skips);
        assert_eq!(skip.sum as u64, engine.stats().cycles_skipped);
        assert_eq!(trace.spans[0].phase, "run");
        // Disabled engines record nothing (take() drains, so retake is empty).
        assert!(engine.take_trace().instants.is_empty());
    }
}
