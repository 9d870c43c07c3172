//! # ia-sim — the event-driven simulation engine
//!
//! Every cycle-accurate model in this workspace (the memory controller,
//! the DRAM hierarchy behind it, the NoC routers) used to advance time the
//! same way: a `for now in 0..cycles` loop calling a `tick()` that usually
//! did nothing, and allocating a fresh `Vec` of completions per cycle.
//! That is simple but wasteful — a refresh-dominated controller spends
//! well over 90% of its ticks idle, and the allocator churn shows up
//! directly in wall-clock time.
//!
//! This crate replaces that pattern with the classic event-driven
//! formulation used by fast architecture simulators: components declare
//! *when something can next happen*, and the driver jumps the clock
//! straight there. The results are **numerically identical** to per-cycle
//! polling — same command sequences, same cycle counts, same statistics —
//! because skipped cycles are, by contract, cycles in which nothing
//! observable occurs.
//!
//! ## The three-part contract
//!
//! A component implements [`Clocked`]:
//!
//! 1. **[`tick_into`](Clocked::tick_into)** simulates exactly cycle
//!    [`now()`](Clocked::now), delivers any completions into the
//!    caller-provided [`CompletionSink`], and advances `now` by one.
//! 2. **[`next_event_at`](Clocked::next_event_at)** returns the earliest
//!    cycle `>= now` at which anything observable may happen. Too early is
//!    merely slower; too late is a correctness bug (and [`DenyCompletions`]
//!    will panic if a completion fires mid-skip). `None` means drained.
//! 3. **[`skip_to`](Clocked::skip_to)** fast-forwards `now` to a target
//!    `<= next_event_at()`, applying whatever bulk bookkeeping the skipped
//!    idle ticks would have done (idle counters, scheduler epoch
//!    decay). The default implementation just ticks through — correct for
//!    any component, fast for none.
//!
//! [`SimLoop`] drives a `Clocked` component: [`SimLoop::step`] processes
//! exactly one event (skipping idle time first) and returns control, which
//! is what lets closed-loop harnesses inject new work in response to
//! completions; [`SimLoop::run_while`] loops until a predicate, a
//! deadline, or drain. The engine's own effort — events processed, cycles
//! skipped, sink high-water mark — is tracked in [`EngineStats`].
//!
//! A no-progress **watchdog** guards against components that violate the
//! contract by reporting an imminent event while never advancing their
//! clock: after [`DEFAULT_WATCHDOG_BOUND`] consecutive frozen ticks
//! (configurable via [`SimLoop::with_watchdog`]), the engine returns a
//! structured [`StallReport`] — [`StepOutcome::Stalled`] /
//! [`RunOutcome::Stalled`] — instead of spinning silently forever.
//!
//! ## Completion sinks instead of returned Vecs
//!
//! `tick_into` writes completions into a sink owned by the caller rather
//! than returning a `Vec`. A `Vec<T>` *is* a sink, so the typical driver
//! allocates one scratch buffer, passes it to every tick, and `clear()`s
//! it between ticks — zero allocation in steady state. [`FnSink`] adapts a
//! closure when the caller wants to consume completions on the fly.
//!
//! ## How to port a component
//!
//! Starting from a per-cycle `fn tick(&mut self) -> Vec<Completed>`:
//!
//! 1. Change the signature to
//!    `fn tick_into(&mut self, sink: &mut dyn CompletionSink<Completed>)`
//!    and replace every `done.push(x)` with `sink.complete(x)`. Keep the
//!    body otherwise byte-for-byte identical — that is what guarantees
//!    equivalence.
//! 2. Implement `next_event_at` by taking the minimum over every source of
//!    future work the component tracks: in-flight operations' ready times,
//!    the next refresh slot, the earliest cycle a queued command could
//!    issue. Clamp to `now` (a stale timestamp in the past means "ready
//!    now"). Return `None` only when no internal state can ever produce an
//!    event again.
//! 3. Override `skip_to` with the bulk form of whatever per-cycle
//!    bookkeeping the old loop did on idle cycles: bump an idle counter
//!    by `n`, advance epoch counters by their closed form. If a piece of bookkeeping has no
//!    closed form, keep it per-cycle inside `skip_to` — correctness first.
//! 4. Keep a thin `tick()` compatibility wrapper if external callers want
//!    the old shape, and add a differential test: run the same seeded
//!    workload through a per-cycle loop and through [`SimLoop`], and
//!    assert the reports are equal.
//!
//! The memory controller in `ia-memctrl` is the reference port: see its
//! `Clocked` impl for a worked example of all four steps, including exact
//! scheduler-epoch fast-forwarding.

#![forbid(unsafe_code)]

mod clocked;
mod cycle;
mod engine;
mod sink;
mod snapshot;

pub use clocked::Clocked;
pub use cycle::Cycle;
pub use engine::{
    EngineStats, RunOutcome, SimLoop, StallKind, StallReport, StepOutcome, DEFAULT_WATCHDOG_BOUND,
};
pub use sink::{CompletionSink, DenyCompletions, FnSink};
pub use snapshot::SnapshotState;
