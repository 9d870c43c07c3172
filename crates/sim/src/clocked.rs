//! The clocked-component contract.

use crate::cycle::Cycle;
use crate::sink::{CompletionSink, DenyCompletions};

/// A cycle-accurate component the [`SimLoop`](crate::SimLoop) can drive.
///
/// The contract, which the engine relies on for *exact* equivalence with a
/// per-cycle polling loop:
///
/// 1. [`tick_into`](Clocked::tick_into) simulates exactly the cycle
///    [`now`](Clocked::now) and then advances `now` by one. Completions of
///    that cycle go to the sink, in the same order a per-cycle loop would
///    observe them.
/// 2. [`next_event_at`](Clocked::next_event_at) returns the earliest cycle
///    `>= now` at which *anything observable* can happen — a completion
///    retiring, a command becoming issuable, a refresh falling due. It may
///    be conservative (too early is only slower, never wrong); returning a
///    cycle later than the true next event is a contract violation.
///    `None` means the component is drained: no future event will ever
///    occur without external input.
/// 3. [`skip_to`](Clocked::skip_to) advances `now` to `target`, applying
///    the same per-cycle bookkeeping (idle counters, epoch
///    housekeeping) the skipped idle ticks would have performed — in bulk,
///    without per-cycle work. The engine only calls it with
///    `target <= next_event_at()`, so no completions can occur inside the
///    skipped range.
pub trait Clocked {
    /// What the component delivers when a unit of work finishes.
    type Completion;

    /// The current cycle: the next cycle [`tick_into`](Clocked::tick_into)
    /// will simulate.
    fn now(&self) -> Cycle;

    /// Simulates one cycle, delivering any completions into `sink`.
    fn tick_into(&mut self, sink: &mut dyn CompletionSink<Self::Completion>);

    /// Earliest cycle `>= now` at which work may happen, or `None` if the
    /// component is drained.
    fn next_event_at(&self) -> Option<Cycle>;

    /// Fast-forwards to `target` (a cycle `<= next_event_at()`), applying
    /// skipped-cycle bookkeeping in bulk. No-op if `target <= now`.
    ///
    /// The default implementation ticks cycle-by-cycle (correct for any
    /// component, no faster than polling); components with idle spans
    /// should override it with an O(1) jump.
    fn skip_to(&mut self, target: Cycle) {
        let mut deny = DenyCompletions;
        while self.now() < target {
            self.tick_into(&mut deny);
        }
    }
}
