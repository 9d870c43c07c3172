//! Fault-injection observation points.
//!
//! A fault model (e.g. `ia-faults`) needs to see the physical event
//! stream — which rows are activated (disturbance), read, rewritten,
//! refreshed — to decide where flips land. The module cannot hold the
//! injector itself (`DramModule` is `Clone`, injectors are stateful
//! trait objects), so it records a bounded-cost **event log** that the
//! memory controller drains each tick and forwards to its injector.
//! Injection is off by default and costs one branch per command.

use crate::Cycle;

/// One injection-relevant DRAM event. Coordinates identify the physical
/// row (`bank` is the flat bank index within the rank); `column` is the
/// burst column, which the reliability pipeline treats as the
/// protected-codeword index within the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectEvent {
    /// A row was opened — the disturbance (RowHammer) and charge-restore
    /// event.
    Activate {
        /// Issue cycle.
        at: Cycle,
        /// Channel index.
        channel: usize,
        /// Rank index.
        rank: usize,
        /// Flat bank index.
        bank: usize,
        /// Activated row.
        row: u64,
    },
    /// A column read from the open row.
    Read {
        /// Issue cycle.
        at: Cycle,
        /// Channel index.
        channel: usize,
        /// Rank index.
        rank: usize,
        /// Flat bank index.
        bank: usize,
        /// Open row being read.
        row: u64,
        /// Burst column (codeword index).
        column: u64,
    },
    /// A column write into the open row — the scrub path.
    Write {
        /// Issue cycle.
        at: Cycle,
        /// Channel index.
        channel: usize,
        /// Rank index.
        rank: usize,
        /// Flat bank index.
        bank: usize,
        /// Open row being written.
        row: u64,
        /// Burst column (codeword index).
        column: u64,
    },
    /// A rank-level auto-refresh command.
    Refresh {
        /// Issue cycle.
        at: Cycle,
        /// Channel index.
        channel: usize,
        /// Rank index.
        rank: usize,
    },
}

/// The event log behind [`DramModule::enable_injection`]
/// (crate-internal storage; the public API is on the module).
///
/// [`DramModule::enable_injection`]: crate::DramModule::enable_injection
#[derive(Debug, Clone, Default)]
pub(crate) struct InjectLog {
    enabled: bool,
    events: Vec<InjectEvent>,
}

impl InjectLog {
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event; free when disabled (the closure only runs if
    /// someone is listening).
    #[inline]
    pub(crate) fn record_with(&mut self, make: impl FnOnce() -> InjectEvent) {
        if self.enabled {
            self.events.push(make());
        }
    }

    /// Moves all pending events into `out`, preserving order.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<InjectEvent>) {
        out.append(&mut self.events);
    }
}
