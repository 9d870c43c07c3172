//! # ia-trace — deterministic tracing and cycle-attribution profiling
//!
//! The paper's bottleneck-analysis methodology needs to answer *where
//! do simulated cycles go* — scheduler arbitration? bank state
//! machines? the reliability ladder? NoC routing? This crate is that
//! observability layer for the whole workspace:
//!
//! * [`Tracer`] — per-component recorder of cycle-attribution **marks**
//!   (every simulated cycle classified into exactly one phase), nested
//!   **spans** (inclusive/exclusive cycle totals), and **instants**
//!   (point events with values), all timestamped in simulated cycles.
//!   The disabled path is one branch and never allocates, so trace
//!   points live inside per-cycle hot loops.
//!   Its events go to a private bounded ring with drop counting; the
//!   per-phase totals are folded at record time, so they stay exact
//!   when the ring overwrites old events.
//! * [`Profile`] — folds a [`TraceLog`] into the sorted per-track /
//!   per-phase cycle table, a per-component rollup, and text + JSON
//!   renderings.
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter with
//!   fixed field order: `ts` is the simulated cycle, so the file is
//!   byte-identical across `--threads` settings, seeds, and hosts.
//!
//! Capture is switched on per component: a run that wants a trace
//! builds its components with enabled tracers and merges their logs
//! into one [`TraceLog`] (the bench harness keeps that log in its
//! per-run context behind `--trace <path>` / `--profile`).
//!
//! Determinism is the design constraint everything above serves: traces
//! carry no wall-clock anywhere (host-time diagnostics stay in
//! `ia-par`'s runtime ledger), aggregation uses ordered maps, and
//! parallel sweeps merge per-task logs on the calling thread in input
//! order.
//!
//! ## Example
//!
//! ```
//! use ia_trace::{chrome, Profile, TraceLog, Tracer};
//!
//! let mut ctrl = Tracer::new("ctrl", 1024);
//! for cycle in 0..90 {
//!     ctrl.mark("sched.issue", cycle);
//! }
//! ctrl.mark_n("idle.empty", 90, 10);
//! let mut log = TraceLog::new();
//! log.push(ctrl.take());
//!
//! let profile = Profile::from_log(&log);
//! assert_eq!(profile.total_attributed, 100); // every cycle attributed
//! assert_eq!(profile.top_components(1)[0].0, "ctrl");
//! assert!(chrome::render_chrome(&log).contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod log;
mod profile;
mod tracer;

pub use log::{ComponentTrace, InstantStat, SpanStat, TraceLog};
pub use profile::{Profile, ProfileRow};
pub use tracer::{TraceEvent, Tracer, DEFAULT_EVENT_CAPACITY};
