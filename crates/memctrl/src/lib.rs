//! # ia-memctrl — the memory controller, fixed and learning
//!
//! The paper's data-driven indictment is aimed squarely at this component:
//! "a modern memory controller keeps executing exactly the same fixed
//! policy … during the entire lifetime of a system". This crate implements
//! the policy lineage the paper cites so they can be compared head-to-head
//! on the same cycle-accurate substrate:
//!
//! * [`Fcfs`], [`FrFcfs`] — the classical fixed heuristics.
//! * [`ParBs`], [`Atlas`], [`Tcm`], [`Bliss`] — the fairness generation.
//! * [`RlScheduler`] — the self-optimizing (Q-learning) controller.
//! * [`RefreshMode`] — standard auto-refresh vs. RAIDR retention-aware
//!   refresh.
//! * [`HybridMemory`] — DRAM+PCM with LRU vs. row-buffer-locality-aware
//!   placement.
//!
//! ## Example
//!
//! ```
//! use ia_dram::DramConfig;
//! use ia_memctrl::{run_closed_loop, FrFcfs, MemRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace: Vec<MemRequest> = (0..64).map(|i| MemRequest::read(i * 64, 0)).collect();
//! let report = run_closed_loop(
//!     DramConfig::ddr3_1600(),
//!     Box::new(FrFcfs::new()),
//!     &[trace],
//!     8,
//!     1_000_000,
//! )?;
//! assert_eq!(report.stats.completed, 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod error;
mod hybrid;
mod metrics;
pub mod pool;
mod power;
mod reliability;
pub mod replay;
mod request;
pub mod scheduler;

pub use controller::{
    run_closed_loop, run_closed_loop_with, CtrlStats, MemoryController, RefreshMode, RunReport,
    ThreadReport,
};
pub use error::CtrlError;
pub use hybrid::{HybridMemory, HybridTiming, PlacementPolicy};
pub use metrics::{harmonic_speedup, max_slowdown, slowdowns, weighted_speedup};
pub use pool::{IssueView, ReqId, RequestQueue, ViewMode};
pub use power::{epoch_outcome, standard_points, EpochOutcome, FrequencyPoint, MemScaleGovernor};
pub use reliability::{
    Mitigation, ReliabilityConfig, ReliabilityPipeline, ReliabilityReport, ReliabilityStats,
};
pub use replay::{record_workload, workload_from_records};
pub use request::{Completed, MemRequest, Pending};
pub use scheduler::{
    Atlas, Bliss, Fcfs, FrFcfs, ParBs, RlScheduler, RlSchedulerConfig, Scheduler, Tcm,
};
