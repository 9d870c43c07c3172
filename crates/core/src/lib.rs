//! # ia-core — the intelligent architecture
//!
//! The paper's contribution is an argument: computing systems should be
//! **data-centric** (compute where data lives), **data-driven**
//! (controllers learn their policies online), and **data-aware** (policies
//! adapt to the semantics of the data). This crate composes the substrate
//! crates of the workspace into a configurable full system where each
//! principle is a switch, so the argument can be evaluated quantitatively:
//!
//! * [`PrincipleSet`] — which principles are enabled.
//! * [`IntelligentSystem`] / [`SystemConfig`] — trace-driven full-system
//!   simulation (LLC → memory controller → DRAM) where:
//!   * *data-centric* enables ChargeCache-style reduced-latency DRAM (and
//!     the PUM/PNM crates provide in/near-memory execution for the bulk
//!     and irregular kernels),
//!   * *data-driven* swaps the fixed scheduler for the RL self-optimizing
//!     controller and the LLC insertion policy for set-dueling DIP,
//!   * *data-aware* consults an X-Mem [`ia_xmem::AtomRegistry`] to steer
//!     cache insertion by data semantics.
//! * [`run_ablation`] — the none → all principle ladder on one workload.
//! * [`Table`] — the text-table formatter all experiment harnesses share.
//!
//! ## Example
//!
//! ```
//! use ia_core::{run_ablation, SystemConfig};
//! use ia_workloads::{TraceGenerator, ZipfGen};
//! use ia_xmem::AtomRegistry;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let trace = ZipfGen::new(0, 1024, 4096, 1.1, 0.2)?.generate(1500, &mut rng);
//! let (rows, _ledger) = run_ablation(&SystemConfig::default(), &AtomRegistry::new(), &trace, 1)?;
//! assert_eq!(rows.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation;
mod error;
mod principles;
mod system;
mod table;

pub use ablation::{run_ablation, AblationRow};
pub use error::CoreError;
pub use principles::{Principle, PrincipleSet};
pub use system::{IntelligentSystem, SchedulerKind, SystemConfig, SystemReport};
pub use table::Table;
