//! # intelligent-arch
//!
//! A from-scratch Rust reproduction of the system ecosystem described in
//! *"Intelligent Architectures for Intelligent Computing Systems"*
//! (O. Mutlu, DATE 2021): a cycle-level DRAM substrate, processing-using-
//! memory and processing-near-memory engines, classical and learning
//! memory controllers, reliability models, a data-aware (X-Mem) interface,
//! and a full-system composition of the paper's three principles —
//! **data-centric**, **data-driven**, **data-aware**.
//!
//! This crate is a facade: each subsystem lives in its own crate under
//! `crates/`, re-exported here under a stable module name.
//!
//! ## Quick start
//!
//! ```
//! use intelligent_arch::core::{IntelligentSystem, PrincipleSet, SystemConfig};
//! use intelligent_arch::workloads::{TraceGenerator, ZipfGen};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let trace = ZipfGen::new(0, 1024, 4096, 1.1, 0.25)?.generate(2000, &mut rng);
//!
//! let baseline = IntelligentSystem::new(SystemConfig::default()).run(&trace)?;
//! let intelligent = IntelligentSystem::new(SystemConfig {
//!     principles: PrincipleSet::all(),
//!     ..SystemConfig::default()
//! })
//! .run(&trace)?;
//!
//! assert!(intelligent.cycles() <= baseline.cycles());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cycle-level DRAM timing and energy simulation ([`ia_dram`]).
pub use ia_dram as dram;

/// Online-learning substrate: Q-learning and perceptrons ([`ia_learn`]).
pub use ia_learn as learn;

/// DRAM reliability: RowHammer, retention/RAIDR, ECC
/// ([`ia_reliability`]).
pub use ia_reliability as reliability;

/// Synthetic data-intensive workloads ([`ia_workloads`]).
pub use ia_workloads as workloads;

/// Cache substrate with insertion policies and compression ([`ia_cache`]).
pub use ia_cache as cache;

/// Expressive Memory: the data-aware interface ([`ia_xmem`]).
pub use ia_xmem as xmem;

/// Memory controllers, fixed and learning ([`ia_memctrl`]).
pub use ia_memctrl as memctrl;

/// Processing using memory: RowClone, Ambit ([`ia_pum`]).
pub use ia_pum as pum;

/// Processing near memory: 3D stacks, graph engine ([`ia_pnm`]).
pub use ia_pnm as pnm;

/// Hardware prefetchers, fixed and adaptive ([`ia_prefetch`]).
pub use ia_prefetch as prefetch;

/// On-chip network models ([`ia_noc`]).
pub use ia_noc as noc;

/// The composed intelligent architecture ([`ia_core`]).
pub use ia_core as core;
