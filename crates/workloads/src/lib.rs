//! # ia-workloads — synthetic data-intensive workload generators
//!
//! The paper's premise is that "important workloads … are all data
//! intensive". This crate supplies controlled synthetic equivalents of the
//! workload classes the paper names, so every experiment is reproducible
//! without proprietary traces:
//!
//! * trace generators ([`StreamGen`], [`RandomGen`], [`PointerChaseGen`],
//!   [`ZipfGen`]) — stream, random, pointer-chase and Zipf, with explicit
//!   locality/parallelism knobs.
//! * [`Graph`] — CSR graphs with uniform and R-MAT power-law generators,
//!   plus reference PageRank/BFS for validating the near-memory engine.
//! * [`genome`] — synthetic references and reads, seed indexing, banded
//!   edit distance, and the GRIM-Filter bin bitvectors.
//! * [`mobile`] — consumer-device workload phase models for the
//!   data-movement energy accounting experiment.
//!
//! ## Example
//!
//! ```
//! use ia_workloads::{StreamGen, TraceGenerator};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut stream = StreamGen::new(0, 64, 1 << 20, 0.25)?;
//! let trace = stream.generate(1000, &mut rng);
//! assert_eq!(trace.len(), 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod genome;
mod graph;
pub mod mobile;
mod trace;

pub use error::WorkloadError;
pub use genome::{
    edit_distance_banded, pack_kmer, random_genome, sample_reads, Base, GrimIndex, Read, SeedIndex,
};
pub use graph::Graph;
pub use mobile::{
    energy_breakdown, energy_with_pim, EnergyBreakdown, MobileWorkload, SystemEnergyModel,
};
pub use trace::{Op, PointerChaseGen, RandomGen, StreamGen, TraceGenerator, TraceRequest, ZipfGen};
