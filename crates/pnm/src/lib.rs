//! # ia-pnm — processing *near* memory
//!
//! The paper's second PIM approach "involves adding or integrating
//! computation units … in the logic layer of 3D-stacked memories". This
//! crate models that hardware and two acceleration idioms the talk
//! highlights:
//!
//! * [`StackConfig`] — vaults, internal vs. external bandwidth, latency.
//! * [`PnmGraphEngine`] — Tesseract-style vertex-centric graph processing
//!   (functional PageRank/BFS + bandwidth-model timing), with the
//!   processor-centric baseline [`host_pagerank_ns`].
//! * [`traverse_pnm`] / [`traverse_host`] — in-memory pointer-chasing
//!   walkers vs. dependent external round trips.
//!
//! Unlike the DRAM/controller/NoC simulators, these models are
//! *analytic*: they compute bandwidth-model timing in closed form rather
//! than ticking a clock, so there is no per-cycle loop to port onto the
//! workspace's `ia-sim` event-driven engine.
//!
//! ## Example
//!
//! ```
//! use ia_pnm::{host_pagerank_ns, PnmGraphEngine, StackConfig};
//! use ia_workloads::Graph;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = Graph::rmat(256, 2048, &mut rng)?;
//! let stack = StackConfig::hmc_like();
//! let engine = PnmGraphEngine::new(stack, &g)?;
//! let (_, report) = engine.pagerank(0.85, 5);
//! assert!(report.total_ns < host_pagerank_ns(&stack, &g, 5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod graph;
mod pointer;
mod stack;

pub use error::PnmError;
pub use graph::{host_pagerank_ns, PnmGraphEngine, PnmRunReport};
pub use pointer::{
    concurrent_traversals, traverse_host, traverse_pnm, LinkedChain, TraversalReport,
};
pub use stack::StackConfig;
