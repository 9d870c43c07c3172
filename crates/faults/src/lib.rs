//! # ia-faults — deterministic fault injection
//!
//! The paper's bottom-up argument is that technology scaling has made
//! DRAM *inherently* unreliable — RowHammer disturbance, retention
//! failures in weak cells, marginal timing — and that the economic
//! response is not perfect silicon but **intelligent controllers** that
//! detect, correct, and degrade gracefully. `ia-reliability` models
//! those mechanisms in isolation; this crate injects them into *live
//! simulated data* so the rest of the stack can prove it survives them.
//!
//! ## Design
//!
//! * [`FaultPlan`] describes a campaign: probabilistic rates per
//!   mechanism (RowHammer flips keyed to activation counts, retention
//!   flips keyed to refresh-interval overruns, transient bus errors,
//!   stuck-at cells) plus hand-placed [`ScriptedFault`]s.
//! * [`FaultInjector`] executes the plan behind the [`Inject`] hook
//!   trait: `ia-dram` reports activates/reads/writes/refreshes, and
//!   reads come back with a [`FlipMask`] of corrupted codeword bits that
//!   `ia-memctrl`'s reliability pipeline feeds through
//!   `ia_reliability::ecc`.
//! * Every probabilistic decision is a pure hash of `(seed, decision
//!   identity)` — no stateful RNG — so campaigns are order-independent
//!   and reproduce bit-for-bit from a single seed, which is what keeps
//!   `exp24_fault_injection` byte-identical across `--threads`.
//! * Per-site state lives in [`SiteMap`]s: std maps hashed with the
//!   fixed-seed [`SiteHasher`] instead of SipHash, because the keys are
//!   simulator coordinates and the hash sits on every hook call. A row
//!   is keyed by one packed, order-preserving [`RowKey`] (a rank by its
//!   [`rank_key`]), and the injector keeps one record per row and one
//!   per codeword, so each hook call costs one probe of one word.
//!
//! The crate is intentionally **zero-dependency** (std only): any layer
//! of the stack can host an injector without dependency cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod inject;
mod plan;
mod rng;
mod site;

pub use inject::{FaultInjector, FaultStats, FlipMask, Inject, NoFaults, RowSite, CODEWORD_BITS};
pub use plan::{FaultKind, FaultPlan, ScriptedFault};
pub use site::{rank_key, RowKey, SiteHasher, SiteMap};
