//! # ia-reliability — DRAM reliability models and intelligent mitigation
//!
//! The paper's "bottom-up push" for intelligent memory controllers is that
//! technology scaling created reliability problems only an intelligent
//! controller can solve economically. This crate models the three problems
//! the talk highlights and their published mitigations:
//!
//! * [`RowHammerModel`] with [`Para`] and [`CounterTrr`] mitigations
//!   (Kim+ ISCA 2014, ISCA 2020).
//! * [`RetentionModel`] / [`Raidr`] — retention-aware intelligent refresh
//!   with Bloom-filter row bins (Liu+, ISCA 2012).
//! * SECDED ECC ([`encode`]/[`decode`]).
//!
//! ## Example
//!
//! ```
//! use ia_reliability::{RetentionModel, Raidr};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let profile = RetentionModel::typical().profile(32 * 1024, &mut rng);
//! let raidr = Raidr::from_profile(&profile)?;
//! // RAIDR eliminates roughly three quarters of refreshes.
//! assert!(raidr.reduction_over(8) > 0.7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod approx;
mod ecc;
mod error;
mod retention;
mod rowhammer;

pub use approx::{
    dnn_accuracy_loss, select_multiplier, sweep_refresh_multipliers, ApproxDramPoint,
};
pub use ecc::{decode, encode, inject_error, DecodeOutcome, EccWord};
pub use error::ReliabilityError;
pub use retention::{BloomFilter, Raidr, RetentionBin, RetentionModel, RetentionProfile};
pub use rowhammer::{
    double_sided_pattern, run_attack, CounterTrr, DeviceGeneration, Flip, Mitigation, Para,
    RowHammerModel,
};
