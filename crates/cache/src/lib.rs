//! # ia-cache — cache substrate with insertion policies and compression
//!
//! The on-chip storage layer for the `intelligent-arch` system, covering
//! the cache-side mechanisms the paper cites under its data-driven and
//! data-aware principles:
//!
//! * [`Cache`] — set-associative LRU with pluggable insertion policy
//!   (MRU / LIP / BIP), the substrate everything else builds on.
//! * [`DipCache`] — dynamic insertion via set dueling (data-driven).
//! * [`bdi_compress`] / [`CompressedCache`] — Base-Delta-Immediate
//!   compression (data-aware: "adaptively scale capability to the
//!   compressibility of data").
//!
//! ## Example
//!
//! ```
//! use ia_cache::{bdi_compress, BdiEncoding};
//!
//! # fn main() -> Result<(), ia_cache::CacheError> {
//! // Pointer-like data compresses well under BDI.
//! let mut block = [0u8; 64];
//! for i in 0..8 {
//!     let ptr = 0x7FFF_0000_1000u64 + i * 16;
//!     block[i as usize * 8..][..8].copy_from_slice(&ptr.to_le_bytes());
//! }
//! let c = bdi_compress(&block)?;
//! assert!(c.ratio() > 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compress;
mod dip;
mod error;
mod set_assoc;

pub use compress::{bdi_compress, BdiEncoding, Compressed, CompressedCache};
pub use dip::{static_policies, DipCache};
pub use error::CacheError;
pub use set_assoc::{Cache, CacheAccess, CacheOp, CacheStats, InsertionPolicy};
