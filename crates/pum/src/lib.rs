//! # ia-pum — processing *using* memory
//!
//! The paper's first PIM approach "exploits the existing memory
//! architecture and the operational principles of the memory circuitry to
//! enable operations inside memory structures with minimal changes". This
//! crate implements the mechanisms the talk walks through:
//!
//! * [`bulk_copy`] — RowClone FPM/PSM and LISA in-DRAM bulk copy, vs.
//!   the CPU-copy baseline.
//! * [`AmbitEngine`] — triple-row-activation bulk bitwise AND/OR/NOT/…,
//!   functional *and* costed, with the channel-bound CPU baseline
//!   ([`cpu_bitwise_baseline`]).
//!
//! ## Example
//!
//! ```
//! use ia_dram::{DramConfig, DramModule, PhysAddr};
//! use ia_pum::{bulk_copy, CopyMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dram = DramModule::new(DramConfig::ddr3_1600())?;
//! // Copy one row to the next row of the same bank/subarray: stride is
//! // row_bytes × total banks under the default row-interleaved mapping.
//! let stride = 8 * 1024 * 8;
//! let fpm = bulk_copy(&mut dram, PhysAddr::new(0), PhysAddr::new(stride), 8192, CopyMode::Fpm)?;
//! let cpu = bulk_copy(&mut dram, PhysAddr::new(0), PhysAddr::new(stride), 8192, CopyMode::Cpu)?;
//! assert!(fpm.ns < cpu.ns);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ambit;
mod error;
mod gather;
mod rowclone;

pub use ambit::{cpu_bitwise_baseline, AmbitEngine, AmbitStats, BitwiseOp, RowId};
pub use error::PumError;
pub use gather::{conventional_gather, gather_elements, gs_dram_gather, GatherReport};
pub use rowclone::{bulk_copy, CopyMode, CopyReport};
