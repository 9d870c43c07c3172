//! # ia-dram — cycle-level DRAM timing and energy simulator
//!
//! The memory substrate for the `intelligent-arch` workspace, reproducing
//! the role Ramulator (Kim+, IEEE CAL 2015) plays in the literature the
//! paper builds on: a command-accurate model of banks, ranks, and channels
//! governed by JEDEC-style timing constraints, plus an energy model that
//! separates on-die array energy from off-chip I/O energy — the distinction
//! at the heart of the data-movement-bottleneck argument.
//!
//! ## Layering
//!
//! The timing rules are written once, as two kinds of gates, and every
//! query is derived from them:
//!
//! * [`LocalGates`] — one bank's open row and its own deadlines
//!   (tRCD/tRAS/tRP/tRC/tWR/tRTP/tCCD), kept as one 32-byte record per
//!   bank. Every query reads one bank, never scans, so a record costs
//!   one bounds check and one cache line where parallel per-field
//!   arrays cost four of each (measured in `flat.rs`).
//! * [`SharedGates`] — what every bank of one (channel, rank) shares:
//!   the rank's refresh blackout (tRFC), its activate throttle (tRRD,
//!   tFAW), and the channel's data-bus gates with the write-to-read
//!   turnaround (tWTR).
//! * [`BankGates`] — a bank's per-command gates. One function folds the
//!   two kinds of gates together per command kind;
//!   [`BankGates::combine`], [`DramModule::ready_at`] and
//!   [`DramModule::probe_next`] (the open-page next command and its gate)
//!   are built on it, and [`DramModule::issue`] accepts a command exactly
//!   when the bank's protocol state allows it and `ready_at` has passed,
//!   both checked from one read of the bank.
//! * [`DramModule`] — address mapping, statistics, energy, and reduced
//!   latency modes (AL-DRAM, ChargeCache, TL-DRAM).
//!
//! ## Example
//!
//! ```
//! use ia_dram::{AccessKind, Cycle, DramConfig, DramModule, PhysAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dram = DramModule::new(DramConfig::ddr3_1600())?;
//! let first = dram.access(PhysAddr::new(0), AccessKind::Read, Cycle::ZERO)?;
//! let second = dram.access(PhysAddr::new(64), AccessKind::Read, first.data_ready)?;
//! // The second access hits the open row: much lower end-to-end latency.
//! let miss_latency = first.data_ready - Cycle::ZERO;
//! let hit_latency = second.data_ready - first.data_ready;
//! assert!(hit_latency < miss_latency);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod channel;
mod config;
mod energy;
mod error;
mod flat;
mod latency;
mod module;
mod rank;
mod salp;
mod stats;
mod types;

pub use address::AddressMapping;
pub use config::{DramConfig, DramConfigBuilder, EnergyParams, Geometry, TimingParams};
pub use energy::EnergyCounter;
pub use error::{ConfigError, IssueError, IssueErrorReason};
pub use latency::{ChargeCacheState, LatencyMode};
pub use module::{AccessResult, DramModule};
pub use salp::{serve_stream, BankOrganization, SalpBank};
pub use stats::DramStats;
pub use types::{
    AccessKind, BankGates, Command, Cycle, IssueOutcome, LocalGates, Location, PhysAddr,
    RowBufferOutcome, SharedGates,
};
