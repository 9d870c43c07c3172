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
//! * [`BankStates`] — flat struct-of-arrays per-bank state (open rows,
//!   timing deadlines, activate counters) walked by the hot timing checks.
//! * [`Bank`] — open-row state machine, per-bank timing windows
//!   (tRCD/tRAS/tRP/tWR/tRTP/tCCD); a single-bank view over the flat state.
//! * [`Rank`] — activate throttling (tRRD, tFAW) and rank-wide refresh
//!   (tRFC).
//! * [`Channel`] — shared data-bus serialization and write→read turnaround.
//! * [`DramModule`] — address mapping, statistics, energy, and reduced
//!   latency modes (AL-DRAM, ChargeCache).
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
mod bank;
mod channel;
mod config;
mod energy;
mod error;
mod flat;
mod inject;
mod latency;
mod module;
mod rank;
mod salp;
mod stats;
mod types;

pub use address::AddressMapping;
pub use bank::{Bank, IssueOutcome};
pub use channel::Channel;
pub use config::{DramConfig, DramConfigBuilder, EnergyParams, Geometry, TimingParams};
pub use energy::EnergyCounter;
pub use error::{ConfigError, IssueError, IssueErrorReason};
pub use flat::BankStates;
pub use inject::InjectEvent;
pub use latency::{ChargeCacheState, LatencyMode};
pub use module::{AccessResult, CommandEvent, DramModule};
pub use rank::Rank;
pub use salp::{serve_stream, BankOrganization, SalpBank};
pub use stats::DramStats;
pub use types::{
    AccessKind, BankGates, Command, Cycle, LocalGates, Location, PhysAddr, RowBufferOutcome,
    SharedGates,
};
