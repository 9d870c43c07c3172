//! # ia-xmem — Expressive Memory: the data-aware interface
//!
//! The paper's third principle is that architectures should make
//! *data-characteristics-aware* decisions, which requires "efficient and
//! expressive software/hardware interfaces" — exemplified by X-Mem
//! (Vijaykumar+, ISCA 2018). This crate implements that interface:
//!
//! * [`DataAttributes`] — the semantic vocabulary (compressibility,
//!   criticality, access pattern, locality, approximability, error
//!   vulnerability).
//! * [`Atom`] / [`AtomRegistry`] — address-range → attribute mapping with
//!   overlap checking (the hardware-visible atom table).
//! * [`policies`] — adapters that turn attributes into concrete decisions:
//!   cache insertion priority and reliability-tier placement.
//!
//! ## Example
//!
//! ```
//! use ia_xmem::{AtomRegistry, Criticality, DataAttributes, Locality};
//! use ia_xmem::policies::insertion_priority;
//!
//! # fn main() -> Result<(), ia_xmem::XmemError> {
//! let mut reg = AtomRegistry::new();
//! reg.register(
//!     0x1000..0x9000,
//!     DataAttributes::new()
//!         .criticality(Criticality::Critical)
//!         .locality(Locality::Reuse),
//! )?;
//! assert_eq!(insertion_priority(&reg.attrs_at(0x2000)), Some(true));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attributes;
mod error;
pub mod policies;
mod registry;

pub use attributes::{AccessPattern, Compressibility, Criticality, DataAttributes, Locality};
pub use error::XmemError;
pub use policies::DataAwareCache;
pub use registry::{Atom, AtomId, AtomRegistry};
