//! # ia-telemetry — machine-readable report encoding
//!
//! Every experiment report leaves the simulator as JSON or CSV. The
//! build is offline, so serde is unavailable by design; this crate holds
//! the two hand-rolled encoders the workspace shares:
//!
//! * [`JsonValue`] — a JSON value with a byte-stable writer and a parser
//!   (so reports can be round-tripped and checked), plus [`JsonError`]
//!   for parse failures.
//! * [`csv`] — RFC-4180-style CSV rendering of a header plus rows.
//!
//! `ia_bench::report` renders every experiment's `--json` / `--csv`
//! artifact through these; `ia-trace` uses [`JsonValue`] for its Chrome
//! trace export and profile JSON.
//!
//! ## Example
//!
//! ```
//! use ia_telemetry::{csv, JsonValue};
//!
//! let report = JsonValue::obj(vec![
//!     ("name", JsonValue::Str("exp02_rowclone".to_owned())),
//!     ("speedup", JsonValue::Num(11.6)),
//! ]);
//! let text = report.render();
//! assert_eq!(text, r#"{"name":"exp02_rowclone","speedup":11.6}"#);
//! assert_eq!(JsonValue::parse(&text), Ok(report));
//! assert_eq!(
//!     csv::render(
//!         &["size".to_owned(), "speedup".to_owned()],
//!         &[vec!["4 KiB".to_owned(), "11.6x".to_owned()]],
//!     ),
//!     "size,speedup\n4 KiB,11.6x\n"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csv;
mod json;

pub use json::{JsonError, JsonValue};
