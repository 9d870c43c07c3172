//! # ia-lint — workspace determinism & invariant checker
//!
//! Every headline number in this reproduction rests on one property:
//! reports are byte-identical across `--threads`, seeds, and hosts.
//! `ia-lint` enforces that property (and a few adjacent invariants)
//! *statically*, with its own lightweight string/char/comment-aware Rust
//! token scanner — no `syn`, no dependencies, consistent with the
//! offline-build policy.
//!
//! The catalog (see `crates/lint/LINTS.md` for rationale and examples):
//!
//! * **D-series — determinism.** No hash-ordered collections in report
//!   paths (D001), no wall-clock reads in simulator code (D002), no
//!   environment-dependent inputs (D003), no RNGs without an explicit
//!   seed (D004), no per-call allocation in functions marked
//!   `// lint: hot-path` (D005), and no nondeterministic reads flowing
//!   through the call graph into metric/report writers (D006).
//! * **H-series — hot paths.** D005's no-allocation rule extended to
//!   the full call closure of hot-path functions (H002).
//! * **P-series — panic policy.** No `.unwrap()`/`.expect()` (P001) or
//!   `panic!`-family macros (P002) in non-test library code, and no
//!   panic site reachable from a report entry point (P003, with a
//!   deterministic witness call chain per finding).
//! * **M-series — metrics.** Retired, IDs not reused: M001
//!   (`metric-name-convention`) and M002 (`metric-name-collision`)
//!   policed `.counter/.gauge/.histogram("…")` registrations on the
//!   metrics registry, which was deleted when no run read it.
//! * **S-series — safety.** Every crate root forbids `unsafe_code`
//!   (S001), and shipped code declares no process-wide mutable
//!   `static` or `thread_local!` (S003). S002 (`bin-bypasses-cli`) is
//!   retired, ID not reused: its subject, the per-experiment
//!   binaries, became the one `ia-bench` dispatcher, which routes every
//!   experiment through `ia_bench::report::cli` by construction.
//! * **W-series — waiver hygiene.** `// lint: allow` comments that no
//!   longer silence anything are themselves findings (W001).
//!
//! Since v2 the scanner is backed by an item-level recursive-descent
//! parser ([`parser`]), a workspace symbol table and conservative call
//! graph ([`graph`]), and interprocedural passes ([`ipa`]) — still
//! zero-dependency and byte-deterministic.
//!
//! Violations print as `file:line:col: LINT-ID: message` (or JSON with
//! `--json`), and any finding fails the gate. The only escape hatch is
//! an in-place waiver, `// lint: allow(ID, reason)` on (or directly
//! above) the line; a waiver that no longer silences anything is itself
//! a finding (W001).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod graph;
pub mod ipa;
pub mod lexer;
pub mod lints;
pub mod output;
pub mod parser;
pub mod scan;

pub use graph::CallGraph;
pub use lints::{Finding, CATALOG};
pub use scan::{analyze, analyze_source, analyze_sources, Analysis};
