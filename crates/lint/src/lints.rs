//! The lint catalog: D-series (determinism), H-series (hot paths),
//! P-series (panic policy), S-series (safety / run isolation),
//! W-series (waiver hygiene).
//!
//! Every lint is identified by a stable `X000` ID. Findings print as
//! `file:line:col: LINT-ID: message`; the catalog with rationale and
//! waiver guidance lives in `crates/lint/LINTS.md`.

use crate::context::FileContext;
use crate::lexer::{Tok, TokKind};

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable ID (`D001`, `P001`, …).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description shown by `--list`.
    pub summary: &'static str,
}

/// The full catalog, in ID order.
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: "D001",
        name: "hash-collection-in-report-path",
        summary: "HashMap/HashSet in report-building code (ia-bench, ia-telemetry) — \
                  iteration order could reach report bytes; use BTreeMap/BTreeSet or sort",
    },
    LintInfo {
        id: "D002",
        name: "wall-clock-in-simulator",
        summary: "std::time::Instant/SystemTime outside ia-par — simulated time must come \
                  from engine cycles, never the host clock",
    },
    LintInfo {
        id: "D003",
        name: "environment-dependent-input",
        summary: "std::env::var/vars or RandomState — results must be a pure function of \
                  CLI flags and seeds, not the host environment",
    },
    LintInfo {
        id: "D004",
        name: "rng-without-explicit-seed",
        summary: "from_entropy()/thread_rng() — stateful RNGs must be built via \
                  SmallRng::seed_from_u64 with an explicit seed",
    },
    LintInfo {
        id: "D005",
        name: "allocation-in-hot-path",
        summary: "Vec::new()/.collect()/.to_vec()/.clone() inside a `// lint: hot-path` \
                  function — per-cycle code must reuse scratch buffers, not allocate",
    },
    LintInfo {
        id: "D006",
        name: "determinism-taint-reaches-report",
        summary: "a wall-clock / environment / thread-identity read is reachable from a \
                  function that writes metric or report values — the witness chain shows \
                  the call path; route diagnostics to stderr or cut the call edge",
    },
    LintInfo {
        id: "H002",
        name: "allocation-in-hot-path-closure",
        summary: "a `// lint: hot-path` function transitively calls code that allocates \
                  (Vec::new/.collect/.to_vec/.clone) — D005 for the whole call closure, \
                  with the witness chain from the hot function to the allocation",
    },
    LintInfo {
        id: "P001",
        name: "unwrap-in-library-code",
        summary: ".unwrap()/.expect() in non-test code — return a Result, or justify with \
                  `// lint: allow(P001, why)`",
    },
    LintInfo {
        id: "P002",
        name: "panic-in-library-code",
        summary: "panic!/todo!/unimplemented! in non-test code — return an error, or \
                  justify with `// lint: allow(P002, why)`",
    },
    LintInfo {
        id: "P003",
        name: "panic-reachable-from-report-path",
        summary: "an unwrap/expect/panic-family site is transitively reachable from an \
                  experiment `report()` entry point or `ia_bench::report::cli` — the \
                  witness chain shows the call path; fix the site or waive it with a \
                  reason (a P001/P002 waiver at the site covers P003 too)",
    },
    LintInfo {
        id: "S001",
        name: "missing-forbid-unsafe",
        summary: "every crate root must declare `#![forbid(unsafe_code)]`",
    },
    LintInfo {
        id: "S003",
        name: "process-wide-mutable-static",
        summary: "shipped code declares a `static` with interior mutability (Atomic*, \
                  Mutex, RwLock, Cell, RefCell, OnceLock, LazyLock), a `static mut`, or a \
                  `thread_local!` — process-wide state couples runs; put it in the \
                  run's context instead",
    },
    LintInfo {
        id: "W001",
        name: "dead-waiver",
        summary: "a `// lint: allow(ID, …)` comment no longer silences any finding — \
                  delete it so waiver debt only shrinks",
    },
];

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Catalog ID.
    pub id: &'static str,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// Interprocedural lints attach the call chain that makes the site
    /// a finding, entry first (qualified function names). Empty for
    /// single-file lints. Chains are deterministic: shortest path,
    /// lowest-id tiebreak, so report bytes are stable across runs.
    pub witness: Vec<String>,
}

impl Finding {
    /// A finding with no witness chain (every single-file lint).
    #[must_use]
    pub fn new(file: &str, line: u32, col: u32, id: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_owned(),
            line,
            col,
            id,
            message,
            witness: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.id, self.message
        )?;
        if !self.witness.is_empty() {
            write!(f, " [via: {}]", self.witness.join(" -> "))?;
        }
        Ok(())
    }
}

/// File-path prefixes whose sources build report/metric bytes: hash-ordered
/// collections are banned outright there (D001).
const REPORT_PATHS: &[&str] = &["crates/bench/src/", "crates/telemetry/src/"];

/// `ia-par` measures wall-clock worker time by design; its numbers are
/// runtime diagnostics excluded from every report (see ia-bench docs).
const WALL_CLOCK_EXEMPT: &[&str] = &["crates/par/"];

/// The in-tree `rand` shim defines the seeding API itself.
const RNG_EXEMPT: &[&str] = &["crates/rand/"];

/// Types whose values can change behind a shared reference: a `static`
/// of one of them is process-wide mutable state (S003). `Atomic*` is
/// matched by prefix.
const INTERIOR_MUTABLE: &[&str] = &[
    "Cell", "LazyLock", "Mutex", "OnceCell", "OnceLock", "RefCell", "RwLock",
];

/// True for shipped code — `src/` and `crates/<name>/src/` — as opposed
/// to tests, examples and benches.
fn is_shipped(path: &str) -> bool {
    path.starts_with("src/")
        || matches!(
            path.split('/').collect::<Vec<_>>().as_slice(),
            ["crates", _, "src", ..]
        )
}

/// S003: the type of the `static` item whose keyword is `code[i]`
/// names an interior-mutable type (or the item is `static mut`).
fn static_is_mutable(code: &[Tok], i: usize) -> bool {
    if code.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
        return true;
    }
    code[i + 1..]
        .iter()
        .skip_while(|t| !t.is_punct(':'))
        .take_while(|t| !t.is_punct('=') && !t.is_punct(';'))
        .any(|t| {
            t.kind == TokKind::Ident
                && (t.text.starts_with("Atomic") || INTERIOR_MUTABLE.contains(&t.text.as_str()))
        })
}

/// Extracts the crate name from a workspace-relative path.
#[must_use]
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_owned(),
        _ => "intelligent-arch".to_owned(),
    }
}

fn starts_with_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Runs all single-file lints on one file, emitting **raw** findings:
/// `// lint: allow` waivers are *not* applied here — the scan pipeline
/// filters them centrally so it can also tell which waivers were used
/// (dead ones become W001 findings). S001 runs in the workspace pass
/// ([`check_crate_root`]).
#[must_use]
pub fn check_file(path: &str, ctx: &FileContext) -> Vec<Finding> {
    let mut out = Vec::new();
    let code = &ctx.code;
    let mut push = |id: &'static str, t: &Tok, message: String| {
        out.push(Finding::new(path, t.line, t.col, id, message));
    };

    let in_report_path = starts_with_any(path, REPORT_PATHS);
    let shipped = is_shipped(path);
    let wall_clock_exempt = starts_with_any(path, WALL_CLOCK_EXEMPT);
    let rng_exempt = starts_with_any(path, RNG_EXEMPT);

    for (i, t) in code.iter().enumerate() {
        if ctx.is_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| &code[j]);
        let prev_is_dot = prev.is_some_and(|p| p.is_punct('.'));
        let next_is_open = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let next_is_bang = code.get(i + 1).is_some_and(|n| n.is_punct('!'));

        match t.text.as_str() {
            "HashMap" | "HashSet" if in_report_path => push(
                "D001",
                t,
                format!(
                    "`{}` in a report path — iteration order can reach report bytes; \
                     use BTreeMap/BTreeSet or sort before emitting",
                    t.text
                ),
            ),
            "Instant" | "SystemTime" if !wall_clock_exempt => push(
                "D002",
                t,
                format!(
                    "wall-clock type `{}` in simulator code — derive time from engine \
                     cycles, not the host clock",
                    t.text
                ),
            ),
            "RandomState" => push(
                "D003",
                t,
                "`RandomState` seeds hashing from the OS — results would vary per process"
                    .to_owned(),
            ),
            // `env::var`, `env::var_os`, `env::vars` (not `env::args`,
            // which feeds the shared CLI).
            "env"
                if code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 2).is_some_and(|a| a.is_punct(':')) =>
            {
                if let Some(m) = code.get(i + 3) {
                    if matches!(m.text.as_str(), "var" | "var_os" | "vars" | "vars_os") {
                        push(
                            "D003",
                            t,
                            format!(
                                "environment read `env::{}` — results must be a pure \
                                 function of CLI flags and seeds",
                                m.text
                            ),
                        );
                    }
                }
            }
            "from_entropy" | "thread_rng"
                if !rng_exempt && !prev.is_some_and(|p| p.is_ident("fn")) =>
            {
                push(
                    "D004",
                    t,
                    format!(
                        "`{}` constructs an RNG without an explicit seed — use \
                         `SmallRng::seed_from_u64(seed)`",
                        t.text
                    ),
                );
            }
            "Vec"
                if ctx.is_hot[i]
                    && code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 3).is_some_and(|a| a.is_ident("new")) =>
            {
                push(
                    "D005",
                    t,
                    "`Vec::new()` in a `// lint: hot-path` function — reuse a caller-owned \
                     scratch buffer instead of allocating per call"
                        .to_owned(),
                );
            }
            "collect" | "to_vec" | "clone" if ctx.is_hot[i] && prev_is_dot && next_is_open => push(
                "D005",
                t,
                format!(
                    "`.{}()` in a `// lint: hot-path` function — per-cycle code must not \
                     allocate; borrow or reuse a scratch buffer",
                    t.text
                ),
            ),
            "unwrap" | "expect" if prev_is_dot && next_is_open => push(
                "P001",
                t,
                format!("`.{}()` in non-test code — return a Result instead", t.text),
            ),
            "panic" | "todo" | "unimplemented" if next_is_bang => push(
                "P002",
                t,
                format!("`{}!` in non-test code — return an error instead", t.text),
            ),
            "static" if shipped && static_is_mutable(code, i) => push(
                "S003",
                t,
                "process-wide mutable `static` — it couples every run in the process; \
                 keep the state in the run's context and pass it explicitly"
                    .to_owned(),
            ),
            "thread_local" if shipped && next_is_bang => push(
                "S003",
                t,
                "`thread_local!` is process-wide state per thread — keep it in the run's \
                 context and pass it explicitly"
                    .to_owned(),
            ),
            _ => {}
        }
    }
    out
}

/// S001: a crate root must carry the inner attribute
/// `#![forbid(unsafe_code)]`.
#[must_use]
pub fn check_crate_root(path: &str, ctx: &FileContext) -> Vec<Finding> {
    let code = &ctx.code;
    let found = code.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if found {
        Vec::new()
    } else {
        vec![Finding::new(
            path,
            1,
            1,
            "S001",
            "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d005_fires_only_inside_hot_path_functions() {
        let src = "\
fn cold() -> Vec<u32> { Vec::new() }
// lint: hot-path
fn hot(xs: &[u32], ys: &[u32]) -> Vec<u32> {
    let a = Vec::new();
    let b: Vec<u32> = xs.iter().copied().collect();
    let c = xs.to_vec();
    let d = ys.clone();
    a
}
fn cold2(xs: &[u32]) -> Vec<u32> { xs.to_vec() }
";
        let ctx = FileContext::build("crates/x/src/lib.rs", crate::lexer::tokenize(src));
        let found = check_file("crates/x/src/lib.rs", &ctx);
        let d005: Vec<u32> = found
            .iter()
            .filter(|f| f.id == "D005")
            .map(|f| f.line)
            .collect();
        assert_eq!(
            d005,
            vec![4, 5, 6, 7],
            "one finding per allocation, hot fn only"
        );
    }

    #[test]
    fn check_file_is_raw_and_the_pipeline_applies_waivers() {
        let src = "\
// lint: hot-path
fn hot(xs: &[u32]) -> Vec<u32> {
    // lint: allow(D005, cold slow path of the fast function)
    xs.to_vec()
}
";
        let ctx = FileContext::build("crates/x/src/lib.rs", crate::lexer::tokenize(src));
        let raw = check_file("crates/x/src/lib.rs", &ctx);
        assert!(
            raw.iter().any(|f| f.id == "D005"),
            "raw findings ignore waivers (the pipeline needs them for W001)"
        );
        let filtered = crate::scan::analyze_source("crates/x/src/lib.rs", src);
        assert!(filtered.iter().all(|f| f.id != "D005"));
    }

    #[test]
    fn catalog_ids_are_unique_and_sorted() {
        let ids: Vec<&str> = CATALOG.iter().map(|l| l.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "catalog must stay in unique ID order");
    }
}
