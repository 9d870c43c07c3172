//! Workspace traversal and the analysis pipeline: load every `.rs`
//! source and the workspace manifests, run per-file lints *raw*, build
//! the call graph (call resolution limited by crate dependencies), run the
//! interprocedural passes, then apply `// lint: allow` waivers centrally
//! — which is what lets W001 flag the waivers that silenced nothing.

use crate::context::{path_is_testlike, FileContext};
use crate::graph::{CallGraph, CrateDeps};
use crate::ipa::{check_graph, ParsedFile};
use crate::lexer::tokenize;
use crate::lints::{check_crate_root, check_file, Finding};
use crate::parser::parse_items;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Top-level directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["src", "crates", "tests", "examples"];

/// Path prefixes excluded from the scan: build output, and the lint
/// fixture corpus (which contains violations on purpose).
const SKIP_PREFIXES: &[&str] = &["target/", "crates/lint/tests/fixtures/"];

/// Result of a full workspace scan.
#[derive(Debug)]
pub struct Analysis {
    /// All findings surviving `lint: allow` waivers, sorted by
    /// `(file, line, col, id)`. Baseline gating happens separately.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// True when `path` is a crate root that must carry
/// `#![forbid(unsafe_code)]` (S001): `src/lib.rs` / `src/main.rs` of the
/// facade crate or of any `crates/<name>` member.
#[must_use]
pub fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" || path == "src/main.rs" {
        return true;
    }
    let parts: Vec<&str> = path.split('/').collect();
    matches!(parts.as_slice(), ["crates", _, "src", "lib.rs" | "main.rs"])
}

/// True for a workspace manifest path (`Cargo.toml`,
/// `crates/<name>/Cargo.toml`): it feeds the call graph's crate
/// dependencies instead of being linted.
fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

/// Recursively collects workspace-relative `.rs` paths plus the
/// workspace manifests, sorted so the scan (and therefore every report)
/// is order-deterministic.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn collect_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    if root.join("Cargo.toml").is_file() {
        out.push("Cargo.toml".to_owned());
    }
    for dir in SCAN_DIRS {
        let d = root.join(dir);
        if d.is_dir() {
            walk(root, &d, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(rel) = relative(root, &path) else {
            continue;
        };
        if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if rel.ends_with(".rs") || is_manifest(&rel) {
            out.push(rel);
        }
    }
    Ok(())
}

/// Renders `path` relative to `root` with `/` separators.
fn relative(root: &Path, path: &Path) -> Option<String> {
    let rel: PathBuf = path.strip_prefix(root).ok()?.to_path_buf();
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    Some(parts.join("/"))
}

/// Lints one already-loaded source file with the **per-file** catalog
/// only (no call-graph lints, no W001 — those need the whole workspace;
/// see [`analyze_sources`]). Waivers are applied. Exposed for fixture
/// tests.
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileContext::build(path, tokenize(src));
    let mut findings = file_raw(path, &ctx);
    findings.retain(|f| ctx.allow_line(f.id, f.line).is_none());
    findings
}

/// Per-file raw findings for `path`.
fn file_raw(path: &str, ctx: &FileContext) -> Vec<Finding> {
    let mut findings = check_file(path, ctx);
    if is_crate_root(path) {
        findings.extend(check_crate_root(path, ctx));
    }
    findings
}

/// Runs the **full** pipeline — per-file lints, call graph,
/// interprocedural passes, central waiver filtering, W001 — over a set
/// of in-memory sources. Sources named `Cargo.toml` are manifests: they
/// limit call resolution to each crate's dependencies (see
/// [`CrateDeps`]). This is what [`analyze`] uses; fixture tests call it
/// directly with synthetic multi-crate workspaces.
#[must_use]
pub fn analyze_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let (manifests, sources): (Vec<_>, Vec<_>) = sources
        .iter()
        .copied()
        .partition(|(path, _)| is_manifest(path));
    let mut files: Vec<ParsedFile> = sources
        .iter()
        .map(|(path, src)| {
            let ctx = FileContext::build(path, tokenize(src));
            let items = parse_items(&ctx.code);
            ((*path).to_owned(), ctx, items)
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));

    // Phase 1: raw per-file findings.
    let mut raw: Vec<Finding> = Vec::new();
    for (path, ctx, _) in &files {
        raw.extend(file_raw(path, ctx));
    }

    // Phase 2: call graph + interprocedural lints (these pre-exclude
    // cross-lint-waived sites themselves; their own waivers are applied
    // by the central filter below, like everyone else's).
    let graph = CallGraph::build(&files, &CrateDeps::from_manifests(&manifests));
    raw.extend(check_graph(&files, &graph));

    // Phase 3: central waiver filter. A waiver that suppresses at least
    // one raw finding is *used*; the rest are dead.
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        let ctx = files
            .iter()
            .find(|(p, _, _)| *p == f.file)
            .map(|(_, c, _)| c);
        match ctx.and_then(|c| c.allow_line(f.id, f.line)) {
            Some(at) => {
                used.insert((f.file.clone(), at, f.id.to_owned()));
            }
            None => findings.push(f),
        }
    }

    // Phase 4: W001 — declared waivers that silenced nothing. Waivers in
    // test-like files or covering test-context code are documentation,
    // not suppressions, and are skipped. A dead waiver can itself be
    // waived with `allow(W001, reason)` (one round; W001 waivers used
    // this way are not re-examined).
    for (path, ctx, _) in &files {
        if path_is_testlike(path) {
            continue;
        }
        for (&line, ids) in &ctx.allows {
            if ctx.waiver_covers_test_code(line) {
                continue;
            }
            for id in ids {
                if id == "W001" || used.contains(&(path.clone(), line, id.clone())) {
                    continue;
                }
                let f = Finding::new(
                    path,
                    line,
                    1,
                    "W001",
                    format!("`lint: allow({id}, …)` no longer silences any finding — delete it"),
                );
                if ctx.allow_line("W001", f.line).is_none() {
                    findings.push(f);
                }
            }
        }
    }

    findings.sort();
    findings
}

/// Scans the workspace under `root` and runs the full catalog.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let sources = collect_sources(root)?;
    let mut loaded: Vec<(String, String)> = Vec::with_capacity(sources.len());
    for rel in &sources {
        loaded.push((rel.clone(), std::fs::read_to_string(root.join(rel))?));
    }
    let refs: Vec<(&str, &str)> = loaded
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    Ok(Analysis {
        findings: analyze_sources(&refs),
        files_scanned: sources.iter().filter(|p| !is_manifest(p)).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_and_bin_classification() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/dram/src/lib.rs"));
        assert!(is_crate_root("crates/lint/src/main.rs"));
        assert!(!is_crate_root("crates/dram/src/module.rs"));
        assert!(is_crate_root("crates/bench/src/main.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/exp02_rowclone.rs"));
    }

    #[test]
    fn analyze_source_flags_and_waives() {
        let bad = "fn f() { x.unwrap(); }";
        let f = analyze_source("crates/x/src/util.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, "P001");
        let waived = "fn f() { x.unwrap(); // lint: allow(P001, test helper)\n}";
        assert!(analyze_source("crates/x/src/util.rs", waived).is_empty());
    }

    #[test]
    fn dead_waivers_surface_as_w001_and_used_ones_do_not() {
        let findings = analyze_sources(&[(
            "crates/x/src/util.rs",
            "fn f() { x.unwrap(); // lint: allow(P001, justified)\n}\n\
             // lint: allow(D002, stale — the Instant read was removed)\n\
             fn g() {}",
        )]);
        let w001: Vec<&Finding> = findings.iter().filter(|f| f.id == "W001").collect();
        assert_eq!(w001.len(), 1, "{findings:?}");
        assert_eq!(w001[0].line, 3);
        assert!(w001[0].message.contains("D002"));
        assert!(
            findings.iter().all(|f| f.id != "P001"),
            "waiver still works"
        );
    }

    #[test]
    fn w001_skips_waivers_on_test_code_and_can_itself_be_waived() {
        let findings = analyze_sources(&[(
            "crates/x/src/util.rs",
            "#[cfg(test)]\nmod tests {\n    // lint: allow(P001, fixture)\n    fn h() {}\n}\n\
             // lint: allow(D004, kept while the refactor lands) lint: allow(W001, see issue 12)\n\
             fn g() {}",
        )]);
        assert!(
            findings.iter().all(|f| f.id != "W001"),
            "test-context + W001-waived declarations stay quiet: {findings:?}"
        );
    }
}
