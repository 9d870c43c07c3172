//! The gate, end to end: ia-lint finds nothing in its own workspace,
//! fails loudly on injected violations, and rejects bad flags.

use ia_lint::analyze;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ia-lint"))
        .args(args)
        .output()
        .expect("spawn ia-lint")
}

#[test]
fn workspace_has_no_findings() {
    let analysis = analyze(&workspace_root()).expect("scan workspace");
    assert!(
        analysis.findings.is_empty(),
        "workspace gate must be green: {:?}",
        analysis.findings
    );
}

#[test]
fn ia_lint_runs_clean_on_its_own_source() {
    let analysis = analyze(&workspace_root()).expect("scan workspace");
    let own: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/lint/"))
        .collect();
    assert!(own.is_empty(), "ia-lint must lint itself clean: {own:?}");
}

/// Builds a minimal fake workspace containing one crate root with the
/// given source, returning its path.
fn mini_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ws_{tag}"));
    let src = root.join("crates/fake/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("lib.rs"), lib_rs).expect("write lib.rs");
    root
}

const CLEAN_LIB: &str = "#![forbid(unsafe_code)]\npub fn f() -> Option<u32> { Some(1) }\n";
const DIRTY_LIB: &str = "#![forbid(unsafe_code)]\npub fn f() -> u32 { g().unwrap() }\n";

#[test]
fn injected_violation_fails_the_gate_with_file_line_id() {
    let root = mini_workspace("inject", DIRTY_LIB);
    let out = run_lint(&["--check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("crates/fake/src/lib.rs:2:25: P001:"),
        "must list file:line:col: LINT-ID, got:\n{stdout}"
    );

    let clean = mini_workspace("clean", CLEAN_LIB);
    let out = run_lint(&["--check", "--root", clean.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
}

#[test]
fn json_output_is_byte_stable_across_runs() {
    let root = mini_workspace("json", DIRTY_LIB);
    let rootarg = root.to_str().expect("utf-8 path");
    let a = run_lint(&["--json", "--root", rootarg]);
    let b = run_lint(&["--json", "--root", rootarg]);
    assert_eq!(a.status.code(), Some(1));
    assert_eq!(a.stdout, b.stdout, "--json must be byte-stable for diffing");
    let doc = String::from_utf8(a.stdout).expect("utf-8");
    assert!(doc.starts_with("{\"version\":3"));
    assert!(doc.contains("\"id\":\"P001\""));
}

/// A three-crate fake workspace whose report entry reaches a panic site
/// two crate-hops away: the P003 witness chain must come out identical —
/// byte for byte — on every run, which is what makes `--json` diffable
/// in CI.
#[test]
fn p003_witness_chains_are_byte_stable_across_runs() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ws_witness");
    let _ = std::fs::remove_dir_all(&root);
    for (rel, src) in [
        (
            "crates/bench/src/exp01_demo.rs",
            "pub fn report(quick: bool) -> Report { ia_mid::stage(quick) }\n",
        ),
        (
            "crates/mid/src/util.rs",
            "pub fn stage(quick: bool) -> Report { ia_deep::pick(quick) }\n",
        ),
        (
            "crates/deep/src/core.rs",
            "pub fn pick(quick: bool) -> Report { ROWS.get(0).unwrap() }\n",
        ),
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(path, src).expect("write source");
    }
    let rootarg = root.to_str().expect("utf-8 path");
    let a = run_lint(&["--json", "--root", rootarg]);
    let b = run_lint(&["--json", "--root", rootarg]);
    assert_eq!(a.status.code(), Some(1), "the unwrap must fail the gate");
    assert_eq!(a.stdout, b.stdout, "witness chains must be byte-stable");
    let doc = String::from_utf8(a.stdout).expect("utf-8");
    assert!(
        doc.contains(
            "\"witness\":[\"bench::exp01_demo::report\",\"mid::util::stage\",\"deep::core::pick\"]"
        ),
        "the P003 witness must spell out the cross-crate chain, got:\n{doc}"
    );
}

#[test]
fn list_prints_the_full_catalog() {
    let out = run_lint(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    for l in ia_lint::CATALOG {
        assert!(stdout.contains(l.id), "--list must mention {}", l.id);
    }
}

#[test]
fn bad_root_and_bad_flags_exit_2() {
    let out = run_lint(&["--check", "--root", "/nonexistent-ia-lint"]);
    assert_eq!(out.status.code(), Some(2));
    for flags in [
        &["--frobnicate"][..],
        &["--write-baseline"],
        &["--baseline", "x"],
    ] {
        let out = run_lint(flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} must exit 2");
    }
}
