//! Fixture-corpus tests: every LINT-ID has a positive (`_bad`) and a
//! negative (`_ok`) fixture under `tests/fixtures/`, linted *as if* it
//! lived at the workspace path named by its `// path:` header.

use ia_lint::{analyze_source, analyze_sources, Finding, CATALOG};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture, returning its pretend workspace path and source.
/// Rust fixtures start with `// path: <path>`, manifest fixtures with
/// `# path: <path>`.
fn load(name: &str) -> (String, String) {
    let src = std::fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let header = src.lines().next().unwrap_or_default();
    let path = header
        .strip_prefix("// path: ")
        .or_else(|| header.strip_prefix("# path: "))
        .unwrap_or_else(|| panic!("fixture {name} must start with a `path: <path>` header"))
        .trim()
        .to_owned();
    (path, src)
}

/// Lints one fixture, returning the IDs of its findings (sorted, deduped).
fn lint_ids(name: &str) -> Vec<&'static str> {
    let (path, src) = load(name);
    let mut ids: Vec<&'static str> = analyze_source(&path, &src)
        .into_iter()
        .map(|f| f.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// IDs exercised by plain single-file fixture pairs.
const PAIRED_IDS: &[&str] = &[
    "D001", "D002", "D003", "D004", "D005", "P001", "P002", "S001", "S003",
];

/// IDs whose fixtures need the full pipeline — call graph plus waiver
/// accounting — so their pairs run through `analyze_sources` instead of
/// the per-file `analyze_source`.
const GRAPH_PAIRED_IDS: &[&str] = &["D006", "H002", "P003", "W001"];

#[test]
fn every_catalog_id_has_fixture_coverage() {
    for l in CATALOG {
        assert!(
            PAIRED_IDS.contains(&l.id) || GRAPH_PAIRED_IDS.contains(&l.id),
            "lint {} has no fixture coverage — add {}_bad.rs / {}_ok.rs",
            l.id,
            l.id.to_lowercase(),
            l.id.to_lowercase()
        );
    }
}

#[test]
fn bad_fixtures_trigger_exactly_their_lint() {
    for id in PAIRED_IDS {
        let ids = lint_ids(&format!("{}_bad.rs", id.to_lowercase()));
        assert_eq!(
            ids,
            vec![*id],
            "{id}_bad.rs must produce {id} findings and nothing else"
        );
    }
}

#[test]
fn ok_fixtures_are_clean() {
    for id in PAIRED_IDS {
        let name = format!("{}_ok.rs", id.to_lowercase());
        let ids = lint_ids(&name);
        assert!(ids.is_empty(), "{name} must be clean, got {ids:?}");
    }
}

/// Runs the full pipeline over a set of fixtures, returning all findings.
fn pipeline(names: &[&str]) -> Vec<Finding> {
    let loaded: Vec<(String, String)> = names.iter().map(|n| load(n)).collect();
    let refs: Vec<(&str, &str)> = loaded
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    analyze_sources(&refs)
}

/// Findings of one fixture under the full pipeline, as sorted deduped IDs.
fn pipeline_ids(name: &str) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = pipeline(&[name]).into_iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[test]
fn graph_bad_fixtures_trigger_their_lint() {
    // p003_bad keeps the P001 the panic site itself carries: the pair
    // demonstrates reachability on top of the local lint, and waiving
    // the P001 would (by design) silence P003 too.
    let expected: &[(&str, &[&str])] = &[
        ("d006_bad.rs", &["D006"]),
        ("h002_bad.rs", &["H002"]),
        ("p003_bad.rs", &["P001", "P003"]),
        ("w001_bad.rs", &["W001"]),
    ];
    for (name, want) in expected {
        let ids = pipeline_ids(name);
        assert_eq!(&ids, want, "{name} must produce exactly {want:?}");
    }
}

#[test]
fn graph_ok_fixtures_carry_no_graph_findings() {
    // p003_ok deliberately keeps a live (unreachable) unwrap, so its
    // local P001 remains — only the reachability finding must be gone.
    let expected: &[(&str, &[&str])] = &[
        ("d006_ok.rs", &[]),
        ("h002_ok.rs", &[]),
        ("p003_ok.rs", &["P001"]),
        ("w001_ok.rs", &[]),
    ];
    for (name, want) in expected {
        let ids = pipeline_ids(name);
        assert_eq!(&ids, want, "{name} must produce exactly {want:?}");
    }
}

#[test]
fn cross_crate_call_graph_resolves_a_three_crate_witness() {
    let files = [
        "callgraph_entry.rs",
        "callgraph_mid.rs",
        "callgraph_deep.rs",
    ];
    let findings = pipeline(&files);
    let p003: Vec<&Finding> = findings.iter().filter(|f| f.id == "P003").collect();
    assert_eq!(p003.len(), 1, "one reachable panic site: {findings:?}");
    assert_eq!(p003[0].file, "crates/tbl/src/fake_pick.rs");
    assert_eq!(
        p003[0].witness,
        [
            "bench::exp91_fake::report",
            "sched::fake_stage::stage",
            "sched::fake_stage::finalize",
            "tbl::fake_pick::pick",
        ],
        "the witness spells out the whole cross-crate chain"
    );
    // The chain is shortest-path deterministic: a second run over the
    // same sources reproduces every finding byte for byte.
    assert_eq!(findings, pipeline(&files));
}

/// The workspace and crate manifests the `deps_*` fixtures share.
const DEP_MANIFESTS: [&str; 4] = [
    "deps_root.toml",
    "deps_bench.toml",
    "deps_util.toml",
    "deps_other.toml",
];

/// P003 witness chains of the full pipeline over `files`, with or
/// without the dependency manifests.
fn p003_witnesses(files: &[&str], manifests: bool) -> Vec<Vec<String>> {
    let mut names: Vec<&str> = files.to_vec();
    if manifests {
        names.extend(DEP_MANIFESTS);
    }
    pipeline(&names)
        .into_iter()
        .filter(|f| f.id == "P003")
        .map(|f| f.witness)
        .collect()
}

#[test]
fn same_named_helpers_in_unrelated_crates_draw_no_edge() {
    let files = [
        "deps_entry_unrelated.rs",
        "deps_bench_local.rs",
        "deps_other.rs",
    ];
    assert_eq!(
        p003_witnesses(&files, true),
        Vec::<Vec<String>>::new(),
        "`bench` does not depend on `other`"
    );
    // Without manifests every crate sees every other: the fixture does
    // catch a resolver that ignores dependencies.
    assert_eq!(
        p003_witnesses(&files, false),
        [["bench::exp93_fake::report", "other::fake_helpers::helper"]]
    );
}

#[test]
fn a_dependency_fn_reached_through_use_draws_an_edge() {
    for (entry, report) in [
        ("deps_entry_use.rs", "bench::exp94_fake::report"),
        ("deps_entry_glob.rs", "bench::exp95_fake::report"),
    ] {
        assert_eq!(
            p003_witnesses(&[entry, "deps_util.rs"], true),
            [[report, "util::fake_pick::pick"]],
            "{entry}"
        );
    }
}

#[test]
fn waiver_suppresses_each_lint_in_bad_fixtures() {
    // Appending a trailing waiver to every offending line silences the
    // fixture entirely — proving `lint: allow` works for every ID.
    for id in PAIRED_IDS {
        let (path, src) = load(&format!("{}_bad.rs", id.to_lowercase()));
        let offending: Vec<u32> = analyze_source(&path, &src).iter().map(|f| f.line).collect();
        let waived: String = src
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if offending.contains(&(i as u32 + 1)) {
                    format!("{l} // lint: allow({id}, fixture waiver)\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        let left = analyze_source(&path, &waived);
        assert!(
            left.is_empty(),
            "waivers must silence {id}_bad.rs, got {left:?}"
        );
    }
}
