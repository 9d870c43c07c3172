//! Interprocedural passes over the workspace call graph: P003
//! (panic-reachability), D006 (determinism taint), H002 (transitive
//! hot-path allocation). Each finding carries a deterministic witness
//! call chain — entry first — so a reader can verify the path without
//! re-running the analysis.

use crate::context::FileContext;
use crate::graph::CallGraph;
use crate::lexer::TokKind;
use crate::lints::Finding;
use crate::parser::Item;
use std::collections::BTreeSet;

/// A parsed file as the scan pipeline holds it.
pub type ParsedFile = (String, FileContext, Vec<Item>);

/// Runs all graph lints. `files` must be in sorted path order.
#[must_use]
pub fn check_graph(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = check_panic_reachability(files, graph);
    out.extend(check_determinism_taint(files, graph));
    out.extend(check_hot_closure_alloc(files, graph));
    out
}

/// A token site inside a function body, with the spelling that triggered
/// it (`.unwrap()`, `Instant::now`, …).
struct Site {
    what: String,
    line: u32,
    col: u32,
}

/// P003: panic-family sites transitively reachable from experiment
/// report entry points. Sites already waived for P001/P002 are skipped —
/// a local justification covers reachability too.
fn check_panic_reachability(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .filter(|n| is_report_entry(&n.file, &n.name, n.self_type.as_deref()))
        .map(|n| n.id)
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let parents = graph.bfs_parents(&entries);
    let mut out = Vec::new();
    for n in &graph.nodes {
        if parents[n.id].is_none() {
            continue;
        }
        let ctx = &files[n.file_idx].1;
        for site in panic_sites(ctx, n.body.clone()) {
            if ctx.allowed("P001", site.line)
                || ctx.allowed("P002", site.line)
                || ctx.allowed("P003", site.line)
            {
                continue;
            }
            let witness = graph.witness(&parents, n.id);
            let entry = witness.first().cloned().unwrap_or_default();
            out.push(Finding {
                file: n.file.clone(),
                line: site.line,
                col: site.col,
                id: "P003",
                message: format!(
                    "panic site `{}` is reachable from report entry `{entry}` — \
                     a panic here aborts the experiment mid-report",
                    site.what
                ),
                witness,
            });
        }
    }
    out
}

/// D006: wall-clock / environment / thread-identity reads reachable from
/// functions that write metric or report values. The sink is the witness
/// chain's head; the read is the finding site.
fn check_determinism_taint(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut claimed: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for sink in &graph.nodes {
        let ctx = &files[sink.file_idx].1;
        if !is_report_sink(ctx, sink.body.clone()) {
            continue;
        }
        let parents = graph.bfs_parents(&[sink.id]);
        for n in &graph.nodes {
            if parents[n.id].is_none() {
                continue;
            }
            let nctx = &files[n.file_idx].1;
            for site in taint_sources(nctx, n.body.clone()) {
                // First sink (in node order) wins; later sinks reaching
                // the same read add no information.
                if !claimed.insert((n.id, site.line, site.col)) {
                    continue;
                }
                out.push(Finding {
                    file: n.file.clone(),
                    line: site.line,
                    col: site.col,
                    id: "D006",
                    message: format!(
                        "nondeterministic read `{}` can flow into report output via \
                         `{}` — route it to stderr-only diagnostics or cut the call edge",
                        site.what, sink.qname
                    ),
                    witness: graph.witness(&parents, n.id),
                });
            }
        }
    }
    out
}

/// H002: allocation sites in the call closure of a hot-path-marked
/// function. (Spelling the literal marker in this comment would mark the
/// function below as hot — the context builder reads comments, not
/// attributes.) The hot function's own body stays D005's job; hot
/// callees are likewise covered by their own D005.
fn check_hot_closure_alloc(files: &[ParsedFile], graph: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut claimed: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for hot in graph.nodes.iter().filter(|n| n.is_hot) {
        let parents = graph.bfs_parents(&[hot.id]);
        for n in &graph.nodes {
            if n.id == hot.id || n.is_hot || parents[n.id].is_none() {
                continue;
            }
            let nctx = &files[n.file_idx].1;
            for site in alloc_sites(nctx, n.body.clone()) {
                if !claimed.insert((n.id, site.line, site.col)) {
                    continue;
                }
                out.push(Finding {
                    file: n.file.clone(),
                    line: site.line,
                    col: site.col,
                    id: "H002",
                    message: format!(
                        "`{}` allocates inside the call closure of hot-path fn \
                         `{}` — push the allocation out of the per-cycle path",
                        site.what, hot.qname
                    ),
                    witness: graph.witness(&parents, n.id),
                });
            }
        }
    }
    out
}

/// True for the workspace's report entry points: every experiment
/// module's `report()` and the shared CLI driver.
fn is_report_entry(file: &str, name: &str, self_type: Option<&str>) -> bool {
    if self_type.is_some() {
        return false;
    }
    (name == "report" && file.starts_with("crates/bench/src/exp"))
        || (name == "cli" && file == "crates/bench/src/report.rs")
}

/// True when the body registers metric values or builds report rows.
/// `runtime_metric` is deliberately absent: it is the designed
/// stderr-only diagnostics channel and never enters report bytes, so
/// timing may flow into it freely.
fn is_report_sink(ctx: &FileContext, body: std::ops::Range<usize>) -> bool {
    let code = &ctx.code;
    body.clone().any(|i| {
        let t = &code[i];
        t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "metric" | "param" | "row" | "columns" | "counter" | "gauge" | "histogram"
            )
            && i.checked_sub(1).is_some_and(|j| code[j].is_punct('.'))
            && code.get(i + 1).is_some_and(|x| x.is_punct('('))
    })
}

/// `.unwrap(` / `.expect(` / `panic!` / `todo!` / `unimplemented!`.
fn panic_sites(ctx: &FileContext, body: std::ops::Range<usize>) -> Vec<Site> {
    let code = &ctx.code;
    let mut out = Vec::new();
    for i in body {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i.checked_sub(1).is_some_and(|j| code[j].is_punct('.'));
        let next_open = code.get(i + 1).is_some_and(|x| x.is_punct('('));
        let next_bang = code.get(i + 1).is_some_and(|x| x.is_punct('!'));
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_open => out.push(Site {
                what: format!(".{}()", t.text),
                line: t.line,
                col: t.col,
            }),
            "panic" | "todo" | "unimplemented" if next_bang => out.push(Site {
                what: format!("{}!", t.text),
                line: t.line,
                col: t.col,
            }),
            _ => {}
        }
    }
    out
}

/// Wall-clock, environment, and thread-identity reads. Path-based D002
/// exemptions (ia-par) deliberately do *not* apply: a wall read is fine
/// as a diagnostic, but not once it can reach report bytes.
fn taint_sources(ctx: &FileContext, body: std::ops::Range<usize>) -> Vec<Site> {
    let code = &ctx.code;
    let mut out = Vec::new();
    for i in body {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let qualifies = |method: &str| {
            code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 3).is_some_and(|m| m.is_ident(method))
        };
        let site = |what: String| Site {
            what,
            line: t.line,
            col: t.col,
        };
        match t.text.as_str() {
            "Instant" | "SystemTime" if qualifies("now") => {
                out.push(site(format!("{}::now", t.text)));
            }
            "env" => {
                for m in ["var", "var_os", "vars", "vars_os"] {
                    if qualifies(m) {
                        out.push(site(format!("env::{m}")));
                    }
                }
            }
            "thread" if qualifies("current") => out.push(site("thread::current".to_owned())),
            "available_parallelism" => out.push(site("available_parallelism".to_owned())),
            "ThreadId" => out.push(site("ThreadId".to_owned())),
            _ => {}
        }
    }
    out
}

/// The D005 allocation patterns: `Vec::new(`, `.collect(`, `.to_vec(`,
/// `.clone(`.
fn alloc_sites(ctx: &FileContext, body: std::ops::Range<usize>) -> Vec<Site> {
    let code = &ctx.code;
    let mut out = Vec::new();
    for i in body {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i.checked_sub(1).is_some_and(|j| code[j].is_punct('.'));
        let next_open = code.get(i + 1).is_some_and(|x| x.is_punct('('));
        match t.text.as_str() {
            "Vec"
                if code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && code.get(i + 3).is_some_and(|a| a.is_ident("new")) =>
            {
                out.push(Site {
                    what: "Vec::new()".to_owned(),
                    line: t.line,
                    col: t.col,
                });
            }
            "collect" | "to_vec" | "clone" if prev_dot && next_open => out.push(Site {
                what: format!(".{}()", t.text),
                line: t.line,
                col: t.col,
            }),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse_items;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let loaded: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| {
                let ctx = FileContext::build(p, tokenize(s));
                let items = parse_items(&ctx.code);
                ((*p).to_owned(), ctx, items)
            })
            .collect();
        let graph = CallGraph::build(&loaded, &crate::graph::CrateDeps::default());
        check_graph(&loaded, &graph)
    }

    #[test]
    fn p003_reaches_through_crates_with_a_witness_chain() {
        let fs = run(&[
            (
                "crates/bench/src/exp99_demo.rs",
                "pub fn report(quick: bool) { ia_dram::step(quick); }",
            ),
            (
                "crates/dram/src/lib.rs",
                "pub fn step(q: bool) { inner(q); }
                 fn inner(q: bool) { VALUES.get(0).unwrap(); }",
            ),
        ]);
        let p003: Vec<&Finding> = fs.iter().filter(|f| f.id == "P003").collect();
        assert_eq!(p003.len(), 1);
        assert_eq!(p003[0].file, "crates/dram/src/lib.rs");
        assert_eq!(
            p003[0].witness,
            ["bench::exp99_demo::report", "dram::step", "dram::inner"]
        );
    }

    #[test]
    fn p003_skips_sites_with_local_panic_waivers() {
        let fs = run(&[(
            "crates/bench/src/exp99_demo.rs",
            "pub fn report(quick: bool) {
                 // lint: allow(P001, startup invariant)
                 VALUES.get(0).unwrap();
             }",
        )]);
        assert!(fs.iter().all(|f| f.id != "P003"));
    }

    #[test]
    fn p003_ignores_unreachable_panics() {
        let fs = run(&[
            (
                "crates/bench/src/exp99_demo.rs",
                "pub fn report(quick: bool) {}",
            ),
            (
                "crates/dram/src/lib.rs",
                "pub fn island() { VALUES.get(0).unwrap(); }",
            ),
        ]);
        assert!(fs.iter().all(|f| f.id != "P003"));
    }

    #[test]
    fn d006_traces_wall_clock_into_metric_writers() {
        let fs = run(&[(
            "crates/telemetry/src/lib.rs",
            "pub fn emit(reg: &mut Registry) {
                 reg.counter(\"x.y\", sample());
             }
             fn sample() -> u64 { wall() }
             fn wall() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
        )]);
        let d006: Vec<&Finding> = fs.iter().filter(|f| f.id == "D006").collect();
        assert_eq!(d006.len(), 1);
        assert_eq!(
            d006[0].witness,
            ["telemetry::emit", "telemetry::sample", "telemetry::wall"]
        );
        assert!(d006[0].message.contains("Instant::now"));
    }

    #[test]
    fn d006_quiet_when_reads_stay_off_report_paths() {
        let fs = run(&[(
            "crates/par/src/lib.rs",
            "pub fn diag() -> u64 { Instant::now().elapsed().as_nanos() as u64 }
             pub fn emit(reg: &mut Registry) { reg.counter(\"x.y\", 1); }",
        )]);
        assert!(fs.iter().all(|f| f.id != "D006"));
    }

    #[test]
    fn h002_extends_d005_to_callees_only() {
        let fs = run(&[(
            "crates/noc/src/lib.rs",
            "// lint: hot-path
             fn tick(&self) { route(); }
             fn route() -> Vec<u32> { Vec::new() }
             fn cold() -> Vec<u32> { Vec::new() }",
        )]);
        let h002: Vec<&Finding> = fs.iter().filter(|f| f.id == "H002").collect();
        assert_eq!(h002.len(), 1, "route() flagged, cold() not reachable");
        assert_eq!(h002[0].line, 3);
        assert!(h002[0].message.contains("noc::tick"));
    }
}
