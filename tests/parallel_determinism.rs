//! The determinism contract, end to end: every experiment's
//! machine-readable report must be **byte-identical** at `--threads` 1
//! (the exact serial path), 2 and 4 (multi-worker pools on any host,
//! including single-core CI), and so must the `ia-trace` log each
//! experiment captures. A recorded run, its replay and a serial run
//! must agree byte for byte too.
//!
//! Every run gets its own [`RunCtx`], so no test locks anything: the
//! tests run side by side under the default test harness, and
//! `intercepting_runs_are_isolated_under_concurrency` runs four
//! experiments at once on purpose.

use ia_bench::report::{Error, ExperimentReport, ReportFn};
use ia_bench::RunCtx;
use ia_tracefmt::TraceReader;

/// Renders `render(threads)` at each thread count in `threads` and
/// returns a description of the first pair whose bytes differ, if any.
fn first_mismatch(threads: &[usize], render: impl Fn(usize) -> String) -> Option<String> {
    let runs: Vec<(usize, String)> = threads.iter().map(|&t| (t, render(t))).collect();
    let (t0, first) = runs.first()?;
    let (t, other) = runs.iter().find(|(_, bytes)| bytes != first)?;
    Some(format!(
        "--threads {t0} and --threads {t} differ at byte {}",
        first_difference(first, other)
    ))
}

fn first_difference(a: &str, b: &str) -> usize {
    a.bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

fn report_json(name: &str, report: ReportFn, ctx: &RunCtx) -> String {
    report(true, ctx)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .to_json()
        .render()
}

/// The Chrome trace of one quick run; an experiment that submits no
/// trace renders an empty log.
fn trace_json(name: &str, report: ReportFn, threads: usize) -> String {
    let ctx = RunCtx::new(threads).with_trace();
    report(true, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    ia_trace::chrome::render_chrome(&ctx.take_trace())
}

fn lookup(name: &str) -> ReportFn {
    ia_bench::EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the registry"))
        .1
}

fn report_mismatch(name: &str, report: ReportFn) -> Option<String> {
    first_mismatch(&[1, 2, 4], |t| report_json(name, report, &RunCtx::new(t)))
}

fn assert_report_invariant(name: &str) {
    if let Some(m) = report_mismatch(name, lookup(name)) {
        panic!("{name}: report {m}");
    }
}

#[test]
fn every_report_is_thread_count_invariant() {
    let failures: Vec<String> = ia_bench::EXPERIMENTS
        .iter()
        .filter_map(|&(name, report)| report_mismatch(name, report).map(|m| format!("{name}: {m}")))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Parallel sweeps carry each task's trace back to the submitting
/// thread and submit in input order, so every rendered Chrome trace
/// must match between the exact serial path and a multi-worker pool.
#[test]
fn every_trace_is_thread_count_invariant() {
    let failures: Vec<String> = ia_bench::EXPERIMENTS
        .iter()
        .filter_map(|&(name, report)| {
            first_mismatch(&[1, 4], |t| trace_json(name, report, t)).map(|m| format!("{name}: {m}"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The comparison must be able to fail: a report that records the
/// worker count is flagged.
#[test]
fn comparison_flags_a_thread_dependent_report() {
    fn leaks_threads(quick: bool, ctx: &RunCtx) -> Result<ExperimentReport, Error> {
        Ok(ExperimentReport::new("leaks_threads", quick).metric("threads", ctx.threads() as f64))
    }
    let mismatch = report_mismatch("leaks_threads", leaks_threads);
    assert!(
        mismatch
            .as_deref()
            .is_some_and(|m| m.starts_with("--threads 1 and --threads 2 differ")),
        "{mismatch:?}"
    );
}

#[test]
fn exp05_scheduler_suite_is_thread_count_invariant() {
    assert_report_invariant("exp05_scheduler_suite");
}

#[test]
fn exp17_prefetchers_is_thread_count_invariant() {
    assert_report_invariant("exp17_prefetchers");
}

#[test]
fn exp18_noc_is_thread_count_invariant() {
    assert_report_invariant("exp18_noc");
}

#[test]
fn exp24_fault_injection_is_thread_count_invariant() {
    assert_report_invariant("exp24_fault_injection");
}

#[test]
fn exp05_trace_is_thread_count_invariant() {
    let report = lookup("exp05_scheduler_suite");
    let trace = |threads| {
        let t = trace_json("exp05", report, threads);
        assert!(
            t.starts_with("{\"traceEvents\":[") && t.len() > 100,
            "every exp05 run must submit its trace: {t}"
        );
        t
    };
    if let Some(m) = first_mismatch(&[1, 4], trace) {
        panic!("exp05: trace {m}");
    }
}

/// Records one quick run of `name` on two workers, replays the artifact
/// on two workers, and runs it serially with a fresh context; returns
/// what failed to match, if anything.
fn record_replay_mismatch(name: &str) -> Option<String> {
    let report = lookup(name);
    let recorder = RunCtx::new(2).recording();
    let recorded = report_json(name, report, &recorder);
    let segments = recorder.intercepted();
    if segments == 0 {
        return Some(format!("{name}: the run intercepted no workload"));
    }
    let artifact = TraceReader::from_bytes(&recorder.recorded_artifact())
        .unwrap_or_else(|e| panic!("{name}: recorded artifact must decode: {e}"));
    let replayer = RunCtx::new(2).replaying(&artifact);
    let replayed = report_json(name, report, &replayer);
    if replayer.intercepted() != segments {
        return Some(format!(
            "{name}: replay asked for {} workloads, the recording holds {segments}",
            replayer.intercepted()
        ));
    }
    let serial = report_json(name, report, &RunCtx::new(1));
    for (label, bytes) in [("replayed", &replayed), ("serial", &serial)] {
        if *bytes != recorded {
            return Some(format!(
                "{name}: {label} report differs from the recorded one at byte {}",
                first_difference(&recorded, bytes)
            ));
        }
    }
    None
}

/// The four experiments that intercept workloads run at the same time,
/// each with its own context: recording in one cannot capture another's
/// workloads, and replaying in one cannot feed another.
#[test]
fn intercepting_runs_are_isolated_under_concurrency() {
    const INTERCEPTING: [&str; 4] = [
        "exp04_rl_memctrl",
        "exp05_scheduler_suite",
        "exp13_low_latency_dram",
        "exp24_fault_injection",
    ];
    let failures: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = INTERCEPTING
            .iter()
            .map(|&name| s.spawn(move || record_replay_mismatch(name)))
            .collect();
        runs.into_iter()
            .filter_map(|run| run.join().unwrap_or_else(|_| Some("a run panicked".into())))
            .collect()
    });
    assert!(failures.is_empty(), "{failures:#?}");
}
