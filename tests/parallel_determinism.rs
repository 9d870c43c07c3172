//! The `ia-par` determinism contract, end to end: every experiment's
//! machine-readable report must be **byte-identical** at `--threads` 1
//! (the exact serial path), 2 and 4 (multi-worker pools on any host,
//! including single-core CI), and so must the `ia-trace` session each
//! experiment submits.
//!
//! The thread count and trace capture are process-global
//! (`ia_par::set_threads`, `ia_trace::set_capture`), so each test holds
//! a lock while it flips them; the lock also keeps the comparison
//! honest — no other thread can change the worker count between runs.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ia_bench::report::{Error, ExperimentReport, ReportFn};

static THREADS_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    THREADS_GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders `render()` at each thread count in `threads` and returns a
/// description of the first pair whose bytes differ, if any.
fn first_mismatch(threads: &[usize], render: impl Fn() -> String) -> Option<String> {
    let runs: Vec<(usize, String)> = threads
        .iter()
        .map(|&t| {
            ia_par::set_threads(t);
            (t, render())
        })
        .collect();
    ia_par::set_threads(0);
    let (t0, first) = runs.first()?;
    let (t, other) = runs.iter().find(|(_, bytes)| bytes != first)?;
    let at = first
        .bytes()
        .zip(other.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| first.len().min(other.len()));
    Some(format!(
        "--threads {t0} and --threads {t} differ at byte {at}"
    ))
}

fn report_json(name: &str, report: ReportFn) -> String {
    report(true)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .to_json()
        .render()
}

/// The Chrome trace of one quick run; an experiment that submits no
/// trace renders an empty log.
fn trace_json(name: &str, report: ReportFn) -> String {
    let _ = ia_trace::session::take();
    ia_trace::set_capture(true);
    let result = report(true);
    ia_trace::set_capture(false);
    let log = ia_trace::session::take();
    result.unwrap_or_else(|e| panic!("{name}: {e}"));
    ia_trace::chrome::render_chrome(&log)
}

fn lookup(name: &str) -> ReportFn {
    ia_bench::EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the registry"))
        .1
}

fn assert_report_invariant(name: &str) {
    let _guard = guard();
    let report = lookup(name);
    if let Some(m) = first_mismatch(&[1, 2, 4], || report_json(name, report)) {
        panic!("{name}: report {m}");
    }
}

#[test]
fn every_report_is_thread_count_invariant() {
    let _guard = guard();
    let failures: Vec<String> = ia_bench::EXPERIMENTS
        .iter()
        .filter_map(|&(name, report)| {
            first_mismatch(&[1, 2, 4], || report_json(name, report)).map(|m| format!("{name}: {m}"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Parallel sweeps carry each task's trace back to the submitting
/// thread and submit in input order, so every rendered Chrome trace
/// must match between the exact serial path and a multi-worker pool.
#[test]
fn every_trace_is_thread_count_invariant() {
    let _guard = guard();
    let failures: Vec<String> = ia_bench::EXPERIMENTS
        .iter()
        .filter_map(|&(name, report)| {
            first_mismatch(&[1, 4], || trace_json(name, report)).map(|m| format!("{name}: {m}"))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The comparison must be able to fail: a report that records the
/// worker count is flagged.
#[test]
fn comparison_flags_a_thread_dependent_report() {
    fn leaks_threads(quick: bool) -> Result<ExperimentReport, Error> {
        Ok(ExperimentReport::new("leaks_threads", quick)
            .metric("threads", ia_par::auto_threads() as f64))
    }
    let _guard = guard();
    let mismatch = first_mismatch(&[1, 2, 4], || report_json("leaks_threads", leaks_threads));
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
    let _guard = guard();
    let report = lookup("exp05_scheduler_suite");
    let trace = || {
        let t = trace_json("exp05", report);
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
