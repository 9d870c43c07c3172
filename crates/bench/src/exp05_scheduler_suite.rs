//! **E5 — The fixed-policy scheduler lineage.**
//!
//! Paper claim (§III): every controller "keeps executing exactly the same
//! fixed policy", and the literature's answer has been a succession of
//! heuristics (FR-FCFS → PAR-BS → ATLAS → TCM → BLISS) trading throughput
//! against fairness. This experiment reproduces the classic comparison:
//! weighted speedup and maximum slowdown over a 4-thread interference mix.

use ia_core::SchedulerKind;
use ia_dram::DramConfig;
use ia_memctrl::{max_slowdown, run_closed_loop_with, weighted_speedup, MemoryController};
use ia_par::{auto_threads, par_map};
use ia_sim::SnapshotState;

use crate::mixes::interference_mix;
use crate::report::{Error, ExperimentReport};

/// Result per scheduler for assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scheduler name.
    pub name: String,
    /// Weighted speedup (higher better).
    pub weighted_speedup: f64,
    /// Maximum slowdown (lower better).
    pub max_slowdown: f64,
    /// Requests per kilo-cycle.
    pub throughput: f64,
    /// Total simulated cycles of the shared run.
    pub cycles: u64,
    /// Event-driven engine counters for the shared run.
    pub engine: ia_sim::EngineStats,
}

/// Runs every scheduler over the mix and returns the rows [`report`]
/// renders. Public so the trace-attribution test can sum the runs'
/// simulated cycles, which the report does not carry.
///
/// # Errors
///
/// The mix or a controller fails to build, or a run fails.
pub fn rows(quick: bool) -> Result<Vec<Row>, Error> {
    let n = if quick { 300 } else { 3000 };
    let traces = interference_mix(n, 11)?;

    // Warm-fork: build the DRAM substrate and controller scaffolding
    // exactly once, then fork every run in the sweep from the same warm
    // controller (`SnapshotState`). Construction is scheduler-
    // independent, so a fork with a swapped policy is bit-identical to a
    // cold-built controller — the reports below are byte-for-byte the
    // same as the per-run-construction path at every `--threads`.
    let warm = MemoryController::new(DramConfig::ddr3_1600(), SchedulerKind::FrFcfs.build(1))?;

    // Alone runs (per-thread baselines) are scheduler-independent:
    // a single thread cannot interfere with itself across schedulers in a
    // way that changes the comparison, so use FR-FCFS. Each solo run is
    // an independent simulation — fan them out on the worker pool.
    let alone_jobs: Vec<(MemoryController, Vec<_>)> = traces
        .iter()
        .map(|t| (warm.fork(), vec![t.clone()]))
        .collect();
    let alone = par_map(auto_threads(), alone_jobs, |(ctrl, solo)| {
        run_closed_loop_with(ctrl, &solo, 8, 200_000_000).map(|r| r.threads[0].finish)
    })
    .into_iter()
    .collect::<Result<Vec<u64>, _>>()?;

    // The seven shared runs are likewise independent; `par_map` returns
    // rows in `SchedulerKind::all()` order, so the table and every
    // metric reduction downstream match the serial run byte-for-byte.
    // Each run carries its `ia-trace` log (when capture is on) back to
    // this thread, where the logs are submitted in input order — the
    // session trace is therefore byte-identical across `--threads`.
    let shared_jobs: Vec<(SchedulerKind, MemoryController)> = SchedulerKind::all()
        .iter()
        .map(|&kind| (kind, warm.fork().with_scheduler(kind.build(traces.len()))))
        .collect();
    let runs = par_map(auto_threads(), shared_jobs, |(kind, ctrl)| {
        let mut report = run_closed_loop_with(ctrl, &traces, 8, 500_000_000)?;
        let trace = report.trace.take();
        let row = Row {
            name: kind.name().to_owned(),
            weighted_speedup: weighted_speedup(&alone, &report),
            max_slowdown: max_slowdown(&alone, &report),
            throughput: report.throughput_rpkc(),
            cycles: report.cycles,
            engine: report.engine,
        };
        Ok::<_, Error>((row, trace))
    });
    runs.into_iter()
        .map(|run| {
            let (row, trace) = run?;
            if let Some(log) = trace {
                ia_trace::submit(log.prefixed(&row.name));
            }
            Ok(row)
        })
        .collect()
}

/// Runs the scheduler lineage: weighted speedup, maximum slowdown and
/// throughput per scheduler, plus the event-driven engine's counters.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let mut rep = ExperimentReport::new("exp05_scheduler_suite", quick)
        .columns(&[
            "scheduler",
            "weighted_speedup",
            "max_slowdown",
            "req_per_kcycle",
        ])
        .caption(
            "E5: scheduler lineage on a 4-thread interference mix\n\
             (paper shape: FR-FCFS beats FCFS on throughput; fairness schedulers cut max slowdown)",
        );
    let mut engine = ia_sim::EngineStats::default();
    for r in rows(quick)? {
        let key = r.name.to_lowercase().replace([' ', '-'], "_");
        engine.merge(&r.engine);
        rep = rep
            .metric(&format!("{key}_weighted_speedup"), r.weighted_speedup)
            .row(&[
                r.name.clone(),
                format!("{:.3}", r.weighted_speedup),
                format!("{:.3}", r.max_slowdown),
                format!("{:.2}", r.throughput),
            ]);
    }
    // The cycle-skipping engine's aggregate work/savings over the seven
    // shared runs: proof the event-driven refactor is actually engaged.
    Ok(rep
        .metric("engine_events_processed", engine.events_processed as f64)
        .metric("engine_cycles_skipped", engine.cycles_skipped as f64)
        .metric("engine_skips", engine.skips as f64)
        .metric("engine_sink_high_water", engine.sink_high_water as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frfcfs_outperforms_fcfs_on_throughput() {
        let rows = rows(true).unwrap();
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("present").clone();
        let fcfs = get("FCFS");
        let frfcfs = get("FR-FCFS");
        assert!(
            frfcfs.throughput > fcfs.throughput,
            "FR-FCFS {:.2} must beat FCFS {:.2}",
            frfcfs.throughput,
            fcfs.throughput
        );
    }

    #[test]
    fn fairness_schedulers_bound_slowdown() {
        let rows = rows(true).unwrap();
        let get = |n: &str| rows.iter().find(|r| r.name == n).expect("present").clone();
        let frfcfs = get("FR-FCFS");
        let best_fair = ["PAR-BS", "ATLAS", "TCM", "BLISS"]
            .iter()
            .map(|n| get(n).max_slowdown)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_fair <= frfcfs.max_slowdown * 1.10,
            "at least one fairness scheduler ({best_fair:.2}) should match or beat FR-FCFS \
             unfairness ({:.2})",
            frfcfs.max_slowdown
        );
    }

    #[test]
    fn all_schedulers_complete_the_mix() {
        let rows = rows(true).unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.weighted_speedup > 0.0));
    }
}
