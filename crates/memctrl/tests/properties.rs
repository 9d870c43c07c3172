//! Property-based tests of the memory controller: liveness and latency
//! bounds under every scheduler, and exact agreement of the
//! event-skipping engine with the per-cycle oracle.

use ia_dram::{AddressMapping, DramConfig, Location};
use ia_faults::FaultPlan;
use ia_memctrl::{
    run_closed_loop, run_closed_loop_with, Atlas, Bliss, CtrlError, Fcfs, FrFcfs, MemRequest,
    MemoryController, Mitigation, ParBs, RefreshMode, ReliabilityConfig, ReliabilityPipeline,
    RlScheduler, RlSchedulerConfig, RunReport, Scheduler, Tcm, ThreadReport,
};
use ia_trace::TraceLog;
use proptest::prelude::*;

/// Per-cycle oracle for [`run_closed_loop_with`]: the same closed-loop
/// drive, but ticking the controller every single cycle
/// ([`MemoryController::tick`]) instead of letting the event-skipping
/// engine jump over idle spans. Slow by design; the engine's report
/// must equal it (`RunReport::same_results`).
fn run_closed_loop_per_cycle(
    ctrl: MemoryController,
    traces: &[Vec<MemRequest>],
    window: usize,
    max_cycles: u64,
) -> Result<RunReport, CtrlError> {
    if traces.is_empty() || traces.iter().any(Vec::is_empty) {
        return Err(CtrlError::EmptyTrace);
    }
    let mut ctrl = ctrl.with_queue_capacity(traces.len() * window.max(1) + 8);
    let mut cursor = vec![0usize; traces.len()];
    let mut outstanding = vec![0usize; traces.len()];
    let mut completed = vec![0u64; traces.len()];
    let mut latency = vec![0u64; traces.len()];
    let mut finish = vec![0u64; traces.len()];

    let all_done = |cursor: &[usize], outstanding: &[usize]| {
        cursor.iter().zip(traces).all(|(&c, t)| c >= t.len()) && outstanding.iter().all(|&o| o == 0)
    };

    while !all_done(&cursor, &outstanding) && ctrl.now().as_u64() < max_cycles {
        for (t, trace) in traces.iter().enumerate() {
            while outstanding[t] < window && cursor[t] < trace.len() {
                let mut req = trace[cursor[t]];
                req.thread = t as u32;
                if ctrl.enqueue(req).is_err() {
                    break;
                }
                cursor[t] += 1;
                outstanding[t] += 1;
            }
        }
        for c in ctrl.tick() {
            let t = c.request.thread as usize;
            outstanding[t] -= 1;
            completed[t] += 1;
            latency[t] += c.latency();
            finish[t] = c.finished.as_u64();
        }
    }
    let threads = (0..traces.len())
        .map(|t| ThreadReport {
            completed: completed[t],
            avg_latency: if completed[t] == 0 {
                0.0
            } else {
                latency[t] as f64 / completed[t] as f64
            },
            finish: finish[t],
        })
        .collect();
    Ok(RunReport {
        scheduler: ctrl.scheduler_name().to_owned(),
        cycles: ctrl.now().as_u64(),
        threads,
        stats: ctrl.stats().clone(),
        row_hit_rate: ctrl.dram().stats().row_hit_rate(),
        charge_cache_hit_rate: ctrl.dram().charge_cache_hit_rate(),
        dynamic_energy_pj: ctrl.dram().energy().dynamic_pj(),
        io_energy_pj: ctrl.dram().energy().io_pj,
        engine: *ctrl.engine_stats(),
        reliability: ctrl.reliability().map(ReliabilityPipeline::report),
        trace: ctrl.take_trace_log(),
    })
}

fn schedulers(threads: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(ParBs::new(threads)),
        Box::new(Atlas::new(threads, 10_000)),
        Box::new(Tcm::new(threads, 10_000, 1_000)),
        Box::new(Bliss::new()),
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Liveness: every scheduler completes every request of any random
    /// multi-threaded trace (no starvation, no deadlock).
    #[test]
    fn every_scheduler_drains_every_trace(
        traces in prop::collection::vec(
            prop::collection::vec((0u64..(1 << 22), any::<bool>()), 1..40),
            1..4,
        ),
    ) {
        let total: usize = traces.iter().map(Vec::len).sum();
        let mem_traces: Vec<Vec<MemRequest>> = traces
            .iter()
            .enumerate()
            .map(|(t, reqs)| {
                reqs.iter()
                    .map(|&(addr, w)| {
                        if w {
                            MemRequest::write(addr & !63, t)
                        } else {
                            MemRequest::read(addr & !63, t)
                        }
                    })
                    .collect()
            })
            .collect();
        for sched in schedulers(traces.len()) {
            let name = sched.name();
            let report = run_closed_loop(
                DramConfig::ddr3_1600(),
                sched,
                &mem_traces,
                4,
                50_000_000,
            )
            .unwrap();
            prop_assert_eq!(
                report.stats.completed,
                total as u64,
                "{} left requests unserved", name
            );
        }
    }

    /// Latency lower bound: no request can complete faster than the
    /// row-hit column latency.
    #[test]
    fn latency_never_beats_physics(addrs in prop::collection::vec(0u64..(1 << 20), 1..30)) {
        let trace: Vec<MemRequest> = addrs.iter().map(|&a| MemRequest::read(a & !63, 0)).collect();
        let report = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(FrFcfs::new()),
            &[trace],
            4,
            50_000_000,
        )
        .unwrap();
        let t = DramConfig::ddr3_1600().timing;
        let min = (t.t_cl + t.t_bl) as f64;
        prop_assert!(report.stats.avg_latency() >= min);
    }

    /// Throughput upper bound: completed requests per cycle can never
    /// exceed the data-bus burst rate (one per tBL cycles).
    #[test]
    fn throughput_respects_the_bus(addrs in prop::collection::vec(0u64..(1 << 16), 10..60)) {
        let trace: Vec<MemRequest> = addrs.iter().map(|&a| MemRequest::read(a & !63, 0)).collect();
        let report = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(FrFcfs::new()),
            &[trace],
            8,
            50_000_000,
        )
        .unwrap();
        let t = DramConfig::ddr3_1600().timing;
        let max_rpkc = 1000.0 / t.t_bl as f64;
        prop_assert!(report.throughput_rpkc() <= max_rpkc + 1e-9);
    }

    /// Accounting invariant: at every point of an arbitrary
    /// enqueue/drain interleaving, `outstanding()` equals exactly the
    /// number of accepted requests not yet returned as completions.
    #[test]
    fn outstanding_counts_queue_plus_inflight(
        stream in prop::collection::vec((0u64..(1 << 20), 0u8..8), 1..60),
    ) {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        let mut accepted: u64 = 0;
        let mut retired: u64 = 0;
        for &(addr, gap) in &stream {
            if ctrl.enqueue(MemRequest::read(addr & !63, 0)).is_ok() {
                accepted += 1;
            }
            for _ in 0..gap {
                retired += ctrl.tick().len() as u64;
                prop_assert_eq!(ctrl.outstanding() as u64, accepted - retired);
            }
        }
        retired += ctrl.run_until_drained(50_000_000).len() as u64;
        prop_assert_eq!(retired, accepted, "drain completes everything");
        prop_assert_eq!(ctrl.outstanding(), 0);
    }

    /// Completions retire in nondecreasing `finished` order, for every
    /// scheduler: the controller retires bursts as their data arrives,
    /// never out of time order.
    #[test]
    fn completions_retire_in_time_order(
        addrs in prop::collection::vec(0u64..(1 << 22), 1..40),
    ) {
        for sched in schedulers(1) {
            let name = sched.name();
            let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), sched).unwrap()
                .with_queue_capacity(64);
            for &a in &addrs {
                ctrl.enqueue(MemRequest::read(a & !63, 0)).unwrap();
            }
            let done = ctrl.run_until_drained(50_000_000);
            prop_assert_eq!(done.len(), addrs.len());
            for pair in done.windows(2) {
                prop_assert!(
                    pair[0].finished <= pair[1].finished,
                    "{} retired out of order: {} after {}",
                    name, pair[1].finished, pair[0].finished
                );
            }
        }
    }
}

proptest! {
    // The oracle ticks every cycle, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole guarantee: the event-skipping engine produces a
    /// report identical (`same_results`) to the per-cycle oracle, for
    /// every scheduler, with refresh enabled and disabled, on arbitrary
    /// seeded multi-threaded workloads — on DDR3 (one channel, one rank,
    /// eight banks), DDR4 (four bank groups), LPDDR4 (two channels) and a
    /// two-rank DDR3, so that the controller's debug gate-cache check
    /// sees every way a gate can be shared.
    #[test]
    fn cycle_skipping_matches_per_cycle_oracle(
        traces in prop::collection::vec(
            prop::collection::vec((0u64..(1 << 22), any::<bool>()), 1..25),
            1..3,
        ),
        refresh in any::<bool>(),
    ) {
        let mem_traces: Vec<Vec<MemRequest>> = traces
            .iter()
            .enumerate()
            .map(|(t, reqs)| {
                reqs.iter()
                    .map(|&(addr, w)| {
                        if w {
                            MemRequest::write(addr & !63, t)
                        } else {
                            MemRequest::read(addr & !63, t)
                        }
                    })
                    .collect()
            })
            .collect();
        let threads = traces.len();
        let mode = || if refresh { RefreshMode::AllBank } else { RefreshMode::Disabled };
        let two_rank = DramConfig::ddr3_1600().to_builder().ranks(2).name("DDR3-1600 2R").build().unwrap();
        for config in [DramConfig::ddr3_1600(), DramConfig::ddr4_2400(), DramConfig::lpddr4_3200(), two_rank] {
            for (fast_sched, slow_sched) in schedulers(threads).into_iter().zip(schedulers(threads)) {
                let name = fast_sched.name();
                let fast_ctrl = MemoryController::new(config.clone(), fast_sched)
                    .unwrap()
                    .with_refresh_mode(mode());
                let slow_ctrl = MemoryController::new(config.clone(), slow_sched)
                    .unwrap()
                    .with_refresh_mode(mode());
                let fast = run_closed_loop_with(fast_ctrl, &mem_traces, 4, 2_000_000).unwrap();
                let slow = run_closed_loop_per_cycle(slow_ctrl, &mem_traces, 4, 2_000_000).unwrap();
                prop_assert!(
                    fast.same_results(&slow),
                    "{} on {} diverged under cycle skipping (refresh={}):\n event-driven: {:?}\n per-cycle:   {:?}",
                    name, config.name, refresh, fast, slow
                );
                prop_assert!(
                    fast.engine.events_processed <= slow.cycles + 1,
                    "engine did more ticks than cycles exist"
                );
            }
        }
    }
}

/// Physical address of (bank, row, column 0) in channel 0, rank 0.
fn row_addr(config: &DramConfig, bank: usize, row: u64) -> u64 {
    let loc = Location {
        channel: 0,
        rank: 0,
        bank_group: 0,
        bank,
        subarray: config.geometry.subarray_of_row(row),
        row,
        column: 0,
    };
    AddressMapping::RowInterleaved
        .encode(&loc, &config.geometry)
        .as_u64()
}

/// Two passes of a read-only row scan across the eight banks, a read of
/// the victim row 1001, then `pairs` double-sided hammer pairs on its
/// neighbours.
fn hammer_trace(config: &DramConfig, scan: usize, pairs: usize) -> Vec<MemRequest> {
    let mut out = Vec::new();
    for _ in 0..2 {
        for i in 0..scan {
            let row = 64 + (i as u64 / 8) * 4;
            out.push(MemRequest::read(row_addr(config, i % 8, row), 0));
        }
        out.push(MemRequest::read(row_addr(config, 0, 1001), 0));
        for _ in 0..pairs {
            out.push(MemRequest::read(row_addr(config, 0, 1000), 0));
            out.push(MemRequest::read(row_addr(config, 0, 1002), 0));
        }
    }
    out
}

proptest! {
    // Every case runs 3 tiers x 2 schedulers through the per-cycle oracle.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The engine matches the per-cycle oracle on the fault-injection
    /// path: all-bank refresh, a seeded fault hook with transient,
    /// retention, RowHammer and stuck-at faults, and every mitigation
    /// tier, under FCFS (the head-only Skip view) and FR-FCFS.
    #[test]
    fn fault_injection_matches_per_cycle_oracle(
        seed in any::<u64>(),
        rate in 0usize..3,
        scan in 16usize..96,
        pairs in 150usize..300,
    ) {
        let config = DramConfig::ddr3_1600();
        let rows = config.geometry.rows_per_bank;
        let traces = vec![hammer_trace(&config, scan, pairs)];
        let rate = [1.0, 4.0, 16.0][rate];
        for mitigation in [Mitigation::None, Mitigation::EccOnly, Mitigation::Full] {
            for frfcfs in [false, true] {
                let ctrl = || {
                    let sched: Box<dyn Scheduler> = if frfcfs {
                        Box::new(FrFcfs::new())
                    } else {
                        Box::new(Fcfs::new())
                    };
                    let injector = FaultPlan::new(seed)
                        .transient(0.004 * rate)
                        .retention(0.02 * rate, 60_000, 8192)
                        .rowhammer(128, (0.25 * rate).min(1.0))
                        .stuck(0.000_2 * rate)
                        .geometry(rows, 1)
                        .spare_floor(rows - 8)
                        .build();
                    let reliability = ReliabilityConfig {
                        mitigation,
                        spare_rows_per_bank: 8,
                        quarantine_threshold: if mitigation == Mitigation::Full { 256 } else { 0 },
                    };
                    MemoryController::new(config.clone(), sched)
                        .unwrap()
                        .with_refresh_mode(RefreshMode::AllBank)
                        .with_reliability(ReliabilityPipeline::with_hook(
                            reliability,
                            Box::new(injector),
                            rows,
                        ))
                };
                let fast = run_closed_loop_with(ctrl(), &traces, 4, 50_000_000).unwrap();
                let slow = run_closed_loop_per_cycle(ctrl(), &traces, 4, 50_000_000).unwrap();
                let name = &fast.scheduler;
                let injected = fast.reliability.as_ref().map_or(0, |r| r.faults.injected());
                prop_assert!(injected > 0, "{} {:?}: no fault fired", name, mitigation);
                prop_assert!(
                    fast.same_results(&slow),
                    "{} {:?} diverged under cycle skipping:\n event-driven: {:?}\n per-cycle:   {:?}",
                    name, mitigation, fast, slow
                );
                prop_assert!(
                    fast.engine.events_processed < slow.cycles,
                    "{} {:?}: the engine skipped no cycle", name, mitigation
                );
            }
        }
    }
}

/// The cycle-attribution trace is part of what the engine must
/// reproduce: skipped spans are bulk-marked with exactly the phases the
/// per-cycle ticks would have marked one by one.
#[test]
fn cycle_trace_is_identical_between_engine_and_per_cycle_oracle() {
    let traces: Vec<Vec<MemRequest>> =
        vec![(0..32u64).map(|i| MemRequest::read(i * 64, 0)).collect()];
    let run = |per_cycle: bool| {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        ctrl.enable_cycle_tracing(4096);
        if per_cycle {
            run_closed_loop_per_cycle(ctrl, &traces, 4, 100_000).unwrap()
        } else {
            run_closed_loop_with(ctrl, &traces, 4, 100_000).unwrap()
        }
    };
    let engine = run(false);
    let oracle = run(true);
    assert!(engine.same_results(&oracle));
    let et = engine.trace.expect("engine run traced");
    let ot = oracle.trace.expect("oracle run traced");
    let phase_totals = |log: &TraceLog| {
        log.components
            .iter()
            .find(|c| c.track == "ctrl")
            .map(|c| c.marks.clone())
            .expect("ctrl track")
    };
    assert_eq!(
        phase_totals(&et),
        phase_totals(&ot),
        "skip bulk-marks must attribute exactly what per-cycle marks do"
    );
}
