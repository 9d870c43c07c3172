//! BLISS, PAR-BS and the closed-loop feed against reference copies of
//! their earlier implementations: BLISS with a `HashSet` blacklist,
//! PAR-BS marking batches through a `HashMap` keyed by (thread, channel,
//! bank), and a closed-loop driver that offers every thread new work
//! and scans every thread for completion after each event. Runs of the
//! shipped code and of the references must give the same simulated
//! results (`RunReport::same_results`) and the same engine counters.

use std::collections::{HashMap, HashSet};

use ia_dram::{Cycle, DramConfig};
use ia_memctrl::{
    run_closed_loop_with, Bliss, Completed, CtrlError, Fcfs, FrFcfs, IssueView, MemRequest,
    MemoryController, ParBs, RefreshMode, ReqId, RequestQueue, RunReport, Scheduler, ThreadReport,
};
use ia_sim::{Clocked, SimLoop, StepOutcome};
use ia_workloads::{Op, PointerChaseGen, RandomGen, StreamGen, TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// BLISS with its blacklist in a `HashSet`.
#[derive(Debug, Clone)]
struct RefBliss {
    blacklist: HashSet<usize>,
    last_thread: Option<usize>,
    streak: u32,
    last_clear: u64,
}

const BLISS_THRESHOLD: u32 = 4;
const BLISS_CLEAR_INTERVAL: u64 = 10_000;

impl RefBliss {
    fn new() -> Self {
        RefBliss {
            blacklist: HashSet::new(),
            last_thread: None,
            streak: 0,
            last_clear: 0,
        }
    }
}

impl Scheduler for RefBliss {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                (
                    self.blacklist.contains(&(p.request.thread as usize)),
                    !hit,
                    p.arrival,
                    p.id,
                )
            })
            .map(|&(h, _)| h)
    }

    fn on_complete(&mut self, completed: &Completed, _now: Cycle) {
        let t = completed.request.thread as usize;
        if self.last_thread == Some(t) {
            self.streak += 1;
            if self.streak >= BLISS_THRESHOLD {
                self.blacklist.insert(t);
            }
        } else {
            self.last_thread = Some(t);
            self.streak = 1;
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        let window = now.as_u64() / BLISS_CLEAR_INTERVAL;
        if window > self.last_clear {
            self.last_clear = window;
            self.blacklist.clear();
            self.streak = 0;
        }
    }
    // on_advance keeps the trait's default: one on_tick per skipped
    // cycle, the literal per-cycle behaviour.
}

/// PAR-BS marking each batch through a fresh `HashMap`.
#[derive(Debug, Clone)]
struct RefParBs {
    rank: Vec<usize>,
}

const PARBS_CAP: usize = 5;

impl RefParBs {
    fn new(threads: usize) -> Self {
        RefParBs {
            rank: vec![0; threads],
        }
    }

    fn form_batch(&mut self, queue: &mut RequestQueue) {
        let mut marked: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut per_thread = vec![0usize; self.rank.len()];
        queue.mark_batch(|p, _bank| {
            let bank = (p.loc.rank << 16) | (p.loc.bank_group << 8) | p.loc.bank;
            let count = marked
                .entry((p.request.thread as usize, p.loc.channel, bank))
                .or_insert(0);
            if *count < PARBS_CAP {
                *count += 1;
                if (p.request.thread as usize) < per_thread.len() {
                    per_thread[p.request.thread as usize] += 1;
                }
                true
            } else {
                false
            }
        });
        let mut threads: Vec<usize> = (0..self.rank.len()).collect();
        threads.sort_by_key(|&t| per_thread[t]);
        for (priority, &t) in threads.iter().enumerate() {
            self.rank[t] = priority;
        }
    }
}

impl Scheduler for RefParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn clone_box(&self) -> Box<dyn Scheduler> {
        Box::new(self.clone())
    }

    fn prepare(&mut self, queue: &mut RequestQueue) {
        if !queue.is_empty() && queue.all_unbatched() {
            self.form_batch(queue);
        }
    }

    fn select(&mut self, queue: &RequestQueue, view: &IssueView) -> Option<ReqId> {
        view.ready
            .iter()
            .min_by_key(|&&(h, hit)| {
                let p = queue.req(h);
                let rank = self
                    .rank
                    .get(p.request.thread as usize)
                    .copied()
                    .unwrap_or(usize::MAX);
                (!p.batched, !hit, rank, p.arrival, p.id)
            })
            .map(|&(h, _)| h)
    }

    fn on_advance(&mut self, _from: Cycle, _to: Cycle) {}
}

/// The closed-loop driver as first written: before every event it
/// offers new work to every thread, and it tests for completion by
/// scanning every thread's cursor and outstanding count.
fn run_closed_loop_reference(
    ctrl: MemoryController,
    traces: &[Vec<MemRequest>],
    window: usize,
    max_cycles: u64,
) -> Result<RunReport, CtrlError> {
    let mut ctrl = ctrl.with_queue_capacity(traces.len() * window.max(1) + 8);
    let mut cursor = vec![0usize; traces.len()];
    let mut outstanding = vec![0usize; traces.len()];
    let mut completed = vec![0u64; traces.len()];
    let mut latency = vec![0u64; traces.len()];
    let mut finish = vec![0u64; traces.len()];
    let all_done = |cursor: &[usize], outstanding: &[usize]| {
        cursor.iter().zip(traces).all(|(&c, t)| c >= t.len()) && outstanding.iter().all(|&o| o == 0)
    };
    let mut engine = SimLoop::new();
    let deadline = Cycle::new(max_cycles);
    let mut scratch: Vec<Completed> = Vec::new();
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
        scratch.clear();
        match engine.step(&mut ctrl, &mut scratch, deadline) {
            StepOutcome::Drained => {
                Clocked::skip_to(&mut ctrl, deadline);
                break;
            }
            StepOutcome::Stalled(report) => return Err(CtrlError::Stalled(report)),
            _ => {}
        }
        for c in &scratch {
            let t = c.request.thread as usize;
            outstanding[t] -= 1;
            completed[t] += 1;
            latency[t] += c.latency();
            finish[t] = c.finished.as_u64();
        }
    }
    ctrl.merge_engine_stats(engine.stats());
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
        reliability: None,
        trace: None,
    })
}

fn to_mem(trace: &[ia_workloads::TraceRequest]) -> Vec<MemRequest> {
    trace
        .iter()
        .map(|r| match r.op {
            Op::Read => MemRequest::read(r.addr, 0),
            Op::Write => MemRequest::write(r.addr, 0),
        })
        .collect()
}

/// Requests of generator `kind` (stream, random, zipf hot set, pointer
/// chase) in the 64 MiB region `region`.
fn thread_trace(kind: usize, region: u64, n: usize, rng: &mut SmallRng) -> Vec<MemRequest> {
    let base = region * (64 << 20);
    let trace = match kind % 4 {
        0 => StreamGen::new(base, 64, 1 << 20, 0.1)
            .unwrap()
            .generate(n, rng),
        1 => RandomGen::new(base, 32 << 20, 64, 0.3)
            .unwrap()
            .generate(n, rng),
        2 => ZipfGen::new(base, 4096, 4096, 1.2, 0.2)
            .unwrap()
            .generate(n, rng),
        _ => PointerChaseGen::new(base, 64 * 1024, 64, rng)
            .unwrap()
            .generate(n, rng),
    };
    to_mem(&trace)
}

/// A `threads`-thread interference mix cycling stream, random, zipf and
/// pointer-chase threads.
fn mix(seed: u64, threads: usize, per_thread: usize) -> Vec<Vec<MemRequest>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..threads)
        .map(|t| thread_trace(t, t as u64, per_thread, &mut rng))
        .collect()
}

fn controller(
    config: DramConfig,
    scheduler: Box<dyn Scheduler>,
    refresh: bool,
) -> MemoryController {
    let ctrl = MemoryController::new(config, scheduler).unwrap();
    if refresh {
        ctrl.with_refresh_mode(RefreshMode::AllBank)
    } else {
        ctrl
    }
}

fn assert_same(shipped: &RunReport, reference: &RunReport, context: &str) {
    assert!(
        shipped.same_results(reference),
        "{context}: results differ\nshipped:   {:?}\nreference: {:?}",
        shipped.threads,
        reference.threads
    );
    assert_eq!(
        shipped.engine, reference.engine,
        "{context}: engine counters"
    );
    assert_eq!(
        shipped.stats.completed,
        shipped.threads.iter().map(|t| t.completed).sum::<u64>(),
        "{context}: every completion is accounted to its thread"
    );
}

type Pair = (
    &'static str,
    fn(usize) -> Box<dyn Scheduler>,
    fn(usize) -> Box<dyn Scheduler>,
);

/// Each policy under test, built for `threads` threads, with its
/// reference.
fn pairs() -> Vec<Pair> {
    vec![
        (
            "BLISS",
            |_| Box::new(Bliss::new()),
            |_| Box::new(RefBliss::new()),
        ),
        (
            "PAR-BS",
            |n| Box::new(ParBs::new(n)),
            |n| Box::new(RefParBs::new(n)),
        ),
    ]
}

#[test]
fn bliss_and_parbs_match_their_references_on_four_thread_mixes() {
    let configs = [
        ("DDR3", DramConfig::ddr3_1600(), false),
        ("DDR4+refresh", DramConfig::ddr4_2400(), true),
    ];
    for seed in 0..3u64 {
        let traces = mix(seed, 4, 400);
        for (label, config, refresh) in &configs {
            for (name, shipped, reference) in pairs() {
                let context = format!("{name} on {label}, mix {seed}");
                let a = run_closed_loop_with(
                    controller(config.clone(), shipped(4), *refresh),
                    &traces,
                    8,
                    50_000_000,
                )
                .unwrap();
                let b = run_closed_loop_with(
                    controller(config.clone(), reference(4), *refresh),
                    &traces,
                    8,
                    50_000_000,
                )
                .unwrap();
                assert_eq!(a.stats.completed, 1600, "{context}");
                assert_same(&a, &b, &context);
            }
        }
    }
}

#[test]
fn the_feed_matches_the_reference_driver_beyond_64_threads() {
    // 70 threads take two feed words; a short window keeps most threads
    // waiting on completions, so the hungry set changes on every event.
    let threads = 70;
    let traces = mix(7, threads, 24);
    let total = (threads * 24) as u64;
    let mut policies: Vec<Pair> = pairs();
    policies.push((
        "FR-FCFS",
        |_| Box::new(FrFcfs::new()),
        |_| Box::new(FrFcfs::new()),
    ));
    policies.push(("FCFS", |_| Box::new(Fcfs::new()), |_| Box::new(Fcfs::new())));
    for window in [1, 3] {
        for (name, shipped, reference) in &policies {
            let context = format!("{name}, {threads} threads, window {window}");
            let config = DramConfig::ddr3_1600();
            let a = run_closed_loop_with(
                controller(config.clone(), shipped(threads), true),
                &traces,
                window,
                50_000_000,
            )
            .unwrap();
            let b = run_closed_loop_reference(
                controller(config, reference(threads), true),
                &traces,
                window,
                50_000_000,
            )
            .unwrap();
            assert_eq!(a.stats.completed, total, "{context}");
            assert_same(&a, &b, &context);
        }
    }
}

#[test]
fn the_feed_matches_the_reference_driver_on_uneven_traces() {
    // Threads run out of trace at different times (and one has a single
    // request), so threads leave the hungry set for good mid-run.
    let mut traces = mix(11, 5, 120);
    traces[1].truncate(1);
    traces[3].truncate(37);
    for (name, shipped, reference) in pairs() {
        let a = run_closed_loop_with(
            controller(DramConfig::ddr3_1600(), shipped(5), false),
            &traces,
            4,
            50_000_000,
        )
        .unwrap();
        let b = run_closed_loop_reference(
            controller(DramConfig::ddr3_1600(), reference(5), false),
            &traces,
            4,
            50_000_000,
        )
        .unwrap();
        assert_eq!(a.threads[1].completed, 1);
        assert_same(&a, &b, name);
    }
}

#[test]
fn a_deadline_cuts_both_drivers_at_the_same_cycle() {
    let traces = mix(3, 4, 300);
    for (name, shipped, reference) in pairs() {
        let a = run_closed_loop_with(
            controller(DramConfig::ddr3_1600(), shipped(4), false),
            &traces,
            8,
            4_000,
        )
        .unwrap();
        let b = run_closed_loop_reference(
            controller(DramConfig::ddr3_1600(), reference(4), false),
            &traces,
            8,
            4_000,
        )
        .unwrap();
        assert!(a.stats.completed < 1200, "{name}: the deadline bites");
        assert_same(&a, &b, name);
    }
}
