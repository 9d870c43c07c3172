//! The two memory-side workloads, `sched_sweep` and `fault_ladder`.
//! Both fork every job from one warm controller whose DRAM has never
//! been accessed, so each job starts cold with all rows closed, and
//! drive it through `run_closed_loop_with`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ia_core::SchedulerKind;
use ia_dram::{AddressMapping, DramConfig, Location};
use ia_faults::{FaultPlan, Inject};
use ia_memctrl::{
    run_closed_loop_with, CtrlError, Fcfs, MemRequest, MemoryController, Mitigation, RefreshMode,
    ReliabilityConfig, ReliabilityPipeline, RunReport, Scheduler,
};
use ia_sim::SnapshotState;
use ia_workloads::{Op, PointerChaseGen, RandomGen, StreamGen, TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gate;
use crate::probe::{ns_since, JobSpans, SchedProbe, SharedTally, TimedInject, TimedScheduler};
use crate::suite::{derive_seed, Counts, JobOutcome, Mode, Setup, Suite};

/// The controller every job forks from. Its scheduler and fault hook
/// are `Send` but not `Sync`, so workers fork it under a lock.
struct Warm(Mutex<MemoryController>);

impl Warm {
    fn new(ctrl: MemoryController) -> Self {
        Warm(Mutex::new(ctrl))
    }

    fn fork(&self) -> MemoryController {
        self.0
            .lock()
            .expect("no job panics while holding the warm controller")
            .fork()
    }
}

fn controller(scheduler: Box<dyn Scheduler>) -> Result<MemoryController, String> {
    MemoryController::new(DramConfig::ddr3_1600(), scheduler)
        .map_err(|e| format!("dram config: {e}"))
}

/// `traces` without the last request of thread 0: the perturbed input.
fn drop_last(traces: &[Vec<MemRequest>]) -> Vec<Vec<MemRequest>> {
    let mut t = traces.to_vec();
    t[0].pop();
    t
}

/// One memory job: when it started, what forking its controller cost,
/// and, when traced, the probes its wrappers report into.
struct MemJob {
    start: Instant,
    fork_ns: u64,
    sched: Option<Arc<SchedProbe>>,
    hook: Option<Arc<SharedTally>>,
}

impl MemJob {
    /// Starts the job by forking `warm`.
    fn fork(warm: &Warm, traced: bool) -> (MemJob, MemoryController) {
        let start = Instant::now();
        let ctrl = warm.fork();
        let job = MemJob {
            start,
            fork_ns: ns_since(start),
            sched: traced.then(Arc::default),
            hook: traced.then(Arc::default),
        };
        (job, ctrl)
    }

    /// `scheduler`, behind the timing wrapper when traced.
    fn scheduler(&self, scheduler: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        match &self.sched {
            Some(p) => Box::new(TimedScheduler::new(scheduler, Arc::clone(p))),
            None => scheduler,
        }
    }

    /// `hook`, behind the timing wrapper when traced.
    fn hook(&self, hook: Box<dyn Inject>) -> Box<dyn Inject> {
        match &self.hook {
            Some(p) => Box::new(TimedInject::new(hook, Arc::clone(p))),
            None => hook,
        }
    }

    /// Runs `ctrl` over `traces` and checks the result against `fed`,
    /// the traces the job should have been given.
    fn run(
        self,
        ctrl: MemoryController,
        traces: &[Vec<MemRequest>],
        fed: &[Vec<MemRequest>],
        window: usize,
        max_cycles: u64,
    ) -> JobOutcome {
        let run_start_ns = ns_since(self.start);
        let t = Instant::now();
        let result = run_closed_loop_with(ctrl, traces, window, max_cycles);
        let run_ns = ns_since(t);
        let mut out = outcome(result, fed);
        if let Some(sched) = &self.sched {
            // The job, the fork, the closed loop, and under it the
            // scheduler and fault-hook boundaries.
            let mut s = JobSpans::default();
            let job = s.interval("job", None, 0, ns_since(self.start));
            s.interval("sim.fork", Some(job), 0, self.fork_ns);
            let run = s.interval("memctrl.closed_loop", Some(job), run_start_ns, run_ns);
            s.calls("memctrl.sched.select", run, sched.select.get());
            s.calls("memctrl.sched.prepare", run, sched.prepare.get());
            s.calls("memctrl.sched.hook", run, sched.hook.get());
            if let Some(hook) = &self.hook {
                s.calls("faults.hook", run, hook.get());
            }
            out.spans = Some(s);
            out.counts.idle_picks = sched.idle();
        }
        out
    }
}

/// Checks a finished run against the traces it was fed and folds it
/// into an outcome.
fn outcome(result: Result<RunReport, CtrlError>, fed: &[Vec<MemRequest>]) -> JobOutcome {
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            return JobOutcome {
                violations: vec![format!("controller error: {e}")],
                ..JobOutcome::default()
            }
        }
    };
    let mut violations = Vec::new();
    let fed_total: u64 = fed.iter().map(|t| t.len() as u64).sum();
    if r.stats.completed != fed_total {
        violations.push(format!(
            "fed {fed_total} requests, {} completed",
            r.stats.completed
        ));
    }
    for (t, (thread, trace)) in r.threads.iter().zip(fed).enumerate() {
        if thread.completed != trace.len() as u64 {
            violations.push(format!(
                "thread {t}: fed {}, {} completed",
                trace.len(),
                thread.completed
            ));
        }
    }
    let mut counts = Counts {
        cycles: r.cycles,
        requests: r.stats.completed,
        events: r.engine.events_processed,
        skipped: r.engine.cycles_skipped,
        mem_jobs: 1,
        total_latency: r.stats.total_latency,
        busy_cycles: r.stats.busy_cycles,
        row_hit_rate_sum: r.row_hit_rate,
        dynamic_energy_pj: r.dynamic_energy_pj,
        ..Counts::default()
    };
    if let Some(rel) = &r.reliability {
        let s = &rel.stats;
        if rel.mitigation == Mitigation::Full && s.miscorrections != 0 {
            violations.push(format!(
                "{} miscorrections under the full ladder",
                s.miscorrections
            ));
        }
        counts.reads_checked = s.reads_checked;
        counts.corrected = s.corrected;
        counts.uncorrected = s.uncorrected;
        counts.miscorrections = s.miscorrections;
        counts.scrubs = s.scrubs;
        counts.remaps = s.remaps;
        counts.injected = rel.faults.injected();
    }
    JobOutcome {
        digest: gate::run_report(&r),
        violations,
        counts,
        spans: None,
    }
}

// ---------------------------------------------------------------- sched_sweep

/// Requests per thread of each interference mix.
const PER_THREAD: usize = 2_500;
/// Mixes (workload seeds) per round; every policy runs every mix.
const MIXES: usize = 16;
/// Threads in the mix.
const THREADS: usize = 4;
/// Outstanding requests per thread.
const SCHED_WINDOW: usize = 8;
const SCHED_MAX_CYCLES: u64 = 500_000_000;

/// Converts generated requests into controller requests for `thread`.
fn to_mem(trace: &[ia_workloads::TraceRequest], thread: usize) -> Vec<MemRequest> {
    trace
        .iter()
        .map(|r| match r.op {
            Op::Read => MemRequest::read(r.addr, thread),
            Op::Write => MemRequest::write(r.addr, thread),
        })
        .collect()
}

/// The four-thread interference mix: a row-hit-friendly stream, a
/// bank-hammering random thread, a zipf hot set and a dependent
/// pointer chase over 64k nodes, each in its own 64 MiB region.
fn interference_mix(seed: u64) -> Result<Vec<Vec<MemRequest>>, String> {
    let err = |e: ia_workloads::WorkloadError| format!("workload config: {e}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let region = 64 << 20;
    let stream = StreamGen::new(0, 64, 1 << 20, 0.1)
        .map_err(err)?
        .generate(PER_THREAD, &mut rng);
    let random = RandomGen::new(region, 32 << 20, 64, 0.3)
        .map_err(err)?
        .generate(PER_THREAD, &mut rng);
    let zipf = ZipfGen::new(2 * region, 4096, 4096, 1.2, 0.2)
        .map_err(err)?
        .generate(PER_THREAD, &mut rng);
    let chase = PointerChaseGen::new(3 * region, 64 * 1024, 64, &mut rng)
        .map_err(err)?
        .generate(PER_THREAD, &mut rng);
    Ok(vec![
        to_mem(&stream, 0),
        to_mem(&random, 1),
        to_mem(&zipf, 2),
        to_mem(&chase, 3),
    ])
}

/// Every scheduling policy over every mix, forked from one warm
/// controller.
struct SchedSweep {
    warm: Warm,
    mixes: Vec<Vec<Vec<MemRequest>>>,
}

/// Builds `sched_sweep` for `seed`.
pub fn sched_sweep(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let mixes = (0..MIXES as u64)
        .map(|m| interference_mix(derive_seed(seed, m)))
        .collect::<Result<Vec<_>, _>>()?;
    let gen_ns = ns_since(t);
    let requests = (MIXES * THREADS * PER_THREAD) as u64;
    let warm = Warm::new(controller(SchedulerKind::FrFcfs.build(THREADS))?);
    Ok(Setup {
        suite: Box::new(SchedSweep { warm, mixes }),
        requests,
        gen_ns,
    })
}

impl Suite for SchedSweep {
    fn jobs(&self) -> usize {
        SchedulerKind::all().len() * MIXES
    }

    fn label(&self, job: usize) -> String {
        let kinds = SchedulerKind::all();
        format!(
            "{}/mix{}",
            kinds[job % kinds.len()].name(),
            job / kinds.len()
        )
    }

    fn run(&self, job: usize, mode: Mode) -> JobOutcome {
        let kinds = SchedulerKind::all();
        let kind = kinds[job % kinds.len()];
        let mix = &self.mixes[job / kinds.len()];
        let (job, ctrl) = MemJob::fork(&self.warm, mode.traced);
        let ctrl = ctrl.with_scheduler(job.scheduler(kind.build(THREADS)));
        let perturbed = mode.perturb.then(|| drop_last(mix));
        let traces = perturbed.as_deref().unwrap_or(mix);
        job.run(ctrl, traces, mix, SCHED_WINDOW, SCHED_MAX_CYCLES)
    }
}

// --------------------------------------------------------------- fault_ladder

/// Aggressor rows in bank 0, hammered double-sided around the victim.
const AGGRESSOR_LOW: u64 = 1000;
const AGGRESSOR_HIGH: u64 = 1002;
const VICTIM: u64 = 1001;
/// Neighbour activations at which RowHammer flips start.
const HAMMER_THRESHOLD: u64 = 128;
/// Neighbour activations at which the full tier quarantines a victim.
const QUARANTINE_THRESHOLD: u64 = 256;
const SPARE_ROWS: u64 = 8;
const TIERS: [Mitigation; 3] = [Mitigation::None, Mitigation::EccOnly, Mitigation::Full];
/// Fault-rate multipliers.
const RATES: [f64; 3] = [1.0, 4.0, 16.0];
/// Fault-plan seeds per rate.
const PLANS: usize = 12;
const FAULT_WINDOW: usize = 4;
const FAULT_MAX_CYCLES: u64 = 50_000_000;

/// Physical address of (bank, row, column 0).
fn addr(config: &DramConfig, bank: usize, row: u64) -> u64 {
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

/// Read-only traffic on one thread: four passes, each a scan over 192
/// rows spread across the eight banks (rows four apart, so no scan row
/// neighbours another), a read of the victim row, then 400
/// double-sided hammer pairs on its neighbours.
fn ladder_trace(config: &DramConfig) -> Vec<MemRequest> {
    let mut out = Vec::new();
    for _ in 0..4 {
        for i in 0..192usize {
            let row = 64 + (i as u64 / 8) * 4;
            out.push(MemRequest::read(addr(config, i % 8, row), 0));
        }
        out.push(MemRequest::read(addr(config, 0, VICTIM), 0));
        for _ in 0..400 {
            out.push(MemRequest::read(addr(config, 0, AGGRESSOR_LOW), 0));
            out.push(MemRequest::read(addr(config, 0, AGGRESSOR_HIGH), 0));
        }
    }
    out
}

/// The three mitigation tiers under FCFS with all-bank refresh, across
/// fault-rate multipliers and fault-plan seeds. All tiers of one
/// (rate, plan) cell face the same fault process.
struct FaultLadder {
    config: DramConfig,
    base: Warm,
    trace: Vec<Vec<MemRequest>>,
    plan_seeds: Vec<u64>,
}

/// Builds `fault_ladder` for `seed`.
pub fn fault_ladder(seed: u64) -> Result<Setup, String> {
    let config = DramConfig::ddr3_1600();
    let t = Instant::now();
    let trace = vec![ladder_trace(&config)];
    let gen_ns = ns_since(t);
    let base =
        Warm::new(controller(Box::new(Fcfs::new()))?.with_refresh_mode(RefreshMode::AllBank));
    let plan_seeds = (0..(RATES.len() * PLANS) as u64)
        .map(|i| derive_seed(seed, i))
        .collect();
    Ok(Setup {
        requests: trace[0].len() as u64,
        gen_ns,
        suite: Box::new(FaultLadder {
            config,
            base,
            trace,
            plan_seeds,
        }),
    })
}

impl FaultLadder {
    /// (tier, rate index, plan index) of job `job`.
    fn cell(job: usize) -> (Mitigation, usize, usize) {
        let tier = TIERS[job % TIERS.len()];
        let cell = job / TIERS.len();
        (tier, cell % RATES.len(), cell / RATES.len())
    }
}

impl Suite for FaultLadder {
    fn jobs(&self) -> usize {
        TIERS.len() * RATES.len() * PLANS
    }

    fn label(&self, job: usize) -> String {
        let (tier, r, p) = FaultLadder::cell(job);
        let tier = match tier {
            Mitigation::None => "none",
            Mitigation::EccOnly => "ecc",
            Mitigation::Full => "full",
        };
        format!("{tier}/x{}/plan{p}", RATES[r])
    }

    fn run(&self, job: usize, mode: Mode) -> JobOutcome {
        let (mitigation, r, p) = FaultLadder::cell(job);
        let rate = RATES[r];
        let rows = self.config.geometry.rows_per_bank;
        let reliability = ReliabilityConfig {
            mitigation,
            spare_rows_per_bank: SPARE_ROWS,
            quarantine_threshold: if mitigation == Mitigation::Full {
                QUARANTINE_THRESHOLD
            } else {
                0
            },
        };
        let (job, ctrl) = MemJob::fork(&self.base, mode.traced);
        // One word per row: every flip lands in column 0, the column the
        // trace reads.
        let injector = FaultPlan::new(self.plan_seeds[r * PLANS + p])
            .transient(0.004 * rate)
            .retention(0.02 * rate, 60_000, 8192)
            .rowhammer(HAMMER_THRESHOLD, (0.25 * rate).min(1.0))
            .stuck(0.000_2 * rate)
            .geometry(rows, 1)
            .spare_floor(rows - SPARE_ROWS)
            .build();
        let pipeline =
            ReliabilityPipeline::with_hook(reliability, job.hook(Box::new(injector)), rows);
        // FCFS is stateless, so a fresh one equals the warm controller's.
        let ctrl = ctrl
            .with_scheduler(job.scheduler(Box::new(Fcfs::new())))
            .with_reliability(pipeline);
        let perturbed = mode.perturb.then(|| drop_last(&self.trace));
        let traces = perturbed.as_deref().unwrap_or(&self.trace);
        job.run(ctrl, traces, &self.trace, FAULT_WINDOW, FAULT_MAX_CYCLES)
    }
}
