//! `ia-simbench`: the simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <sched_sweep|fault_ladder|noc_mesh> --seed <n> \
//!     --seconds <s> --trace <0|1> [--inject-violation] [--print-pins]
//! ```
//!
//! A run builds the workload's inputs from the seed (several times, to
//! time set-up), then runs rounds of jobs back to back, one closed loop,
//! until `--seconds` have passed. A round is every job of the workload
//! once; each job is one independent simulation driven through the
//! library crates' public APIs. Every job's simulated results pass the
//! correctness gate (see `gate.rs`).
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced rounds with rounds that run through the timing wrappers of
//! `probe.rs`, and reports the per-layer metrics; the extra job time of
//! the traced rounds over the untraced ones is `trace.overhead_frac`.
//! Both kinds fan their jobs out over `nproc` workers. The last line of
//! standard output is one JSON object: `correct`, `attempted` and
//! `failed` (jobs) and `metrics`. Before it come a human-readable table
//! and the run record, which is also written to `simbench/out/`, with
//! the spans of a traced run.
//!
//! `--inject-violation` perturbs one job of the second round; the gate
//! must then fail it, and the run exits with status 1.

mod gate;
mod mem;
mod noc;
mod probe;
mod suite;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use probe::{ns_since, ProbeCost};
use suite::{Counts, JobOutcome, Mode, Setup, Suite};

const USAGE: &str = "usage: ia-simbench --workload <sched_sweep|fault_ladder|noc_mesh> \
--seed <n> --seconds <s> --trace <0|1> [--inject-violation] [--print-pins]";

#[cfg(test)]
const WORKLOADS: [&str; 3] = ["sched_sweep", "fault_ladder", "noc_mesh"];

/// Set-up samples taken after every round, so that they see the same
/// host phases as the rounds; one more comes before the first round.
const SETUPS_PER_ROUND: usize = 2;
/// Least host time one set-up sample spans: set-ups shorter than this
/// repeat within the sample, so that the clock's resolution and cost
/// do not decide how long a short set-up reads.
const SETUP_SAMPLE_NS: u64 = 1_000_000;
/// Fewest rounds of each kind a run measures, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Fewest jobs a round holds, so `job_ms_p90` has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// The quantile of a job's times over a run's untraced rounds that the
/// end-to-end time metrics take as the job's time, and of the run's
/// set-up times that `setup_s` reports (see [`end_to_end`]).
const QUIET_Q: f64 = 0.05;
/// Where run records and spans are written, relative to the checkout.
const OUT_DIR: &str = "simbench/out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_violation: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_violation = false;
    let mut print_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v}: expected 0 or 1")),
                });
            }
            "--inject-violation" => inject_violation = true,
            "--print-pins" => print_pins = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        inject_violation,
        print_pins,
    })
}

fn build(workload: &str, seed: u64) -> Result<Setup, String> {
    match workload {
        "sched_sweep" => mem::sched_sweep(seed),
        "fault_ladder" => mem::fault_ladder(seed),
        "noc_mesh" => noc::noc_mesh(seed),
        w => Err(format!("unknown workload {w}")),
    }
}

/// When and where one round ran one job.
struct JobRun {
    job: usize,
    start_ns: u64,
    dur_ns: u64,
    thread: ThreadId,
}

struct Round {
    traced: bool,
    wall_ns: u64,
    /// Minor page faults the process took during the round.
    minor_faults: u64,
    jobs: Vec<JobRun>,
    /// What each job of `jobs` produced, kept after the gate has checked
    /// it only for the first round and traced rounds, so the memory a run
    /// holds does not grow with its untraced rounds.
    outcomes: Vec<JobOutcome>,
}

impl Round {
    /// Summed simulated counts; all zero once the outcomes are dropped.
    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for o in &self.outcomes {
            c.add(&o.counts);
        }
        c
    }

    /// Job time over worker time available in the round.
    fn busy_frac(&self, workers: usize) -> f64 {
        let busy: u64 = self.jobs.iter().map(|j| j.dur_ns).sum();
        busy as f64 / (workers as f64 * self.wall_ns as f64)
    }

    /// Busiest worker's job time over the mean worker's.
    fn imbalance(&self) -> f64 {
        let mut per: HashMap<ThreadId, u64> = HashMap::new();
        for j in &self.jobs {
            *per.entry(j.thread).or_default() += j.dur_ns;
        }
        let max = per.values().copied().max().unwrap_or(0) as f64;
        let mean = per.values().sum::<u64>() as f64 / per.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// Runs every job once, fanned out over `workers` threads.
fn run_round(suite: &dyn Suite, workers: usize, traced: bool, perturb: Option<usize>) -> Round {
    let faults_before = minor_faults();
    let start = Instant::now();
    let jobs: Vec<usize> = (0..suite.jobs()).collect();
    let jobs = ia_par::par_map(workers, jobs, |job| {
        let mode = Mode {
            traced,
            perturb: perturb == Some(job),
        };
        let start_ns = ns_since(start);
        let t = Instant::now();
        let outcome = suite.run(job, mode);
        let run = JobRun {
            job,
            start_ns,
            dur_ns: ns_since(t),
            thread: std::thread::current().id(),
        };
        (run, outcome)
    });
    let wall_ns = ns_since(start);
    let (jobs, outcomes) = jobs.into_iter().unzip();
    Round {
        traced,
        wall_ns,
        minor_faults: minor_faults().saturating_sub(faults_before),
        jobs,
        outcomes,
    }
}

/// The fastest of `rounds` by wall time, if any.
fn fastest<'a>(rounds: impl Iterator<Item = &'a Round>) -> Option<&'a Round> {
    rounds.min_by_key(|r| r.wall_ns)
}

/// Linear-interpolated quantile `q` of `v`; 0 for an empty slice.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Interquartile range over the median.
fn iqr_frac(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (quantile(v, 0.75) - quantile(v, 0.25)) / m
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A `/proc/self/status` field in kB.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Minor page faults of this process so far; 0 where `/proc` is absent.
fn minor_faults() -> u64 {
    let read = || -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name; minflt is field 10.
        let rest = &stat[stat.rfind(')')? + 2..];
        rest.split_whitespace().nth(7)?.parse().ok()
    };
    read().unwrap_or(0)
}

/// Median over `rounds` of `f`.
fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Each job's time in ms: the [`QUIET_Q`] quantile of its times over
/// `rounds` (all untraced or all traced), indexed by job.
fn job_times_ms(rounds: &[&Round], jobs: usize) -> Vec<f64> {
    let mut per_job = vec![Vec::with_capacity(rounds.len()); jobs];
    for j in rounds.iter().flat_map(|r| &r.jobs) {
        per_job[j.job].push(j.dur_ns as f64 / 1e6);
    }
    per_job.iter().map(|t| quantile(t, QUIET_Q)).collect()
}

/// The end-to-end metrics over the untraced `rounds` (at least one; the
/// first keeps its job outcomes). Every round runs every job once, so a
/// job's times over the run are repeats of one simulation, and each job
/// is timed by a low quantile of them ([`job_times_ms`]). The job
/// percentiles are over those times; the throughputs are one round's
/// simulated work over their sum, the host time one worker thread spends
/// on a round (fan-out shows in the `par.*` per-layer metrics).
///
/// The 2-vCPU host this benchmark was tuned on runs the simulator up to
/// twice as slowly in phases from under a second to minutes long, on
/// each vCPU independently, so a round's wall time or a median follows
/// how much of the run such phases took. A job's low quantile over
/// rounds spread across both vCPUs picks its time outside them and,
/// unlike a minimum, does not fall as a faster build fits more rounds
/// into the run. `setup_s` is the same quantile of the run's set-ups.
/// `rss_mib` is the high-water RSS read after [`MIN_ROUNDS`] untraced
/// rounds, so the run's own per-round records, which grow with the
/// number of rounds, do not count.
fn end_to_end(rounds: &[&Round], jobs: usize, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    let job_ms = job_times_ms(rounds, jobs);
    let busy_s = job_ms.iter().sum::<f64>() / 1e3;
    let counts = rounds[0].counts();
    vec![
        ("setup_s", setup_s, "s"),
        ("sim_cycles_per_s", counts.cycles as f64 / busy_s, "1/s"),
        ("sim_requests_per_s", counts.requests as f64 / busy_s, "1/s"),
        ("job_ms_p50", quantile(&job_ms, 0.5), "ms"),
        ("job_ms_p90", quantile(&job_ms, 0.9), "ms"),
        ("peak_rss_mib", rss_mib, "MiB"),
    ]
}

/// Estimated host ns and calls of every span named `name` over the
/// jobs of `round`.
fn span_total(round: &Round, name: &str, cost: ProbeCost) -> (f64, f64) {
    let (mut ns, mut calls) = (0.0, 0.0);
    for s in round.outcomes.iter().filter_map(|o| o.spans.as_ref()) {
        for span in s.spans().iter().filter(|span| span.name == name) {
            ns += span.est_ns(cost);
            calls += span.tally.calls as f64;
        }
    }
    (ns, calls)
}

/// Summed self time of every span named `name` over the jobs of `round`.
fn span_self(round: &Round, name: &str, cost: ProbeCost) -> f64 {
    let mut ns = 0.0;
    for s in round.outcomes.iter().filter_map(|o| o.spans.as_ref()) {
        for (i, span) in s.spans().iter().enumerate() {
            if span.name == name {
                ns += s.self_ns(i, cost);
            }
        }
    }
    ns
}

/// The per-layer metrics. Times in ns are per call of the boundary,
/// less the probe's own cost, except the two self times
/// (`memctrl.ctrl_self_ns`, `sim.step_self_ns`), which are per engine
/// event. Counts are per round. Boundary times come from `traced`, the
/// run's fastest traced round; host times without a probe are medians
/// over the untraced rounds `plain` (at least one). A layer a workload
/// does not run reads 0.
fn per_layer(
    plain: &[&Round],
    traced: &Round,
    overhead: f64,
    setup: &Setup,
    gen_ns: f64,
    workers: usize,
    cost: ProbeCost,
) -> Vec<Metric> {
    // Simulated counts repeat exactly from round to round (the gate
    // checks every job's digest), so any round gives them.
    let c = plain[0].counts();
    let ct = traced.counts();
    let count = |v: u64| v as f64;
    let mem_completed = if c.mem_jobs > 0 { c.requests } else { 0 };
    let mem_cycles = if c.mem_jobs > 0 { c.cycles } else { 0 };
    let plain_job_ns = median_of(plain, |r| r.jobs.iter().map(|j| j.dur_ns as f64).sum());
    let (select_ns, select_calls) = span_total(traced, "memctrl.sched.select", cost);
    let (prepare_ns, prepare_calls) = span_total(traced, "memctrl.sched.prepare", cost);
    let (hook_ns, hook_calls) = span_total(traced, "memctrl.sched.hook", cost);
    let (fault_ns, fault_calls) = span_total(traced, "faults.hook", cost);
    let (fork_ns, forks) = span_total(traced, "sim.fork", cost);
    let (tick_ns, ticks) = span_total(traced, "noc.tick", cost);
    let (next_ns, nexts) = span_total(traced, "noc.next_event", cost);
    let ctrl_self = span_self(traced, "memctrl.closed_loop", cost);
    let step_self = span_self(traced, "sim.run", cost);
    let mem_events = if ct.mem_jobs > 0 { ct.events } else { 0 };
    let noc_events = if ct.mem_jobs == 0 { ct.events } else { 0 };
    vec![
        (
            "workloads.gen_ns_per_req",
            ratio(gen_ns, setup.requests as f64),
            "ns",
        ),
        ("workloads.requests", setup.requests as f64, "count"),
        ("memctrl.sched.select_calls", select_calls, "count"),
        (
            "memctrl.sched.select_ns",
            ratio(select_ns, select_calls),
            "ns",
        ),
        (
            "memctrl.sched.prepare_ns",
            ratio(prepare_ns, prepare_calls),
            "ns",
        ),
        ("memctrl.sched.hook_ns", ratio(hook_ns, hook_calls), "ns"),
        (
            "memctrl.sched.idle_frac",
            ratio(ct.idle_picks as f64, select_calls),
            "frac",
        ),
        (
            "memctrl.ctrl_self_ns",
            ratio(ctrl_self, mem_events as f64),
            "ns",
        ),
        ("faults.hook_calls", fault_calls, "count"),
        ("faults.hook_ns", ratio(fault_ns, fault_calls), "ns"),
        ("faults.injected", count(c.injected), "count"),
        ("sim.events", count(c.events), "count"),
        (
            "sim.skip_frac",
            ratio(c.skipped as f64, c.cycles as f64),
            "frac",
        ),
        (
            "sim.host_ns_per_event",
            ratio(plain_job_ns, c.events as f64),
            "ns",
        ),
        ("sim.fork_ns", ratio(fork_ns, forks), "ns"),
        (
            "sim.step_self_ns",
            ratio(step_self, noc_events as f64),
            "ns",
        ),
        ("noc.tick_ns", ratio(tick_ns, ticks), "ns"),
        ("noc.next_event_ns", ratio(next_ns, nexts), "ns"),
        ("noc.ns_per_flit_hop", ratio(tick_ns, ct.hops as f64), "ns"),
        (
            "noc.delivered",
            count(if c.mem_jobs == 0 { c.requests } else { 0 }),
            "count",
        ),
        ("noc.deflections", count(c.deflections), "count"),
        ("noc.peak_buffering", c.peak_buffering as f64, "count"),
        (
            "par.busy_frac",
            median_of(plain, |r| r.busy_frac(workers)),
            "frac",
        ),
        ("par.imbalance", median_of(plain, Round::imbalance), "ratio"),
        (
            "par.slowest_job_ms",
            median_of(plain, |r| {
                r.jobs.iter().map(|j| j.dur_ns).max().unwrap_or(0) as f64 / 1e6
            }),
            "ms",
        ),
        (
            "proc.minor_faults",
            median_of(plain, |r| r.minor_faults as f64),
            "count",
        ),
        ("memctrl.completed", count(mem_completed), "count"),
        (
            "memctrl.avg_latency_cycles",
            ratio(c.total_latency as f64, mem_completed as f64),
            "cycles",
        ),
        (
            "memctrl.busy_frac",
            ratio(c.busy_cycles as f64, mem_cycles as f64),
            "frac",
        ),
        (
            "dram.row_hit_rate",
            ratio(c.row_hit_rate_sum, c.mem_jobs as f64),
            "frac",
        ),
        ("dram.dynamic_energy_pj", c.dynamic_energy_pj, "pJ"),
        (
            "memctrl.reliability.reads_checked",
            count(c.reads_checked),
            "count",
        ),
        ("memctrl.reliability.corrected", count(c.corrected), "count"),
        (
            "memctrl.reliability.uncorrected_rate",
            ratio(c.uncorrected as f64, c.reads_checked as f64),
            "frac",
        ),
        (
            "memctrl.reliability.miscorrections",
            count(c.miscorrections),
            "count",
        ),
        ("memctrl.reliability.scrubs", count(c.scrubs), "count"),
        ("memctrl.reliability.remaps", count(c.remaps), "count"),
        ("trace.overhead_frac", overhead, "frac"),
        ("trace.probe_ns", cost.pair_ns, "ns"),
    ]
}

/// Formats a finite float as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Writes `body` to `OUT_DIR/name`; the run does not depend on it.
fn write_out(name: &str, body: &str) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let result = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body));
    if let Err(e) = result {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// The simulated behaviour of one cell of a workload's parameter grid
/// (see [`Suite::cell`]), summed over its jobs in one round.
struct Cell {
    name: String,
    jobs: u64,
    counts: Counts,
}

impl Cell {
    fn delivered_frac(&self) -> f64 {
        ratio(self.counts.requests as f64, self.counts.offered as f64)
    }

    fn avg_latency(&self) -> f64 {
        ratio(
            self.counts.total_latency as f64,
            self.counts.requests as f64,
        )
    }

    fn deflections_per_packet(&self) -> f64 {
        ratio(self.counts.deflections as f64, self.counts.requests as f64)
    }

    fn line(&self) -> String {
        format!(
            "{:<28} {:>3} jobs  delivered {:.3} of injected  latency {:>7.2} cy  \
             {:.3} deflections/packet  peak buffering {}",
            self.name,
            self.jobs,
            self.delivered_frac(),
            self.avg_latency(),
            self.deflections_per_packet(),
            self.counts.peak_buffering
        )
    }

    fn json(&self) -> String {
        format!(
            "{{\"cell\":\"{}\",\"jobs\":{},\"delivered_frac\":{},\"avg_latency_cycles\":{},\
             \"deflections_per_packet\":{},\"peak_buffering\":{}}}",
            esc(&self.name),
            self.jobs,
            num(self.delivered_frac()),
            num(self.avg_latency()),
            num(self.deflections_per_packet()),
            self.counts.peak_buffering
        )
    }
}

/// `round`'s jobs summed per cell, in job order; empty for a workload
/// without cells.
fn cells(suite: &dyn Suite, round: &Round) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for (j, o) in round.jobs.iter().zip(&round.outcomes) {
        let Some(name) = suite.cell(j.job) else {
            continue;
        };
        let at = match cells.iter().position(|c| c.name == name) {
            Some(at) => at,
            None => {
                cells.push(Cell {
                    name,
                    jobs: 0,
                    counts: Counts::default(),
                });
                cells.len() - 1
            }
        };
        cells[at].jobs += 1;
        cells[at].counts.add(&o.counts);
    }
    cells
}

/// The spans of every traced job, one JSON object per line, with ids
/// unique across the run.
fn spans_jsonl(suite: &dyn Suite, rounds: &[Round]) -> String {
    let mut out = String::new();
    let mut next_id = 0usize;
    for (r, round) in rounds.iter().enumerate() {
        for (j, o) in round.jobs.iter().zip(&round.outcomes) {
            let Some(spans) = &o.spans else {
                continue;
            };
            let label = esc(&suite.label(j.job));
            for (i, s) in spans.spans().iter().enumerate() {
                let parent = s
                    .parent
                    .map_or("null".to_owned(), |p| (next_id + p).to_string());
                let _ = writeln!(
                    out,
                    "{{\"round\":{r},\"job\":{},\"label\":\"{label}\",\"id\":{},\"parent\":{parent},\
                     \"name\":\"{}\",\"start_ns\":{},\"calls\":{},\"timed\":{},\"timed_ns\":{}}}",
                    j.job,
                    next_id + i,
                    s.name,
                    j.start_ns + s.start_ns,
                    s.tally.calls,
                    s.tally.timed,
                    s.tally.ns
                );
            }
            next_id += spans.spans().len();
        }
    }
    out
}

/// Times one sample of set-ups, each building the workload for `seed`
/// and dropping it, repeated until [`SETUP_SAMPLE_NS`] have passed.
/// Pushes the host ns per set-up onto `setup_ns` and the trace-generation
/// ns per set-up onto `gen_ns`, and returns one more set-up.
fn sample_setups(
    args: &Args,
    setup_ns: &mut Vec<f64>,
    gen_ns: &mut Vec<f64>,
) -> Result<Setup, String> {
    let t = Instant::now();
    let (mut n, mut gen) = (0u32, 0u64);
    while n == 0 || ns_since(t) < SETUP_SAMPLE_NS {
        gen += build(&args.workload, args.seed)?.gen_ns;
        n += 1;
    }
    setup_ns.push(ns_since(t) as f64 / f64::from(n));
    gen_ns.push(gen as f64 / f64::from(n));
    build(&args.workload, args.seed)
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut setup_ns = Vec::new();
    let mut gen_ns = Vec::new();
    let setup = sample_setups(args, &mut setup_ns, &mut gen_ns)?;
    let suite = setup.suite.as_ref();
    if suite.jobs() < MIN_JOBS {
        return Err(format!(
            "{} has {} jobs per round, fewer than {MIN_JOBS}",
            args.workload,
            suite.jobs()
        ));
    }
    let workers = nproc.min(suite.jobs()).max(1);

    // The gate checks each round as it ends: invariants, pinned digests,
    // and agreement across rounds (traced rounds included).
    let mut gate = gate::Gate::new(&args.workload, args.seed);
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut rss_mib = None;
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        let perturb = (args.inject_violation && rounds.len() == 1).then_some(0);
        let mut round = run_round(suite, workers, traced, perturb);
        for (j, o) in round.jobs.iter().zip(&round.outcomes) {
            attempted += 1;
            let label = suite.label(j.job);
            let mut why: Vec<String> = o
                .violations
                .iter()
                .map(|v| format!("{label}: {v}"))
                .collect();
            why.extend(gate.check(j.job, &label, o.digest));
            if !why.is_empty() {
                failures.push(why.join("; "));
            }
        }
        if !traced && !rounds.is_empty() {
            round.outcomes = Vec::new();
        }
        rounds.push(round);
        for _ in 0..SETUPS_PER_ROUND {
            sample_setups(args, &mut setup_ns, &mut gen_ns)?;
        }
        let plain = rounds.iter().filter(|r| !r.traced).count();
        if plain == MIN_ROUNDS && rss_mib.is_none() {
            rss_mib = Some(proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0);
        }
        let traced_n = rounds.len() - plain;
        let enough = plain >= MIN_ROUNDS && (!args.trace || traced_n >= MIN_ROUNDS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let failed = failures.len() as u64;
    for f in failures.iter().take(5) {
        eprintln!("gate: {f}");
    }
    let correct = failed == 0;

    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let metrics = match fastest(traced.iter().copied()) {
        Some(fastest_traced) => {
            let busy = |rs: &[&Round]| job_times_ms(rs, suite.jobs()).iter().sum::<f64>();
            per_layer(
                &plain,
                fastest_traced,
                ratio(busy(&traced), busy(&plain)) - 1.0,
                &setup,
                median(&gen_ns),
                workers,
                probe::calibrate(),
            )
        }
        None => end_to_end(
            &plain,
            suite.jobs(),
            quantile(&setup_ns, QUIET_Q) / 1e9,
            rss_mib.unwrap_or(0.0),
        ),
    };
    let cells = cells(suite, &rounds[0]);

    // Human-readable table.
    println!(
        "{} seed {}: {} jobs per round, {} untraced + {} traced rounds, {} workers of {} cpus",
        args.workload,
        args.seed,
        suite.jobs(),
        plain.len(),
        traced.len(),
        workers,
        nproc
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    println!(
        "  {:<38} {:>16.6} frac ({failed} of {attempted} jobs failed)",
        "fail_rate",
        ratio(failed as f64, attempted as f64)
    );
    if !args.trace {
        println!(
            "  (each job's time is the {} quantile of its {} untraced rounds; percentiles over {} jobs)",
            QUIET_Q,
            plain.len(),
            suite.jobs()
        );
    }
    for c in &cells {
        println!("  {}", c.line());
    }

    if args.print_pins {
        for (j, o) in rounds[0].jobs.iter().zip(&rounds[0].outcomes) {
            println!("{} {} {:016x}", args.workload, suite.label(j.job), o.digest);
        }
    }

    // Run record: the host, the run's shape, and its spread from round to
    // round within this process.
    let round_ms: Vec<f64> = plain.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let metrics_json = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"workers\":{workers},\"rustc\":\"{}\",\"profile\":\"{}\",\"jobs_per_round\":{},\
         \"rounds_untraced\":{},\"rounds_traced\":{},\"jobs_attempted\":{attempted},\
         \"jobs_failed\":{failed},\"setup_samples\":{},\"setup_s_iqr_frac\":{},\
         \"round_ms_median\":{},\"round_ms_iqr_frac\":{},\"round_ms\":[{}],\
         \"round_minor_faults\":[{}],\"cells\":[{}],\"failures\":[{}],\
         \"metrics\":{{{metrics_json}}}}}",
        esc(&args.workload),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        esc(env!("SIMBENCH_RUSTC")),
        esc(env!("SIMBENCH_PROFILE")),
        suite.jobs(),
        plain.len(),
        traced.len(),
        setup_ns.len(),
        num(iqr_frac(&setup_ns)),
        num(median(&round_ms)),
        num(iqr_frac(&round_ms)),
        round_ms
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
            .join(","),
        plain
            .iter()
            .map(|r| r.minor_faults.to_string())
            .collect::<Vec<_>>()
            .join(","),
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(","),
        failures
            .iter()
            .take(5)
            .map(|f| format!("\"{}\"", esc(f)))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("record: {record}");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_out(&format!("record-{stem}.json"), &format!("{record}\n"));
    if args.trace {
        write_out(&format!("spans-{stem}.jsonl"), &spans_jsonl(suite, &rounds));
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics_json}}}}}"
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_jobs_match_untraced_jobs_and_the_pins() {
        for w in WORKLOADS {
            let setup = build(w, gate::DEFAULT_SEED).expect("workload builds");
            let suite = setup.suite.as_ref();
            let label = suite.label(0);
            let mut gate = gate::Gate::new(w, gate::DEFAULT_SEED);
            let plain = suite.run(0, Mode::default());
            assert!(plain.violations.is_empty(), "{w}: {:?}", plain.violations);
            assert_eq!(gate.check(0, &label, plain.digest), None, "{w}");
            let traced = suite.run(
                0,
                Mode {
                    traced: true,
                    perturb: false,
                },
            );
            assert_eq!(gate.check(0, &label, traced.digest), None, "{w}");
            assert!(traced.spans.is_some(), "{w}: traced job has spans");
        }
    }

    #[test]
    fn the_gate_fails_a_perturbed_job() {
        let perturb = Mode {
            traced: false,
            perturb: true,
        };
        for w in WORKLOADS {
            // At the default seed the pin catches it.
            let setup = build(w, gate::DEFAULT_SEED).expect("workload builds");
            let suite = setup.suite.as_ref();
            let bad = suite.run(0, perturb);
            let mut gate = gate::Gate::new(w, gate::DEFAULT_SEED);
            assert!(gate.check(0, &suite.label(0), bad.digest).is_some(), "{w}");

            // At any other seed, the job's earlier rounds catch it.
            let setup = build(w, 7).expect("workload builds");
            let suite = setup.suite.as_ref();
            let mut gate = gate::Gate::new(w, 7);
            let good = suite.run(0, Mode::default());
            assert_eq!(gate.check(0, &suite.label(0), good.digest), None, "{w}");
            let bad = suite.run(0, perturb);
            assert!(gate.check(0, &suite.label(0), bad.digest).is_some(), "{w}");
        }
    }

    #[test]
    fn memory_jobs_check_conservation() {
        for w in ["sched_sweep", "fault_ladder"] {
            let setup = build(w, 7).expect("workload builds");
            let bad = setup.suite.run(
                0,
                Mode {
                    traced: false,
                    perturb: true,
                },
            );
            assert!(
                bad.violations.iter().any(|v| v.contains("completed")),
                "{w}: {:?}",
                bad.violations
            );
        }
    }
}
