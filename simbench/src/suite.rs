//! What every workload provides: a fixed list of independent jobs, each
//! one simulation that returns its digest, its invariant checks and its
//! counts.

use crate::probe::JobSpans;

/// How to run one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Attach the timing wrappers and record spans.
    pub traced: bool,
    /// Change the job's input on purpose, so the gate must fail it.
    pub perturb: bool,
}

/// Simulated counts of one job (or a sum over jobs). All of them repeat
/// exactly for the same seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Memory requests completed, or NoC packets delivered.
    pub requests: u64,
    /// Engine ticks processed.
    pub events: u64,
    /// Cycles the engine skipped.
    pub skipped: u64,
    /// Memory jobs (the base of `row_hit_rate_sum`).
    pub mem_jobs: u64,
    /// Summed request (or packet) latency, cycles.
    pub total_latency: u64,
    /// Cycles a column command issued.
    pub busy_cycles: u64,
    /// Summed per-job DRAM row-buffer hit rate.
    pub row_hit_rate_sum: f64,
    /// Dynamic DRAM energy, pJ.
    pub dynamic_energy_pj: f64,
    /// Reliability pipeline counters.
    pub reads_checked: u64,
    pub corrected: u64,
    pub uncorrected: u64,
    pub miscorrections: u64,
    pub scrubs: u64,
    pub remaps: u64,
    /// Faults the fault model injected.
    pub injected: u64,
    /// NoC packets injected.
    pub offered: u64,
    /// NoC links traversed by delivered packets.
    pub hops: u64,
    /// NoC deflections of delivered packets.
    pub deflections: u64,
    /// Largest buffered-mesh occupancy seen (a maximum, not a sum).
    pub peak_buffering: u64,
    /// Scheduler picks that returned `None` (traced jobs only).
    pub idle_picks: u64,
}

impl Counts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.requests += o.requests;
        self.events += o.events;
        self.skipped += o.skipped;
        self.mem_jobs += o.mem_jobs;
        self.total_latency += o.total_latency;
        self.busy_cycles += o.busy_cycles;
        self.row_hit_rate_sum += o.row_hit_rate_sum;
        self.dynamic_energy_pj += o.dynamic_energy_pj;
        self.reads_checked += o.reads_checked;
        self.corrected += o.corrected;
        self.uncorrected += o.uncorrected;
        self.miscorrections += o.miscorrections;
        self.scrubs += o.scrubs;
        self.remaps += o.remaps;
        self.injected += o.injected;
        self.offered += o.offered;
        self.hops += o.hops;
        self.deflections += o.deflections;
        self.peak_buffering = self.peak_buffering.max(o.peak_buffering);
        self.idle_picks += o.idle_picks;
    }
}

/// The result of one job.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Digest of the simulated results.
    pub digest: u64,
    /// Broken invariants, one line each.
    pub violations: Vec<String>,
    /// Simulated counts.
    pub counts: Counts,
    /// Spans, when the job ran traced.
    pub spans: Option<JobSpans>,
}

/// A built workload plus what generating its inputs cost.
pub struct Setup {
    /// The workload.
    pub suite: Box<dyn Suite>,
    /// Requests generated ahead of the timed region.
    pub requests: u64,
    /// Host ns spent generating them.
    pub gen_ns: u64,
}

/// A workload: a fixed list of independent jobs.
pub trait Suite: Sync {
    /// Jobs in one round.
    fn jobs(&self) -> usize;
    /// Stable name of job `job`, used as its pin key.
    fn label(&self, job: usize) -> String;
    /// The cell of the workload's parameter grid job `job` belongs to,
    /// for workloads whose run record summarises each cell.
    fn cell(&self, _job: usize) -> Option<String> {
        None
    }
    /// Runs job `job`.
    fn run(&self, job: usize, mode: Mode) -> JobOutcome;
}

/// SplitMix64 step: derives independent per-job seeds from the
/// workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
