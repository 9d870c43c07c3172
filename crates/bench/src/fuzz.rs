//! The full-stack fuzz harness behind `ia-bench fuzz`.
//!
//! Each case draws a random multi-threaded workload (via the in-tree
//! `proptest` strategies), a randomized [`FaultPlan`], one of the 7
//! schedulers, and one rung of the mitigation ladder (none / ecc-only /
//! full), runs the whole stack closed-loop, and asserts four invariant
//! oracles:
//!
//! 1. **no-silent-corruption** — under the full ladder the SECDED
//!    miscorrection counter stays 0: the pipeline never delivers wrong
//!    data while claiming success.
//! 2. **no-stall** — the run completes; a watchdog [`CtrlError`](ia_memctrl::CtrlError) (or any
//!    other controller error) is a violation.
//! 3. **conservation** — requests in == completions: quarantined rows
//!    are *remapped*, never dropped, so every submitted request must
//!    complete, and the per-thread completion counts must sum to the
//!    aggregate.
//! 4. **replay-determinism** — rebuilding the identical (trace, plan,
//!    scheduler, ladder) case and re-running yields byte-identical
//!    simulated results ([`RunReport::same_results`]).
//!
//! A failing case is shrunk by a built-in ddmin-style minimizer to a
//! minimal workload that still trips the *same* oracle, written as an
//! `ia-tracefmt` repro artifact (header seed = the fault-plan seed), and
//! reported with the full seed tuple so the exact case can be re-run;
//! the violation's detail message cites the case's fault seed.

use std::path::PathBuf;

use ia_core::SchedulerKind;
use ia_dram::{AccessKind, DramConfig};
use ia_faults::{FaultPlan, FaultStats, FlipMask, Inject, RowSite};
use ia_memctrl::{
    run_closed_loop_with, MemRequest, MemoryController, Mitigation, RefreshMode, ReliabilityConfig,
    ReliabilityPipeline, RunReport,
};
use ia_tracefmt::TraceWriter;
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outstanding requests per thread during the closed-loop run.
const WINDOW: usize = 4;
/// Cycle budget per run — generous: fuzz workloads are ≤ a few hundred
/// requests, so hitting this means the stack wedged (oracle 2 then
/// reports the shortfall through oracle 3's conservation check if the
/// watchdog somehow stayed quiet).
const MAX_CYCLES: u64 = 20_000_000;
/// Neighbor-activation count at which RowHammer flips start rolling.
const HAMMER_THRESHOLD: u64 = 128;
/// Exposure count at which the full tier quarantines a victim row.
const QUARANTINE_THRESHOLD: u64 = 256;
/// Spare rows provisioned per bank (the remap pool).
const SPARE_ROWS: u64 = 8;
/// Codeword bits {0, 1, 2} — the `--inject-violation` mask. Three
/// persistent flips give Hamming syndrome 3 with odd overall parity, so
/// the SECDED decoder "corrects" a wrong bit and delivers wrong data: a
/// guaranteed miscorrection for oracle 1 to catch.
const MISCORRECTION_MASK: u128 = 0b111;

/// The mitigation ladder the grid sweeps.
const LADDER: [Mitigation; 3] = [Mitigation::None, Mitigation::EccOnly, Mitigation::Full];

/// Fuzz-run parameters (the `ia-bench fuzz` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Number of cases to run.
    pub cases: u32,
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Directory for minimized repro artifacts.
    pub repro_dir: PathBuf,
    /// Self-test mode: wrap every injector in a saboteur that forces a
    /// miscorrection, proving the oracle + minimizer pipeline works.
    pub inject_violation: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 64,
            seed: 0xF022_5EED,
            repro_dir: PathBuf::from("."),
            inject_violation: false,
        }
    }
}

/// One minimized invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the failing case.
    pub case_idx: u32,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Human-readable failure detail.
    pub detail: String,
    /// Scheduler under test.
    pub scheduler: &'static str,
    /// Mitigation rung under test.
    pub mitigation: &'static str,
    /// The case's fault-plan seed.
    pub fault_seed: u64,
    /// Requests in the original failing workload.
    pub original_requests: usize,
    /// Requests after minimization.
    pub minimized_requests: usize,
    /// Where the minimized repro trace was written.
    pub repro_path: PathBuf,
}

/// Result of a fuzz run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Cases executed (stops at the first violation).
    pub cases_run: u32,
    /// The first violation found, already minimized, if any.
    pub violation: Option<Violation>,
}

/// Probabilistic fault rates for one case, drawn once and reused for
/// every rebuild (re-replay oracle, minimizer) of that case.
#[derive(Debug, Clone, Copy)]
struct Rates {
    transient: f64,
    retention_weak: f64,
    hammer_flip: f64,
    stuck: f64,
}

/// One fully-derived fuzz case.
#[derive(Debug, Clone)]
struct Case {
    idx: u32,
    scheduler: SchedulerKind,
    mitigation: Mitigation,
    fault_seed: u64,
    rates: Rates,
    inject_violation: bool,
}

/// Derives case `idx` from the master seed: scheduler and ladder rung
/// round-robin over the 7×3 grid, everything else comes from a
/// per-case RNG.
fn make_case(opts: &FuzzOptions, idx: u32) -> (Case, Vec<Vec<MemRequest>>) {
    let mut rng = SmallRng::seed_from_u64(
        opts.seed
            .wrapping_add(u64::from(idx).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let schedulers = SchedulerKind::all();
    let scheduler = schedulers[idx as usize % schedulers.len()];
    let mitigation = if opts.inject_violation {
        // Oracle 1 only applies under the full rung; the self-test must
        // land there every time.
        Mitigation::Full
    } else {
        LADDER[(idx as usize / schedulers.len()) % LADDER.len()]
    };
    // Low rates on purpose: frequent enough to exercise the detect →
    // correct → degrade loop, sparse enough that three persistent flips
    // never pile into one codeword (which would be a *legitimate*
    // miscorrection, not a stack bug).
    let rates = Rates {
        transient: (0.0..0.008).generate(&mut rng),
        retention_weak: (0.0..0.04).generate(&mut rng),
        hammer_flip: (0.0..0.3).generate(&mut rng),
        stuck: (0.0..0.000_4).generate(&mut rng),
    };
    let fault_seed: u64 = rng.gen();
    let mut workload = draw_workload(&mut rng);
    if opts.inject_violation {
        // The saboteur fires on the first read; make sure there is one.
        if let Some(first) = workload.first_mut().and_then(|t| t.first_mut()) {
            first.kind = AccessKind::Read;
        }
    }
    (
        Case {
            idx,
            scheduler,
            mitigation,
            fault_seed,
            rates,
            inject_violation: opts.inject_violation,
        },
        workload,
    )
}

/// Draws one multi-threaded workload from proptest strategies: 1–4
/// threads, 8–64 requests each, mixing uniform-random lines with a
/// shared pool of hot rows (repeated activations are what give
/// RowHammer exposure and retention decay something to bite on).
fn draw_workload(rng: &mut SmallRng) -> Vec<Vec<MemRequest>> {
    // 64-byte lines across a 256 MiB span.
    let line = collection::vec(0u64..(1u64 << 22), 4usize);
    let hot = line.generate(rng);
    let threads = (1usize..=4).generate(rng);
    (0..threads)
        .map(|t| {
            let picks = collection::vec(
                (any::<bool>(), 0usize..4, 0u64..(1u64 << 22), any::<bool>()),
                8usize..=64,
            )
            .generate(rng);
            picks
                .into_iter()
                .map(|(use_hot, hot_idx, cold, is_write)| {
                    let addr = if use_hot { hot[hot_idx] } else { cold } << 6;
                    if is_write {
                        MemRequest::write(addr, t)
                    } else {
                        MemRequest::read(addr, t)
                    }
                })
                .collect()
        })
        .collect()
}

/// A wrapper hook for `--inject-violation`: delegates every event to
/// the real injector but ORs [`MISCORRECTION_MASK`] into the first
/// read's flip mask as persistent bits, forcing a SECDED miscorrection.
#[derive(Debug, Clone)]
struct Saboteur {
    inner: Box<dyn Inject>,
    fired: bool,
}

impl Inject for Saboteur {
    fn on_activate(&mut self, site: &RowSite, now: u64) {
        self.inner.on_activate(site, now);
    }
    fn on_read(&mut self, site: &RowSite, word: u64, now: u64) -> FlipMask {
        let mut mask = self.inner.on_read(site, word, now);
        if !self.fired {
            self.fired = true;
            mask.bits |= MISCORRECTION_MASK;
            mask.transient &= !MISCORRECTION_MASK;
        }
        mask
    }
    fn on_write(&mut self, site: &RowSite, word: u64, now: u64) {
        self.inner.on_write(site, word, now);
    }
    fn on_refresh(&mut self, channel: usize, rank: usize, now: u64) {
        self.inner.on_refresh(channel, rank, now);
    }
    fn on_row_refresh(&mut self, site: &RowSite, now: u64) {
        self.inner.on_row_refresh(site, now);
    }
    fn stats(&self) -> FaultStats {
        self.inner.stats()
    }
    fn clone_box(&self) -> Box<dyn Inject> {
        Box::new(self.clone())
    }
}

/// Builds the case's reliability pipeline. `words_per_row = 1` mirrors
/// exp24: every injected flip lands in the column the workload reads,
/// for maximum observability per simulated cycle.
fn pipeline_for(case: &Case, config: &DramConfig) -> ReliabilityPipeline {
    let rows = config.geometry.rows_per_bank;
    let reliability = ReliabilityConfig {
        mitigation: case.mitigation,
        spare_rows_per_bank: SPARE_ROWS,
        quarantine_threshold: match case.mitigation {
            Mitigation::Full => QUARANTINE_THRESHOLD,
            _ => 0,
        },
    };
    let injector = FaultPlan::new(case.fault_seed)
        .transient(case.rates.transient)
        .retention(case.rates.retention_weak, 60_000, 8192)
        .rowhammer(HAMMER_THRESHOLD, case.rates.hammer_flip)
        .stuck(case.rates.stuck)
        .geometry(rows, 1)
        .spare_floor(rows - SPARE_ROWS)
        .build();
    let hook: Box<dyn Inject> = if case.inject_violation {
        Box::new(Saboteur {
            inner: Box::new(injector),
            fired: false,
        })
    } else {
        Box::new(injector)
    };
    ReliabilityPipeline::with_hook(reliability, hook, rows)
}

/// Runs the case once from a cold build. Errors other than controller
/// run errors (which are oracle material) are configuration bugs and
/// surface as `Err(String)`.
fn run_once(
    case: &Case,
    workload: &[Vec<MemRequest>],
) -> Result<Result<RunReport, ia_memctrl::CtrlError>, String> {
    let config = DramConfig::ddr3_1600();
    let ctrl = MemoryController::new(config.clone(), case.scheduler.build(workload.len()))
        .map_err(|e| format!("controller config: {e}"))?
        .with_refresh_mode(RefreshMode::AllBank)
        .with_reliability(pipeline_for(case, &config));
    Ok(run_closed_loop_with(ctrl, workload, WINDOW, MAX_CYCLES))
}

/// The oracle battery: runs the case and returns the first violated
/// oracle (name + detail), or `None` when all four hold.
fn check_oracles(
    case: &Case,
    workload: &[Vec<MemRequest>],
) -> Result<Option<(&'static str, String)>, String> {
    // Oracle 2: no watchdog stall (any controller error is a violation).
    let report = match run_once(case, workload)? {
        Ok(r) => r,
        Err(e) => return Ok(Some(("no-stall", format!("controller error: {e}")))),
    };
    // Oracle 3: conservation. Quarantine remaps rows, it never drops
    // requests, so completions must equal submissions exactly.
    let submitted: u64 = workload.iter().map(|t| t.len() as u64).sum();
    if report.stats.completed != submitted {
        return Ok(Some((
            "conservation",
            format!(
                "submitted {submitted} requests but {} completed",
                report.stats.completed
            ),
        )));
    }
    let per_thread: u64 = report.threads.iter().map(|t| t.completed).sum();
    if per_thread != report.stats.completed {
        return Ok(Some((
            "conservation",
            format!(
                "thread completions sum to {per_thread}, aggregate says {}",
                report.stats.completed
            ),
        )));
    }
    // Oracle 1: no silent corruption under the full ladder.
    if case.mitigation == Mitigation::Full {
        if let Some(rel) = &report.reliability {
            if rel.stats.miscorrections != 0 {
                return Ok(Some((
                    "no-silent-corruption",
                    format!(
                        "{} miscorrection(s) under the full ladder \
                         ({} corrected, {} uncorrected, {} injected)",
                        rel.stats.miscorrections,
                        rel.stats.corrected,
                        rel.stats.uncorrected,
                        rel.faults.injected()
                    ),
                )));
            }
        }
    }
    // Oracle 4: byte-identical re-replay of the same (trace, plan,
    // scheduler, ladder) tuple.
    match run_once(case, workload)? {
        Err(e) => Ok(Some((
            "replay-determinism",
            format!("re-replay errored where the first run succeeded: {e}"),
        ))),
        Ok(second) => {
            if report.same_results(&second) {
                Ok(None)
            } else {
                Ok(Some((
                    "replay-determinism",
                    format!(
                        "re-replay diverged: {} vs {} completed, {} vs {} cycles",
                        report.stats.completed,
                        second.stats.completed,
                        report.cycles,
                        second.cycles
                    ),
                )))
            }
        }
    }
}

/// Flattens a workload into `(thread, request)` pairs for the minimizer.
fn flatten(workload: &[Vec<MemRequest>]) -> Vec<(usize, MemRequest)> {
    workload
        .iter()
        .enumerate()
        .flat_map(|(t, reqs)| reqs.iter().map(move |&r| (t, r)))
        .collect()
}

/// Rebuilds per-thread traces from flattened pairs. Empty threads are
/// dropped; the closed-loop runner reassigns thread ids by position, so
/// the result is always well-formed.
fn rebuild(flat: &[(usize, MemRequest)]) -> Vec<Vec<MemRequest>> {
    let threads = flat.iter().map(|&(t, _)| t + 1).max().unwrap_or(0);
    let mut groups: Vec<Vec<MemRequest>> = vec![Vec::new(); threads];
    for &(t, r) in flat {
        groups[t].push(r);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// True when the candidate still trips the same oracle. Hard errors
/// during re-runs are treated as "did not reproduce" (conservative:
/// minimization never widens the failure).
fn reproduces(case: &Case, flat: &[(usize, MemRequest)], oracle: &'static str) -> bool {
    if flat.is_empty() {
        return false;
    }
    matches!(
        check_oracles(case, &rebuild(flat)),
        Ok(Some((o, _))) if o == oracle
    )
}

/// ddmin-style delta debugging over the flattened request list, plus a
/// final single-element sweep. Returns the smallest workload found that
/// still trips `oracle`.
fn minimize(
    case: &Case,
    workload: &[Vec<MemRequest>],
    oracle: &'static str,
) -> Vec<Vec<MemRequest>> {
    let mut flat = flatten(workload);
    let mut n = 2usize;
    while flat.len() >= 2 && n <= flat.len() {
        let chunk = flat.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < flat.len() {
            let end = (start + chunk).min(flat.len());
            let mut candidate = flat.clone();
            candidate.drain(start..end);
            if reproduces(case, &candidate, oracle) {
                flat = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= flat.len() {
                break;
            }
            n = (n * 2).min(flat.len());
        }
    }
    // Final pass: drop single requests while the failure persists.
    let mut i = 0usize;
    while flat.len() > 1 && i < flat.len() {
        let mut candidate = flat.clone();
        candidate.remove(i);
        if reproduces(case, &candidate, oracle) {
            flat = candidate;
        } else {
            i += 1;
        }
    }
    rebuild(&flat)
}

/// Writes the minimized workload as an `ia-tracefmt` artifact whose
/// header seed is the case's fault-plan seed.
fn write_repro(
    opts: &FuzzOptions,
    case: &Case,
    minimized: &[Vec<MemRequest>],
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.repro_dir)
        .map_err(|e| format!("creating {}: {e}", opts.repro_dir.display()))?;
    let path = opts
        .repro_dir
        .join(format!("fuzz-case{:04}.trace", case.idx));
    let mut w = TraceWriter::new(case.fault_seed);
    ia_memctrl::record_workload(minimized, 0, &mut w);
    let path_str = path
        .to_str()
        .ok_or_else(|| format!("repro path is not UTF-8: {}", path.display()))?;
    w.write_to_path(path_str).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Runs the fuzz campaign: derives and checks cases in order, stopping
/// at (and minimizing) the first violation, whose detail cites the
/// case's fault seed.
///
/// # Errors
///
/// `Err(String)` only for harness-level failures (bad DRAM config,
/// unwritable repro dir) — oracle violations are *data*, returned in
/// [`FuzzOutcome::violation`].
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzOutcome, String> {
    let mut cases_run = 0u32;
    for idx in 0..opts.cases {
        let (case, workload) = make_case(opts, idx);
        cases_run += 1;
        if let Some((oracle, detail)) = check_oracles(&case, &workload)? {
            let minimized = minimize(&case, &workload, oracle);
            let repro_path = write_repro(opts, &case, &minimized)?;
            return Ok(FuzzOutcome {
                cases_run,
                violation: Some(Violation {
                    case_idx: idx,
                    oracle,
                    detail: format!("{detail} [fault seed: {:#x}]", case.fault_seed),
                    scheduler: case.scheduler.name(),
                    mitigation: case.mitigation.label(),
                    fault_seed: case.fault_seed,
                    original_requests: workload.iter().map(Vec::len).sum(),
                    minimized_requests: minimized.iter().map(Vec::len).sum(),
                    repro_path,
                }),
            });
        }
    }
    Ok(FuzzOutcome {
        cases_run,
        violation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_tracefmt::TraceReader;

    fn temp_repro_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ia-fuzz-{tag}-{}", std::process::id()))
    }

    #[test]
    fn one_grid_pass_is_green_under_the_fixed_seed() {
        let opts = FuzzOptions {
            cases: 21, // one full scheduler × ladder pass
            repro_dir: temp_repro_dir("green"),
            ..FuzzOptions::default()
        };
        let outcome = run_fuzz(&opts).unwrap_or_else(|e| panic!("harness error: {e}"));
        assert_eq!(outcome.cases_run, 21);
        assert!(
            outcome.violation.is_none(),
            "fixed-seed grid pass must be green: {:?}",
            outcome.violation
        );
    }

    #[test]
    fn injected_violation_is_caught_and_minimized() {
        let dir = temp_repro_dir("inject");
        let opts = FuzzOptions {
            cases: 4,
            repro_dir: dir.clone(),
            inject_violation: true,
            ..FuzzOptions::default()
        };
        let outcome = run_fuzz(&opts).unwrap_or_else(|e| panic!("harness error: {e}"));
        let v = outcome
            .violation
            .unwrap_or_else(|| panic!("saboteur must trip an oracle"));
        assert_eq!(v.oracle, "no-silent-corruption", "{}", v.detail);
        assert!(
            v.detail
                .ends_with(&format!("[fault seed: {:#x}]", v.fault_seed)),
            "the detail cites the case's fault seed: {}",
            v.detail
        );
        assert_eq!(v.case_idx, 0, "the very first case must already trip");
        assert_eq!(v.mitigation, "ecc+remap+quarantine");
        assert!(
            v.minimized_requests <= 2 && v.minimized_requests >= 1,
            "saboteur fires on the first read, so the repro must shrink \
             to at most a couple of requests, got {}",
            v.minimized_requests
        );
        assert!(v.minimized_requests <= v.original_requests);
        // The repro artifact must be a valid v1 trace carrying the
        // fault seed and the minimized requests.
        let reader = TraceReader::from_path(
            v.repro_path
                .to_str()
                .unwrap_or_else(|| panic!("utf-8 path")),
        )
        .unwrap_or_else(|e| panic!("repro must decode: {e}"));
        assert_eq!(reader.seed(), v.fault_seed);
        assert_eq!(reader.records().len(), v.minimized_requests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_drops_empty_threads_and_keeps_order() {
        let w = vec![
            vec![MemRequest::read(0x40, 0), MemRequest::write(0x80, 0)],
            vec![MemRequest::read(0xC0, 1)],
        ];
        let flat = flatten(&w);
        assert_eq!(flat.len(), 3);
        // Drop thread 1 entirely: rebuild yields a single-thread trace.
        let only_t0: Vec<_> = flat.iter().filter(|&&(t, _)| t == 0).copied().collect();
        let rebuilt = rebuild(&only_t0);
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt[0].len(), 2);
        assert_eq!(rebuilt[0][0].addr.as_u64(), 0x40);
    }
}
