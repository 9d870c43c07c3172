//! The correctness gate: every job's simulated results fold into a
//! digest, which must match the pinned digest at the default seed, the
//! job's own digest in every other round of the run, and the untraced
//! digest when the job runs traced.

use std::collections::HashMap;

use ia_memctrl::{Mitigation, RunReport};

/// The seed whose digests are pinned in `pins.txt`.
pub const DEFAULT_SEED: u64 = 1;

const PINS: &str = include_str!("../pins.txt");

/// FNV-1a over little-endian words: small, stable across platforms, and
/// enough to tell two runs apart.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds in a float by its bit pattern, so any change shows.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds in a string, length first.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of every field [`RunReport::same_results`] compares.
pub fn run_report(r: &RunReport) -> u64 {
    let mut d = Digest::default();
    d.str(&r.scheduler)
        .u64(r.cycles)
        .u64(r.threads.len() as u64);
    for t in &r.threads {
        d.u64(t.completed).f64(t.avg_latency).u64(t.finish);
    }
    let s = &r.stats;
    d.u64(s.completed)
        .u64(s.total_latency)
        .u64(s.refreshes_issued)
        .u64(s.refreshes_skipped)
        .u64(s.busy_cycles)
        .f64(r.row_hit_rate)
        .f64(r.charge_cache_hit_rate)
        .f64(r.dynamic_energy_pj)
        .f64(r.io_energy_pj);
    match &r.reliability {
        None => {
            d.u64(0);
        }
        Some(rel) => {
            let tier = match rel.mitigation {
                Mitigation::None => 1,
                Mitigation::EccOnly => 2,
                Mitigation::Full => 3,
            };
            let s = &rel.stats;
            let f = &rel.faults;
            for v in [
                tier,
                s.reads_checked,
                s.corrected,
                s.retries,
                s.retry_recovered,
                s.uncorrected,
                s.miscorrections,
                s.scrubs,
                s.remaps,
                s.spare_exhausted,
                s.quarantines,
                s.escalations,
                s.escalated_refreshes,
                f.rowhammer_flips,
                f.retention_flips,
                f.transient_flips,
                f.stuck_cells,
                f.scripted_applied,
                f.scrubs,
                f.row_refreshes,
                f.reads_faulted,
            ] {
                d.u64(v);
            }
        }
    }
    d.finish()
}

/// Checks job digests across a run.
#[derive(Debug)]
pub struct Gate {
    /// Pinned digest per job label; `None` off the default seed.
    pins: Option<HashMap<String, u64>>,
    /// First digest seen per job index.
    seen: HashMap<usize, u64>,
}

impl Gate {
    /// A gate for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        let pins = (seed == DEFAULT_SEED).then(|| {
            PINS.lines()
                .filter_map(|line| {
                    let mut f = line.split_whitespace();
                    let (w, label, hex) = (f.next()?, f.next()?, f.next()?);
                    let digest = u64::from_str_radix(hex, 16).ok()?;
                    (w == workload).then(|| (label.to_owned(), digest))
                })
                .collect()
        });
        Gate {
            pins,
            seen: HashMap::new(),
        }
    }

    /// Checks one job's digest; returns why it fails, if it does.
    pub fn check(&mut self, job: usize, label: &str, digest: u64) -> Option<String> {
        if let Some(pins) = &self.pins {
            match pins.get(label) {
                None => return Some(format!("{label}: no pinned digest")),
                Some(&pin) if pin != digest => {
                    return Some(format!(
                        "{label}: digest {digest:016x} != pinned {pin:016x}"
                    ))
                }
                Some(_) => {}
            }
        }
        let first = *self.seen.entry(job).or_insert(digest);
        (first != digest)
            .then(|| format!("{label}: digest {digest:016x} != first run {first:016x}"))
    }
}
