//! **E24 — deterministic fault injection and the mitigation ladder.**
//!
//! Paper claim (§IV): technology scaling hands the memory controller a
//! reliability problem — retention failures, RowHammer disturbance,
//! transient bus errors — that only *intelligent* mitigation solves
//! economically. This experiment closes the loop built across
//! `ia-faults` → `ia-dram` → `ia-memctrl`: a seed-deterministic fault
//! process drives a read-heavy workload (periodic scans plus a
//! double-sided aggressor pair) while the controller runs one of three
//! mitigation tiers:
//!
//! * **none** — flips reach the requester: silent data corruption;
//! * **ecc-only** — SECDED corrects singles and retries transients, but
//!   never repairs the array, so persistent flips accumulate into
//!   uncorrectable pairs;
//! * **ecc+remap+quarantine** — the full detect → correct → degrade
//!   loop: scrub-on-correct, RAIDR-bin refresh escalation, spare-row
//!   remap on uncorrectable, victim quarantine on hammer exposure.
//!
//! The sweep crosses fault-rate multipliers with the three tiers. The
//! headline: at the highest rate the intelligent tier holds the
//! uncorrected-read rate to a small fraction (≤ 1/10) of the
//! unprotected baseline. Every cell is an independent simulation; the
//! sweep fans out on `ia-par` and the report is byte-identical at every
//! `--threads` setting.

use ia_dram::{AddressMapping, DramConfig, Location};
use ia_faults::FaultPlan;
use ia_memctrl::{
    run_closed_loop_with, Fcfs, MemRequest, MemoryController, Mitigation, RefreshMode,
    ReliabilityConfig, ReliabilityPipeline,
};
use ia_par::{auto_threads, par_map};
use ia_sim::SnapshotState;

use crate::pct;
use crate::report::{Error, ExperimentReport};

/// Aggressor rows (bank 0): double-sided hammer around the victim.
const AGGRESSOR_LOW: u64 = 1000;
const AGGRESSOR_HIGH: u64 = 1002;
/// The victim row between the aggressors, also part of the scan set.
const VICTIM: u64 = 1001;
/// Neighbor-activation count at which RowHammer flips start rolling.
const HAMMER_THRESHOLD: u64 = 128;
/// Neighbor-activation count at which the full tier quarantines; below
/// the flip threshold times the exposure a sweep accumulates, so the
/// victim is retired before disturbance does real damage.
const QUARANTINE_THRESHOLD: u64 = 256;

/// One cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    /// Fault-rate multiplier.
    rate: f64,
    /// Mitigation tier.
    mitigation: Mitigation,
    /// Faults the model injected.
    injected: u64,
    /// Reads corrected by ECC.
    corrected: u64,
    /// Reads that delivered wrong data.
    uncorrected: u64,
    /// Fraction of reads that delivered wrong data.
    uncorrected_rate: f64,
    /// Rows retired to spares after uncorrectable errors.
    remaps: u64,
    /// Victim rows quarantined on hammer exposure.
    quarantines: u64,
    /// Targeted refreshes for escalated (retention-weak) rows.
    escalated_refreshes: u64,
}

/// Sweep dimensions: fault-rate multipliers × mitigation tiers.
fn rates(quick: bool) -> &'static [f64] {
    if quick {
        &[1.0, 16.0]
    } else {
        &[1.0, 4.0, 16.0]
    }
}

const TIERS: [Mitigation; 3] = [Mitigation::None, Mitigation::EccOnly, Mitigation::Full];

/// Physical address of (bank, row, column 0) under the default mapping.
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

/// The workload: `sweeps` passes, each a scan over `scan_rows` distinct
/// rows (retention exposure: a weak row whose limit is shorter than the
/// revisit period decays between visits) followed by a double-sided
/// hammer burst on the aggressor pair. Reads only — repair traffic is
/// the pipeline's job, which is exactly what the tiers differ in.
fn trace(config: &DramConfig, quick: bool) -> Vec<MemRequest> {
    let (sweeps, scan_rows, hammer_pairs) = if quick { (4, 192, 400) } else { (6, 384, 800) };
    let mut out = Vec::new();
    for _ in 0..sweeps {
        for i in 0..scan_rows {
            // Spread over all 8 banks, rows spaced by 4 so scan rows are
            // never each other's hammer neighbors.
            let bank = i % 8;
            let row = 64 + (i as u64 / 8) * 4;
            out.push(MemRequest::read(addr(config, bank, row), 0));
        }
        // The victim is scanned too: hammer flips must be *read* to count.
        out.push(MemRequest::read(addr(config, 0, VICTIM), 0));
        for _ in 0..hammer_pairs {
            out.push(MemRequest::read(addr(config, 0, AGGRESSOR_LOW), 0));
            out.push(MemRequest::read(addr(config, 0, AGGRESSOR_HIGH), 0));
        }
    }
    out
}

/// The fault process for one rate multiplier. The seed depends only on
/// the rate, so all three tiers face the *same* fault pattern and differ
/// only in how they respond — the comparison the ladder needs.
fn plan(rate: f64, rate_idx: usize) -> FaultPlan {
    FaultPlan::new(0xE24 + rate_idx as u64)
        .transient(0.004 * rate)
        .retention(0.02 * rate, 60_000, 8192)
        .rowhammer(HAMMER_THRESHOLD, (0.25 * rate).min(1.0))
        .stuck(0.000_2 * rate)
}

/// Runs one sweep cell from a warm-forked base controller and the
/// shared workload trace. The optional `ia-trace` log (captured when
/// the bench CLI's `--trace`/`--profile` session is on) rides back with
/// the cell so [`cells`] can submit it on the calling thread in input
/// order.
fn cell(
    base: MemoryController,
    config: &DramConfig,
    trace: &[Vec<MemRequest>],
    rate: f64,
    rate_idx: usize,
    mitigation: Mitigation,
) -> Result<(Cell, Option<ia_trace::TraceLog>), Error> {
    let reliability = ReliabilityConfig {
        mitigation,
        spare_rows_per_bank: 8,
        quarantine_threshold: match mitigation {
            Mitigation::Full => QUARANTINE_THRESHOLD,
            _ => 0,
        },
    };
    // words_per_row = 1: every injected flip lands in column 0, the
    // column the workload reads — maximum observability per simulated
    // cycle without changing the relative tier comparison. Built via
    // `with_hook` because `ReliabilityPipeline::new` would derive the
    // device's real 128 words per row instead.
    let rows = config.geometry.rows_per_bank;
    let injector = plan(rate, rate_idx)
        .geometry(rows, 1)
        .spare_floor(rows - reliability.spare_rows_per_bank)
        .build();
    let pipeline = ReliabilityPipeline::with_hook(reliability, Box::new(injector), rows);
    let ctrl = base.with_reliability(pipeline);
    let mut report = run_closed_loop_with(ctrl, trace, 4, 50_000_000)?;
    let log = report.trace.take();
    let rel = report
        .reliability
        .ok_or("the run reported no reliability pipeline")?;
    let cell = Cell {
        rate,
        mitigation,
        injected: rel.faults.injected(),
        corrected: rel.stats.corrected,
        uncorrected: rel.stats.uncorrected,
        uncorrected_rate: rel.stats.uncorrected_rate(),
        remaps: rel.stats.remaps,
        quarantines: rel.stats.quarantines,
        escalated_refreshes: rel.stats.escalated_refreshes,
    };
    Ok((cell, log))
}

/// Runs the full sweep. Cells are independent simulations; `par_map`
/// returns them in input order, so results — and any submitted traces —
/// are identical at any thread count.
fn cells(quick: bool) -> Result<Vec<Cell>, Error> {
    // Warm-fork: the DRAM config, the workload trace, and the base
    // controller (scheduler + refresh mode) are identical across every
    // cell — build and decode them once, snapshot the warm controller,
    // and fork one copy per cell. Only the reliability pipeline (the
    // swept variable) is built per fork, so the reports stay
    // byte-identical to the build-everything-per-cell path.
    let config = DramConfig::ddr3_1600();
    let base = MemoryController::new(config.clone(), Box::new(Fcfs::new()))?
        .with_refresh_mode(RefreshMode::AllBank);
    // Routed through the record/replay session so `--record-trace` /
    // `--replay-trace` cover the fault-injection workload too.
    let shared_trace =
        crate::replay::intercept(0xE24, || Ok::<_, Error>(vec![trace(&config, quick)]))?;
    let jobs: Vec<(usize, f64, Mitigation, MemoryController)> = rates(quick)
        .iter()
        .enumerate()
        .flat_map(|(i, &r)| TIERS.iter().map(move |&m| (i, r, m)))
        .map(|(i, r, m)| (i, r, m, base.fork()))
        .collect();
    let runs = par_map(auto_threads(), jobs, |(i, r, m, ctrl)| {
        cell(ctrl, &config, &shared_trace, r, i, m)
    });
    runs.into_iter()
        .map(|run| {
            let (cell, log) = run?;
            if let Some(log) = log {
                ia_trace::submit(log.prefixed(&format!(
                    "{:.0}x-{}",
                    cell.rate,
                    cell.mitigation.label()
                )));
            }
            Ok(cell)
        })
        .collect()
}

/// The uncorrected-read rate of tier `m` at the highest swept rate.
fn at_max_rate(cells: &[Cell], m: Mitigation) -> Result<f64, Error> {
    let max_rate = cells.iter().map(|c| c.rate).fold(0.0, f64::max);
    Ok(cells
        .iter()
        .find(|c| c.rate == max_rate && c.mitigation == m)
        .ok_or("the sweep misses a tier at the highest rate")?
        .uncorrected_rate)
}

/// Runs the fault-rate × mitigation-tier sweep; the headline compares
/// the unprotected and the full tier at the highest fault rate.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let cells = cells(quick)?;
    let mut rep = ExperimentReport::new("exp24_fault_injection", quick)
        .param("rates", format!("{:?}", rates(quick)))
        .param("hammer_threshold", HAMMER_THRESHOLD)
        .param("quarantine_threshold", QUARANTINE_THRESHOLD)
        .columns(&[
            "rate",
            "mitigation",
            "injected",
            "corrected",
            "uncorrected",
            "uncorrected_rate",
            "remaps",
            "quarantines",
            "escalated_refreshes",
        ]);
    for c in &cells {
        let key = format!(
            "r{:.0}_{}",
            c.rate,
            match c.mitigation {
                Mitigation::None => "none",
                Mitigation::EccOnly => "ecc",
                Mitigation::Full => "full",
            }
        );
        rep = rep
            .metric(&format!("{key}_injected"), c.injected as f64)
            .metric(&format!("{key}_corrected"), c.corrected as f64)
            .metric(&format!("{key}_uncorrected"), c.uncorrected as f64)
            .metric(&format!("{key}_uncorrected_rate"), c.uncorrected_rate)
            .metric(&format!("{key}_remaps"), c.remaps as f64)
            .metric(&format!("{key}_quarantines"), c.quarantines as f64)
            .row(&[
                format!("{:.0}x", c.rate),
                c.mitigation.label().to_owned(),
                c.injected.to_string(),
                c.corrected.to_string(),
                c.uncorrected.to_string(),
                format!("{:.6}", c.uncorrected_rate),
                c.remaps.to_string(),
                c.quarantines.to_string(),
                c.escalated_refreshes.to_string(),
            ]);
    }
    let baseline = at_max_rate(&cells, Mitigation::None)?;
    let mitigated = at_max_rate(&cells, Mitigation::Full)?;
    Ok(rep
        .metric("baseline_uncorrected_rate", baseline)
        .metric("mitigated_uncorrected_rate", mitigated)
        .caption(format!(
            "E24: fault injection vs. the mitigation ladder (retention + RowHammer + transients)\n\
             (paper shape: intelligent mitigation holds uncorrected reads near zero where the\n\
             unprotected baseline collapses)\n\
             headline: at the highest fault rate, ecc+remap+quarantine holds the uncorrected rate \
             to {} vs {} unprotected — {}",
            pct(mitigated),
            pct(baseline),
            if mitigated > 0.0 {
                format!("a {:.0}x reduction", baseline / mitigated)
            } else {
                "every uncorrected read eliminated".to_string()
            },
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intelligent_mitigation_beats_baseline_by_10x() {
        let rep = report(true).unwrap();
        let baseline = rep.metric_value("baseline_uncorrected_rate").unwrap();
        let mitigated = rep.metric_value("mitigated_uncorrected_rate").unwrap();
        assert!(
            baseline > 0.01,
            "unprotected baseline should visibly collapse, got {baseline:.4}"
        );
        assert!(
            mitigated <= baseline / 10.0,
            "full tier ({mitigated:.5}) must hold uncorrected reads to <= 1/10th of baseline \
             ({baseline:.5})"
        );
    }

    #[test]
    fn ladder_is_monotone_at_the_highest_rate() {
        let cells = cells(true).unwrap();
        let at = |m| at_max_rate(&cells, m).unwrap();
        assert!(at(Mitigation::EccOnly) < at(Mitigation::None));
        assert!(at(Mitigation::Full) <= at(Mitigation::EccOnly));
    }

    #[test]
    fn full_tier_actually_degrades_gracefully() {
        let cells = cells(true).unwrap();
        let full: Vec<&Cell> = cells
            .iter()
            .filter(|c| c.mitigation == Mitigation::Full)
            .collect();
        assert!(
            full.iter().any(|c| c.quarantines > 0),
            "hammer exposure should trip quarantine: {full:?}"
        );
        assert!(
            full.iter().any(|c| c.escalated_refreshes > 0),
            "corrected retention errors should escalate refresh: {full:?}"
        );
    }

    #[test]
    fn report_carries_the_ladder() {
        let rep = report(true).unwrap();
        assert!(rep.metric_value("baseline_uncorrected_rate").is_some());
        assert!(rep.metric_value("mitigated_uncorrected_rate").is_some());
        assert_eq!(rep.rows.len(), rates(true).len() * TIERS.len());
        assert!(rep.to_text().contains("ecc+remap+quarantine"));
    }
}
