//! **E11 — GRIM-Filter: in-DRAM seed-location filtering for read mapping.**
//!
//! Paper claim (§I + §IV): genome analysis is the flagship
//! data-overwhelmed workload, and GRIM-Filter (Kim+, BMC Genomics 2018)
//! uses in-DRAM bitvector operations to discard false candidate locations
//! before the expensive alignment step (reported: ≈5.6x fewer false
//! locations, ≈1.8-3.7x faster read mapping).

use ia_dram::DramConfig;
use ia_pum::{AmbitEngine, BitwiseOp};
use ia_workloads::{edit_distance_banded, random_genome, sample_reads, GrimIndex, SeedIndex};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{Error, ExperimentReport};
use crate::RunCtx;
use crate::{pct, ratio};

/// Nanoseconds to verify one candidate with banded edit distance on the
/// host (cells × ~0.5 ns per DP cell).
fn verify_cost_ns(read_len: usize, band: usize) -> f64 {
    (read_len * (2 * band + 1)) as f64 * 0.5
}

/// Maps sampled reads against a random genome twice — verifying every
/// seed candidate, and verifying only the candidates whose bins pass
/// the in-DRAM GRIM-Filter — and compares the work.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let (genome_len, read_count) = if quick {
        (64 * 1024, 40)
    } else {
        (1 << 20, 400)
    };
    let read_len = 100;
    let band = 5;
    let token_len = 8; // 4^8 = 65536-token space: bins are sparse
    let threshold = 45u32;
    let mut rng = SmallRng::seed_from_u64(61);

    let genome = random_genome(genome_len, &mut rng);
    let reads = sample_reads(&genome, read_count, read_len, 0.02, &mut rng)?;
    let seed_index = SeedIndex::build(&genome, 8)?;
    let grim = GrimIndex::build(&genome, token_len, 4096)?;

    // Load bin bitvectors into the Ambit engine once (rows 0..bins), the
    // read vector goes to a scratch row per query.
    let cfg = DramConfig::ddr3_1600();
    let mut engine = AmbitEngine::new(&cfg);
    let words = engine.row_words();
    let pad = |bv: &[u64]| {
        let mut row = bv.to_vec();
        row.resize(words, 0);
        row
    };
    for bin in 0..grim.bin_count() {
        engine.write_row(bin as u64, pad(grim.bin_bitvector(bin)))?;
    }
    let read_row = grim.bin_count() as u64;
    let and_row = read_row + 1;

    let mut baseline_verifications = 0u64;
    let mut filtered_verifications = 0u64;
    let mut baseline_found = 0u64;
    let mut filtered_found = 0u64;
    for read in &reads {
        let candidates = seed_index.candidates(&read.seq, 4);
        baseline_verifications += candidates.len() as u64;
        let verify = |pos: u32| -> bool {
            let start = pos as usize;
            if start + read_len > genome.len() {
                return false;
            }
            edit_distance_banded(&read.seq, &genome[start..start + read_len], band).is_some()
        };
        if candidates.iter().any(|&c| verify(c)) {
            baseline_found += 1;
        }

        // GRIM path: one in-DRAM AND + popcount per distinct bin touched
        // by any candidate's span. A read may straddle a bin boundary, so
        // a candidate's score sums the bins its span covers.
        let read_bv = grim.read_bitvector(&read.seq);
        engine.write_row(read_row, pad(&read_bv))?;
        let bins_of = |c: u32| -> (usize, usize) {
            let first = c as usize / grim.bin_size();
            let last = (c as usize + read_len - 1) / grim.bin_size();
            (
                first.min(grim.bin_count() - 1),
                last.min(grim.bin_count() - 1),
            )
        };
        let mut bins: Vec<usize> = candidates
            .iter()
            .flat_map(|&c| {
                let (a, b) = bins_of(c);
                a..=b
            })
            .collect();
        bins.sort_unstable();
        bins.dedup();
        let mut match_count = std::collections::BTreeMap::new();
        for bin in bins {
            engine.execute(BitwiseOp::And, and_row, bin as u64, Some(read_row))?;
            let matches: u32 = engine
                .read_row(and_row)
                .ok_or("AND result row was not written")?
                .iter()
                .map(|w| w.count_ones())
                .sum();
            match_count.insert(bin, matches);
        }
        let survivors: Vec<u32> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                let (a, b) = bins_of(c);
                let score: u32 = (a..=b)
                    .map(|bin| match_count.get(&bin).copied().unwrap_or(0))
                    .sum();
                score >= threshold
            })
            .collect();
        filtered_verifications += survivors.len() as u64;
        if survivors.iter().any(|&c| verify(c)) {
            filtered_found += 1;
        }
    }

    // Bins are examined concurrently across banks, as in the original
    // design (one bitvector row per bank's subarray).
    let filter_ns =
        engine.stats().cycles as f64 * cfg.timing.tck_ns() / engine.parallelism() as f64;
    let v = verify_cost_ns(read_len, band);
    let baseline_ns = baseline_verifications as f64 * v;
    let filtered_ns = filtered_verifications as f64 * v + filter_ns;
    let candidates_eliminated =
        1.0 - filtered_verifications as f64 / baseline_verifications.max(1) as f64;
    let mapping_speedup = baseline_ns / filtered_ns;
    let lost_mappings = baseline_found.saturating_sub(filtered_found);
    Ok(ExperimentReport::new("exp11_grim_filter", quick)
        .metric("candidates_eliminated", candidates_eliminated)
        .metric("mapping_speedup", mapping_speedup)
        .metric("lost_mappings", lost_mappings as f64)
        .columns(&["metric", "value"])
        .row(&[
            "candidate locations eliminated".to_owned(),
            pct(candidates_eliminated),
        ])
        .row(&[
            "end-to-end mapping speedup".to_owned(),
            ratio(mapping_speedup, 1.0),
        ])
        .row(&["true mappings lost".to_owned(), lost_mappings.to_string()])
        .caption(
            "E11: GRIM-Filter seed-location filtering via in-DRAM bitwise AND\n\
             (paper shape: large candidate reduction, 2-4x mapping speedup, no lost mappings)",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_eliminates_most_candidates_without_losing_mappings() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let eliminated = rep.metric_value("candidates_eliminated").unwrap();
        assert!(
            eliminated > 0.3,
            "filter should prune candidates, got {eliminated}"
        );
        assert_eq!(
            rep.metric_value("lost_mappings"),
            Some(0.0),
            "the filter must not reject true locations"
        );
    }

    #[test]
    fn filtering_speeds_up_mapping() {
        let speedup = report(true, &RunCtx::default())
            .unwrap()
            .metric_value("mapping_speedup")
            .unwrap();
        assert!(speedup > 1.1, "speedup {speedup:.2} should exceed 1x");
    }

    #[test]
    fn report_renders() {
        assert!(report(true, &RunCtx::default())
            .unwrap()
            .to_text()
            .contains("eliminated"));
    }
}
