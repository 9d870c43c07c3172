//! **E19 — Subarray-Level Parallelism (SALP/MASA).**
//!
//! Paper citation \[86\] (Kim+, ISCA 2012), under the data-centric
//! "low-latency access" family: exposing the subarrays inside a bank
//! turns inter-subarray row conflicts into overlapped activations — the
//! paper reports ~13-17% average speedup, approaching ideal
//! one-subarray-per-bank behaviour on conflict-heavy streams.

use ia_dram::{serve_stream, BankOrganization, DramConfig, SalpBank};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{Error, ExperimentReport};

/// Per-workload cycle counts `(name, conventional, salp)`.
fn rows(quick: bool) -> Vec<(String, u64, u64)> {
    let n = if quick { 2_000 } else { 20_000 };
    let mut rng = SmallRng::seed_from_u64(131);
    let subarrays = 8usize;
    let rows_per = 512u64;

    // Workloads over one bank: row streams with varying conflict structure.
    let same_row = vec![3u64; n];
    let two_subarrays: Vec<u64> = (0..n)
        .map(|i| if i % 2 == 0 { 0 } else { rows_per })
        .collect();
    let all_subarrays: Vec<u64> = (0..n)
        .map(|i| (i as u64 % subarrays as u64) * rows_per)
        .collect();
    let intra_subarray: Vec<u64> = (0..n).map(|i| (i % 4) as u64).collect();
    let random: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(0..subarrays as u64 * rows_per))
        .collect();

    [
        ("single row (all hits)", same_row),
        ("2-subarray ping-pong", two_subarrays),
        ("8-subarray round-robin", all_subarrays),
        ("intra-subarray conflicts", intra_subarray),
        ("random rows", random),
    ]
    .into_iter()
    .map(|(name, stream)| {
        let timing = DramConfig::ddr3_1600().timing;
        let mut conv = SalpBank::new(BankOrganization::Conventional, timing, subarrays, rows_per);
        let mut salp = SalpBank::new(BankOrganization::Salp, timing, subarrays, rows_per);
        (
            name.to_owned(),
            serve_stream(&mut conv, &stream),
            serve_stream(&mut salp, &stream),
        )
    })
    .collect()
}

/// Serves five row streams on one bank, conventional against
/// SALP/MASA; one speedup metric per stream.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let mut rep = ExperimentReport::new("exp19_salp", quick)
        .columns(&[
            "row_stream",
            "conventional_cycles",
            "salp_cycles",
            "speedup",
        ])
        .caption(
            "E19: subarray-level parallelism (SALP/MASA) within one bank\n\
             (paper shape: inter-subarray conflicts overlap — large gains on ping-pong streams,\n\
             none on hits or intra-subarray conflicts)",
        );
    for (name, conv, salp) in rows(quick) {
        let key = name.to_lowercase().replace([' ', '-'], "_");
        let speedup = conv as f64 / salp.max(1) as f64;
        rep = rep.metric(&format!("{key}_speedup"), speedup).row(&[
            name.clone(),
            conv.to_string(),
            salp.to_string(),
            format!("{speedup:.2}"),
        ]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(rows: &[(String, u64, u64)], name: &str) -> (u64, u64) {
        let r = rows
            .iter()
            .find(|(n, _, _)| n.contains(name))
            .expect("row present");
        (r.1, r.2)
    }

    #[test]
    fn salp_accelerates_cross_subarray_conflicts() {
        let rows = rows(true);
        let (conv, salp) = get(&rows, "ping-pong");
        assert!(
            (salp as f64) < conv as f64 * 0.6,
            "ping-pong: SALP {salp} vs conventional {conv}"
        );
        let (conv, salp) = get(&rows, "round-robin");
        assert!(
            (salp as f64) < conv as f64 * 0.8,
            "round-robin: {salp} vs {conv}"
        );
    }

    #[test]
    fn salp_is_neutral_where_it_cannot_help() {
        let rows = rows(true);
        let (conv, salp) = get(&rows, "single row");
        assert_eq!(conv, salp);
        let (conv, salp) = get(&rows, "intra-subarray");
        assert_eq!(conv, salp);
    }

    #[test]
    fn random_rows_gain_moderately() {
        let rows = rows(true);
        let (conv, salp) = get(&rows, "random");
        assert!(salp <= conv);
        assert!(
            (salp as f64) > conv as f64 * 0.3,
            "random gains are bounded"
        );
    }

    #[test]
    fn report_renders() {
        assert!(report(true).unwrap().to_text().contains("SALP"));
    }
}
