//! **E8 — Near-memory graph processing (Tesseract-class).**
//!
//! Paper claim (§IV): PNM "can greatly accelerate real applications,
//! including … graph analytics", with "up to approximately two orders of
//! magnitude improvement" as internal bandwidth scales; Tesseract (Ahn+,
//! ISCA 2015) reports ≈10x at 16-vault-cube scale.

use ia_core::Table;
use ia_pnm::{host_pagerank_ns, PnmGraphEngine, StackConfig};
use ia_workloads::Graph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pct;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Runs PageRank on one R-MAT graph at 1, 4, 16 and 32 vaults; the
/// graph is built once and shared read-only, and each vault count is an
/// independent PNM simulation on the worker pool.
pub fn report(quick: bool, ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let (v, e) = if quick {
        (2048, 32 * 1024)
    } else {
        (16 * 1024, 512 * 1024)
    };
    let mut rng = SmallRng::seed_from_u64(41);
    let g = Graph::rmat(v, e, &mut rng)?;
    let iterations = 10;
    let runs = ctx.par_map(vec![1usize, 4, 16, 32], |vaults| {
        let stack = StackConfig::hmc_like().with_vaults(vaults)?;
        let (ranks, report) = PnmGraphEngine::new(stack, &g)?.pagerank(0.85, iterations);
        // Sanity: functional result matches the host reference.
        debug_assert_eq!(ranks.len(), g.vertex_count() as usize);
        let host = host_pagerank_ns(&stack, &g, iterations);
        Ok::<_, Error>((vaults, stack, report, host))
    });
    let mut side = Table::new(&[
        "vaults",
        "internal GB/s",
        "PNM time (us)",
        "host time (us)",
        "remote edges",
    ]);
    let mut rep = ExperimentReport::new("exp08_pnm_graph", quick).columns(&["vaults", "speedup"]);
    let mut best = 0.0f64;
    for run in runs {
        let (vaults, stack, report, host) = run?;
        let speedup = host / report.total_ns;
        best = best.max(speedup);
        side.row(&[
            vaults.to_string(),
            format!("{:.0}", stack.internal_gbps_total()),
            format!("{:.1}", report.total_ns / 1000.0),
            format!("{:.1}", host / 1000.0),
            pct(report.remote_edge_fraction),
        ]);
        rep = rep.row(&[vaults.to_string(), format!("{speedup:.2}")]);
    }
    Ok(rep.metric("best_speedup", best).caption(format!(
        "E8: PageRank on an R-MAT graph ({v} vertices, {e} edges), near-memory vs host\n\
         (paper shape: ≈10x at 16 vaults, scaling with internal bandwidth)\n{side}\n"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups() -> Vec<(usize, f64)> {
        report(true, &RunCtx::default())
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].parse().unwrap(), r[1].parse().unwrap()))
            .collect()
    }

    #[test]
    fn speedup_grows_with_vaults() {
        let s: Vec<f64> = speedups().iter().map(|&(_, s)| s).collect();
        assert!(s[1] > s[0], "4 vaults should beat 1: {s:?}");
        assert!(s[2] > s[1], "16 vaults should beat 4: {s:?}");
    }

    #[test]
    fn sixteen_vaults_reach_tesseract_band() {
        let s16 = speedups()
            .iter()
            .find(|&&(v, _)| v == 16)
            .expect("16 vaults")
            .1;
        assert!(s16 > 3.0, "16-vault speedup {s16:.1} should be several x");
    }

    #[test]
    fn report_renders() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        assert!(s.contains("vaults"));
        assert!(s.contains("speedup"));
        assert!(s.contains("remote edges"));
    }
}
