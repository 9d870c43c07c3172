//! **E1 — Data-movement energy in consumer workloads.**
//!
//! Paper claim (§I): "more than 60% of the entire mobile system energy is
//! spent on data movement across the memory hierarchy when executing four
//! major commonly-used consumer workloads" (Boroumand+, ASPLOS 2018), and
//! PIM offload substantially reduces it.

use ia_workloads::{energy_breakdown, energy_with_pim, MobileWorkload, SystemEnergyModel};

use crate::pct;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Runs the experiment: the per-workload energy table plus the
/// suite-wide movement share and 80%-offload PIM energy reduction.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let scale = if quick { 1 } else { 100 };
    let model = SystemEnergyModel::default();
    let mut rep = ExperimentReport::new("exp01_data_movement", quick).columns(&[
        "workload",
        "compute (uJ)",
        "movement (uJ)",
        "movement share",
        "total w/ PIM-80% (uJ)",
        "PIM saving",
    ]);
    let mut total = 0.0;
    let mut movement = 0.0;
    let mut pim_total = 0.0;
    for w in &MobileWorkload::consumer_suite(scale) {
        let b = energy_breakdown(w, &model);
        let pim = energy_with_pim(w, &model, 0.8);
        total += b.total_pj();
        movement += b.movement_pj;
        pim_total += pim.total_pj();
        rep = rep.row(&[
            w.name.clone(),
            format!("{:.1}", b.compute_pj / 1e6),
            format!("{:.1}", b.movement_pj / 1e6),
            pct(b.movement_fraction()),
            format!("{:.1}", pim.total_pj() / 1e6),
            pct(1.0 - pim.total_pj() / b.total_pj()),
        ]);
    }
    let movement_fraction = movement / total;
    let pim_reduction = 1.0 - pim_total / total;
    Ok(rep
        .metric("movement_fraction", movement_fraction)
        .metric("pim_reduction", pim_reduction)
        .caption(format!(
            "E1: data-movement energy in consumer workloads (paper: 62.7% of system energy)\n\
             suite-wide movement share: {} | suite-wide PIM(80%) energy reduction: {}",
            pct(movement_fraction),
            pct(pim_reduction)
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_share_matches_paper_shape() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let movement = rep.metric_value("movement_fraction").unwrap();
        assert!(
            (0.55..0.80).contains(&movement),
            "movement share {movement:.3} should bracket the paper's 62.7%"
        );
        // Offloading 80% of DRAM traffic removes its I/O share of total
        // energy — a double-digit-percent total-energy cut in this model
        // (the original reports ~55% on the PIM-offloaded functions
        // themselves, a superset of what our accounting attributes).
        let pim = rep.metric_value("pim_reduction").unwrap();
        assert!(
            pim > 0.1,
            "PIM offload must cut a double-digit share of energy, got {pim:.3}"
        );
    }

    #[test]
    fn table_renders_all_workloads() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        for name in [
            "tensorflow-inference",
            "video-playback",
            "video-capture",
            "chrome-browsing",
        ] {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
    }
}
