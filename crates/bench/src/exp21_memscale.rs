//! **E21 — MemScale: memory DVFS.**
//!
//! Paper citations [127, 132] (David+ ICAC 2011; Deng+ ASPLOS 2011),
//! under the bottom-up push's "energy consumption" head: memory
//! frequency/voltage should track demand. Expected shape: large memory
//! energy savings on low-utilization epochs at a bounded (few percent)
//! performance cost, vanishing as utilization rises.

use ia_core::Table;
use ia_memctrl::{epoch_outcome, standard_points, MemScaleGovernor};

use crate::pct;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Sweep rows `(avg utilization, energy vs full-speed, slowdown)`.
fn sweep(quick: bool, ctx: &RunCtx) -> Result<Vec<(f64, f64, f64)>, Error> {
    let epochs = if quick { 100 } else { 2000 };
    // Each utilization level owns its trace and governor — independent
    // tasks for the worker pool, returned in grid order.
    ctx.par_map(vec![0.05f64, 0.15, 0.30, 0.50, 0.95], |base| {
        // Bursty trace around the base utilization.
        let trace: Vec<f64> = (0..epochs)
            .map(|i| {
                if i % 10 == 0 {
                    (base * 2.5).min(0.95)
                } else {
                    base * 0.8
                }
            })
            .collect();
        let o = MemScaleGovernor::new(standard_points().to_vec(), 0.10)?.run(&trace)?;
        Ok::<_, Error>((base, o.energy, o.slowdown))
    })
    .into_iter()
    .collect()
}

/// Runs the MemScale governor over bursty traces at five utilization
/// levels; the caption adds the energy saved per level and the static
/// operating points the governor picks from.
pub fn report(quick: bool, ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let data = sweep(quick, ctx)?;
    let best_saving = data.iter().fold(0.0f64, |a, &(_, e, _)| a.max(1.0 - e));
    let mut saved = Table::new(&["avg utilization", "energy saved"]);
    let mut rep = ExperimentReport::new("exp21_memscale", quick)
        .metric("best_energy_saving", best_saving)
        .columns(&["avg_utilization", "memory_energy_vs_full", "slowdown"]);
    for (util, energy, slowdown) in &data {
        saved.row(&[pct(*util), pct(1.0 - energy)]);
        rep = rep.row(&[
            format!("{util:.2}"),
            format!("{energy:.3}"),
            format!("{slowdown:.3}"),
        ]);
    }
    let mut points = Table::new(&["operating point", "speed", "power", "slowdown @ 20% util"]);
    for p in standard_points() {
        let o = epoch_outcome(0.2, p)?;
        points.row(&[
            format!("{:.0}% clock", p.speed * 100.0),
            format!("{:.2}", p.speed),
            format!("{:.2}", p.power),
            format!("{:.3}", o.slowdown),
        ]);
    }
    Ok(rep.caption(format!(
        "E21: memory DVFS (MemScale) with a 10% slowdown budget\n\
         (paper shape: tens-of-percent memory energy savings at low utilization,\n\
         shrinking to zero as the channel fills)\n{saved}\n\n{points}\n"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_shrink_with_utilization() {
        let s = sweep(true, &RunCtx::default()).unwrap();
        for w in s.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "energy must not drop as utilization rises: {w:?}"
            );
        }
        assert!(s[0].1 < 0.5, "idle epochs save >50%: {}", s[0].1);
        let busy = s.last().expect("non-empty").1;
        assert!(
            busy > 0.95,
            "a saturated channel cannot scale down: energy {busy:.2}"
        );
    }

    #[test]
    fn slowdown_budget_is_respected_everywhere() {
        for (u, _, slowdown) in sweep(true, &RunCtx::default()).unwrap() {
            assert!(
                slowdown <= 1.10 + 1e-9,
                "budget violated at {u}: {slowdown}"
            );
        }
    }

    #[test]
    fn report_renders() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        assert!(s.contains("energy saved"));
        assert!(s.contains("operating point"));
    }
}
