//! **E10 — RowHammer across device generations, and mitigation.**
//!
//! Paper claim (§IV, bottom-up push): RowHammer is the flagship scaling
//! problem demanding intelligent controllers. The revisit study (Kim+,
//! ISCA 2020) shows `HC_first` collapsing from ≈139k (2013 DDR3) to
//! ≈4.8k (2020 LPDDR4); PARA and counter-based TRR suppress the flips.

use ia_core::Table;
use ia_reliability::{
    double_sided_pattern, run_attack, CounterTrr, DeviceGeneration, Para, RowHammerModel,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// One independent attack configuration.
#[derive(Debug, Clone, Copy)]
enum Attack {
    /// No mitigation, on this generation.
    Unmitigated(DeviceGeneration),
    /// PARA (p = 0.01) on the newest generation.
    Para,
    /// Counter-based TRR on the newest generation.
    Trr,
}

/// Runs the double-sided attack unmitigated on every device
/// generation, then under PARA and counter-TRR on the newest. Every
/// attack owns a seeded RNG derived from the base seed and its task
/// index, so the five configurations are independent and fan out on the
/// worker pool with results identical at any `--threads` setting.
pub fn report(quick: bool, ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let hammers = if quick { 300_000 } else { 2_000_000 };
    let rows = 1 << 14;
    let victim = 5000;
    let pattern = double_sided_pattern(victim, hammers);
    let newest = DeviceGeneration::Lpddr4Y2020;
    let generations = DeviceGeneration::all();

    let mut tasks: Vec<Attack> = generations.into_iter().map(Attack::Unmitigated).collect();
    tasks.push(Attack::Para);
    tasks.push(Attack::Trr);
    let flips = ctx.par_map_indexed(tasks, |i, attack| {
        let mut rng = SmallRng::seed_from_u64(53 + i as u64);
        match attack {
            Attack::Unmitigated(g) => {
                let mut m = RowHammerModel::new(g, rows);
                run_attack(&mut m, None, pattern.clone(), &mut rng).0
            }
            Attack::Para => {
                let mut m = RowHammerModel::new(newest, rows);
                let mut para = Para::with_probability(0.01);
                run_attack(&mut m, Some(&mut para), pattern.clone(), &mut rng).0
            }
            Attack::Trr => {
                let mut m = RowHammerModel::new(newest, rows);
                let mut trr = CounterTrr::new(32, newest.hc_first() / 2);
                run_attack(&mut m, Some(&mut trr), pattern.clone(), &mut rng).0
            }
        }
    });
    let (unmitigated, mitigated) = flips.split_at(generations.len());
    let (para_flips, trr_flips) = (mitigated[0], mitigated[1]);

    let mut rep = ExperimentReport::new("exp10_rowhammer", quick)
        .columns(&["generation", "unmitigated_flips"]);
    let mut gen_table = Table::new(&["device generation", "HC_first"]);
    for (g, flips) in generations.iter().zip(unmitigated) {
        gen_table.row(&[g.label().to_owned(), g.hc_first().to_string()]);
        rep = rep.row(&[format!("{g:?}"), flips.to_string()]);
    }
    let newest_flips = unmitigated.last().copied().unwrap_or(0);
    let suppression = |f: u64| {
        if f == 0 {
            "complete".to_owned()
        } else {
            format!("{:.0}x", newest_flips as f64 / f as f64)
        }
    };
    let mut mit_table = Table::new(&["mitigation (LPDDR4-2020)", "flips", "suppression"]);
    mit_table.row(&["none".to_owned(), newest_flips.to_string(), "1x".to_owned()]);
    mit_table.row(&[
        "PARA (p=0.01)".to_owned(),
        para_flips.to_string(),
        suppression(para_flips),
    ]);
    mit_table.row(&[
        "Counter-TRR".to_owned(),
        trr_flips.to_string(),
        suppression(trr_flips),
    ]);
    let worst = unmitigated.iter().copied().max().unwrap_or(0);
    Ok(rep
        .metric("worst_unmitigated_flips", worst as f64)
        .metric("para_flips", para_flips as f64)
        .metric("trr_flips", trr_flips as f64)
        .caption(format!(
            "E10: RowHammer, {hammers} double-sided activations in one refresh window\n\
             (paper shape: flips explode as HC_first drops 139k→4.8k; mitigations suppress them)\n\
             {gen_table}\n\n{mit_table}\n"
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flips(rep: &ExperimentReport) -> Vec<u64> {
        rep.rows.iter().map(|r| r[1].parse().unwrap()).collect()
    }

    #[test]
    fn newer_devices_flip_more() {
        let flips = flips(&report(true, &RunCtx::default()).unwrap());
        assert!(
            flips[2] > flips[1],
            "2020 device must flip more than 2017: {flips:?}"
        );
        assert!(
            flips[1] > flips[0],
            "2017 device must flip more than 2013: {flips:?}"
        );
    }

    #[test]
    fn mitigations_suppress_flips() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let unmitigated = flips(&rep).last().copied().unwrap_or(0);
        let para = rep.metric_value("para_flips").unwrap();
        assert!(unmitigated > 0);
        assert!(
            para < (unmitigated / 5) as f64,
            "PARA: {para} vs {unmitigated}"
        );
        assert_eq!(
            rep.metric_value("trr_flips"),
            Some(0.0),
            "counter-TRR below HC_first must stop the attack"
        );
    }

    #[test]
    fn report_renders_generations() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        assert!(s.contains("DDR3 (2013)"));
        assert!(s.contains("PARA"));
    }
}
