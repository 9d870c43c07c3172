//! **E20 — EDEN: approximate DRAM for DNN inference.**
//!
//! Paper citation \[54\] (Koppula+, MICRO 2019), the data-aware exemplar
//! for approximability: DNN data tolerates bit errors, so its DRAM can be
//! refreshed far less often. Expected shape: refresh savings grow with
//! the interval while accuracy stays flat below a robustness knee, then
//! collapses; per-layer interval selection stays within an accuracy
//! budget.

use ia_reliability::{
    dnn_accuracy_loss, select_multiplier, sweep_refresh_multipliers, RetentionModel,
};

use crate::report::{Error, ExperimentReport};

/// One sweep row: `(multiplier, savings, row error rate, robust-layer
/// loss, sensitive-layer loss)`.
type Point = (u32, f64, f64, f64, f64);

/// The refresh-interval sweep.
fn sweep() -> Result<Vec<Point>, Error> {
    let model = RetentionModel::typical();
    // Each refresh-interval point is an independent evaluation of the
    // retention model; fan the grid out on the worker pool.
    ia_par::par_map(
        ia_par::auto_threads(),
        vec![1u32, 2, 4, 8, 16, 32],
        |multiplier| {
            let p = sweep_refresh_multipliers(&model, &[multiplier])
                .pop()
                .ok_or("the refresh sweep returned no point")?;
            Ok::<_, Error>((
                p.multiplier,
                p.refresh_savings,
                p.row_error_rate,
                dnn_accuracy_loss(p.row_error_rate, 0.05),
                dnn_accuracy_loss(p.row_error_rate, 1e-5),
            ))
        },
    )
    .into_iter()
    .collect()
}

/// Sweeps the refresh interval of DNN data: refresh savings, row error
/// exposure and the accuracy loss of a robust and a sensitive layer,
/// plus the interval each layer picks under a 1% accuracy budget.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let data = sweep()?;
    let max_savings = data.iter().fold(0.0f64, |a, &(_, s, ..)| a.max(s));
    let model = RetentionModel::typical();
    let robust_pick = select_multiplier(&model, 0.05, 0.01);
    let sensitive_pick = select_multiplier(&model, 1e-5, 0.01);
    let mut rep = ExperimentReport::new("exp20_eden", quick)
        .metric("max_refresh_savings", max_savings)
        .columns(&[
            "interval_multiplier",
            "refresh_savings",
            "row_error_exposure",
            "robust_accuracy_loss",
            "sensitive_accuracy_loss",
        ])
        .caption(format!(
            "E20: EDEN-style approximate DRAM for error-tolerant (DNN) data\n\
             (paper shape: large refresh savings at negligible accuracy loss below the\n\
             robustness knee; per-layer interval selection)\n\
             selected intervals at 1% accuracy budget: robust layer {robust_pick}x, \
             sensitive layer {sensitive_pick}x"
        ));
    for (m, savings, err, robust, sensitive) in &data {
        rep = rep.row(&[
            m.to_string(),
            format!("{savings:.4}"),
            format!("{err:.6}"),
            format!("{robust:.4}"),
            format!("{sensitive:.4}"),
        ]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_layers_save_most_refreshes_for_free() {
        let s = sweep().unwrap();
        let at16 = s.iter().find(|r| r.0 == 16).expect("16x present");
        assert!(at16.1 > 0.9, "16x interval saves >90% of refreshes");
        assert!(
            at16.3 < 0.02,
            "robust layer loses <2% accuracy at 16x, got {}",
            at16.3
        );
    }

    #[test]
    fn sensitive_layers_degrade_past_nominal() {
        let s = sweep().unwrap();
        let at8 = s.iter().find(|r| r.0 == 8).expect("8x present");
        assert!(
            at8.4 > at8.3,
            "sensitive layer must lose more than robust at the same interval"
        );
    }

    #[test]
    fn selection_separates_the_layers() {
        let model = RetentionModel::typical();
        assert!(select_multiplier(&model, 0.05, 0.01) >= 8);
        assert!(select_multiplier(&model, 1e-5, 0.01) <= 2);
    }

    #[test]
    fn report_renders() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("refresh savings"));
        assert!(s.contains("selected intervals"));
    }
}
