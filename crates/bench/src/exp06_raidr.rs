//! **E6 — RAIDR retention-aware refresh.**
//!
//! Paper claim (§IV, bottom-up push): intelligent controllers must solve
//! "data retention" economically; RAIDR (Liu+, ISCA 2012) removes ≈74.6%
//! of refreshes with a few kilobits of Bloom-filter state, and the win
//! grows with device density.

use ia_reliability::{Raidr, RetentionModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pct;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Profiles each device density with its own `SmallRng(23)` and bins
/// the rows RAIDR-style; the headline is the largest density's row.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let densities: &[(u64, &str)] = if quick {
        &[(32 * 1024, "4Gb-class"), (64 * 1024, "8Gb-class")]
    } else {
        &[
            (32 * 1024, "4Gb-class"),
            (64 * 1024, "8Gb-class"),
            (256 * 1024, "32Gb-class"),
            (1024 * 1024, "64Gb-class"),
        ]
    };
    let mut rep = ExperimentReport::new("exp06_raidr", quick).columns(&[
        "device (rows/bank)",
        "weak <64ms",
        "weak <128ms",
        "refresh reduction",
        "controller storage",
    ]);
    let mut headline = None;
    for &(rows, label) in densities {
        let mut rng = SmallRng::seed_from_u64(23);
        let profile = RetentionModel::typical().profile(rows, &mut rng);
        let raidr = Raidr::from_profile(&profile)?;
        let (reduction, storage_bits) = (raidr.reduction_over(8), raidr.storage_bits());
        rep = rep.row(&[
            format!("{label} ({rows})"),
            profile.weak64.len().to_string(),
            profile.weak128.len().to_string(),
            pct(reduction),
            format!("{:.1} Kib", storage_bits as f64 / 1024.0),
        ]);
        headline = Some((reduction, storage_bits));
    }
    let (reduction, storage_bits) = headline.ok_or("no device density swept")?;
    Ok(rep
        .metric("refresh_reduction", reduction)
        .metric("storage_bits", storage_bits as f64)
        .caption(format!(
            "E6: RAIDR retention-aware refresh (paper: ≈74.6% refresh reduction, kilobits of state)\n\
             headline: {} reduction with {:.1} Kib of Bloom filters",
            pct(reduction),
            storage_bits as f64 / 1024.0
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_approaches_three_quarters() {
        let reduction = report(true, &RunCtx::default())
            .unwrap()
            .metric_value("refresh_reduction")
            .unwrap();
        assert!(
            (0.70..0.76).contains(&reduction),
            "reduction {reduction:.3} should bracket 74.6%"
        );
    }

    #[test]
    fn storage_stays_in_kilobits() {
        let bits = report(true, &RunCtx::default())
            .unwrap()
            .metric_value("storage_bits")
            .unwrap();
        assert!(
            bits < f64::from(1 << 20),
            "storage {bits} bits should be small"
        );
    }

    #[test]
    fn report_renders_densities() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let s = rep.to_text();
        assert!(s.contains("4Gb-class"));
        assert!(s.contains("refresh reduction"));
        // The headline metric is the largest density's table row.
        let last = rep.rows.last().unwrap();
        assert_eq!(last[3], pct(rep.metric_value("refresh_reduction").unwrap()));
    }
}
