//! **E2 — RowClone bulk copy/initialization.**
//!
//! Paper claim (§IV): minimally changing DRAM enables "fast and
//! energy-efficient bulk data copy and initialization" — the original
//! reports ≈11x latency and ≈74x energy reduction for in-subarray copy.

use ia_dram::{DramConfig, DramModule, PhysAddr};
use ia_pum::{bulk_copy, CopyMode, CopyReport};

use crate::ratio;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Copies `bytes` from row 0 with `mode` on a fresh DDR3-1600 module:
/// to the next row of the same subarray (FPM, CPU), a different bank
/// (PSM), or 8 subarrays away (LISA).
fn copy(mode: CopyMode, bytes: u64) -> Result<CopyReport, Error> {
    let mut d = DramModule::new(DramConfig::ddr3_1600())?;
    let g = d.config().geometry;
    // Same-bank consecutive-row byte stride under the default mapping.
    let stride = g.row_bytes * (g.banks_per_group * g.bank_groups * g.ranks * g.channels) as u64;
    let dst = match mode {
        CopyMode::Psm => 8192,
        CopyMode::Lisa => 8 * 512 * stride,
        _ => stride,
    };
    Ok(bulk_copy(
        &mut d,
        PhysAddr::new(0),
        PhysAddr::new(dst),
        bytes,
        mode,
    )?)
}

/// Runs every copy mechanism over a size sweep; the headline ratios are
/// the 1 MiB row (64 KiB in quick mode).
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let sizes: &[u64] = if quick {
        &[4 << 10, 64 << 10]
    } else {
        &[4 << 10, 64 << 10, 1 << 20, 16 << 20]
    };
    let headline_bytes = if quick { 64 << 10 } else { 1 << 20 };
    let mut rep = ExperimentReport::new("exp02_rowclone", quick).columns(&[
        "size",
        "CPU (us, nJ)",
        "FPM (us, nJ)",
        "LISA (us, nJ)",
        "PSM (us, nJ)",
        "FPM speedup",
        "FPM energy gain",
    ]);
    let mut headline = None;
    for &bytes in sizes {
        let cpu = copy(CopyMode::Cpu, bytes)?;
        let fpm = copy(CopyMode::Fpm, bytes)?;
        let lisa = copy(CopyMode::Lisa, bytes)?;
        let psm = copy(CopyMode::Psm, bytes)?;
        let cell = |r: &CopyReport| format!("{:.2}, {:.0}", r.ns / 1000.0, r.energy_pj / 1000.0);
        rep = rep.row(&[
            format!("{} KiB", bytes >> 10),
            cell(&cpu),
            cell(&fpm),
            cell(&lisa),
            cell(&psm),
            ratio(cpu.ns, fpm.ns),
            ratio(cpu.energy_pj, fpm.energy_pj),
        ]);
        if bytes == headline_bytes {
            headline = Some((
                cpu.ns / fpm.ns,
                cpu.energy_pj / fpm.energy_pj,
                cpu.ns / psm.ns,
            ));
        }
    }
    let (fpm_speedup, fpm_energy_gain, psm_speedup) =
        headline.ok_or("headline size missing from the sweep")?;
    Ok(rep
        .metric("fpm_speedup", fpm_speedup)
        .metric("fpm_energy_gain", fpm_energy_gain)
        .metric("psm_speedup", psm_speedup)
        .caption(format!(
            "E2: RowClone bulk copy (paper: ~11x latency, ~74x energy vs CPU copy)\n\
             headline: FPM {fpm_speedup:.1}x faster, {fpm_energy_gain:.0}x less energy; \
             PSM {psm_speedup:.1}x faster"
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpm_reproduces_paper_shape() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let m = |k| rep.metric_value(k).unwrap();
        assert!(
            m("fpm_speedup") > 8.0,
            "FPM speedup {:.1} should be ~11x",
            m("fpm_speedup")
        );
        assert!(
            m("fpm_energy_gain") > 30.0,
            "FPM energy gain {:.0} should be tens of x",
            m("fpm_energy_gain")
        );
        assert!(m("psm_speedup") > 1.0 && m("psm_speedup") < m("fpm_speedup"));
    }

    #[test]
    fn table_contains_all_modes() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        for m in ["CPU", "FPM", "LISA", "PSM"] {
            assert!(s.contains(m));
        }
    }
}
