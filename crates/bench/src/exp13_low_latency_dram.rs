//! **E13 — Low-latency DRAM operating modes.**
//!
//! Paper claim (§IV, Data-Centric): an intelligent architecture "provides
//! low-latency and low-energy access to data" — exemplified by AL-DRAM
//! (common-case timing margins, Lee+ HPCA 2015) and ChargeCache
//! (recently-closed rows are highly charged, Hassan+ HPCA 2016).

use ia_dram::{DramConfig, LatencyMode};
use ia_memctrl::{run_closed_loop_with, FrFcfs, MemoryController, RunReport};
use ia_sim::SnapshotState;

use crate::mixes::interference_mix;
use crate::ratio;
use crate::report::{Error, ExperimentReport};

/// Runs one interference mix under standard timing, AL-DRAM,
/// ChargeCache and TL-DRAM. Every mode forks one warm controller:
/// `with_latency_mode` applies to future commands only, so a fork with a
/// mode swapped in is bit-identical to a cold-built controller with that
/// mode.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let n = if quick { 400 } else { 4000 };
    let warm = MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))?;
    let traces = interference_mix(n, 77)?;
    let run_mode = |mode: Option<LatencyMode>| -> Result<RunReport, Error> {
        let mut ctrl = warm.fork();
        if let Some(mode) = mode {
            ctrl = ctrl.with_latency_mode(mode);
        }
        Ok(run_closed_loop_with(ctrl, &traces, 8, 500_000_000)?)
    };
    let std_r = run_mode(None)?;
    let al_r = run_mode(Some(LatencyMode::AlDram { scale: 0.7 }))?;
    let cc_r = run_mode(Some(LatencyMode::ChargeCache {
        entries_per_bank: 16,
        window: 200_000,
        scale: 0.65,
    }))?;
    let tl_r = run_mode(Some(LatencyMode::TieredLatency {
        near_fraction: 0.25,
        near_scale: 0.6,
        far_scale: 1.1,
    }))?;

    let mut rep = ExperimentReport::new("exp13_low_latency_dram", quick)
        .metric("standard_latency", std_r.stats.avg_latency())
        .metric("aldram_latency", al_r.stats.avg_latency())
        .metric("chargecache_latency", cc_r.stats.avg_latency())
        .metric("chargecache_hit_rate", cc_r.charge_cache_hit_rate)
        .columns(&["DRAM mode", "avg latency (cy)", "req/kcycle", "speedup"])
        .caption(
            "E13: reduced-latency DRAM (paper shape: AL-DRAM and ChargeCache cut average latency,\n\
             improving throughput, with ChargeCache gated by reopened-row locality)",
        );
    let base_tp = std_r.throughput_rpkc();
    for (name, r) in [
        ("standard timing", &std_r),
        ("AL-DRAM (0.7x tRCD/tRAS/tRP)", &al_r),
        ("ChargeCache (0.65x on hit)", &cc_r),
        ("TL-DRAM (near 25% @0.6x, far @1.1x)", &tl_r),
    ] {
        rep = rep.row(&[
            name.to_owned(),
            format!("{:.1}", r.stats.avg_latency()),
            format!("{:.2}", r.throughput_rpkc()),
            ratio(r.throughput_rpkc(), base_tp),
        ]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(rep: &ExperimentReport, name: &str) -> f64 {
        rep.metric_value(name).unwrap()
    }

    #[test]
    fn aldram_reduces_latency() {
        let rep = report(true).unwrap();
        let (al, std) = (
            metric(&rep, "aldram_latency"),
            metric(&rep, "standard_latency"),
        );
        assert!(al < std, "AL-DRAM {al:.1} must beat standard {std:.1}");
    }

    #[test]
    fn chargecache_is_no_worse_than_standard() {
        let rep = report(true).unwrap();
        let (cc, std) = (
            metric(&rep, "chargecache_latency"),
            metric(&rep, "standard_latency"),
        );
        assert!(cc <= std * 1.01, "ChargeCache {cc:.1} vs standard {std:.1}");
    }

    #[test]
    fn chargecache_hit_rate_is_a_real_fraction() {
        let hit_rate = metric(&report(true).unwrap(), "chargecache_hit_rate");
        assert!(hit_rate.is_finite(), "hit rate must be measured, not NaN");
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "hit rate {hit_rate} outside [0, 1]"
        );
        assert!(
            hit_rate > 0.0,
            "the interference mix reopens rows inside the window; some hits must occur"
        );
    }

    #[test]
    fn report_renders_modes() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("AL-DRAM"));
        assert!(s.contains("ChargeCache"));
        assert!(s.contains("TL-DRAM"));
    }
}
