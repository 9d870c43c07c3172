//! **E14 — Hybrid DRAM+PCM main memory.**
//!
//! Paper claim (§IV, Data-Centric): intelligent architectures enable
//! "low-cost data storage … via new memory technologies \[and\] hybrid
//! memory systems". Row-buffer-locality-aware placement (Yoon+, ICCD
//! 2012) recovers most of all-DRAM performance with a small DRAM tier in
//! front of large PCM, beating the conventional LRU DRAM cache by caching
//! only the pages that actually suffer on PCM.

use ia_memctrl::{HybridMemory, HybridTiming, PlacementPolicy};
use ia_workloads::{TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pct;
use crate::report::{Error, ExperimentReport};

fn run_policy(
    policy: PlacementPolicy,
    dram_pages: usize,
    quick: bool,
) -> Result<HybridMemory, Error> {
    let n = if quick { 8_000 } else { 80_000 };
    let mut rng = SmallRng::seed_from_u64(83);
    // Zipf over 4096 pages: a hot head plus a long tail of sequential,
    // row-hit-friendly pages.
    let mut gen = ZipfGen::new(0, 4096, 4096, 1.2, 0.3)?;
    // Page migration rides the in-package bus: ~4 KiB at burst rate.
    let timing = HybridTiming {
        migration: 300,
        ..HybridTiming::default()
    };
    let mut mem = HybridMemory::new(dram_pages, 4096, timing, policy)?;
    for r in gen.generate(n, &mut rng) {
        mem.access(r.addr, matches!(r.op, ia_workloads::Op::Write));
    }
    Ok(mem)
}

/// Replays one Zipf trace on all-PCM, on hybrids with a 1/16 DRAM tier
/// under LRU caching and RBLA placement, and on all-DRAM.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let dram_pages = 256;
    // "All-PCM": a 1-page DRAM tier with promotion disabled.
    let all_pcm = run_policy(
        PlacementPolicy::Rbla {
            miss_threshold: u32::MAX,
        },
        1,
        quick,
    )?;
    let lru = run_policy(PlacementPolicy::Lru, dram_pages, quick)?;
    let rbla = run_policy(
        PlacementPolicy::Rbla { miss_threshold: 2 },
        dram_pages,
        quick,
    )?;
    let all_dram = run_policy(PlacementPolicy::Lru, 4096, quick)?;
    let mut rep = ExperimentReport::new("exp14_hybrid_memory", quick)
        .metric("all_pcm_avg_cost", all_pcm.avg_cost())
        .metric("lru_avg_cost", lru.avg_cost())
        .metric("rbla_avg_cost", rbla.avg_cost())
        .metric("lru_migrations", lru.migrations as f64)
        .metric("rbla_migrations", rbla.migrations as f64)
        .columns(&[
            "configuration",
            "avg access cost (cy)",
            "DRAM serve rate",
            "migrations",
        ])
        .caption(
            "E14: hybrid DRAM+PCM memory, zipf working set over 16 MiB, DRAM tier 1 MiB\n\
             (paper shape: hybrid recovers most of all-DRAM performance; RBLA needs fewer \
             migrations)",
        );
    for (name, m) in [
        ("all-PCM (no DRAM tier)", &all_pcm),
        ("hybrid, LRU DRAM cache (1/16)", &lru),
        ("hybrid, RBLA placement (1/16)", &rbla),
        ("all-DRAM (upper bound)", &all_dram),
    ] {
        rep = rep.row(&[
            name.to_owned(),
            format!("{:.1}", m.avg_cost()),
            pct(m.dram_serve_rate()),
            m.migrations.to_string(),
        ]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_beats_all_pcm() {
        let rep = report(true).unwrap();
        let m = |k| rep.metric_value(k).unwrap();
        assert!(
            m("lru_avg_cost") < m("all_pcm_avg_cost"),
            "LRU hybrid {:.1} must beat all-PCM {:.1}",
            m("lru_avg_cost"),
            m("all_pcm_avg_cost")
        );
        assert!(m("rbla_avg_cost") < m("all_pcm_avg_cost"));
    }

    #[test]
    fn rbla_migrates_less_than_lru() {
        let rep = report(true).unwrap();
        let m = |k| rep.metric_value(k).unwrap();
        assert!(
            m("rbla_migrations") < m("lru_migrations"),
            "RBLA migrations {} should be below LRU {}",
            m("rbla_migrations"),
            m("lru_migrations")
        );
    }

    #[test]
    fn report_renders_configurations() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("all-PCM"));
        assert!(s.contains("RBLA"));
    }
}
