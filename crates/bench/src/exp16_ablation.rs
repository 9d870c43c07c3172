//! **E16 — The three principles compose (full-system ablation).**
//!
//! Paper claim (§II/§IV): an intelligent architecture satisfies all three
//! principles simultaneously; each should contribute, and the composition
//! should not regress. This experiment climbs the ladder baseline →
//! +data-centric → +data-driven → +data-aware on one mixed data-intensive
//! workload.

use ia_core::{run_ablation, SystemConfig, Table};
use ia_workloads::{StreamGen, TraceGenerator, TraceRequest, ZipfGen};
use ia_xmem::{AtomRegistry, Criticality, DataAttributes, Locality};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pct;
use crate::report::{Error, ExperimentReport};

// The hot structure is 4x the experiment's 64 KiB LLC: plain LRU
// thrashes under the streaming pollution, giving the cache-policy
// principles (data-driven DIP, data-aware hints) real headroom, and the
// Zipf-scattered misses span many DRAM rows, giving AL-DRAM activations
// to accelerate. A hot set that fits in the LLC makes every rung tie at
// the baseline (all misses compulsory + sequential), which is what this
// experiment originally mismeasured.
const HOT_REGION: u64 = 0;
const HOT_BYTES: u64 = 256 * 1024;
const STREAM_REGION: u64 = 1 << 26;
const STREAM_BYTES: u64 = 1 << 22;

fn workload(quick: bool) -> Result<Vec<TraceRequest>, Error> {
    let n = if quick { 6_000 } else { 30_000 };
    let mut rng = SmallRng::seed_from_u64(97);
    let mut hot = ZipfGen::new(HOT_REGION, (HOT_BYTES / 4096) as usize, 4096, 1.3, 0.2)?;
    let mut stream = StreamGen::new(STREAM_REGION, 64, STREAM_BYTES, 0.1)?;
    // Two hot accesses per stream access: the reusable structure carries
    // the run, the stream pollutes it.
    Ok((0..n)
        .map(|i| {
            if i % 3 != 0 {
                hot.next_request(&mut rng)
            } else {
                stream.next_request(&mut rng).on_thread(1)
            }
        })
        .collect())
}

/// The system configuration all rungs share: a 64 KiB LLC the workload
/// actually fills and overflows, so cache policy is on the critical path.
fn config() -> SystemConfig {
    SystemConfig {
        llc_bytes: 64 * 1024,
        ..SystemConfig::default()
    }
}

fn registry() -> Result<AtomRegistry, Error> {
    let mut reg = AtomRegistry::new();
    reg.register(
        HOT_REGION..HOT_REGION + HOT_BYTES,
        DataAttributes::new()
            .criticality(Criticality::Critical)
            .locality(Locality::Reuse),
    )?;
    reg.register(
        STREAM_REGION..STREAM_REGION + STREAM_BYTES,
        DataAttributes::new().locality(Locality::Streaming),
    )?;
    Ok(reg)
}

/// Climbs the ladder baseline → +data-centric → +data-driven →
/// +data-aware on one workload; the headline is each rung's speedup.
pub fn report(quick: bool) -> Result<ExperimentReport, Error> {
    let rows = run_ablation(&config(), &registry()?, &workload(quick)?)?;
    let mut side = Table::new(&[
        "configuration",
        "cycles",
        "LLC hit rate",
        "DRAM row-hit rate",
    ]);
    let mut rep = ExperimentReport::new("exp16_ablation", quick).columns(&["rung", "speedup"]);
    let rungs = ["baseline", "+data-centric", "+data-driven", "+data-aware"];
    let metrics = [
        "baseline_speedup",
        "data_centric_speedup",
        "data_driven_speedup",
        "full_system_speedup",
    ];
    for ((r, rung), metric) in rows.iter().zip(rungs).zip(metrics) {
        side.row(&[
            r.principles.to_string(),
            r.report.cycles().to_string(),
            pct(r.report.llc_hit_rate),
            pct(r.report.memory.row_hit_rate),
        ]);
        rep = rep
            .metric(metric, r.speedup)
            .row(&[rung.to_owned(), format!("{:.3}", r.speedup)]);
    }
    Ok(rep.caption(format!(
        "E16: principle ablation on a mixed hot-structure + streaming workload\n\
         (paper shape: each principle contributes; the full system is fastest or tied)\n{side}\n"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups() -> Vec<f64> {
        let rep = report(true).unwrap();
        [
            "baseline_speedup",
            "data_centric_speedup",
            "data_driven_speedup",
            "full_system_speedup",
        ]
        .map(|k| rep.metric_value(k).unwrap())
        .to_vec()
    }

    #[test]
    fn full_system_is_fastest() {
        let s = speedups();
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0).abs() < 1e-12);
        let best = s.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(
            s[3] >= best * 0.99,
            "full system {:.3} should be at or near the best rung {best:.3}",
            s[3]
        );
        assert!(
            s[3] > 1.05,
            "full system must clearly beat the baseline: {:.3}",
            s[3]
        );
    }

    #[test]
    fn every_rung_contributes() {
        let s = speedups();
        // The workload is sized so each principle has headroom: AL-DRAM
        // accelerates the Zipf-scattered activations, DIP resists the
        // stream's pollution, and the data-aware hints protect the hot
        // structure outright. A small slack absorbs scheduler
        // interleaving shifts between rungs.
        assert!(
            s[1] > 1.0,
            "data-centric rung {:.3} must beat baseline",
            s[1]
        );
        assert!(
            s[2] >= s[1] * 0.99,
            "data-driven rung {:.3} must not undo {:.3}",
            s[2],
            s[1]
        );
        assert!(
            s[3] >= s[2],
            "data-aware rung {:.3} must not undo {:.3}",
            s[3],
            s[2]
        );
    }

    #[test]
    fn report_renders_ladder() {
        let s = report(true).unwrap().to_text();
        assert!(s.contains("processor-centric baseline"));
        assert!(s.contains("data-centric+data-driven+data-aware"));
    }
}
