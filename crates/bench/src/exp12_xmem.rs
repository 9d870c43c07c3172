//! **E12 — X-Mem data-aware cache management.**
//!
//! Paper claim (§IV, Data-Aware): expressive interfaces that convey data
//! semantics (X-Mem, Vijaykumar+ ISCA 2018) let the cache protect
//! critical reused structures from streaming pollution — a benefit
//! invisible to a semantics-blind hierarchy.

use ia_cache::{Cache, CacheOp};
use ia_workloads::{Op, StreamGen, TraceGenerator, ZipfGen};
use ia_xmem::{AtomRegistry, Criticality, DataAttributes, DataAwareCache, Locality};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::pct;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

const HOT_REGION: u64 = 0;
const HOT_BYTES: u64 = 32 * 1024;
const STREAM_REGION: u64 = 1 << 24;
const STREAM_BYTES: u64 = 1 << 22;

fn workload(quick: bool) -> Result<Vec<(u64, Op)>, Error> {
    let n = if quick { 4_000 } else { 40_000 };
    let mut rng = SmallRng::seed_from_u64(71);
    let mut hot = ZipfGen::new(HOT_REGION, (HOT_BYTES / 4096) as usize, 4096, 1.0, 0.1)?;
    let mut stream = StreamGen::new(STREAM_REGION, 64, STREAM_BYTES, 0.0)?;
    // Interleave: 1 hot access per 3 stream accesses (a scan sweeping past
    // a latency-critical index structure).
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let r = if i % 4 == 0 {
            hot.next_request(&mut rng)
        } else {
            stream.next_request(&mut rng)
        };
        out.push((r.addr, r.op));
    }
    Ok(out)
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

fn retention(contains: impl Fn(u64) -> bool) -> f64 {
    let lines = HOT_BYTES / 64;
    let kept = (0..lines)
        .filter(|&l| contains(HOT_REGION + l * 64))
        .count();
    kept as f64 / lines as f64
}

/// Replays one hot-structure + streaming-scan trace through a
/// semantics-oblivious cache and an X-Mem data-aware one.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let trace = workload(quick)?;
    let to_op = |op: Op| match op {
        Op::Read => CacheOp::Read,
        Op::Write => CacheOp::Write,
    };

    let mut oblivious = Cache::new(64 * 1024, 64, 16)?;
    for &(addr, op) in &trace {
        oblivious.access(addr, to_op(op));
    }
    let reg = registry()?;
    let mut aware = DataAwareCache::new(Cache::new(64 * 1024, 64, 16)?, &reg);
    for &(addr, op) in &trace {
        aware.access(addr, to_op(op));
    }
    let oblivious_hit_rate = oblivious.stats().hit_rate();
    let aware_hit_rate = aware.cache().stats().hit_rate();
    let oblivious_retention = retention(|a| oblivious.contains(a));
    let aware_retention = retention(|a| aware.cache().contains(a));
    Ok(ExperimentReport::new("exp12_xmem", quick)
        .metric("oblivious_hit_rate", oblivious_hit_rate)
        .metric("aware_hit_rate", aware_hit_rate)
        .metric("oblivious_retention", oblivious_retention)
        .metric("aware_retention", aware_retention)
        .columns(&["cache", "LLC hit rate", "hot-set retention"])
        .row(&[
            "semantics-oblivious".to_owned(),
            pct(oblivious_hit_rate),
            pct(oblivious_retention),
        ])
        .row(&[
            "X-Mem data-aware".to_owned(),
            pct(aware_hit_rate),
            pct(aware_retention),
        ])
        .caption(
            "E12: data-aware cache management (critical hot structure vs streaming scan)\n\
             (paper shape: attribute-guided insertion protects the hot set; hit rate rises)",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_awareness_improves_hit_rate() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let aware = rep.metric_value("aware_hit_rate").unwrap();
        let oblivious = rep.metric_value("oblivious_hit_rate").unwrap();
        assert!(
            aware > oblivious,
            "aware {aware:.3} must beat oblivious {oblivious:.3}"
        );
    }

    #[test]
    fn data_awareness_protects_the_hot_set() {
        let rep = report(true, &RunCtx::default()).unwrap();
        let aware = rep.metric_value("aware_retention").unwrap();
        let oblivious = rep.metric_value("oblivious_retention").unwrap();
        assert!(
            aware > oblivious,
            "aware retention {aware:.2} must beat oblivious {oblivious:.2}"
        );
        assert!(aware > 0.5, "most of the hot set should survive");
    }

    #[test]
    fn report_renders() {
        assert!(report(true, &RunCtx::default())
            .unwrap()
            .to_text()
            .contains("X-Mem"));
    }
}
