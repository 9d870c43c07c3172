//! **E9 — Pointer chasing in 3D-stacked memory.**
//!
//! Paper claim (§IV): PNM accelerates "pointer-chasing-intensive
//! workloads" (Hsieh+, ICCD 2016) — dependent loads collapse to the
//! internal latency, and vault-parallel walkers scale past the host's
//! outstanding-miss limit.

use ia_pnm::{concurrent_traversals, traverse_host, traverse_pnm, LinkedChain, StackConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::ratio;
use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// Walks one 64Ki-node chain with 1, 4, 16 and 64 concurrent streams
/// on the host and in memory; the headline is the 1- and 64-stream
/// speedups.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let hops = if quick { 2_000 } else { 100_000 };
    let stack = StackConfig::hmc_like();
    let mut rng = SmallRng::seed_from_u64(43);
    let chain = LinkedChain::random_cycle(64 * 1024, &mut rng)?;
    let mut rep = ExperimentReport::new("exp09_pointer_chase", quick).columns(&[
        "streams",
        "host (us)",
        "in-memory (us)",
        "speedup",
    ]);
    let mut single_stream_speedup = f64::NAN;
    let mut multi_stream_speedup = f64::NAN;
    for streams in [1u64, 4, 16, 64] {
        let (h, p) = if streams == 1 {
            let h = traverse_host(&chain, &stack, 0, hops);
            let p = traverse_pnm(&chain, &stack, 0, hops);
            if h.end != p.end {
                return Err("host and in-memory walkers reached different nodes".into());
            }
            (h.ns, p.ns)
        } else {
            concurrent_traversals(&stack, streams, hops)
        };
        match streams {
            1 => single_stream_speedup = h / p,
            64 => multi_stream_speedup = h / p,
            _ => {}
        }
        rep = rep.row(&[
            streams.to_string(),
            format!("{:.1}", h / 1000.0),
            format!("{:.1}", p / 1000.0),
            ratio(h, p),
        ]);
    }
    Ok(rep
        .metric("single_stream_speedup", single_stream_speedup)
        .metric("multi_stream_speedup", multi_stream_speedup)
        .caption(format!(
            "E9: pointer chasing, {hops} dependent hops over a 64Ki-node chain\n\
             (paper shape: speedup ≈ external/internal latency ratio, growing with concurrent \
             walkers)\n\
             headline: {single_stream_speedup:.1}x single-stream, \
             {multi_stream_speedup:.1}x at 64 streams"
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups() -> (f64, f64) {
        let rep = report(true, &RunCtx::default()).unwrap();
        (
            rep.metric_value("single_stream_speedup").unwrap(),
            rep.metric_value("multi_stream_speedup").unwrap(),
        )
    }

    #[test]
    fn single_stream_tracks_latency_ratio() {
        let (single, _) = speedups();
        let stack = StackConfig::hmc_like();
        let bound = stack.external_latency_ns / stack.internal_latency_ns;
        assert!(
            single > bound * 0.8 && single <= bound * 1.05,
            "speedup {single:.2} should approach the latency ratio {bound:.2}"
        );
    }

    #[test]
    fn walker_parallelism_multiplies_the_gain() {
        let (single, multi) = speedups();
        assert!(multi > single);
    }

    #[test]
    fn report_renders() {
        assert!(report(true, &RunCtx::default())
            .unwrap()
            .to_text()
            .contains("streams"));
    }
}
