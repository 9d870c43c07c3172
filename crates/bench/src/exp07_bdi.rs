//! **E7 — Base-Delta-Immediate compression.**
//!
//! Paper claim (§III, data-aware): "if we knew the relative
//! compressibility of different types of data … components could
//! adaptively scale their capability". BDI (Pekhimenko+, PACT 2012)
//! achieves ≈1.5x average compression and a corresponding effective-cache
//! enlargement on real data patterns.

use ia_cache::{bdi_compress, CompressedCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

fn pattern_block(kind: &str, rng: &mut SmallRng) -> [u8; 64] {
    let mut b = [0u8; 64];
    match kind {
        "zeros" => {}
        "repeated" => {
            let v: u64 = 0x0102_0304_0506_0708;
            for i in 0..8 {
                b[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
        }
        "narrow-ints" => {
            for i in 0..16 {
                let v: u32 = rng.gen_range(0..100);
                b[i * 4..][..4].copy_from_slice(&v.to_le_bytes());
            }
        }
        "pointers" => {
            let base: u64 = 0x7F3A_0000_0000 + u64::from(rng.gen::<u16>()) * 4096;
            for i in 0..8 {
                let v = base + rng.gen_range(0..4096u64);
                b[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => rng.fill(&mut b[..]),
    }
    b
}

/// Mean compression ratio per pattern over `blocks` samples.
fn pattern_ratio(kind: &str, blocks: usize, rng: &mut SmallRng) -> Result<f64, Error> {
    let mut total = 0usize;
    for _ in 0..blocks {
        total += bdi_compress(&pattern_block(kind, rng))?.bytes;
    }
    Ok((blocks * 64) as f64 / total as f64)
}

/// Compresses each data pattern with BDI, then replays a pointer-heavy
/// working set 2x the capacity of a compressed and a plain cache of
/// equal bytes; the headline is the mean ratio and the hit-rate gain.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let blocks = if quick { 50 } else { 1000 };
    let mut rng = SmallRng::seed_from_u64(31);
    let mut rep = ExperimentReport::new("exp07_bdi", quick)
        .columns(&["data pattern", "BDI compression ratio"]);
    let kinds = ["zeros", "repeated", "narrow-ints", "pointers", "random"];
    let mut ratios = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let r = pattern_ratio(kind, blocks, &mut rng)?;
        rep = rep.row(&[kind.to_owned(), format!("{r:.2}x")]);
        ratios.push(r);
    }
    let mean_ratio = ratios.iter().sum::<f64>() / kinds.len() as f64;

    let mut rng2 = SmallRng::seed_from_u64(32);
    let lines: Vec<u64> = (0..256u64).map(|i| i * 64).collect();
    let sizes = lines
        .iter()
        .map(|_| Ok(bdi_compress(&pattern_block("pointers", &mut rng2))?.bytes))
        .collect::<Result<Vec<usize>, Error>>()?;
    let mut plain = CompressedCache::new(8192, 8, 64)?;
    let mut compressed = CompressedCache::new(8192, 8, 64)?;
    for _round in 0..4 {
        for (&a, &size) in lines.iter().zip(&sizes) {
            plain.access(a, 64);
            compressed.access(a, size);
        }
    }
    let hit_rate_gain = compressed.stats.hit_rate() - plain.stats.hit_rate();
    Ok(rep
        .metric("mean_compression_ratio", mean_ratio)
        .metric("hit_rate_gain", hit_rate_gain)
        .caption(format!(
            "E7: BDI cache compression (paper: ≈1.5x average ratio, larger effective cache)\n\
             mean ratio across patterns: {mean_ratio:.2}x | compressed-cache hit-rate gain on \
             pointer data: +{:.1} pts",
            hit_rate_gain * 100.0
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_ratio_matches_paper_band() {
        let ratio = report(true, &RunCtx::default())
            .unwrap()
            .metric_value("mean_compression_ratio")
            .unwrap();
        assert!(ratio > 1.4, "mean ratio {ratio:.2} should be ≈1.5x+");
    }

    #[test]
    fn compression_enlarges_effective_cache() {
        let gain = report(true, &RunCtx::default())
            .unwrap()
            .metric_value("hit_rate_gain")
            .unwrap();
        assert!(gain > 0.1, "hit-rate gain {gain:.3} should be substantial");
    }

    #[test]
    fn report_lists_patterns() {
        let s = report(true, &RunCtx::default()).unwrap().to_text();
        for k in ["zeros", "pointers", "random"] {
            assert!(s.contains(k));
        }
    }
}
