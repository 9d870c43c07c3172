//! **E15 — Perceptron prediction vs. counter tables.**
//!
//! Paper claim (§IV, Data-Driven): perceptron-based prediction (Jiménez &
//! Lin, HPCA 2001) is a canonical data-driven controller — it exploits
//! long histories that saturating-counter tables cannot, winning on
//! history-correlated behaviour.

use ia_learn::PerceptronPredictor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{Error, ExperimentReport};
use crate::RunCtx;

/// A classic bimodal (2-bit saturating counter) predictor baseline.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    counters: Vec<i8>,
}

impl BimodalPredictor {
    /// Creates a table of `entries` 2-bit counters.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        BimodalPredictor {
            counters: vec![0; entries.max(1)],
        }
    }

    fn index(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % self.counters.len()
    }

    /// Predicts the outcome for `key`.
    #[must_use]
    pub fn predict(&self, key: u64) -> bool {
        self.counters[self.index(key)] >= 0
    }

    /// Trains on the actual outcome.
    pub fn update(&mut self, key: u64, actual: bool) {
        let idx = self.index(key);
        let c = &mut self.counters[idx];
        *c = (*c + if actual { 1 } else { -1 }).clamp(-2, 1);
    }
}

/// Branch-stream generators with different predictability structure.
fn streams(quick: bool) -> Vec<(&'static str, Vec<bool>)> {
    let n = if quick { 4_000 } else { 40_000 };
    let mut rng = SmallRng::seed_from_u64(91);
    let biased: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.9)).collect();
    let pattern: Vec<bool> = (0..n)
        .map(|i| [true, true, false, true, false][i % 5])
        .collect();
    // History-correlated: taken iff exactly one of the last two was taken.
    let mut corr = Vec::with_capacity(n);
    let (mut h1, mut h2) = (false, true);
    for _ in 0..n {
        let t = h1 ^ h2;
        corr.push(t);
        h2 = h1;
        h1 = t;
    }
    let random: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    vec![
        ("biased (90% taken)", biased),
        ("short pattern (TTNTN)", pattern),
        ("history-correlated (XOR)", corr),
        ("random", random),
    ]
}

fn accuracy_of(stream: &[bool], mut predict: impl FnMut(bool) -> bool) -> f64 {
    let warmup = stream.len() / 4;
    let mut correct = 0usize;
    for (i, &actual) in stream.iter().enumerate() {
        let hit = predict(actual);
        if i >= warmup && hit {
            correct += 1;
        }
    }
    correct as f64 / (stream.len() - warmup) as f64
}

/// Per-stream accuracies `(name, bimodal, perceptron)`.
fn rows(quick: bool) -> Result<Vec<(String, f64, f64)>, Error> {
    streams(quick)
        .into_iter()
        .map(|(name, stream)| {
            let mut bim = BimodalPredictor::new(1024);
            let bim_acc = accuracy_of(&stream, |actual| {
                let p = bim.predict(7);
                bim.update(7, actual);
                p == actual
            });
            let mut per = PerceptronPredictor::new(1024, 16)?;
            let per_acc = accuracy_of(&stream, |actual| {
                let p = per.predict(7);
                per.update(7, actual);
                p == actual
            });
            Ok((name.to_owned(), bim_acc, per_acc))
        })
        .collect()
}

/// Runs a bimodal and a perceptron predictor over four branch streams
/// of different predictability.
pub fn report(quick: bool, _ctx: &RunCtx) -> Result<ExperimentReport, Error> {
    let data = rows(quick)?;
    let n = data.len().max(1) as f64;
    let mean_bim = data.iter().map(|(_, b, _)| b).sum::<f64>() / n;
    let mean_per = data.iter().map(|(_, _, p)| p).sum::<f64>() / n;
    let mut rep = ExperimentReport::new("exp15_perceptron", quick)
        .metric("mean_bimodal_accuracy", mean_bim)
        .metric("mean_perceptron_accuracy", mean_per)
        .columns(&["branch_stream", "bimodal_accuracy", "perceptron_accuracy"])
        .caption(
            "E15: perceptron vs counter-table prediction\n\
             (paper shape: perceptrons win on history-correlated streams, tie elsewhere)",
        );
    for (name, bim, per) in &data {
        rep = rep.row(&[name.clone(), format!("{bim:.4}"), format!("{per:.4}")]);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perceptron_wins_on_history_correlation() {
        let rows = rows(true).unwrap();
        let (_, bim, per) = rows
            .iter()
            .find(|(n, _, _)| n.contains("XOR"))
            .expect("correlated stream present")
            .clone();
        assert!(
            per > 0.95,
            "perceptron should nail the XOR pattern, got {per:.3}"
        );
        assert!(
            per > bim + 0.2,
            "perceptron {per:.3} must clearly beat bimodal {bim:.3}"
        );
    }

    #[test]
    fn both_handle_biased_branches() {
        let rows = rows(true).unwrap();
        let (_, bim, per) = rows
            .iter()
            .find(|(n, _, _)| n.contains("biased"))
            .expect("present")
            .clone();
        assert!(bim > 0.8);
        assert!(per > 0.8);
    }

    #[test]
    fn nobody_predicts_randomness() {
        let rows = rows(true).unwrap();
        let (_, bim, per) = rows
            .iter()
            .find(|(n, _, _)| n.contains("random"))
            .expect("present")
            .clone();
        assert!((0.4..0.6).contains(&bim));
        assert!((0.4..0.6).contains(&per));
    }

    #[test]
    fn report_renders() {
        assert!(report(true, &RunCtx::default())
            .unwrap()
            .to_text()
            .contains("perceptron"));
    }
}
