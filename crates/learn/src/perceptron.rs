//! Perceptron-based prediction (Jiménez & Lin, HPCA 2001), the paper's
//! exemplar of data-driven microarchitectural decision making, reusable
//! for branch direction, reuse, and prefetch-filter prediction.

use crate::LearnError;

/// A single perceptron over a boolean feature vector.
///
/// Weights are small saturating integers, exactly as in the hardware
/// proposals (8-bit saturating counters).
///
/// # Examples
///
/// ```
/// use ia_learn::Perceptron;
/// let mut p = Perceptron::new(4)?;
/// // Learn "output equals feature 2".
/// for _ in 0..20 {
///     p.train(&[false, true, true, false], true);
///     p.train(&[true, false, false, true], false);
/// }
/// assert!(p.predict(&[false, false, true, false]).taken);
/// # Ok::<(), ia_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perceptron {
    weights: Vec<i32>,
    bias: i32,
}

/// Output of a perceptron prediction: direction plus confidence margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted outcome.
    pub taken: bool,
    /// The raw dot-product; |output| is the confidence.
    pub output: i32,
}

const WEIGHT_MAX: i32 = 127;
const WEIGHT_MIN: i32 = -128;

impl Perceptron {
    /// Creates a zero-weight perceptron over `inputs` boolean features.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if `inputs == 0`.
    pub fn new(inputs: usize) -> Result<Self, LearnError> {
        if inputs == 0 {
            return Err(LearnError::invalid("perceptron needs at least one input"));
        }
        Ok(Perceptron {
            weights: vec![0; inputs],
            bias: 0,
        })
    }

    /// Training threshold θ ≈ 1.93·n + 14 (the published optimum).
    #[must_use]
    pub fn threshold(&self) -> i32 {
        (1.93 * self.weights.len() as f64 + 14.0) as i32
    }

    /// Computes the prediction for a feature vector.
    ///
    /// Features beyond the perceptron's width are ignored; missing
    /// features are treated as `false`.
    #[must_use]
    pub fn predict(&self, features: &[bool]) -> Prediction {
        let mut sum = self.bias;
        for (w, &f) in self.weights.iter().zip(features) {
            sum += if f { *w } else { -*w };
        }
        Prediction {
            taken: sum >= 0,
            output: sum,
        }
    }

    /// Trains on one example using the perceptron rule: update only on a
    /// mispredict or when confidence is below threshold.
    ///
    /// Returns `true` if the pre-update prediction was correct.
    pub fn train(&mut self, features: &[bool], actual: bool) -> bool {
        let pred = self.predict(features);
        let correct = pred.taken == actual;
        if !correct || pred.output.abs() <= self.threshold() {
            let dir = if actual { 1 } else { -1 };
            self.bias = (self.bias + dir).clamp(WEIGHT_MIN, WEIGHT_MAX);
            for (w, &f) in self.weights.iter_mut().zip(features) {
                let delta = if f { dir } else { -dir };
                *w = (*w + delta).clamp(WEIGHT_MIN, WEIGHT_MAX);
            }
        }
        correct
    }
}

/// A table of perceptrons indexed by a hashed key with a shared global
/// history register — the full Jiménez–Lin branch predictor organization.
///
/// # Examples
///
/// ```
/// use ia_learn::PerceptronPredictor;
/// let mut p = PerceptronPredictor::new(64, 8)?;
/// // A branch perfectly correlated with the last outcome's inverse:
/// let pc = 0x400123;
/// let mut last = false;
/// let mut correct = 0;
/// for i in 0..2000 {
///     let actual = !last;
///     if p.predict(pc) == actual && i >= 1000 { correct += 1 }
///     p.update(pc, actual);
///     last = actual;
/// }
/// assert!(correct > 950, "should learn alternation: {correct}");
/// # Ok::<(), ia_learn::LearnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PerceptronPredictor {
    table: Vec<Perceptron>,
    history: Vec<bool>,
    lookups: u64,
    correct: u64,
}

impl PerceptronPredictor {
    /// Creates a predictor with `entries` perceptrons over `history_bits`
    /// of global history.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if either argument is zero.
    pub fn new(entries: usize, history_bits: usize) -> Result<Self, LearnError> {
        if entries == 0 {
            return Err(LearnError::invalid("predictor needs at least one entry"));
        }
        let proto = Perceptron::new(history_bits)?;
        Ok(PerceptronPredictor {
            table: vec![proto; entries],
            history: vec![false; history_bits],
            lookups: 0,
            correct: 0,
        })
    }

    fn index(&self, key: u64) -> usize {
        // Simple multiplicative hash; entries need not be a power of two.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) as usize % self.table.len()
    }

    /// Predicts the outcome for `key` under the current global history.
    #[must_use]
    pub fn predict(&self, key: u64) -> bool {
        self.table[self.index(key)].predict(&self.history).taken
    }

    /// Trains on the actual outcome and shifts it into the history.
    pub fn update(&mut self, key: u64, actual: bool) {
        let idx = self.index(key);
        let was_correct = self.table[idx].train(&self.history, actual);
        self.lookups += 1;
        if was_correct {
            self.correct += 1;
        }
        self.history.rotate_right(1);
        self.history[0] = actual;
    }

    /// Fraction of updates whose pre-update prediction was correct.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.correct as f64 / self.lookups as f64
        }
    }

    /// Number of predictions scored.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perceptron_rejects_zero_inputs() {
        assert!(Perceptron::new(0).is_err());
    }

    #[test]
    fn weights_saturate() {
        let mut p = Perceptron::new(1).unwrap();
        for _ in 0..10_000 {
            p.train(&[true], true);
        }
        let out = p.predict(&[true]).output;
        assert!(out <= 2 * WEIGHT_MAX, "weights must saturate, got {out}");
    }

    #[test]
    fn learns_negative_correlation() {
        let mut p = Perceptron::new(2).unwrap();
        for _ in 0..50 {
            p.train(&[true, false], false);
            p.train(&[false, true], true);
        }
        assert!(!p.predict(&[true, false]).taken);
        assert!(p.predict(&[false, true]).taken);
    }

    #[test]
    fn threshold_matches_published_formula() {
        let p = Perceptron::new(16).unwrap();
        assert_eq!(p.threshold(), (1.93 * 16.0 + 14.0) as i32);
    }

    #[test]
    fn predictor_rejects_zero_sizes() {
        assert!(PerceptronPredictor::new(0, 8).is_err());
        assert!(PerceptronPredictor::new(8, 0).is_err());
    }

    #[test]
    fn predictor_learns_biased_branch() {
        let mut p = PerceptronPredictor::new(16, 4).unwrap();
        for _ in 0..200 {
            p.update(0xABC, true);
        }
        assert!(p.predict(0xABC));
        assert!(p.accuracy() > 0.9);
    }

    #[test]
    fn predictor_learns_history_pattern() {
        // Pattern: T T N repeating — requires history to disambiguate.
        let mut p = PerceptronPredictor::new(64, 8).unwrap();
        let pattern = [true, true, false];
        let mut hits = 0;
        let total = 3000;
        for i in 0..total {
            let actual = pattern[i % 3];
            if i >= total / 2 && p.predict(7) == actual {
                hits += 1;
            }
            p.update(7, actual);
        }
        assert!(hits as f64 / (total / 2) as f64 > 0.9, "hits={hits}");
    }

    #[test]
    fn accuracy_zero_when_untrained() {
        let p = PerceptronPredictor::new(4, 4).unwrap();
        assert_eq!(p.accuracy(), 0.0);
        assert_eq!(p.lookups(), 0);
    }

    #[test]
    fn distinct_keys_use_distinct_entries() {
        let mut p = PerceptronPredictor::new(1024, 4).unwrap();
        for _ in 0..100 {
            p.update(1, true);
            p.update(2, false);
        }
        // Check each key's prediction in the same history context it was
        // trained under (the history register is global).
        assert!(p.predict(1));
        p.update(1, true);
        assert!(!p.predict(2));
    }
}
