//! Property-based tests of the learning substrate.

use ia_learn::{FeatureQuantizer, Perceptron, QAgent, QConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// Quantizer output is always a valid bin, for any input including
    /// NaN-free extremes.
    #[test]
    fn quantizer_in_range(lo in -100.0f64..100.0, width in 0.1f64..100.0, bins in 1usize..64, v in -1e6f64..1e6) {
        let q = FeatureQuantizer::new(lo, lo + width, bins).unwrap();
        prop_assert!(q.quantize(v) < bins);
    }

    /// Quantization is monotone: larger values never map to smaller bins.
    #[test]
    fn quantizer_monotone(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let q = FeatureQuantizer::new(0.0, 10.0, 16).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize(lo) <= q.quantize(hi));
    }

    /// The agent's chosen actions are always in range and values stay
    /// finite under arbitrary reward streams.
    #[test]
    fn q_agent_stays_finite(
        seed in any::<u64>(),
        rewards in prop::collection::vec(-10.0f64..10.0, 1..100),
    ) {
        let features = vec![FeatureQuantizer::new(0.0, 1.0, 4).unwrap(); 2];
        let mut agent = QAgent::new(features, 3, QConfig::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut state = [0.2, 0.8];
        let a = agent.select_action(&state, &mut rng).unwrap();
        prop_assert!(a < 3);
        for (i, r) in rewards.iter().enumerate() {
            state = [(i % 5) as f64 / 5.0, (i % 3) as f64 / 3.0];
            agent.observe(*r, &state, &mut rng).unwrap();
            for action in 0..3 {
                let v = agent.value(&state, action).unwrap();
                prop_assert!(v.is_finite());
            }
        }
        prop_assert_eq!(agent.updates(), rewards.len() as u64);
    }

    /// Perceptron outputs are bounded by the weight budget.
    #[test]
    fn perceptron_output_bounded(
        inputs in 1usize..32,
        examples in prop::collection::vec((any::<u32>(), any::<bool>()), 0..200),
    ) {
        let mut p = Perceptron::new(inputs).unwrap();
        for (bits, actual) in &examples {
            let features: Vec<bool> = (0..inputs).map(|i| bits >> (i % 32) & 1 == 1).collect();
            p.train(&features, *actual);
        }
        let all_true = vec![true; inputs];
        let out = p.predict(&all_true).output;
        // Bias + n weights, each clamped to ±128.
        prop_assert!(out.abs() <= 128 * (inputs as i32 + 1));
    }
}
