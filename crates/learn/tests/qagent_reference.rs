//! `QAgent` against a reference copy of its earlier implementation:
//! `floor`-based quantization, a `max_by` greedy pick that evaluates two
//! Q-values per comparison, and a fresh tiling on every call. Seeded
//! `observe`/`select_action` streams on 1–4 tilings, with tie-heavy
//! tables and features that are out of range, negative, NaN and ±∞,
//! must give the same actions, update counts and table bits.

use ia_learn::{FeatureQuantizer, QAgent, QConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference agent: SARSA with CMAC tile coding as first written.
struct RefAgent {
    /// `(lo, hi, bins)` per feature.
    features: Vec<(f64, f64, usize)>,
    actions: usize,
    config: QConfig,
    tables: Vec<Vec<f64>>,
    pending: Option<(Vec<usize>, usize)>,
    updates: u64,
}

fn ref_quantize(lo: f64, hi: f64, bins: usize, value: f64) -> usize {
    let t = (value - lo) / (hi - lo);
    let idx = (t * bins as f64).floor();
    (idx.max(0.0) as usize).min(bins - 1)
}

impl RefAgent {
    fn new(features: Vec<(f64, f64, usize)>, actions: usize, config: QConfig) -> Self {
        let states: usize = features.iter().map(|f| f.2).product();
        RefAgent {
            tables: vec![vec![0.0; states * actions]; config.tilings],
            features,
            actions,
            config,
            pending: None,
            updates: 0,
        }
    }

    fn seed_action_value(&mut self, action: usize, value: f64) {
        for table in &mut self.tables {
            for slot in table.iter_mut().skip(action).step_by(self.actions) {
                *slot = value;
            }
        }
    }

    fn tiled(&self, state: &[f64]) -> Vec<usize> {
        (0..self.config.tilings)
            .map(|tiling| {
                let shift = tiling as f64 / self.config.tilings as f64;
                let mut idx = 0usize;
                for (&(lo, hi, bins), &v) in self.features.iter().zip(state) {
                    let width = (hi - lo) / bins as f64;
                    idx = idx * bins + ref_quantize(lo, hi, bins, v + shift * width);
                }
                idx
            })
            .collect()
    }

    fn value_at(&self, tiled: &[usize], action: usize) -> f64 {
        let sum: f64 = tiled
            .iter()
            .enumerate()
            .map(|(t, &s)| self.tables[t][s * self.actions + action])
            .sum();
        sum / self.config.tilings as f64
    }

    fn best_action_at(&self, tiled: &[usize]) -> usize {
        (0..self.actions)
            .max_by(|&a, &b| {
                self.value_at(tiled, a)
                    .partial_cmp(&self.value_at(tiled, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0)
    }

    fn epsilon_greedy(&self, tiled: &[usize], rng: &mut SmallRng) -> usize {
        if rng.gen::<f64>() < self.config.epsilon {
            rng.gen_range(0..self.actions)
        } else {
            self.best_action_at(tiled)
        }
    }

    fn select_action(&mut self, state: &[f64], rng: &mut SmallRng) -> usize {
        let tiled = self.tiled(state);
        let action = self.epsilon_greedy(&tiled, rng);
        self.pending = Some((tiled, action));
        action
    }

    fn observe(&mut self, reward: f64, next_state: &[f64], rng: &mut SmallRng) {
        let Some((tiled, action)) = self.pending.take() else {
            return;
        };
        let next_tiled = self.tiled(next_state);
        let next_action = self.epsilon_greedy(&next_tiled, rng);
        let target = reward + self.config.gamma * self.value_at(&next_tiled, next_action);
        let error = target - self.value_at(&tiled, action);
        let step = self.config.alpha * error / self.config.tilings as f64;
        for (t, &s) in tiled.iter().enumerate() {
            self.tables[t][s * self.actions + action] += step;
        }
        self.updates += 1;
        self.pending = Some((next_tiled, next_action));
    }
}

/// A feature value from `lo..hi` or one of the edge cases.
fn feature_value(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    let width = hi - lo;
    match rng.gen_range(0..12u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -rng.gen::<f64>() * 10.0,
        4 => lo - rng.gen::<f64>() * width,
        5 => hi + rng.gen::<f64>() * width,
        6 => -0.0,
        7 => lo + width * f64::from(rng.gen_range(0..=8u32)) / 8.0,
        _ => lo + rng.gen::<f64>() * width,
    }
}

fn assert_same_tables(agent: &QAgent, reference: &RefAgent, context: &str) {
    for (t, expected) in reference.tables.iter().enumerate() {
        let table = agent.table(t).expect("one table per tiling");
        assert_eq!(table.len(), expected.len(), "{context}: tiling {t} size");
        for (i, (a, b)) in table.iter().zip(expected).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: tiling {t} entry {i}");
        }
    }
    assert!(agent.table(reference.tables.len()).is_none());
}

/// Replays one seeded stream through both agents.
fn replay(case: u64) {
    let mut gen = SmallRng::seed_from_u64(case);
    let tilings = gen.gen_range(1..=4usize);
    let actions = gen.gen_range(1..=5usize);
    let features: Vec<(f64, f64, usize)> = (0..gen.gen_range(1..=3usize))
        .map(|_| {
            let lo = gen.gen_range(-4.0..4.0f64);
            (
                lo,
                lo + gen.gen_range(0.5..8.0f64),
                gen.gen_range(1..=6usize),
            )
        })
        .collect();
    let config = QConfig {
        alpha: gen.gen_range(0.05..0.5f64),
        gamma: gen.gen_range(0.0..0.99f64),
        epsilon: [0.0, 0.05, 0.3][gen.gen_range(0..3usize)],
        tilings,
    };
    let quantizers = features
        .iter()
        .map(|&(lo, hi, bins)| FeatureQuantizer::new(lo, hi, bins).unwrap())
        .collect();
    let mut agent = QAgent::new(quantizers, actions, config).unwrap();
    let mut reference = RefAgent::new(features.clone(), actions, config);

    // Tie-heavy tables: several actions seeded to one value, sometimes
    // NaN, so the greedy pick runs on exact ties and unordered values.
    let prior = match gen.gen_range(0..4u32) {
        0 => f64::NAN,
        1 => 0.0,
        _ => gen.gen_range(-1.0..1.0f64),
    };
    for a in 0..actions {
        if gen.gen_range(0..3u32) > 0 {
            agent.seed_action_value(a, prior).unwrap();
            reference.seed_action_value(a, prior);
        }
    }

    let context = format!("case {case} ({tilings} tilings, {actions} actions)");
    let mut rng_a = SmallRng::seed_from_u64(case ^ 0xA5A5);
    let mut rng_r = SmallRng::seed_from_u64(case ^ 0xA5A5);
    let mut state: Vec<f64> = features.iter().map(|f| f.0).collect();
    for step in 0..400 {
        // Mostly the controller's pattern — observe then select on one
        // state — mixed with lone selects, lone observes and new states.
        if gen.gen_range(0..3u32) > 0 {
            state = features
                .iter()
                .map(|&(lo, hi, _)| feature_value(&mut gen, lo, hi))
                .collect();
        }
        let reward = match gen.gen_range(0..4u32) {
            0 => 0.0,
            1 => 1.0,
            _ => gen.gen_range(-2.0..2.0f64),
        };
        match gen.gen_range(0..10u32) {
            0 => {
                let a = agent.select_action(&state, &mut rng_a).unwrap();
                assert_eq!(
                    a,
                    reference.select_action(&state, &mut rng_r),
                    "{context} step {step}"
                );
            }
            1 => {
                agent.observe(reward, &state, &mut rng_a).unwrap();
                reference.observe(reward, &state, &mut rng_r);
            }
            2 => {
                agent.end_episode();
                reference.pending = None;
            }
            3 => {
                // Select on a state other than the one just observed.
                agent.observe(reward, &state, &mut rng_a).unwrap();
                reference.observe(reward, &state, &mut rng_r);
                let other: Vec<f64> = state.iter().map(|v| v + 0.37).collect();
                let a = agent.select_action(&other, &mut rng_a).unwrap();
                assert_eq!(
                    a,
                    reference.select_action(&other, &mut rng_r),
                    "{context} step {step}"
                );
            }
            _ => {
                agent.observe(reward, &state, &mut rng_a).unwrap();
                reference.observe(reward, &state, &mut rng_r);
                let a = agent.select_action(&state, &mut rng_a).unwrap();
                assert_eq!(
                    a,
                    reference.select_action(&state, &mut rng_r),
                    "{context} step {step}"
                );
            }
        }
        assert_eq!(agent.updates(), reference.updates, "{context} step {step}");
        let probe: Vec<f64> = features.iter().map(|f| f.0).collect();
        assert_eq!(
            agent.best_action(&probe).unwrap(),
            reference.best_action_at(&reference.tiled(&probe)),
            "{context} step {step}: greedy pick"
        );
    }
    assert_same_tables(&agent, &reference, &context);
    // Both agents drew the same number of random values.
    assert_eq!(
        rng_a.gen::<u64>(),
        rng_r.gen::<u64>(),
        "{context}: RNG position"
    );
}

#[test]
fn qagent_matches_the_reference_on_seeded_streams() {
    for case in 0..200 {
        replay(case);
    }
}

#[test]
fn qagent_matches_the_reference_on_every_tiling_count() {
    // The seeded cases above pick tilings at random; pin each count once
    // with a tie-heavy, NaN-free table and the controller's call pattern.
    for tilings in 1..=4 {
        let features = vec![(0.0, 1.0, 4), (0.0, 1.0, 4), (0.0, 1.0, 2)];
        let config = QConfig {
            alpha: 0.15,
            gamma: 0.9,
            epsilon: 0.04,
            tilings,
        };
        let quantizers = features
            .iter()
            .map(|&(lo, hi, bins)| FeatureQuantizer::new(lo, hi, bins).unwrap())
            .collect();
        let mut agent = QAgent::new(quantizers, 4, config).unwrap();
        let mut reference = RefAgent::new(features, 4, config);
        for a in [1, 2, 3] {
            agent.seed_action_value(a, 0.25).unwrap();
            reference.seed_action_value(a, 0.25);
        }
        let mut rng_a = SmallRng::seed_from_u64(tilings as u64);
        let mut rng_r = SmallRng::seed_from_u64(tilings as u64);
        let mut gen = SmallRng::seed_from_u64(100 + tilings as u64);
        for step in 0..3000 {
            let state = [
                f64::from(gen.gen_range(0..=64u32)) / 64.0,
                gen.gen::<f64>(),
                f64::from(gen.gen_range(0..=2u32)) / 2.0,
            ];
            let reward = f64::from(gen.gen_range(0..2u32));
            agent.observe(reward, &state, &mut rng_a).unwrap();
            reference.observe(reward, &state, &mut rng_r);
            let a = agent.select_action(&state, &mut rng_a).unwrap();
            assert_eq!(
                a,
                reference.select_action(&state, &mut rng_r),
                "{tilings} tilings, step {step}"
            );
        }
        assert_eq!(agent.updates(), reference.updates);
        assert_same_tables(&agent, &reference, &format!("{tilings} tilings"));
    }
}
