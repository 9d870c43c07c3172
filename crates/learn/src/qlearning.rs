//! Q-learning with CMAC tile coding, the algorithm behind the
//! self-optimizing memory controller (Ipek+, ISCA 2008).
//!
//! The controller's state (queue occupancies, row-hit counts, …) is
//! continuous-ish and high-dimensional; the original work discretizes it
//! with CMAC tile coding and learns action values with SARSA. This module
//! implements both pieces with no external dependencies beyond `rand`.

use rand::Rng;

use crate::LearnError;

/// Quantizes one continuous feature into a fixed number of bins.
///
/// # Examples
///
/// ```
/// use ia_learn::FeatureQuantizer;
/// let q = FeatureQuantizer::new(0.0, 10.0, 5)?;
/// assert_eq!(q.quantize(-3.0), 0);
/// assert_eq!(q.quantize(9.99), 4);
/// assert_eq!(q.bins(), 5);
/// # Ok::<(), ia_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureQuantizer {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl FeatureQuantizer {
    /// Creates a quantizer over `[lo, hi)` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, LearnError> {
        if bins == 0 {
            return Err(LearnError::invalid("quantizer needs at least one bin"));
        }
        if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Err(LearnError::invalid("quantizer range must be non-empty"));
        }
        Ok(FeatureQuantizer { lo, hi, bins })
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Maps a value to its bin, clamping out-of-range inputs.
    ///
    /// The float-to-integer cast saturates: it truncates toward zero and
    /// sends negatives, NaN and −∞ to 0 and +∞ to `usize::MAX`, so it
    /// gives the same bin as `floor` followed by clamping at zero.
    #[must_use]
    pub fn quantize(&self, value: f64) -> usize {
        let t = (value - self.lo) / (self.hi - self.lo);
        ((t * self.bins as f64) as usize).min(self.bins - 1)
    }

    /// Quantizes with a fractional offset of a bin width (for CMAC tilings).
    #[must_use]
    fn quantize_shifted(&self, value: f64, shift: f64) -> usize {
        let width = (self.hi - self.lo) / self.bins as f64;
        self.quantize(value + shift * width)
    }
}

/// Configuration for [`QAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QConfig {
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Exploration rate ε.
    pub epsilon: f64,
    /// Number of CMAC tilings (1 = plain table).
    pub tilings: usize,
}

impl Default for QConfig {
    fn default() -> Self {
        // Values from the self-optimizing memory controller paper's setup.
        QConfig {
            alpha: 0.1,
            gamma: 0.95,
            epsilon: 0.05,
            tilings: 4,
        }
    }
}

/// A SARSA agent over a quantized state space with CMAC tile coding.
///
/// Call [`QAgent::select_action`] to act, then [`QAgent::observe`] with the
/// reward and next state; the agent performs the SARSA update internally.
///
/// # Examples
///
/// ```
/// use ia_learn::{FeatureQuantizer, QAgent, QConfig};
/// use rand::SeedableRng;
/// let features = vec![FeatureQuantizer::new(0.0, 1.0, 4)?; 2];
/// let mut agent = QAgent::new(features, 3, QConfig::default())?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let a = agent.select_action(&[0.5, 0.5], &mut rng)?;
/// agent.observe(1.0, &[0.6, 0.4], &mut rng)?;
/// assert!(a < 3);
/// # Ok::<(), ia_learn::LearnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QAgent {
    features: Vec<FeatureQuantizer>,
    actions: usize,
    config: QConfig,
    /// One value table per tiling: `tables[t][state_index * actions + a]`.
    tables: Vec<Vec<f64>>,
    /// Pending (tiled state indices, action) awaiting its reward.
    pending: Option<(Vec<usize>, usize)>,
    /// Bit patterns of the state the pending tiles were computed from:
    /// a `select_action` on the same bits reuses the tiles.
    pending_state: Vec<u64>,
    /// Recycled tile-index buffer: `select_action`/`observe` sit on the
    /// memory controller's per-cycle path, so steady-state calls must
    /// not allocate. Retired `pending` buffers return here.
    scratch: Vec<usize>,
    updates: u64,
}

impl QAgent {
    /// Creates an agent for the given feature space and action count.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if there are no features, no actions, no
    /// tilings, or the joint state space is unreasonably large (> 2^24).
    pub fn new(
        features: Vec<FeatureQuantizer>,
        actions: usize,
        config: QConfig,
    ) -> Result<Self, LearnError> {
        if features.is_empty() {
            return Err(LearnError::invalid("agent needs at least one feature"));
        }
        if actions == 0 {
            return Err(LearnError::invalid("agent needs at least one action"));
        }
        if config.tilings == 0 {
            return Err(LearnError::invalid("agent needs at least one tiling"));
        }
        let mut states: usize = 1;
        for f in &features {
            states = states
                .checked_mul(f.bins())
                .filter(|&s| s <= (1 << 24))
                .ok_or_else(|| LearnError::invalid("state space too large"))?;
        }
        let tables = vec![vec![0.0; states * actions]; config.tilings];
        let tilings = config.tilings;
        Ok(QAgent {
            features,
            actions,
            config,
            tables,
            pending: None,
            pending_state: Vec::new(),
            scratch: Vec::with_capacity(tilings),
            updates: 0,
        })
    }

    /// Number of SARSA updates applied so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The value table of `tiling`, indexed `state_index * actions +
    /// action`, for inspection; `None` past the last tiling.
    #[must_use]
    pub fn table(&self, tiling: usize) -> Option<&[f64]> {
        self.tables.get(tiling).map(Vec::as_slice)
    }

    /// Seeds every state's value for `action` with an initial prior —
    /// the optimistic/designer initialization the self-optimizing
    /// controller literature uses so the agent starts from a sensible
    /// policy instead of arbitrary tie-breaking, and learns from there.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if `action` is out of range.
    pub fn seed_action_value(&mut self, action: usize, value: f64) -> Result<(), LearnError> {
        if action >= self.actions {
            return Err(LearnError::invalid("action out of range"));
        }
        for table in &mut self.tables {
            for slot in table.iter_mut().skip(action).step_by(self.actions) {
                *slot = value;
            }
        }
        Ok(())
    }

    fn state_index(&self, state: &[f64], tiling: usize) -> Result<usize, LearnError> {
        if state.len() != self.features.len() {
            return Err(LearnError::dimension(self.features.len(), state.len()));
        }
        // Each tiling is offset by a different fraction of a bin width.
        let shift = tiling as f64 / self.config.tilings as f64;
        let mut idx = 0usize;
        for (f, &v) in self.features.iter().zip(state) {
            idx = idx * f.bins() + f.quantize_shifted(v, shift);
        }
        Ok(idx)
    }

    /// Fills `out` with one state index per tiling. Reuses the buffer's
    /// capacity, so steady-state callers on the per-cycle path never
    /// allocate.
    fn fill_tiled(&self, state: &[f64], out: &mut Vec<usize>) -> Result<(), LearnError> {
        out.clear();
        for t in 0..self.config.tilings {
            out.push(self.state_index(state, t)?);
        }
        Ok(())
    }

    fn tiled_indices(&self, state: &[f64]) -> Result<Vec<usize>, LearnError> {
        let mut out = Vec::with_capacity(self.config.tilings);
        self.fill_tiled(state, &mut out)?;
        Ok(out)
    }

    /// Q-value of `(state, action)`: the CMAC average across tilings.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] if `state` has the wrong dimensionality or
    /// `action` is out of range.
    pub fn value(&self, state: &[f64], action: usize) -> Result<f64, LearnError> {
        if action >= self.actions {
            return Err(LearnError::invalid("action out of range"));
        }
        let idx = self.tiled_indices(state)?;
        Ok(self.value_at(&idx, action))
    }

    fn value_at(&self, tiled: &[usize], action: usize) -> f64 {
        let sum: f64 = tiled
            .iter()
            .enumerate()
            .map(|(t, &s)| self.tables[t][s * self.actions + action])
            .sum();
        sum / self.config.tilings as f64
    }

    /// The action of highest value, each value evaluated once. Ties go
    /// to the last maximum and a NaN compares equal to anything, as in
    /// `max_by` over `partial_cmp(..).unwrap_or(Equal)`: a later action
    /// takes over unless the best so far is strictly greater.
    fn best_action_at(&self, tiled: &[usize]) -> usize {
        let mut best = 0;
        let mut best_value = self.value_at(tiled, 0);
        for a in 1..self.actions {
            let v = self.value_at(tiled, a);
            if best_value.partial_cmp(&v) != Some(std::cmp::Ordering::Greater) {
                best = a;
                best_value = v;
            }
        }
        best
    }

    /// Records `state` as the state the pending tiles belong to.
    fn set_pending_state(&mut self, state: &[f64]) {
        self.pending_state.clear();
        self.pending_state.extend(state.iter().map(|v| v.to_bits()));
    }

    /// True when `state` has the exact bits of the pending tiles' state.
    fn is_pending_state(&self, state: &[f64]) -> bool {
        state.len() == self.pending_state.len()
            && state
                .iter()
                .zip(&self.pending_state)
                .all(|(v, &bits)| v.to_bits() == bits)
    }

    /// Greedy action for `state` (no exploration, no learning).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] on dimension mismatch.
    pub fn best_action(&self, state: &[f64]) -> Result<usize, LearnError> {
        let tiled = self.tiled_indices(state)?;
        Ok(self.best_action_at(&tiled))
    }

    /// Selects an ε-greedy action and remembers `(state, action)` for the
    /// next [`QAgent::observe`] call. When the pending transition is for
    /// a state with the same bits (an `observe` on `state` just before),
    /// its tiles are reused instead of tiling `state` again.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] on dimension mismatch.
    pub fn select_action<R: Rng + ?Sized>(
        &mut self,
        state: &[f64],
        rng: &mut R,
    ) -> Result<usize, LearnError> {
        let tiled = match self.pending.take() {
            Some((tiled, _)) if self.is_pending_state(state) => tiled,
            pending => {
                self.pending = pending;
                let mut tiled = std::mem::take(&mut self.scratch);
                self.fill_tiled(state, &mut tiled)?;
                self.set_pending_state(state);
                tiled
            }
        };
        let action = if rng.gen::<f64>() < self.config.epsilon {
            rng.gen_range(0..self.actions)
        } else {
            self.best_action_at(&tiled)
        };
        if let Some((old, _)) = self.pending.replace((tiled, action)) {
            self.scratch = old;
        }
        Ok(action)
    }

    /// Applies the SARSA update for the pending `(state, action)` with the
    /// observed `reward` and successor `next_state`, then selects (and
    /// stores) the next action internally using ε-greedy.
    ///
    /// If no action is pending this is a no-op returning `Ok(())`, so the
    /// call sequence never has to special-case the first step.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError`] on dimension mismatch of `next_state`.
    pub fn observe<R: Rng + ?Sized>(
        &mut self,
        reward: f64,
        next_state: &[f64],
        rng: &mut R,
    ) -> Result<(), LearnError> {
        let Some((tiled, action)) = self.pending.take() else {
            return Ok(());
        };
        let mut next_tiled = std::mem::take(&mut self.scratch);
        self.fill_tiled(next_state, &mut next_tiled)?;
        let next_action = if rng.gen::<f64>() < self.config.epsilon {
            rng.gen_range(0..self.actions)
        } else {
            self.best_action_at(&next_tiled)
        };
        let target = reward + self.config.gamma * self.value_at(&next_tiled, next_action);
        let error = target - self.value_at(&tiled, action);
        // CMAC update: each tiling absorbs an equal share of the error.
        let step = self.config.alpha * error / self.config.tilings as f64;
        for (t, &s) in tiled.iter().enumerate() {
            self.tables[t][s * self.actions + action] += step;
        }
        self.updates += 1;
        self.pending = Some((next_tiled, next_action));
        self.set_pending_state(next_state);
        self.scratch = tiled; // recycle the retired buffer
        Ok(())
    }

    /// Clears the pending transition (e.g., at an episode boundary).
    pub fn end_episode(&mut self) {
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xDA7A)
    }

    #[test]
    fn quantizer_rejects_bad_args() {
        assert!(FeatureQuantizer::new(0.0, 1.0, 0).is_err());
        assert!(FeatureQuantizer::new(1.0, 1.0, 4).is_err());
        assert!(FeatureQuantizer::new(2.0, 1.0, 4).is_err());
    }

    #[test]
    fn quantizer_bins_cover_range() {
        let q = FeatureQuantizer::new(0.0, 8.0, 4).unwrap();
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(1.99), 0);
        assert_eq!(q.quantize(2.0), 1);
        assert_eq!(q.quantize(7.99), 3);
        assert_eq!(q.quantize(100.0), 3, "clamps high");
        assert_eq!(q.quantize(-5.0), 0, "clamps low");
    }

    #[test]
    fn quantize_equals_the_floor_formula_on_edge_values() {
        let floor_bin = |q: &FeatureQuantizer, lo: f64, hi: f64, v: f64| {
            let t = (v - lo) / (hi - lo);
            ((t * q.bins() as f64).floor().max(0.0) as usize).min(q.bins() - 1)
        };
        for (lo, hi, bins) in [
            (0.0, 1.0, 4),
            (0.0, 1.0, 1),
            (-3.0, 5.0, 7),
            (1e-9, 2e-9, 3),
        ] {
            let q = FeatureQuantizer::new(lo, hi, bins).unwrap();
            let width = (hi - lo) / bins as f64;
            let mut values = vec![
                lo,
                hi,
                -0.0,
                0.0,
                -1.0,
                -1e300,
                1e300,
                lo - width,
                hi + width,
                lo + 0.5 * width,
                hi - f64::EPSILON,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
            ];
            values.extend((0..=bins).map(|b| lo + b as f64 * width));
            for v in values {
                assert_eq!(
                    q.quantize(v),
                    floor_bin(&q, lo, hi, v),
                    "{v} on [{lo}, {hi}) / {bins}"
                );
            }
        }
    }

    #[test]
    fn agent_rejects_degenerate_configs() {
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 2).unwrap()];
        assert!(QAgent::new(vec![], 2, QConfig::default()).is_err());
        assert!(QAgent::new(f.clone(), 0, QConfig::default()).is_err());
        let cfg = QConfig {
            tilings: 0,
            ..QConfig::default()
        };
        assert!(QAgent::new(f, 2, cfg).is_err());
    }

    #[test]
    fn agent_rejects_huge_state_space() {
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 4096).unwrap(); 3];
        assert!(QAgent::new(f, 2, QConfig::default()).is_err());
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 2).unwrap(); 2];
        let mut agent = QAgent::new(f, 2, QConfig::default()).unwrap();
        let mut r = rng();
        assert!(agent.select_action(&[0.5], &mut r).is_err());
        assert!(agent.value(&[0.1, 0.2, 0.3], 0).is_err());
    }

    #[test]
    fn learns_a_two_armed_bandit() {
        // State is constant; action 1 pays 1.0, action 0 pays 0.0. After
        // training, the greedy action must be 1.
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 1).unwrap()];
        let cfg = QConfig {
            alpha: 0.2,
            gamma: 0.0,
            epsilon: 0.2,
            tilings: 2,
        };
        let mut agent = QAgent::new(f, 2, cfg).unwrap();
        let mut r = rng();
        let s = [0.5];
        let mut a = agent.select_action(&s, &mut r).unwrap();
        for _ in 0..500 {
            let reward = if a == 1 { 1.0 } else { 0.0 };
            agent.observe(reward, &s, &mut r).unwrap();
            // observe() stored the next action in pending; re-select to read it.
            a = agent.best_action(&s).unwrap();
        }
        assert_eq!(agent.best_action(&s).unwrap(), 1);
        assert!(agent.value(&s, 1).unwrap() > agent.value(&s, 0).unwrap());
        assert!(agent.updates() >= 500);
    }

    #[test]
    fn learns_state_dependent_policy() {
        // Action must match the (binary) state feature to earn reward.
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 2).unwrap()];
        let cfg = QConfig {
            alpha: 0.3,
            gamma: 0.0,
            epsilon: 0.3,
            tilings: 1,
        };
        let mut agent = QAgent::new(f, 2, cfg).unwrap();
        let mut r = rng();
        let mut state = [0.25];
        let mut action = agent.select_action(&state, &mut r).unwrap();
        for step in 0..2000 {
            let want = if state[0] < 0.5 { 0 } else { 1 };
            let reward = if action == want { 1.0 } else { -1.0 };
            state = [if step % 2 == 0 { 0.75 } else { 0.25 }];
            agent.observe(reward, &state, &mut r).unwrap();
            action = agent.select_action(&state, &mut r).unwrap();
        }
        assert_eq!(agent.best_action(&[0.25]).unwrap(), 0);
        assert_eq!(agent.best_action(&[0.75]).unwrap(), 1);
    }

    #[test]
    fn observe_without_pending_is_noop() {
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 2).unwrap()];
        let mut agent = QAgent::new(f, 2, QConfig::default()).unwrap();
        let mut r = rng();
        agent.observe(5.0, &[0.5], &mut r).unwrap();
        assert_eq!(agent.updates(), 0);
    }

    #[test]
    fn end_episode_clears_pending() {
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 2).unwrap()];
        let mut agent = QAgent::new(f, 2, QConfig::default()).unwrap();
        let mut r = rng();
        agent.select_action(&[0.5], &mut r).unwrap();
        agent.end_episode();
        agent.observe(1.0, &[0.5], &mut r).unwrap();
        assert_eq!(agent.updates(), 0);
    }

    #[test]
    fn cmac_generalizes_across_nearby_states() {
        // Train only at 0.30; with 4 tilings the value should bleed into
        // 0.35 (same tiles in most tilings) but not into 0.95.
        let f = vec![FeatureQuantizer::new(0.0, 1.0, 10).unwrap()];
        let cfg = QConfig {
            alpha: 0.5,
            gamma: 0.0,
            epsilon: 0.0,
            tilings: 4,
        };
        let mut agent = QAgent::new(f, 1, cfg).unwrap();
        let mut r = rng();
        agent.select_action(&[0.30], &mut r).unwrap();
        for _ in 0..50 {
            agent.observe(1.0, &[0.30], &mut r).unwrap();
        }
        let near = agent.value(&[0.33], 0).unwrap();
        let far = agent.value(&[0.95], 0).unwrap();
        assert!(
            near > far,
            "CMAC should generalize locally: near={near} far={far}"
        );
        assert!(near > 0.1);
        assert_eq!(far, 0.0);
    }
}
