//! # ia-learn — online-learning substrate for data-driven architectures
//!
//! The paper's second principle is that controllers should be *data-driven
//! autonomous agents that automatically learn far-sighted policies*. This
//! crate provides the two learning machines that the architecture
//! literature actually deploys in controllers:
//!
//! * [`QAgent`] — SARSA with CMAC tile coding, as in the self-optimizing
//!   memory controller (Ipek+, ISCA 2008). Used by `ia-memctrl`'s RL
//!   scheduler.
//! * [`Perceptron`] / [`PerceptronPredictor`] — Jiménez–Lin perceptron
//!   prediction (HPCA 2001), reusable for branches, reuse, and prefetch
//!   filtering.
//!
//! ## Example
//!
//! ```
//! use ia_learn::{FeatureQuantizer, LearnError, QAgent, QConfig};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), LearnError> {
//! // One state, two actions: action 1 pays, action 0 does not.
//! let features = vec![FeatureQuantizer::new(0.0, 1.0, 4)?];
//! let config = QConfig { gamma: 0.0, epsilon: 0.2, ..QConfig::default() };
//! let mut agent = QAgent::new(features, 2, config)?;
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let state = [0.5];
//! for _ in 0..300 {
//!     let action = agent.select_action(&state, &mut rng)?;
//!     let reward = if action == 1 { 1.0 } else { 0.0 };
//!     agent.observe(reward, &state, &mut rng)?;
//! }
//! assert_eq!(agent.best_action(&state)?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod perceptron;
mod qlearning;

pub use error::LearnError;
pub use perceptron::{Perceptron, PerceptronPredictor, Prediction};
pub use qlearning::{FeatureQuantizer, QAgent, QConfig};
