//! Multi-programmed performance and fairness metrics, as defined in the
//! scheduling literature (weighted speedup, maximum slowdown).

use crate::controller::RunReport;

/// Per-thread slowdowns: `shared_time / alone_time` for each thread, where
/// times are the cycles needed to complete the thread's request stream.
///
/// Threads that completed nothing get a slowdown of `f64::INFINITY`.
#[must_use]
pub fn slowdowns(alone_finish: &[u64], shared: &RunReport) -> Vec<f64> {
    shared
        .threads
        .iter()
        .zip(alone_finish)
        .map(|(t, &alone)| {
            if t.finish == 0 || alone == 0 {
                f64::INFINITY
            } else {
                t.finish as f64 / alone as f64
            }
        })
        .collect()
}

/// Weighted speedup: Σ (alone_time / shared_time), the standard system
/// throughput metric (higher is better; max = thread count).
#[must_use]
pub fn weighted_speedup(alone_finish: &[u64], shared: &RunReport) -> f64 {
    slowdowns(alone_finish, shared)
        .iter()
        .map(|s| {
            if s.is_finite() && *s > 0.0 {
                1.0 / s
            } else {
                0.0
            }
        })
        .sum()
}

/// Maximum slowdown: the unfairness metric (lower is better; 1.0 = no
/// interference).
#[must_use]
pub fn max_slowdown(alone_finish: &[u64], shared: &RunReport) -> f64 {
    slowdowns(alone_finish, shared)
        .into_iter()
        .fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CtrlStats, ThreadReport};

    fn report(finishes: &[u64]) -> RunReport {
        RunReport {
            scheduler: "test".into(),
            cycles: *finishes.iter().max().unwrap_or(&0),
            threads: finishes
                .iter()
                .map(|&f| ThreadReport {
                    completed: 10,
                    avg_latency: 10.0,
                    finish: f,
                })
                .collect(),
            stats: CtrlStats::default(),
            row_hit_rate: 0.0,
            charge_cache_hit_rate: 0.0,
            dynamic_energy_pj: 0.0,
            io_energy_pj: 0.0,
            engine: ia_sim::EngineStats::default(),
            reliability: None,
            trace: None,
        }
    }

    #[test]
    fn no_interference_means_unity() {
        let alone = [100, 200];
        let shared = report(&[100, 200]);
        assert!((weighted_speedup(&alone, &shared) - 2.0).abs() < 1e-12);
        assert!((max_slowdown(&alone, &shared) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interference_shows_in_metrics() {
        let alone = [100, 100];
        let shared = report(&[200, 400]);
        let ws = weighted_speedup(&alone, &shared);
        assert!((ws - 0.75).abs() < 1e-12, "1/2 + 1/4");
        assert!((max_slowdown(&alone, &shared) - 4.0).abs() < 1e-12);
        let slow = slowdowns(&alone, &shared);
        assert_eq!(slow, vec![2.0, 4.0]);
    }

    #[test]
    fn incomplete_thread_is_infinite_slowdown() {
        let alone = [100];
        let shared = report(&[0]);
        assert!(slowdowns(&alone, &shared)[0].is_infinite());
        assert_eq!(weighted_speedup(&alone, &shared), 0.0);
    }
}
