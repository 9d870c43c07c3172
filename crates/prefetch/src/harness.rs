//! The prefetch evaluation harness: demand stream → cache + prefetcher,
//! measuring the standard coverage/accuracy metrics.

use std::collections::HashSet;

use ia_cache::{Cache, CacheError, CacheOp};

use crate::Prefetcher;

/// Standard prefetcher quality metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchMetrics {
    /// Demand accesses observed.
    pub demands: u64,
    /// Demand misses that went to memory (not covered by a prefetch).
    pub uncovered_misses: u64,
    /// Demand misses avoided because a prefetch brought the line early.
    pub covered_misses: u64,
    /// Prefetches issued.
    pub issued: u64,
    /// Prefetches that were used by a demand before eviction.
    pub useful: u64,
    /// Prefetches evicted unused.
    pub useless: u64,
}

impl PrefetchMetrics {
    /// Coverage: fraction of would-be misses eliminated, in [0, 1].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.covered_misses + self.uncovered_misses;
        if total == 0 {
            0.0
        } else {
            self.covered_misses as f64 / total as f64
        }
    }

    /// Accuracy: fraction of issued prefetches that proved useful.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let resolved = self.useful + self.useless;
        if resolved == 0 {
            0.0
        } else {
            self.useful as f64 / resolved as f64
        }
    }
}

/// Drives a prefetcher against a cache with a demand stream.
#[derive(Debug)]
pub struct PrefetchHarness {
    cache: Cache,
    prefetcher: Box<dyn Prefetcher>,
    /// Lines currently resident because of an (unused) prefetch.
    prefetched: HashSet<u64>,
    line_bytes: u64,
    metrics: PrefetchMetrics,
}

impl PrefetchHarness {
    /// Creates a harness over a cache of the given geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] from cache construction.
    pub fn new(
        cache_bytes: u64,
        line_bytes: u64,
        ways: usize,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Result<Self, CacheError> {
        Ok(PrefetchHarness {
            cache: Cache::new(cache_bytes, line_bytes, ways)?,
            prefetcher,
            prefetched: HashSet::new(),
            line_bytes,
            metrics: PrefetchMetrics::default(),
        })
    }

    /// Metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &PrefetchMetrics {
        &self.metrics
    }

    fn note_evictions(&mut self, evicted: Option<u64>) {
        if let Some(addr) = evicted {
            let line = addr / self.line_bytes;
            if self.prefetched.remove(&line) {
                self.metrics.useless += 1;
                self.prefetcher.feedback(line, false);
            }
        }
    }

    /// Issues one demand access (byte address).
    pub fn demand(&mut self, addr: u64) {
        let line = addr / self.line_bytes;
        self.metrics.demands += 1;
        let was_prefetched = self.prefetched.remove(&line);
        let resident = self.cache.contains(addr);
        match (resident, was_prefetched) {
            (true, true) => {
                self.metrics.covered_misses += 1;
                self.metrics.useful += 1;
                self.prefetcher.feedback(line, true);
            }
            (true, false) => {}
            (false, _) => {
                self.metrics.uncovered_misses += 1;
            }
        }
        let access = self.cache.access(addr, CacheOp::Read);
        self.note_evictions(access.evicted);

        // The prefetcher sees the demand stream with hit/miss outcome.
        for target in self.prefetcher.observe(line, !resident) {
            let target_addr = target * self.line_bytes;
            if self.cache.contains(target_addr) || self.prefetched.contains(&target) {
                continue;
            }
            self.metrics.issued += 1;
            self.prefetched.insert(target);
            let fill = self
                .cache
                .access_with_priority(target_addr, CacheOp::Read, Some(false));
            self.note_evictions(fill.evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeedbackDirected, GhbPrefetcher, NextLinePrefetcher, StridePrefetcher};

    fn run_stream(prefetcher: Box<dyn Prefetcher>, n: u64) -> PrefetchMetrics {
        let mut h = PrefetchHarness::new(8 * 1024, 64, 4, prefetcher).expect("valid cache");
        for i in 0..n {
            h.demand(i * 64);
        }
        *h.metrics()
    }

    #[test]
    fn stride_prefetcher_covers_a_stream() {
        let m = run_stream(Box::new(StridePrefetcher::new(4)), 2000);
        assert!(m.coverage() > 0.7, "coverage {:.2}", m.coverage());
        assert!(m.accuracy() > 0.8, "accuracy {:.2}", m.accuracy());
    }

    #[test]
    fn next_line_covers_a_stream_with_degree_cost() {
        let m = run_stream(Box::new(NextLinePrefetcher::new(2)), 2000);
        assert!(m.coverage() > 0.5, "coverage {:.2}", m.coverage());
    }

    #[test]
    fn ghb_covers_a_stream() {
        let m = run_stream(Box::new(GhbPrefetcher::new(64, 4)), 2000);
        assert!(m.coverage() > 0.5, "coverage {:.2}", m.coverage());
    }

    #[test]
    fn random_traffic_yields_low_accuracy_for_next_line() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut h = PrefetchHarness::new(8 * 1024, 64, 4, Box::new(NextLinePrefetcher::new(2)))
            .expect("valid cache");
        for _ in 0..4000 {
            h.demand(rng.gen_range(0u64..(1 << 24)) & !63);
        }
        assert!(
            h.metrics().accuracy() < 0.2,
            "accuracy {:.2}",
            h.metrics().accuracy()
        );
        assert!(h.metrics().coverage() < 0.2);
    }

    #[test]
    fn feedback_directed_throttles_on_random_traffic() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut h = PrefetchHarness::new(8 * 1024, 64, 4, Box::new(FeedbackDirected::new(8)))
            .expect("valid cache");
        for _ in 0..2000 {
            // Short runs of 3 then a jump: some prefetches fire, most are
            // useless, accuracy feedback should shrink the degree.
            let base = rng.gen_range(0u64..(1 << 24)) & !63;
            for k in 0..3 {
                h.demand(base + k * 64);
            }
        }
        // We can't reach into the box; re-run with a concrete instance.
        let mut fd = FeedbackDirected::new(8);
        let mut h2 = PrefetchHarness::new(8 * 1024, 64, 4, Box::new(fd.clone())).expect("valid");
        let _ = &mut fd;
        for _ in 0..2000 {
            let base = rng.gen_range(0u64..(1 << 24)) & !63;
            for k in 0..3 {
                h2.demand(base + k * 64);
            }
        }
        // The observable consequence of throttling: fewer issued
        // prefetches per demand than the stream case.
        let per_demand = h2.metrics().issued as f64 / h2.metrics().demands as f64;
        assert!(per_demand < 2.0, "issued/demand {per_demand:.2}");
    }

    #[test]
    fn metrics_bounds() {
        let m = run_stream(Box::new(StridePrefetcher::new(2)), 500);
        assert!(m.coverage() <= 1.0 && m.coverage() >= 0.0);
        assert!(m.accuracy() <= 1.0 && m.accuracy() >= 0.0);
        assert_eq!(m.demands, 500);
        assert!(m.useful + m.useless <= m.issued);
    }
}
