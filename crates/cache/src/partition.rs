//! Utility-based cache partitioning (Qureshi & Patt, MICRO 2006): shadow
//! utility monitors measure each thread's hits-per-way curve; a partitioner
//! assigns ways to threads by marginal utility; a partitioned cache
//! enforces the quotas.

use crate::error::CacheError;
use crate::set_assoc::{CacheOp, CacheStats};

/// A shadow fully-LRU tag directory that records, for each access, the
/// recency depth at which it would have hit — yielding the hits(ways)
/// utility curve without disturbing the real cache (the UMON).
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    /// Sampled shadow sets: each is an LRU stack of tags.
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    /// `hits_at[d]` = accesses that hit at recency depth `d`.
    hits_at: Vec<u64>,
    accesses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor shadowing `sets` sampled sets of `ways` ways.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] if any dimension is zero or `sets` is not a
    /// power of two.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> Result<Self, CacheError> {
        if sets == 0 || ways == 0 || line_bytes == 0 {
            return Err(CacheError::invalid("monitor dimensions must be non-zero"));
        }
        if !sets.is_power_of_two() {
            return Err(CacheError::invalid(
                "monitor set count must be a power of two",
            ));
        }
        Ok(UtilityMonitor {
            sets: vec![Vec::new(); sets],
            ways,
            line_bytes,
            hits_at: vec![0; ways],
            accesses: 0,
        })
    }

    /// Records an access.
    pub fn record(&mut self, addr: u64) {
        self.accesses += 1;
        let line = addr / self.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let stack = &mut self.sets[set];
        if let Some(depth) = stack.iter().position(|&t| t == tag) {
            self.hits_at[depth] += 1;
            stack.remove(depth);
        } else if stack.len() == self.ways {
            stack.pop();
        }
        stack.insert(0, tag);
    }

    /// Hits this thread would get with an allocation of `ways` ways.
    #[must_use]
    pub fn hits_with_ways(&self, ways: usize) -> u64 {
        self.hits_at.iter().take(ways).sum()
    }

    /// Total recorded accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Assigns `total_ways` among threads with the UCP *lookahead* algorithm:
/// at each step, every thread reports the best hits-per-way slope over any
/// number of additional ways it could receive; the thread with the
/// steepest slope gets that whole block. Lookahead (unlike pure greedy)
/// crosses utility plateaus, e.g. a thread whose hits only materialize
/// once its full working set fits. Every thread is guaranteed one way.
///
/// # Errors
///
/// Returns [`CacheError`] if `monitors` is empty or `total_ways` is less
/// than the thread count.
pub fn partition_by_utility(
    monitors: &[UtilityMonitor],
    total_ways: usize,
) -> Result<Vec<usize>, CacheError> {
    if monitors.is_empty() {
        return Err(CacheError::invalid("need at least one utility monitor"));
    }
    if total_ways < monitors.len() {
        return Err(CacheError::invalid("need at least one way per thread"));
    }
    let mut alloc = vec![1usize; monitors.len()];
    let mut remaining = total_ways - monitors.len();
    while remaining > 0 {
        // For each thread: best (gain/extra_ways, extra_ways) reachable
        // within the remaining budget.
        let mut best: Option<(usize, usize, f64)> = None; // (thread, extra, slope)
        for (i, m) in monitors.iter().enumerate() {
            let here = m.hits_with_ways(alloc[i]);
            let max_extra = remaining.min(m.ways.saturating_sub(alloc[i]));
            for extra in 1..=max_extra {
                let gain = m.hits_with_ways(alloc[i] + extra) - here;
                let slope = gain as f64 / extra as f64;
                if best.is_none_or(|(_, _, s)| slope > s) {
                    best = Some((i, extra, slope));
                }
            }
        }
        match best {
            Some((i, extra, _)) => {
                alloc[i] += extra;
                remaining -= extra;
            }
            None => {
                // No thread can absorb more ways; spread the remainder.
                alloc[0] += remaining;
                remaining = 0;
            }
        }
    }
    Ok(alloc)
}

/// A way-partitioned shared cache: each thread may occupy at most its
/// quota of ways per set; victims are chosen from over-quota threads
/// first.
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    /// `sets[s]` holds (tag, thread, stamp).
    sets: Vec<Vec<(u64, usize, u64)>>,
    ways: usize,
    line_bytes: u64,
    quotas: Vec<usize>,
    clock: u64,
    /// Per-thread statistics.
    pub thread_stats: Vec<CacheStats>,
}

impl PartitionedCache {
    /// Creates a partitioned cache; `quotas` must sum to `ways`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on zero dimensions, a non-power-of-two set
    /// count, or quotas that do not sum to the associativity.
    pub fn new(
        sets: usize,
        ways: usize,
        line_bytes: u64,
        quotas: Vec<usize>,
    ) -> Result<Self, CacheError> {
        if sets == 0 || ways == 0 || line_bytes == 0 || quotas.is_empty() {
            return Err(CacheError::invalid(
                "partitioned cache dimensions must be non-zero",
            ));
        }
        if !sets.is_power_of_two() {
            return Err(CacheError::invalid("set count must be a power of two"));
        }
        if quotas.iter().sum::<usize>() != ways {
            return Err(CacheError::invalid("quotas must sum to the associativity"));
        }
        let threads = quotas.len();
        Ok(PartitionedCache {
            sets: vec![Vec::new(); sets],
            ways,
            line_bytes,
            quotas,
            clock: 0,
            thread_stats: vec![CacheStats::default(); threads],
        })
    }

    /// Accesses `addr` on behalf of `thread`. Returns `true` on hit.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn access(&mut self, addr: u64, thread: usize, _op: CacheOp) -> bool {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(t, th, _)| *t == tag && *th == thread) {
            entry.2 = self.clock;
            self.thread_stats[thread].hits += 1;
            return true;
        }
        self.thread_stats[thread].misses += 1;
        if set.len() == self.ways {
            // Victim: LRU among threads over quota; else this thread's LRU;
            // else global LRU.
            let mut occupancy = vec![0usize; self.quotas.len()];
            for &(_, th, _) in set.iter() {
                occupancy[th] += 1;
            }
            let victim = set
                .iter()
                .enumerate()
                .filter(|(_, (_, th, _))| occupancy[*th] > self.quotas[*th])
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .map(|(i, _)| i)
                .or_else(|| {
                    set.iter()
                        .enumerate()
                        .filter(|(_, (_, th, _))| *th == thread)
                        .min_by_key(|(_, (_, _, stamp))| *stamp)
                        .map(|(i, _)| i)
                })
                .unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, stamp))| *stamp)
                        .map(|(i, _)| i)
                        // lint: allow(P001, eviction only runs on a full, non-empty set)
                        .expect("full set")
                });
            self.thread_stats[victim_thread(set, victim)].evictions += 1;
            set.swap_remove(victim);
        }
        set.push((tag, thread, self.clock));
        false
    }
}

fn victim_thread(set: &[(u64, usize, u64)], idx: usize) -> usize {
    set[idx].1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_builds_utility_curve() {
        let mut m = UtilityMonitor::new(1, 4, 64).unwrap();
        // Cyclic access over 2 lines: hits at depth 1 after warmup.
        for _ in 0..10 {
            m.record(0);
            m.record(64);
        }
        assert!(m.hits_with_ways(2) > m.hits_with_ways(1));
        assert_eq!(
            m.hits_with_ways(4),
            m.hits_with_ways(2),
            "no deeper reuse exists"
        );
        assert_eq!(m.accesses(), 20);
    }

    #[test]
    fn monitor_validates() {
        assert!(UtilityMonitor::new(0, 4, 64).is_err());
        assert!(UtilityMonitor::new(4, 0, 64).is_err());
        assert!(UtilityMonitor::new(3, 4, 64).is_err());
    }

    #[test]
    fn partition_gives_ways_to_the_thread_that_uses_them() {
        // Thread A reuses an 8-line set; thread B streams (no reuse).
        let mut a = UtilityMonitor::new(1, 16, 64).unwrap();
        let mut b = UtilityMonitor::new(1, 16, 64).unwrap();
        for _ in 0..20 {
            for i in 0..8u64 {
                a.record(i * 64);
            }
        }
        for i in 0..200u64 {
            b.record(i * 64);
        }
        let alloc = partition_by_utility(&[a, b], 16).unwrap();
        assert!(
            alloc[0] >= 8,
            "reuse thread should win ≥8 ways, got {:?}",
            alloc
        );
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert!(alloc[1] >= 1, "every thread keeps at least one way");
    }

    #[test]
    fn partition_validates() {
        let m = UtilityMonitor::new(1, 4, 64).unwrap();
        assert!(partition_by_utility(&[], 4).is_err());
        assert!(partition_by_utility(&[m.clone(), m], 1).is_err());
    }

    #[test]
    fn partitioned_cache_enforces_quota() {
        // 1 set × 4 ways, quotas [3, 1]. Thread 1 streams; thread 0's
        // 3-line working set must keep hitting.
        let mut c = PartitionedCache::new(1, 4, 64, vec![3, 1]).unwrap();
        for _ in 0..5 {
            for i in 0..3u64 {
                c.access(i * 64, 0, CacheOp::Read);
            }
        }
        for i in 100..200u64 {
            c.access(i * 64, 1, CacheOp::Read);
        }
        let before = c.thread_stats[0].hits;
        for i in 0..3u64 {
            c.access(i * 64, 0, CacheOp::Read);
        }
        assert_eq!(
            c.thread_stats[0].hits - before,
            3,
            "quota protected thread 0"
        );
    }

    #[test]
    fn partitioned_cache_validates() {
        assert!(PartitionedCache::new(0, 4, 64, vec![4]).is_err());
        assert!(
            PartitionedCache::new(2, 4, 64, vec![3]).is_err(),
            "quota sum mismatch"
        );
        assert!(
            PartitionedCache::new(3, 4, 64, vec![4]).is_err(),
            "sets not power of two"
        );
        assert!(PartitionedCache::new(2, 4, 64, vec![]).is_err());
    }
}
