//! Set-associative cache with pluggable insertion policy.
//!
//! The replacement stack is LRU; what varies across the published designs
//! the paper cites is the *insertion* position (MRU vs LRU vs bimodal —
//! Qureshi+, ISCA 2007) and whether an external policy overrides insertion
//! priority (the data-aware policies). Both knobs are exposed here.

use crate::error::CacheError;

/// Load or store, as seen by a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOp {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Where a filled line is inserted in the recency stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InsertionPolicy {
    /// Traditional: insert at most-recently-used.
    #[default]
    Mru,
    /// LIP: insert at least-recently-used (thrash-resistant).
    Lru,
    /// BIP: insert at MRU with small probability ε, else at LRU.
    Bimodal {
        /// Per-mille probability of an MRU insertion (ε·1000).
        mru_per_mille: u16,
    },
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Evicted dirty line's address, if the fill displaced one (a
    /// writeback the next level must absorb).
    pub writeback: Option<u64>,
    /// Evicted line address (clean or dirty), if any.
    pub evicted: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Recency stamp: larger = more recent.
    stamp: u64,
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero if no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Merges another counter set into this one (e.g. to aggregate the
    /// stats of several cache slices or epochs).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

/// A set-associative write-back cache.
///
/// # Examples
///
/// ```
/// use ia_cache::{Cache, CacheOp};
/// let mut c = Cache::new(32 * 1024, 64, 8)?;
/// let miss = c.access(0x1000, CacheOp::Read);
/// let hit = c.access(0x1000, CacheOp::Read);
/// assert!(!miss.hit && hit.hit);
/// # Ok::<(), ia_cache::CacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Option<Line>>>,
    line_bytes: u64,
    ways: usize,
    policy: InsertionPolicy,
    stats: CacheStats,
    clock: u64,
    /// Deterministic counter driving the bimodal choice.
    bip_counter: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and `ways`
    /// associativity, using MRU insertion.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] if sizes are zero, not powers of two where
    /// required, or inconsistent (size not divisible by line×ways).
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Result<Self, CacheError> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(CacheError::invalid("cache dimensions must be non-zero"));
        }
        if !line_bytes.is_power_of_two() {
            return Err(CacheError::invalid("line size must be a power of two"));
        }
        let lines = size_bytes / line_bytes;
        if lines == 0 || !lines.is_multiple_of(ways as u64) {
            return Err(CacheError::invalid(
                "size must be divisible by line size × ways",
            ));
        }
        let set_count = (lines / ways as u64) as usize;
        if !set_count.is_power_of_two() {
            return Err(CacheError::invalid("set count must be a power of two"));
        }
        Ok(Cache {
            sets: vec![vec![None; ways]; set_count],
            line_bytes,
            ways,
            policy: InsertionPolicy::Mru,
            stats: CacheStats::default(),
            clock: 0,
            bip_counter: 0,
        })
    }

    /// Sets the insertion policy (chainable).
    #[must_use]
    pub fn with_insertion_policy(mut self, policy: InsertionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Set index of an address.
    #[must_use]
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets.len() as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.sets.len() as u64
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * self.line_bytes
    }

    /// Whether `addr` is currently cached (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.sets[set].iter().flatten().any(|l| l.tag == tag)
    }

    /// Accesses `addr`, filling on miss. Returns hit/eviction information.
    pub fn access(&mut self, addr: u64, op: CacheOp) -> CacheAccess {
        self.access_with_priority(addr, op, None)
    }

    /// Accesses `addr` with an explicit insertion override: `Some(true)`
    /// forces MRU insertion, `Some(false)` forces LRU insertion (used by
    /// the data-aware policies), `None` uses the default policy.
    pub fn access_with_priority(
        &mut self,
        addr: u64,
        op: CacheOp,
        high_priority: Option<bool>,
    ) -> CacheAccess {
        self.clock += 1;
        let set_idx = self.set_of(addr);
        let tag = self.tag_of(addr);
        let set = &mut self.sets[set_idx];

        // Hit path: promote to MRU, mark dirty on write.
        if let Some(line) = set.iter_mut().flatten().find(|l| l.tag == tag) {
            line.stamp = self.clock;
            if op == CacheOp::Write {
                line.dirty = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }
        self.stats.misses += 1;

        // Miss path: pick a victim (invalid first, else LRU).
        let victim_way = match set.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let (w, _) = set
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| l.map(|l| (i, l.stamp)))
                    .min_by_key(|&(_, stamp)| stamp)
                    // lint: allow(P001, position() found no empty way, so every way is Some)
                    .expect("full set has lines");
                w
            }
        };
        let (mut writeback, mut evicted) = (None, None);
        if let Some(old) = set[victim_way] {
            let addr = self.addr_of(set_idx, old.tag);
            evicted = Some(addr);
            if old.dirty {
                writeback = Some(addr);
            }
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
        }

        // Insertion stamp per policy (LRU insertion = oldest stamp in set).
        let mru = match high_priority {
            Some(p) => p,
            None => match self.policy {
                InsertionPolicy::Mru => true,
                InsertionPolicy::Lru => false,
                InsertionPolicy::Bimodal { mru_per_mille } => {
                    self.bip_counter = self.bip_counter.wrapping_add(1);
                    (self.bip_counter % 1000) < u64::from(mru_per_mille)
                }
            },
        };
        let set = &mut self.sets[set_idx];
        let stamp = if mru {
            self.clock
        } else {
            // One below the current minimum: next miss evicts this line
            // unless it is re-referenced (which promotes it).
            set.iter()
                .flatten()
                .map(|l| l.stamp)
                .min()
                .unwrap_or(1)
                .saturating_sub(1)
        };
        set[victim_way] = Some(Line {
            tag,
            dirty: op == CacheOp::Write,
            stamp,
        });
        CacheAccess {
            hit: false,
            writeback,
            evicted,
        }
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.iter_mut().for_each(|l| *l = None);
        }
        self.stats = CacheStats::default();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut c = tiny();
        c.access(0x0, CacheOp::Read);
        c.access(0x0, CacheOp::Read);
        c.access(0x40, CacheOp::Write);
        let mut total = CacheStats::default();
        total.merge(c.stats());
        total.merge(c.stats());
        assert_eq!(total.accesses(), 6);
        assert_eq!((total.hits, total.misses), (2, 4));
        assert_eq!((c.stats().hits, c.stats().misses), (1, 2));
        assert!((c.stats().hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(512, 64, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Cache::new(0, 64, 4).is_err());
        assert!(Cache::new(1024, 0, 4).is_err());
        assert!(Cache::new(1024, 64, 0).is_err());
        assert!(Cache::new(1024, 48, 4).is_err(), "line not power of two");
        assert!(
            Cache::new(64 * 3, 64, 1).is_err(),
            "3 sets not a power of two"
        );
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x0, CacheOp::Read).hit);
        assert!(c.access(0x0, CacheOp::Read).hit);
        assert!(c.contains(0x0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = tiny();
        // Set stride = 4 sets × 64 = 256 bytes; these three map to set 0.
        c.access(0, CacheOp::Read);
        c.access(256, CacheOp::Read);
        c.access(0, CacheOp::Read); // 0 is now MRU
        let r = c.access(512, CacheOp::Read); // evicts 256
        assert_eq!(r.evicted, Some(256));
        assert!(c.contains(0));
        assert!(!c.contains(256));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, CacheOp::Write);
        c.access(256, CacheOp::Read);
        let r = c.access(512, CacheOp::Read); // evicts 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, CacheOp::Read);
        c.access(256, CacheOp::Read);
        let r = c.access(512, CacheOp::Read);
        assert_eq!(r.evicted, Some(0));
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn lru_insertion_is_thrash_resistant() {
        // Working set of 3 lines cycling through a 2-way set: MRU insertion
        // yields zero hits; LRU insertion lets part of the set stick.
        let run = |policy: InsertionPolicy| {
            let mut c = Cache::new(128, 64, 2)
                .unwrap()
                .with_insertion_policy(policy);
            for _ in 0..100 {
                for addr in [0u64, 128, 256] {
                    c.access(addr, CacheOp::Read);
                }
            }
            c.stats().hits
        };
        let mru_hits = run(InsertionPolicy::Mru);
        let lip_hits = run(InsertionPolicy::Lru);
        assert_eq!(mru_hits, 0, "cyclic thrash defeats MRU insertion");
        assert!(
            lip_hits > 50,
            "LIP must retain part of the working set: {lip_hits}"
        );
    }

    #[test]
    fn bimodal_occasionally_inserts_mru() {
        let mut c = Cache::new(128, 64, 2)
            .unwrap()
            .with_insertion_policy(InsertionPolicy::Bimodal { mru_per_mille: 500 });
        for i in 0..100u64 {
            c.access(i * 128, CacheOp::Read);
        }
        assert_eq!(c.stats().misses, 100);
    }

    #[test]
    fn priority_override_pins_hot_line() {
        let mut c = Cache::new(128, 64, 2).unwrap();
        c.access_with_priority(0, CacheOp::Read, Some(true));
        // Low-priority fills should evict each other, not the pinned line.
        for i in 1..50u64 {
            c.access_with_priority(i * 128, CacheOp::Read, Some(false));
        }
        assert!(
            c.contains(0),
            "high-priority line survived low-priority churn"
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, CacheOp::Write);
        c.reset();
        assert!(!c.contains(0));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        c.access(0, CacheOp::Read);
        c.access(0, CacheOp::Read);
        c.access(0, CacheOp::Read);
        c.access(64, CacheOp::Read);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
