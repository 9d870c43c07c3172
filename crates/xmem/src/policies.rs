//! Data-aware policy adapters: how an intelligent architecture "customizes
//! its policies and mechanisms to the characteristics of the data".
//!
//! Each adapter maps attributes to a concrete decision in some substrate:
//! cache insertion priority and reliability-tier placement.

use ia_cache::{Cache, CacheAccess, CacheOp};

use crate::attributes::{Criticality, DataAttributes, Locality};
use crate::registry::AtomRegistry;

/// Cache-insertion priority for a region: `Some(true)` = high (MRU),
/// `Some(false)` = low (LRU insertion), `None` = let the default policy
/// decide (unknown attributes).
#[must_use]
pub fn insertion_priority(attrs: &DataAttributes) -> Option<bool> {
    match (attrs.criticality, attrs.locality) {
        // Streaming data pollutes: insert at low priority regardless.
        (_, Locality::Streaming) => Some(false),
        // Critical reused data is pinned near MRU.
        (Criticality::Critical, _) => Some(true),
        (_, Locality::Reuse) => Some(true),
        // Tolerant data with unknown locality yields to others.
        (Criticality::Tolerant, Locality::Unknown) => Some(false),
        _ => None,
    }
}

/// Reliability tier index for heterogeneous-reliability placement:
/// 0 = strongest (chipkill), 1 = ECC, 2 = commodity.
#[must_use]
pub fn reliability_tier(attrs: &DataAttributes) -> usize {
    match attrs.error_vulnerability {
        71..=100 => 0,
        31..=70 => 1,
        _ => 2,
    }
}

/// A cache that consults an [`AtomRegistry`] on every access and applies
/// data-aware insertion — the X-Mem cache-management use case.
#[derive(Debug)]
pub struct DataAwareCache<'a> {
    cache: Cache,
    registry: &'a AtomRegistry,
    /// Accesses whose insertion used an attribute hint.
    pub hinted_fills: u64,
}

impl<'a> DataAwareCache<'a> {
    /// Wraps `cache` with attribute lookups from `registry`.
    #[must_use]
    pub fn new(cache: Cache, registry: &'a AtomRegistry) -> Self {
        DataAwareCache {
            cache,
            registry,
            hinted_fills: 0,
        }
    }

    /// Accesses `addr`, applying the atom's insertion priority if known.
    pub fn access(&mut self, addr: u64, op: CacheOp) -> CacheAccess {
        let attrs = self.registry.attrs_at(addr);
        let priority = insertion_priority(&attrs);
        if priority.is_some() && !self.cache.contains(addr) {
            self.hinted_fills += 1;
        }
        self.cache.access_with_priority(addr, op, priority)
    }

    /// The wrapped cache (for statistics).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AccessPattern;

    #[test]
    fn streaming_data_gets_low_priority_even_if_critical() {
        let attrs = DataAttributes::new()
            .criticality(Criticality::Critical)
            .locality(Locality::Streaming);
        assert_eq!(insertion_priority(&attrs), Some(false));
    }

    #[test]
    fn critical_reuse_gets_high_priority() {
        let attrs = DataAttributes::new()
            .criticality(Criticality::Critical)
            .locality(Locality::Reuse);
        assert_eq!(insertion_priority(&attrs), Some(true));
    }

    #[test]
    fn unknown_attributes_defer_to_default_policy() {
        assert_eq!(insertion_priority(&DataAttributes::new()), None);
    }

    #[test]
    fn reliability_tiers_track_vulnerability() {
        assert_eq!(
            reliability_tier(&DataAttributes::new().error_vulnerability(90)),
            0
        );
        assert_eq!(
            reliability_tier(&DataAttributes::new().error_vulnerability(50)),
            1
        );
        assert_eq!(
            reliability_tier(&DataAttributes::new().error_vulnerability(5)),
            2
        );
    }

    #[test]
    fn data_aware_cache_protects_hot_atom_from_streams() {
        // A small cache shared by a reused critical structure and a large
        // stream marked streaming. Without hints the stream thrashes the
        // structure; with hints it cannot.
        let mut reg = AtomRegistry::new();
        reg.register(
            0..4 * 64,
            DataAttributes::new()
                .criticality(Criticality::Critical)
                .locality(Locality::Reuse),
        )
        .unwrap();
        reg.register(
            0x10_0000..0x20_0000,
            DataAttributes::new()
                .locality(Locality::Streaming)
                .pattern(AccessPattern::Sequential),
        )
        .unwrap();

        let hot: Vec<u64> = (0..4u64).map(|i| i * 64).collect();
        let stream: Vec<u64> = (0..512u64).map(|i| 0x10_0000 + i * 64).collect();

        // Oblivious baseline.
        let mut plain = Cache::new(1024, 64, 16).unwrap();
        for &a in &hot {
            plain.access(a, CacheOp::Read);
        }
        for &a in &stream {
            plain.access(a, CacheOp::Read);
        }
        let plain_retained = hot.iter().filter(|&&a| plain.contains(a)).count();

        // Data-aware.
        let mut aware = DataAwareCache::new(Cache::new(1024, 64, 16).unwrap(), &reg);
        for &a in &hot {
            aware.access(a, CacheOp::Read);
        }
        for &a in &stream {
            aware.access(a, CacheOp::Read);
        }
        let aware_retained = hot.iter().filter(|&&a| aware.cache().contains(a)).count();

        assert_eq!(
            plain_retained, 0,
            "oblivious cache loses the hot set to the stream"
        );
        assert_eq!(
            aware_retained, 4,
            "data-aware cache retains the whole hot set"
        );
        assert!(aware.hinted_fills > 0);
    }
}
