//! The hasher behind every site-indexed map in the fault stack.
//!
//! Injector and reliability-pipeline maps are keyed by simulator
//! coordinates — (channel, rank, bank, row), plus a word index — that no
//! untrusted input ever reaches, so std's DoS-resistant SipHash buys
//! nothing and costs most of a fault hook call. [`SiteHasher`] folds each
//! integer with one multiply-rotate and finishes with the crate's
//! splitmix64 avalanche, so both the table's bucket bits and its tag bits
//! see well-mixed input. It is fixed-seed: a map's layout, and therefore
//! its iteration order, is the same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::mix;

/// A `HashMap` keyed by simulator coordinates, hashed with [`SiteHasher`].
pub type SiteMap<K, V> = HashMap<K, V, BuildHasherDefault<SiteHasher>>;

/// Fixed-seed multiply-rotate hasher for small integer keys (see module
/// docs). Not collision-resistant against chosen keys — use it only for
/// keys the simulator itself generates.
#[derive(Debug, Clone, Default)]
pub struct SiteHasher {
    state: u64,
}

impl Hasher for SiteHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = (self.state ^ x)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<SiteHasher>::default().hash_one(value)
    }

    #[test]
    fn same_key_same_hash_in_every_hasher() {
        let key = ((0usize, 1usize, 2usize, 1001u64), 3u64);
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn neighbouring_sites_and_field_order_separate() {
        let base = hash_of(&(0usize, 0usize, 0usize, 5u64));
        assert_ne!(base, hash_of(&(0usize, 0usize, 0usize, 6u64)));
        assert_ne!(base, hash_of(&(0usize, 0usize, 1usize, 5u64)));
        assert_ne!(base, hash_of(&(0usize, 1usize, 0usize, 5u64)));
        assert_ne!(base, hash_of(&(1usize, 0usize, 0usize, 5u64)));
        assert_ne!(
            hash_of(&(0usize, 1usize)),
            hash_of(&(1usize, 0usize)),
            "coordinates do not commute"
        );
    }

    #[test]
    fn dense_row_keys_fill_tag_and_bucket_bits() {
        // A row scan is the common key stream: its hashes must vary in the
        // top 7 bits (the table's tag) and the low bits (the bucket).
        let hashes: Vec<u64> = (0..256u64)
            .map(|row| hash_of(&(0usize, 0usize, 0usize, row)))
            .collect();
        let tags: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        let buckets: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xFF).collect();
        assert!(tags.len() > 100, "{} distinct tags", tags.len());
        assert!(buckets.len() > 140, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn byte_writes_fold_every_chunk() {
        let mut a = SiteHasher::default();
        a.write(b"0123456789");
        let mut b = SiteHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish(), "the tail chunk counts");
    }
}
