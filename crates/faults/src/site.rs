//! The keys and the hasher behind every site-indexed map in the fault
//! stack.
//!
//! Injector and reliability-pipeline maps are keyed by simulator
//! coordinates. A row is one packed [`RowKey`] — channel, rank, bank and
//! row in one order-preserving `u64` — so a map probe hashes one word
//! instead of a four-field tuple; a codeword adds its word index, a rank
//! map takes the [`rank_key`] its rows' keys start with. No untrusted
//! input ever reaches these keys, so std's DoS-resistant SipHash buys
//! nothing and costs most of a fault hook call. [`SiteHasher`] folds each
//! integer with one multiply-rotate and finishes with the crate's
//! splitmix64 avalanche, so both the table's bucket bits and its tag bits
//! see well-mixed input. It is fixed-seed: a map's layout, and therefore
//! its iteration order, is the same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::inject::RowSite;
use crate::rng::mix;

/// Bits of a [`RowKey`] that hold the row; the bank, rank and channel
/// take 8 bits each above them.
const ROW_BITS: u32 = 40;
/// Bits of each of the channel, rank and bank fields.
const FIELD_BITS: u32 = 8;

/// One DRAM row packed into a `u64`: channel:8 | rank:8 | bank:8 |
/// row:40, most significant first. Keys order exactly as the
/// `(channel, rank, bank, row)` tuples they pack, and the top 16 bits
/// are the row's [`rank_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowKey(u64);

impl RowKey {
    /// Packs a row's coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the channel, rank or bank is 256 or more, or the row is
    /// 2^40 or more: such a site would alias another one's key.
    #[must_use]
    #[inline]
    pub fn new(channel: usize, rank: usize, bank: usize, row: u64) -> Self {
        assert!(bank < 1 << FIELD_BITS, "bank {bank} does not fit a RowKey");
        assert!(row < 1 << ROW_BITS, "row {row} does not fit a RowKey");
        RowKey(rank_key(channel, rank) << (ROW_BITS + FIELD_BITS) | (bank as u64) << ROW_BITS | row)
    }

    /// The packed (channel, rank) of the row: [`rank_key`] of its
    /// channel and rank.
    #[must_use]
    #[inline]
    pub fn rank(self) -> u64 {
        self.0 >> (ROW_BITS + FIELD_BITS)
    }

    /// The packed (channel, rank, bank) of the row.
    #[must_use]
    #[inline]
    pub fn bank(self) -> u64 {
        self.0 >> ROW_BITS
    }

    /// The row's coordinates.
    #[must_use]
    pub fn site(self) -> RowSite {
        let field = |shift: u32| ((self.0 >> shift) & ((1 << FIELD_BITS) - 1)) as usize;
        RowSite {
            channel: field(ROW_BITS + 2 * FIELD_BITS),
            rank: field(ROW_BITS + FIELD_BITS),
            bank: field(ROW_BITS),
            row: self.0 & ((1 << ROW_BITS) - 1),
        }
    }
}

/// A (channel, rank) packed as channel:8 | rank:8 — the key of every
/// per-rank map, and the top 16 bits of the [`RowKey`]s of its rows.
///
/// # Panics
///
/// Panics if the channel or rank is 256 or more.
#[must_use]
#[inline]
pub fn rank_key(channel: usize, rank: usize) -> u64 {
    assert!(
        channel < 1 << FIELD_BITS && rank < 1 << FIELD_BITS,
        "channel {channel} rank {rank} does not fit a rank key"
    );
    (channel as u64) << FIELD_BITS | rank as u64
}

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
    fn row_keys_keep_neighbours_and_field_boundaries_apart() {
        let key = |c, r, b, row| RowKey::new(c, r, b, row);
        let base = key(1, 1, 1, 1 << 20);
        for other in [
            key(1, 1, 1, (1 << 20) + 1),
            key(1, 1, 1, (1 << 20) - 1),
            key(1, 1, 2, 1 << 20),
            key(1, 2, 1, 1 << 20),
            key(2, 1, 1, 1 << 20),
        ] {
            assert_ne!(base, other);
        }
        // The largest value of one field never reaches the next one up.
        let top_row = (1u64 << 40) - 1;
        assert_ne!(key(0, 0, 0, top_row), key(0, 0, 1, 0));
        assert_ne!(key(0, 0, 255, top_row), key(0, 1, 0, 0));
        assert_ne!(key(0, 255, 255, top_row), key(1, 0, 0, 0));
        for (c, r, b, row) in [(0, 0, 0, 0), (255, 255, 255, top_row), (3, 1, 7, 1234)] {
            let k = key(c, r, b, row);
            assert_eq!(
                k.site(),
                RowSite {
                    channel: c,
                    rank: r,
                    bank: b,
                    row
                }
            );
            assert_eq!(k.rank(), rank_key(c, r));
            assert_eq!(k.bank(), rank_key(c, r) << 8 | b as u64);
        }
    }

    #[test]
    fn row_key_order_is_tuple_order() {
        let top_row = (1u64 << 40) - 1;
        let mut tuples = Vec::new();
        for c in [0usize, 1, 255] {
            for r in [0usize, 1, 255] {
                for b in [0usize, 7, 255] {
                    for row in [0u64, 1, 1 << 20, top_row] {
                        tuples.push((c, r, b, row));
                    }
                }
            }
        }
        // Shuffle deterministically, then sort both ways.
        tuples.sort_by_key(|t| mix(t.0 as u64 ^ (t.1 as u64) << 9 ^ (t.2 as u64) << 18 ^ t.3));
        let mut by_key: Vec<RowKey> = tuples
            .iter()
            .map(|&(c, r, b, row)| RowKey::new(c, r, b, row))
            .collect();
        by_key.sort_unstable();
        tuples.sort_unstable();
        let unpacked: Vec<_> = by_key
            .iter()
            .map(|k| {
                let s = k.site();
                (s.channel, s.rank, s.bank, s.row)
            })
            .collect();
        assert_eq!(unpacked, tuples);
    }

    #[test]
    #[should_panic(expected = "row 1099511627776 does not fit")]
    fn a_row_past_40_bits_panics() {
        let _ = RowKey::new(0, 0, 0, 1 << 40);
    }

    #[test]
    #[should_panic(expected = "bank 256 does not fit")]
    fn a_bank_past_8_bits_panics() {
        let _ = RowKey::new(0, 0, 256, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a rank key")]
    fn a_rank_past_8_bits_panics() {
        let _ = RowKey::new(0, 256, 0, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a rank key")]
    fn a_channel_past_8_bits_panics() {
        let _ = rank_key(256, 0);
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
            .map(|row| hash_of(&RowKey::new(0, 0, 0, row)))
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
