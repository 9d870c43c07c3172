//! Counter-keyed deterministic randomness.
//!
//! The injector never holds a stateful RNG. Every probabilistic decision
//! is a pure function `hash(seed, stream, a, b)` of the campaign seed, a
//! per-fault-kind stream constant, and the *identity* of the decision
//! (which row, which word, which threshold trip). Two consequences:
//!
//! * **Order independence** — whether row A is activated before or after
//!   row B cannot change either row's fate, so campaign results survive
//!   refactors that reorder event delivery.
//! * **Replayability** — a single `u64` seed reproduces an entire
//!   campaign bit-for-bit, which is what lets `exp24` demand
//!   byte-identical JSON across `--threads`.
//!
//! The mixer is the splitmix64 finalizer (Steele et al.), the same
//! avalanche core `ia-rand` uses for seeding xoshiro256++.

/// Stream tag: is this row retention-weak, and how weak?
pub(crate) const STREAM_WEAK: u64 = 0x5245_5445;
/// Stream tag: RowHammer flip decisions per threshold trip.
pub(crate) const STREAM_HAMMER: u64 = 0x4841_4D52;
/// Stream tag: transient bus/command errors per read.
pub(crate) const STREAM_TRANSIENT: u64 = 0x5452_4E53;
/// Stream tag: stuck-at cell placement per (row, word).
pub(crate) const STREAM_STUCK: u64 = 0x5354_434B;
/// Stream tag: which word/bit a retention overrun corrupts.
pub(crate) const STREAM_DECAY: u64 = 0x4443_4159;

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
#[inline]
#[must_use]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The decision hash: uniform `u64` from (seed, stream, a, b).
#[inline]
#[must_use]
pub(crate) fn hash(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    hash_from(prefix(seed, stream), a, b)
}

/// The `(seed, stream)` half of [`hash`]: a caller that draws from one
/// stream on every event computes it once.
#[inline]
#[must_use]
pub(crate) fn prefix(seed: u64, stream: u64) -> u64 {
    // Chained splitmix: each input passes through a full avalanche round
    // before combining, so low-entropy inputs (small row numbers, small
    // counters) still flip every output bit with probability ~1/2.
    mix(mix(seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(stream))
}

/// [`hash`] from its precomputed [`prefix`]:
/// `hash_from(prefix(seed, stream), a, b) == hash(seed, stream, a, b)`.
#[inline]
#[must_use]
pub(crate) fn hash_from(prefix: u64, a: u64, b: u64) -> u64 {
    mix(mix(prefix.wrapping_add(a)).wrapping_add(b))
}

/// Folds a (channel, rank, bank, row) identity into one hash key.
#[inline]
#[must_use]
pub(crate) fn fold(channel: usize, rank: usize, bank: usize, row: u64) -> u64 {
    mix((channel as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(mix((rank as u64) << 32 | bank as u64))
        .wrapping_add(mix(row)))
}

/// Maps a hash to the unit interval [0, 1) with 53 bits of precision.
#[inline]
#[must_use]
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Bernoulli trial: true with probability `p`.
#[inline]
#[must_use]
pub(crate) fn chance(h: u64, p: f64) -> bool {
    unit(h) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_input_sensitive() {
        assert_eq!(hash(1, 2, 3, 4), hash(1, 2, 3, 4));
        let base = hash(1, 2, 3, 4);
        assert_ne!(base, hash(2, 2, 3, 4));
        assert_ne!(base, hash(1, 3, 3, 4));
        assert_ne!(base, hash(1, 2, 4, 4));
        assert_ne!(base, hash(1, 2, 3, 5));
    }

    #[test]
    fn unit_stays_in_range_and_chance_tracks_probability() {
        let mut hits = 0u32;
        for i in 0..10_000u64 {
            let h = hash(7, STREAM_TRANSIENT, i, 0);
            let u = unit(h);
            assert!((0.0..1.0).contains(&u));
            if chance(h, 0.25) {
                hits += 1;
            }
        }
        // 10k trials at p=0.25: expect ~2500, allow generous slack.
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fold_separates_nearby_sites() {
        let a = fold(0, 0, 0, 5);
        assert_ne!(a, fold(0, 0, 0, 6));
        assert_ne!(a, fold(0, 0, 1, 5));
        assert_ne!(a, fold(0, 1, 0, 5));
        assert_ne!(a, fold(1, 0, 0, 5));
    }
}
