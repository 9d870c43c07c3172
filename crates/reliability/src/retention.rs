//! DRAM retention-time modelling and RAIDR-style retention-aware refresh.
//!
//! Reproduces the statistical picture from Liu+ (ISCA 2012/2013): the vast
//! majority of rows retain data far longer than the worst-case 64 ms
//! refresh interval assumes; only a tiny weak tail needs frequent refresh.
//! RAIDR bins rows by measured retention (stored in Bloom filters) and
//! refreshes each bin at its own rate, eliminating ~75% of refreshes.

use rand::Rng;

use crate::ReliabilityError;

/// Retention-time bins used by RAIDR (refresh interval in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RetentionBin {
    /// Weakest rows: refreshed every 64 ms (the baseline rate).
    Ms64,
    /// Refreshed every 128 ms.
    Ms128,
    /// Strong rows: refreshed every 256 ms.
    Ms256,
}

impl RetentionBin {
    /// Bins from weakest to strongest.
    #[must_use]
    pub fn all() -> [RetentionBin; 3] {
        [RetentionBin::Ms64, RetentionBin::Ms128, RetentionBin::Ms256]
    }
}

/// Statistical model of per-row retention times.
///
/// Calibrated to the published observation that fewer than ~1000 cells in
/// a 32 GiB module leak before 256 ms: per-row weak probabilities default
/// to ~10⁻³ (<128 ms) and ~3·10⁻⁴ (<64 ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionModel {
    /// Probability a row retains < 64 ms.
    pub p_under_64ms: f64,
    /// Probability a row retains < 128 ms (inclusive of the above).
    pub p_under_128ms: f64,
}

impl RetentionModel {
    /// The default profile from the RAIDR evaluation's device assumptions.
    #[must_use]
    pub fn typical() -> Self {
        RetentionModel {
            p_under_64ms: 3e-4,
            p_under_128ms: 1e-3,
        }
    }

    /// Creates a custom profile.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError`] unless
    /// `0 ≤ p_under_64ms ≤ p_under_128ms ≤ 1`.
    pub fn new(p_under_64ms: f64, p_under_128ms: f64) -> Result<Self, ReliabilityError> {
        if !(0.0..=1.0).contains(&p_under_64ms)
            || !(0.0..=1.0).contains(&p_under_128ms)
            || p_under_64ms > p_under_128ms
        {
            return Err(ReliabilityError::invalid(
                "require 0 <= p_under_64ms <= p_under_128ms <= 1",
            ));
        }
        Ok(RetentionModel {
            p_under_64ms,
            p_under_128ms,
        })
    }

    /// Samples a bin for one row.
    pub fn sample_bin<R: Rng + ?Sized>(&self, rng: &mut R) -> RetentionBin {
        let u: f64 = rng.gen();
        if u < self.p_under_64ms {
            RetentionBin::Ms64
        } else if u < self.p_under_128ms {
            RetentionBin::Ms128
        } else {
            RetentionBin::Ms256
        }
    }

    /// Profiles a bank of `rows` rows (the REAPER-style profiling step).
    pub fn profile<R: Rng + ?Sized>(&self, rows: u64, rng: &mut R) -> RetentionProfile {
        let mut weak64 = Vec::new();
        let mut weak128 = Vec::new();
        for row in 0..rows {
            match self.sample_bin(rng) {
                RetentionBin::Ms64 => weak64.push(row),
                RetentionBin::Ms128 => weak128.push(row),
                RetentionBin::Ms256 => {}
            }
        }
        RetentionProfile {
            rows,
            weak64,
            weak128,
        }
    }
}

impl Default for RetentionModel {
    fn default() -> Self {
        RetentionModel::typical()
    }
}

/// Result of profiling: the explicit weak-row lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetentionProfile {
    /// Total rows profiled.
    pub rows: u64,
    /// Rows retaining < 64 ms.
    pub weak64: Vec<u64>,
    /// Rows retaining 64–128 ms.
    pub weak128: Vec<u64>,
}

impl RetentionProfile {
    /// Bin of a given row per this profile.
    #[must_use]
    pub fn bin(&self, row: u64) -> RetentionBin {
        if self.weak64.contains(&row) {
            RetentionBin::Ms64
        } else if self.weak128.contains(&row) {
            RetentionBin::Ms128
        } else {
            RetentionBin::Ms256
        }
    }
}

/// A counting-free Bloom filter, as RAIDR uses to store weak-row sets in
/// a few kilobits of controller state.
///
/// # Examples
///
/// ```
/// use ia_reliability::BloomFilter;
/// let mut bf = BloomFilter::new(1024, 3)?;
/// bf.insert(42);
/// assert!(bf.contains(42));
/// # Ok::<(), ia_reliability::ReliabilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
    insertions: u64,
}

impl BloomFilter {
    /// Creates a filter with `bits` bits and `hashes` hash functions.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError`] if `bits == 0` or `hashes == 0`.
    pub fn new(bits: usize, hashes: u32) -> Result<Self, ReliabilityError> {
        if bits == 0 || hashes == 0 {
            return Err(ReliabilityError::invalid(
                "bloom filter needs bits and hashes",
            ));
        }
        Ok(BloomFilter {
            bits: vec![0; bits.div_ceil(64)],
            m: bits,
            k: hashes,
            insertions: 0,
        })
    }

    fn positions(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        // Double hashing with two independent multiplicative mixes.
        let h1 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        let h2 = key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) | 1;
        (0..self.k)
            .map(move |i| (h1.wrapping_add(h2.wrapping_mul(u64::from(i))) % self.m as u64) as usize)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let positions: Vec<usize> = self.positions(key).collect();
        for p in positions {
            self.bits[p / 64] |= 1 << (p % 64);
        }
        self.insertions += 1;
    }

    /// Tests membership (no false negatives; false positives possible).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|p| self.bits[p / 64] & (1 << (p % 64)) != 0)
    }

    /// Number of insertions performed.
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Storage cost in bits.
    #[must_use]
    pub fn size_bits(&self) -> usize {
        self.m
    }
}

/// RAIDR: retention-aware refresh using Bloom-filter bins.
#[derive(Debug, Clone)]
pub struct Raidr {
    bloom64: BloomFilter,
    bloom128: BloomFilter,
    rows: u64,
}

impl Raidr {
    /// Builds RAIDR state from a retention profile, using Bloom filters
    /// sized generously relative to the weak-row counts (×32 bits/entry,
    /// min 1 Kib) to keep false-positive rates negligible.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError`] if the profile is empty.
    pub fn from_profile(profile: &RetentionProfile) -> Result<Self, ReliabilityError> {
        if profile.rows == 0 {
            return Err(ReliabilityError::invalid("profile covers zero rows"));
        }
        let size = |n: usize| (n * 32).max(1024);
        let mut bloom64 = BloomFilter::new(size(profile.weak64.len()), 4)?;
        let mut bloom128 = BloomFilter::new(size(profile.weak128.len()), 4)?;
        for &r in &profile.weak64 {
            bloom64.insert(r);
        }
        for &r in &profile.weak128 {
            bloom128.insert(r);
        }
        Ok(Raidr {
            bloom64,
            bloom128,
            rows: profile.rows,
        })
    }

    /// Bin RAIDR assigns to a row (Bloom false positives demote a strong
    /// row to a weaker bin — safe, just slightly more refresh).
    #[must_use]
    pub fn bin(&self, row: u64) -> RetentionBin {
        if self.bloom64.contains(row) {
            RetentionBin::Ms64
        } else if self.bloom128.contains(row) {
            RetentionBin::Ms128
        } else {
            RetentionBin::Ms256
        }
    }

    /// Whether `row` must be refreshed in 64 ms window number `window`.
    ///
    /// Bin 64 refreshes every window, bin 128 every second window, bin 256
    /// every fourth.
    #[must_use]
    pub fn needs_refresh(&self, row: u64, window: u64) -> bool {
        match self.bin(row) {
            RetentionBin::Ms64 => true,
            RetentionBin::Ms128 => window.is_multiple_of(2),
            RetentionBin::Ms256 => window.is_multiple_of(4),
        }
    }

    /// Row refreshes RAIDR performs over `windows` 64 ms windows.
    #[must_use]
    pub fn refreshes_over(&self, windows: u64) -> u64 {
        (0..windows)
            .map(|w| (0..self.rows).filter(|&r| self.needs_refresh(r, w)).count() as u64)
            .sum()
    }

    /// Row refreshes the baseline (refresh-everything) performs.
    #[must_use]
    pub fn baseline_refreshes_over(&self, windows: u64) -> u64 {
        self.rows * windows
    }

    /// Fraction of refreshes eliminated vs. baseline over `windows`
    /// windows (the paper's headline is ≈ 0.746 for typical profiles).
    #[must_use]
    pub fn reduction_over(&self, windows: u64) -> f64 {
        let base = self.baseline_refreshes_over(windows);
        if base == 0 {
            return 0.0;
        }
        1.0 - self.refreshes_over(windows) as f64 / base as f64
    }

    /// Controller storage cost in bits.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.bloom64.size_bits() + self.bloom128.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bins_order_weakest_first() {
        assert!(RetentionBin::Ms64 < RetentionBin::Ms256);
    }

    #[test]
    fn model_validates_probabilities() {
        assert!(RetentionModel::new(0.5, 0.1).is_err());
        assert!(RetentionModel::new(-0.1, 0.5).is_err());
        assert!(RetentionModel::new(0.1, 1.5).is_err());
        assert!(RetentionModel::new(0.001, 0.01).is_ok());
    }

    #[test]
    fn typical_profile_is_mostly_strong_rows() {
        let mut rng = SmallRng::seed_from_u64(3);
        let profile = RetentionModel::typical().profile(100_000, &mut rng);
        let weak = profile.weak64.len() + profile.weak128.len();
        assert!(
            weak > 0,
            "some weak rows expected at 1e-3 rate over 100k rows"
        );
        assert!(weak < 1000, "weak tail must be tiny, got {weak}");
    }

    #[test]
    fn profile_bins_match_lists() {
        let profile = RetentionProfile {
            rows: 10,
            weak64: vec![2],
            weak128: vec![5],
        };
        assert_eq!(profile.bin(2), RetentionBin::Ms64);
        assert_eq!(profile.bin(5), RetentionBin::Ms128);
        assert_eq!(profile.bin(7), RetentionBin::Ms256);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bf = BloomFilter::new(4096, 4).unwrap();
        for k in (0..500u64).map(|i| i * 7 + 1) {
            bf.insert(k);
        }
        for k in (0..500u64).map(|i| i * 7 + 1) {
            assert!(bf.contains(k), "false negative for {k}");
        }
        assert_eq!(bf.insertions(), 500);
    }

    #[test]
    fn bloom_false_positive_rate_is_low_when_sized_well() {
        let mut bf = BloomFilter::new(32 * 100, 4).unwrap();
        for k in 0..100u64 {
            bf.insert(k);
        }
        let fps = (1000u64..11_000).filter(|&k| bf.contains(k)).count();
        assert!(fps < 100, "false positive rate too high: {fps}/10000");
    }

    #[test]
    fn bloom_rejects_degenerate_params() {
        assert!(BloomFilter::new(0, 3).is_err());
        assert!(BloomFilter::new(128, 0).is_err());
    }

    #[test]
    fn raidr_never_underrefreshes_weak_rows() {
        let profile = RetentionProfile {
            rows: 64,
            weak64: vec![3, 9],
            weak128: vec![20],
        };
        let raidr = Raidr::from_profile(&profile).unwrap();
        for w in 0..8 {
            assert!(
                raidr.needs_refresh(3, w),
                "64ms row must refresh every window"
            );
            assert!(raidr.needs_refresh(9, w));
        }
        // 128ms rows refresh at least every other window.
        let hits = (0..8).filter(|&w| raidr.needs_refresh(20, w)).count();
        assert!(hits >= 4);
    }

    #[test]
    fn raidr_reduction_approaches_three_quarters() {
        let mut rng = SmallRng::seed_from_u64(11);
        let profile = RetentionModel::typical().profile(32 * 1024, &mut rng);
        let raidr = Raidr::from_profile(&profile).unwrap();
        let reduction = raidr.reduction_over(8);
        assert!(
            (0.70..0.76).contains(&reduction),
            "expected ≈74.6% refresh reduction, got {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn raidr_storage_is_kilobits_not_megabits() {
        let mut rng = SmallRng::seed_from_u64(13);
        let profile = RetentionModel::typical().profile(32 * 1024, &mut rng);
        let raidr = Raidr::from_profile(&profile).unwrap();
        assert!(
            raidr.storage_bits() < 64 * 1024,
            "got {} bits",
            raidr.storage_bits()
        );
    }

    #[test]
    fn raidr_rejects_empty_profile() {
        let profile = RetentionProfile {
            rows: 0,
            weak64: vec![],
            weak128: vec![],
        };
        assert!(Raidr::from_profile(&profile).is_err());
    }
}
