//! Cache-line compression: Base-Delta-Immediate (Pekhimenko+, PACT 2012),
//! the paper's data-aware exemplar for "adaptively scaling capability to
//! the compressibility of data".

use crate::error::CacheError;

/// The encoding BDI chose for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BdiEncoding {
    /// All-zero block.
    Zeros,
    /// One repeated 8-byte value.
    Repeated,
    /// Base of `base` bytes with deltas of `delta` bytes (plus a zero base).
    BaseDelta {
        /// Base width in bytes (8, 4, or 2).
        base: u8,
        /// Delta width in bytes (1, 2, or 4; < base).
        delta: u8,
    },
    /// Incompressible.
    Uncompressed,
}

impl BdiEncoding {
    /// Compressed size in bytes for a 64-byte block under this encoding
    /// (including base storage and the per-segment base-selection mask).
    #[must_use]
    pub fn compressed_bytes(self) -> usize {
        match self {
            BdiEncoding::Zeros => 1,
            BdiEncoding::Repeated => 8,
            BdiEncoding::BaseDelta { base, delta } => {
                let segments = 64 / base as usize;
                // one stored base + per-segment delta + 1-bit mask per segment
                base as usize + segments * delta as usize + segments.div_ceil(8)
            }
            BdiEncoding::Uncompressed => 64,
        }
    }
}

/// Result of compressing one 64-byte block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compressed {
    /// Chosen encoding.
    pub encoding: BdiEncoding,
    /// Size in bytes.
    pub bytes: usize,
}

impl Compressed {
    /// Compression ratio (64 / size).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        64.0 / self.bytes as f64
    }
}

fn read_segment(block: &[u8], offset: usize, width: usize) -> u64 {
    let mut v = 0u64;
    for i in 0..width {
        v |= u64::from(block[offset + i]) << (8 * i);
    }
    v
}

/// Whether every segment fits `delta`-byte signed deltas against either a
/// zero base or one arbitrary base (BDI's dual-base scheme).
fn try_base_delta(block: &[u8], base_w: usize, delta_w: usize) -> bool {
    let segments = 64 / base_w;
    let limit = 1i128 << (8 * delta_w - 1);
    let fits = |value: u64, base: u64| {
        let d = value as i128 - base as i128;
        // Interpret segment values as unsigned; delta must fit signed width.
        (-limit..limit).contains(&d)
    };
    // The non-zero base is the first segment that does not fit the zero base.
    let mut base: Option<u64> = None;
    for s in 0..segments {
        let v = read_segment(block, s * base_w, base_w);
        if fits(v, 0) {
            continue;
        }
        match base {
            None => base = Some(v),
            Some(b) => {
                if !fits(v, b) {
                    return false;
                }
            }
        }
    }
    true
}

/// Compresses a 64-byte block with BDI, choosing the smallest encoding.
///
/// # Errors
///
/// Returns [`CacheError`] if `block.len() != 64`.
///
/// # Examples
///
/// ```
/// use ia_cache::{bdi_compress, BdiEncoding};
/// let zeros = [0u8; 64];
/// let c = bdi_compress(&zeros)?;
/// assert_eq!(c.encoding, BdiEncoding::Zeros);
/// assert!(c.ratio() > 60.0);
/// # Ok::<(), ia_cache::CacheError>(())
/// ```
pub fn bdi_compress(block: &[u8]) -> Result<Compressed, CacheError> {
    if block.len() != 64 {
        return Err(CacheError::invalid("BDI operates on 64-byte blocks"));
    }
    if block.iter().all(|&b| b == 0) {
        return Ok(Compressed {
            encoding: BdiEncoding::Zeros,
            bytes: 1,
        });
    }
    let first = read_segment(block, 0, 8);
    if (0..8).all(|s| read_segment(block, s * 8, 8) == first) {
        return Ok(Compressed {
            encoding: BdiEncoding::Repeated,
            bytes: 8,
        });
    }
    // Candidate (base, delta) pairs in increasing compressed size.
    let mut best = Compressed {
        encoding: BdiEncoding::Uncompressed,
        bytes: 64,
    };
    for (base_w, delta_w) in [(8usize, 1usize), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1)] {
        let enc = BdiEncoding::BaseDelta {
            base: base_w as u8,
            delta: delta_w as u8,
        };
        let size = enc.compressed_bytes();
        if size < best.bytes && try_base_delta(block, base_w, delta_w) {
            best = Compressed {
                encoding: enc,
                bytes: size,
            };
        }
    }
    Ok(best)
}

/// A compressed cache model: a conventional tag/data organization where
/// each set's data space holds a byte budget rather than a way count,
/// letting compressible lines raise effective capacity (as in BDI's
/// "effectively larger cache").
#[derive(Debug, Clone)]
pub struct CompressedCache {
    /// Per-set resident lines: (tag, compressed size, stamp).
    sets: Vec<Vec<(u64, usize, u64)>>,
    set_bytes: usize,
    line_bytes: u64,
    clock: u64,
    /// Hits / misses.
    pub stats: super::CacheStats,
}

impl CompressedCache {
    /// Creates a compressed cache of `size_bytes` organized as `sets` sets.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] if dimensions are zero or `sets` is not a
    /// power of two.
    pub fn new(size_bytes: usize, sets: usize, line_bytes: u64) -> Result<Self, CacheError> {
        if size_bytes == 0 || sets == 0 || line_bytes == 0 {
            return Err(CacheError::invalid(
                "compressed cache dimensions must be non-zero",
            ));
        }
        if !sets.is_power_of_two() {
            return Err(CacheError::invalid("set count must be a power of two"));
        }
        Ok(CompressedCache {
            sets: vec![Vec::new(); sets],
            set_bytes: size_bytes / sets,
            line_bytes,
            clock: 0,
            stats: super::CacheStats::default(),
        })
    }

    /// Accesses `addr` whose line contents compress to `compressed_bytes`.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u64, compressed_bytes: usize) -> bool {
        self.clock += 1;
        let set_count = self.sets.len() as u64;
        let set = ((addr / self.line_bytes) % set_count) as usize;
        let tag = addr / self.line_bytes / set_count;
        let lines = &mut self.sets[set];
        if let Some(entry) = lines.iter_mut().find(|(t, _, _)| *t == tag) {
            entry.2 = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let size = compressed_bytes.clamp(1, self.line_bytes as usize);
        // Evict LRU lines until the new line fits the set's byte budget.
        let mut used: usize = lines.iter().map(|(_, s, _)| *s).sum();
        while used + size > self.set_bytes && !lines.is_empty() {
            let (idx, _) = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                // lint: allow(P001, loop guard checks !lines.is_empty())
                .expect("non-empty");
            used -= lines[idx].1;
            lines.swap_remove(idx);
            self.stats.evictions += 1;
        }
        if size <= self.set_bytes {
            lines.push((tag, size, self.clock));
        }
        false
    }

    /// Lines currently resident (across all sets).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_of_u64s(vals: [u64; 8]) -> [u8; 64] {
        let mut b = [0u8; 64];
        for (i, v) in vals.iter().enumerate() {
            b[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        b
    }

    #[test]
    fn zeros_compress_to_one_byte() {
        let c = bdi_compress(&[0u8; 64]).unwrap();
        assert_eq!(c.encoding, BdiEncoding::Zeros);
        assert_eq!(c.bytes, 1);
    }

    #[test]
    fn repeated_value_compresses_to_eight_bytes() {
        let b = block_of_u64s([0xDEAD_BEEF; 8]);
        let c = bdi_compress(&b).unwrap();
        assert_eq!(c.encoding, BdiEncoding::Repeated);
        assert_eq!(c.bytes, 8);
    }

    #[test]
    fn nearby_pointers_use_base8_delta() {
        // Heap pointers into the same region: large base, small spread.
        let base = 0x7FFF_1234_5000u64;
        let b = block_of_u64s([
            base,
            base + 64,
            base + 128,
            base + 16,
            base + 200,
            base + 8,
            base + 72,
            base + 96,
        ]);
        let c = bdi_compress(&b).unwrap();
        match c.encoding {
            BdiEncoding::BaseDelta { base: 8, delta } => assert!(delta <= 2),
            other => panic!("expected base8 encoding, got {other:?}"),
        }
        assert!(c.ratio() > 2.0);
    }

    #[test]
    fn narrow_ints_use_small_base() {
        // Small 4-byte counters (values < 128 fit 1-byte deltas vs zero base).
        let mut b = [0u8; 64];
        for i in 0..16 {
            b[i * 4..(i + 1) * 4].copy_from_slice(&(i as u32 % 100).to_le_bytes());
        }
        let c = bdi_compress(&b).unwrap();
        assert!(
            c.bytes < 32,
            "narrow data should compress >2x, got {} bytes",
            c.bytes
        );
    }

    #[test]
    fn random_data_is_incompressible() {
        // A fixed high-entropy pattern.
        let mut b = [0u8; 64];
        let mut x = 0x0123_4567_89AB_CDEF_u64;
        for byte in &mut b {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *byte = (x >> 56) as u8;
        }
        let c = bdi_compress(&b).unwrap();
        assert_eq!(c.encoding, BdiEncoding::Uncompressed);
        assert_eq!(c.bytes, 64);
    }

    #[test]
    fn bdi_rejects_wrong_block_size() {
        assert!(bdi_compress(&[0u8; 32]).is_err());
    }

    #[test]
    fn compressed_cache_holds_more_compressible_lines() {
        // 1 set × 256 bytes: four uncompressed lines, many compressed ones.
        let mut incompressible = CompressedCache::new(256, 1, 64).unwrap();
        let mut compressible = CompressedCache::new(256, 1, 64).unwrap();
        for i in 0..8u64 {
            incompressible.access(i * 64, 64);
            compressible.access(i * 64, 16);
        }
        assert!(compressible.resident_lines() > incompressible.resident_lines());
        // Re-touch: compressible cache retains the whole working set.
        let mut hits = 0;
        for i in 0..8u64 {
            if compressible.access(i * 64, 16) {
                hits += 1;
            }
        }
        assert_eq!(hits, 8, "16-byte lines: all 8 fit in 256 bytes");
    }

    #[test]
    fn compressed_cache_validates() {
        assert!(CompressedCache::new(0, 1, 64).is_err());
        assert!(CompressedCache::new(256, 3, 64).is_err());
        assert!(CompressedCache::new(256, 1, 0).is_err());
    }
}
