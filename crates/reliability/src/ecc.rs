//! SECDED (72,64) Hamming code, the ECC scheme server DRAM uses and the
//! building block of heterogeneous-reliability memory.
//!
//! The codec works on whole words: each of the seven Hamming parities is
//! `popcount(data & COVER[j]) & 1` over a precomputed cover mask, the
//! overall parity is one more popcount, and a codeword position maps to
//! the data or check bit it names through one 72-entry table. That is
//! the check every read pays under `ia-memctrl`'s reliability pipeline.
//! A bit-by-bit reference codec lives in `tests/ecc_reference.rs` and
//! must agree on every outcome, non-codewords included.

use crate::ReliabilityError;

/// A 64-bit data word with its 8 SECDED check bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EccWord {
    /// The protected data.
    pub data: u64,
    /// Check bits (7 Hamming + 1 overall parity).
    pub check: u8,
}

/// Outcome of decoding a possibly-corrupted word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error detected.
    Clean(u64),
    /// A single-bit error was corrected; the payload is the fixed data.
    Corrected(u64),
    /// An uncorrectable (double-bit) error was detected.
    DetectedUncorrectable,
}

/// Codeword positions 0..72 in the layout: data bits occupy the
/// positions in 1..=71 that are not powers of two, in order; the Hamming
/// check bit covering position bit `j` sits at position `2^j`; the
/// overall-parity bit sits at position 0. In an [`EccWord`], `check` bit
/// 0 is the overall parity and `check` bit `j + 1` the Hamming bit at
/// `2^j`.
const CODE_BITS: usize = 72;

/// The position of each data bit (0..64) in the codeword.
const DATA_POS: [u8; 64] = {
    let mut pos = [0u8; 64];
    let (mut p, mut i) = (1usize, 0usize);
    while p < CODE_BITS {
        if !p.is_power_of_two() {
            pos[i] = p as u8;
            i += 1;
        }
        p += 1;
    }
    pos
};

/// `COVER[j]`: the data bits whose codeword position has bit `j` set,
/// the ones the Hamming check bit at position `2^j` covers.
const COVER: [u64; 7] = {
    let mut cover = [0u64; 7];
    let mut i = 0;
    while i < 64 {
        let mut j = 0;
        while j < 7 {
            if DATA_POS[i] & (1 << j) != 0 {
                cover[j] |= 1 << i;
            }
            j += 1;
        }
        i += 1;
    }
    cover
};

/// What one codeword position is: `(data mask, check mask)` with exactly
/// one bit set between them — the bit flipping that position toggles.
const FLIP: [(u64, u8); CODE_BITS] = {
    let mut flip = [(0u64, 0u8); CODE_BITS];
    flip[0] = (0, 1);
    let mut j = 0;
    while j < 7 {
        flip[1 << j] = (0, 1 << (j + 1));
        j += 1;
    }
    let mut i = 0;
    while i < 64 {
        flip[DATA_POS[i] as usize] = (1 << i, 0);
        i += 1;
    }
    flip
};

/// The seven Hamming parities of `data`, at `check` bits 1..=7.
#[inline]
fn hamming(data: u64) -> u8 {
    let mut check = 0u8;
    for (j, cover) in COVER.iter().enumerate() {
        check |= (((data & cover).count_ones() & 1) as u8) << (j + 1);
    }
    check
}

/// Encodes a 64-bit word into data + check bits.
///
/// # Examples
///
/// ```
/// use ia_reliability::{decode, encode, DecodeOutcome};
/// let w = encode(0xDEAD_BEEF_0123_4567);
/// assert_eq!(decode(w), DecodeOutcome::Clean(0xDEAD_BEEF_0123_4567));
/// ```
#[must_use]
pub fn encode(data: u64) -> EccWord {
    let check = hamming(data);
    // Overall parity (for double-error detection) over every other bit.
    let overall = ((data.count_ones() + check.count_ones()) & 1) as u8;
    EccWord {
        data,
        check: check | overall,
    }
}

/// Flips one bit of the 72-bit codeword (bit 0..=71), for fault injection.
///
/// # Errors
///
/// Returns [`ReliabilityError`] if `bit >= 72`.
pub fn inject_error(word: EccWord, bit: u32) -> Result<EccWord, ReliabilityError> {
    let Some(&(data, check)) = FLIP.get(bit as usize) else {
        return Err(ReliabilityError::invalid("codeword bit index must be < 72"));
    };
    Ok(EccWord {
        data: word.data ^ data,
        check: word.check ^ check,
    })
}

/// Decodes a word, correcting single-bit and detecting double-bit errors.
#[must_use]
pub fn decode(word: EccWord) -> DecodeOutcome {
    // Syndrome: the codeword position of a single flipped bit — each
    // Hamming bit recomputed from the data against the stored one.
    let syndrome = usize::from((hamming(word.data) ^ word.check) >> 1);
    let overall = (word.data.count_ones() + word.check.count_ones()) & 1 == 1;
    match (syndrome, overall) {
        (0, false) => DecodeOutcome::Clean(word.data),
        // Error in the overall parity bit itself: data unaffected.
        (0, true) => DecodeOutcome::Corrected(word.data),
        // Single-bit error at `syndrome`: flip it (a data bit, or a check
        // bit that leaves the data as it is).
        (_, true) => match FLIP.get(syndrome) {
            Some(&(flip, _)) => DecodeOutcome::Corrected(word.data ^ flip),
            None => DecodeOutcome::DetectedUncorrectable,
        },
        (_, false) => DecodeOutcome::DetectedUncorrectable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip() {
        for data in [
            0u64,
            u64::MAX,
            0xDEAD_BEEF,
            0x5555_5555_5555_5555,
            1,
            1 << 63,
        ] {
            assert_eq!(
                decode(encode(data)),
                DecodeOutcome::Clean(data),
                "{data:#x}"
            );
        }
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let data = 0xCAFE_BABE_1234_5678u64;
        let w = encode(data);
        for bit in 0..72 {
            let corrupted = inject_error(w, bit).unwrap();
            match decode(corrupted) {
                DecodeOutcome::Corrected(d) => assert_eq!(d, data, "bit {bit}"),
                other => panic!("bit {bit}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let w = encode(data);
        for (a, b) in [(0u32, 1u32), (3, 40), (70, 71), (5, 64)] {
            let corrupted = inject_error(inject_error(w, a).unwrap(), b).unwrap();
            assert_eq!(
                decode(corrupted),
                DecodeOutcome::DetectedUncorrectable,
                "bits {a},{b} must be detected"
            );
        }
    }

    #[test]
    fn inject_rejects_out_of_range() {
        assert!(inject_error(encode(0), 72).is_err());
    }

    #[test]
    fn check_bits_differ_across_data() {
        assert_ne!(encode(0).check, encode(1).check);
    }
}
