//! The word-wide SECDED codec against a bit-by-bit reference.
//!
//! `reference` is a codec that spells the (72,64) Hamming layout out one
//! codeword position at a time, as a `[bool; 72]`. The shipped codec
//! computes the same code from cover masks and popcounts. They must
//! agree on every encode, every flip and every decode outcome —
//! including words that are not codewords at all, since a fault campaign
//! decodes whatever the flips leave behind.

use ia_reliability::{decode, encode, inject_error, DecodeOutcome, EccWord};

mod reference {
    use ia_reliability::{DecodeOutcome, EccWord};

    /// Data bits occupy the positions in 1..=71 that are not powers of
    /// two; check bits sit at 1, 2, 4, …, 64 and the overall parity at 0.
    fn data_positions() -> impl Iterator<Item = u32> {
        (1u32..72).filter(|p| !p.is_power_of_two())
    }

    pub fn encode(data: u64) -> EccWord {
        let mut code = [false; 72];
        for (i, pos) in data_positions().enumerate() {
            code[pos as usize] = (data >> i) & 1 == 1;
        }
        // Hamming check bits: bit at position 2^j covers positions with bit j set.
        for j in 0..7u32 {
            let p = 1usize << j;
            let parity = (1..72)
                .filter(|&i| i & p != 0 && i != p)
                .fold(false, |acc, i| acc ^ code[i]);
            code[p] = parity;
        }
        // Overall parity at position 0 (for double-error detection).
        code[0] = code[1..].iter().fold(false, |a, &b| a ^ b);
        pack_check(&code)
    }

    fn pack_check(code: &[bool; 72]) -> EccWord {
        let mut data = 0u64;
        for (i, pos) in data_positions().enumerate() {
            if code[pos as usize] {
                data |= 1 << i;
            }
        }
        let mut check = 0u8;
        for (j, &p) in [0usize, 1, 2, 4, 8, 16, 32, 64].iter().enumerate() {
            if code[p] {
                check |= 1 << j;
            }
        }
        EccWord { data, check }
    }

    fn unpack(word: EccWord) -> [bool; 72] {
        let mut code = [false; 72];
        for (i, pos) in data_positions().enumerate() {
            code[pos as usize] = (word.data >> i) & 1 == 1;
        }
        for (j, &p) in [0usize, 1, 2, 4, 8, 16, 32, 64].iter().enumerate() {
            code[p] = (word.check >> j) & 1 == 1;
        }
        code
    }

    /// Flips codeword position `bit`; `None` past the 72-bit codeword.
    pub fn inject_error(word: EccWord, bit: u32) -> Option<EccWord> {
        if bit >= 72 {
            return None;
        }
        let mut code = unpack(word);
        code[bit as usize] = !code[bit as usize];
        Some(pack_check(&code))
    }

    pub fn decode(word: EccWord) -> DecodeOutcome {
        let code = unpack(word);
        // Syndrome: XOR of positions of set bits (excluding overall parity).
        let mut syndrome = 0usize;
        for j in 0..7u32 {
            let p = 1usize << j;
            let parity = (1..72)
                .filter(|&i| i & p != 0)
                .fold(false, |acc, i| acc ^ code[i]);
            if parity {
                syndrome |= p;
            }
        }
        let overall = code.iter().fold(false, |a, &b| a ^ b);
        match (syndrome, overall) {
            (0, false) => DecodeOutcome::Clean(extract(&code)),
            // Error in the overall parity bit itself: data unaffected.
            (0, true) => DecodeOutcome::Corrected(extract(&code)),
            (_, true) => {
                // Single-bit error at `syndrome`: flip and extract.
                let mut fixed = code;
                if syndrome < 72 {
                    fixed[syndrome] = !fixed[syndrome];
                    DecodeOutcome::Corrected(extract(&fixed))
                } else {
                    DecodeOutcome::DetectedUncorrectable
                }
            }
            (_, false) => DecodeOutcome::DetectedUncorrectable,
        }
    }

    fn extract(code: &[bool; 72]) -> u64 {
        let mut data = 0u64;
        for (i, pos) in data_positions().enumerate() {
            if code[pos as usize] {
                data |= 1 << i;
            }
        }
        data
    }
}

/// splitmix64: the test's own seeded word stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 1,000 seeded words plus the corner patterns.
fn words() -> Vec<u64> {
    let mut state = 0xECC0_5EED;
    let mut words = vec![0, u64::MAX, 1, 1 << 63, 0x5555_5555_5555_5555];
    words.extend((0..1_000).map(|_| next(&mut state)));
    words
}

/// Flips `bits` with both codecs, checks they agree on the corrupted
/// word, and returns it.
fn flip_both(word: EccWord, bits: &[u32]) -> EccWord {
    let mut ours = word;
    let mut theirs = word;
    for &bit in bits {
        ours = inject_error(ours, bit).expect("bit < 72");
        theirs = reference::inject_error(theirs, bit).expect("bit < 72");
    }
    assert_eq!(ours, theirs, "flipping {bits:?} of {word:?}");
    ours
}

#[test]
fn encode_and_every_single_and_double_flip_match_the_reference() {
    let mut outcomes = [0u32; 3];
    for data in words() {
        let word = encode(data);
        assert_eq!(word, reference::encode(data), "encode({data:#x})");
        for a in 0..72u32 {
            let single = flip_both(word, &[a]);
            assert_eq!(
                decode(single),
                reference::decode(single),
                "{data:#x} flip {a}"
            );
            for b in a + 1..72 {
                // A flip is one fixed XOR per position, which the single
                // flips above already matched against the reference.
                let double = inject_error(single, b).expect("bit < 72");
                let got = decode(double);
                assert_eq!(got, reference::decode(double), "{data:#x} flips {a},{b}");
                outcomes[match got {
                    DecodeOutcome::Clean(_) => 0,
                    DecodeOutcome::Corrected(_) => 1,
                    DecodeOutcome::DetectedUncorrectable => 2,
                }] += 1;
            }
        }
    }
    assert_eq!(outcomes[..2], [0, 0], "SECDED detects every double flip");
}

#[test]
fn three_bit_flips_at_fixed_positions_match_the_reference() {
    // Three flips defeat SECDED: the outcome depends on where they land
    // (miscorrection to a data or check position, or a syndrome past the
    // codeword). Both codecs must land the same way.
    let triples: [[u32; 3]; 10] = [
        [0, 1, 2],
        [1, 2, 3],
        [3, 5, 6],
        [7, 8, 15],
        [9, 40, 71],
        [64, 65, 70],
        [16, 32, 64],
        [33, 34, 63],
        [0, 35, 70],
        [60, 61, 62],
    ];
    let mut seen = std::collections::BTreeSet::new();
    for data in words().into_iter().take(200) {
        let word = encode(data);
        for bits in triples {
            let corrupted = flip_both(word, &bits);
            let got = decode(corrupted);
            assert_eq!(
                got,
                reference::decode(corrupted),
                "{data:#x} flips {bits:?}"
            );
            seen.insert(match got {
                DecodeOutcome::Clean(_) => "clean",
                DecodeOutcome::Corrected(_) => "corrected",
                DecodeOutcome::DetectedUncorrectable => "detected",
            });
        }
    }
    assert!(
        seen.contains("corrected") && seen.contains("detected"),
        "{seen:?}"
    );
}

#[test]
fn arbitrary_data_and_check_pairs_decode_like_the_reference() {
    // Most of these are not codewords at all.
    let mut state = 0xA4B1_7A4F;
    for _ in 0..100_000 {
        let r = next(&mut state);
        let word = EccWord {
            data: next(&mut state),
            check: r as u8,
        };
        assert_eq!(decode(word), reference::decode(word), "{word:?}");
    }
}

#[test]
fn out_of_range_flips_are_rejected_by_both() {
    let word = encode(0x0123_4567_89AB_CDEF);
    for bit in [72u32, 73, 127, 128, u32::MAX] {
        assert!(inject_error(word, bit).is_err(), "bit {bit}");
        assert!(reference::inject_error(word, bit).is_none(), "bit {bit}");
    }
}
