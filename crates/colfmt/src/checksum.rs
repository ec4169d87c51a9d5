//! The chunk payload checksum: a four-lane fold, eight bytes at a time.
//!
//! The payload is read as little-endian 64-bit words, word `i` going to
//! lane `i % 4`; a ragged tail of 1–7 bytes is zero-padded into one last
//! word. Each lane folds its words with one step: `x = lane ^ word`, then
//! `(x ^ x >> 32) · K` rotated left by 29 bits. That is one multiply per
//! eight bytes, and the four lanes' chains are independent, so the fold
//! costs about one step's latency per 32 bytes where byte-serial FNV-1a
//! (the format's version-1 checksum) paid one multiply per byte.
//!
//! Every stage of the step is a bijection, so the step is one of the
//! word for a fixed lane state, and of the lane state for a fixed word.
//! The shift before the multiply is there because a multiply spreads a
//! bit only upward: without it a flip of a word's top bit would change
//! only the product's top bit, and one flipped bit in the lane's next
//! word could cancel it. The lanes then combine by rotated
//! addition, a bijection of each lane with the others fixed, the payload
//! length is added, and a xorshift-multiply finalizer (bijective too)
//! spreads every bit. So a change confined to one aligned eight-byte word
//! — any single-bit flip among them — always changes the checksum, as
//! FNV-1a always caught a single changed byte. The length term
//! separates a payload from the same payload plus zero bytes, which the
//! zero padding alone would not.
//!
//! Like FNV-1a it is not keyed and not cryptographic: it detects
//! corruption, not forgery. The digest is the same on every platform and
//! in every process — it is wire format ([`crate::VERSION`] 2).

/// The multiplier of the per-word step (odd, so the multiply is a
/// bijection): 2^64 divided by the golden ratio.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Rotation after each step's multiply: brings the product's high bits,
/// which depend on every bit of the word, down to where the next step's
/// multiply spreads them again.
const ROT: u32 = 29;

/// The lanes' starting states: distinct, so the same word folds
/// differently in each lane.
const SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// The finalizer's multipliers (odd).
const FIN: [u64; 2] = [0xff51_afd7_ed55_8ccd, 0xc4ce_b9fe_1a85_ec53];

/// One lane step: a bijection of `word` for a fixed `lane`, and of
/// `lane` for a fixed `word` (each stage is one).
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    let x = lane ^ word;
    (x ^ (x >> 32)).wrapping_mul(K).rotate_left(ROT)
}

/// The little-endian word at `bytes[at..at + 8]`.
#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The checksum of one chunk payload (the `checksum` field of a
/// [`crate::ChunkHeader`]).
pub fn checksum(bytes: &[u8]) -> u64 {
    let [mut a, mut b, mut c, mut d] = SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        a = step(a, word(block, 0));
        b = step(b, word(block, 8));
        c = step(c, word(block, 16));
        d = step(d, word(block, 24));
    }
    // The last 0–3 whole words and the ragged tail continue the lane
    // order: word `i` of the payload always lands in lane `i % 4`.
    let mut lanes = [a, b, c, d];
    for (lane, tail) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        *lane = step(*lane, u64::from_le_bytes(padded));
    }
    let [a, b, c, d] = lanes;
    let mut h = a
        .wrapping_add(b.rotate_left(16))
        .wrapping_add(c.rotate_left(32))
        .wrapping_add(d.rotate_left(48))
        .wrapping_add(bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(FIN[0]);
    h ^= h >> 33;
    h = h.wrapping_mul(FIN[1]);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_rng::SplitMix64;

    /// Payload bytes in the exhaustive flip sweep and the word-change
    /// trials: cheap in the debug profile, wide in the release profile.
    /// Both sizes leave a ragged tail of five bytes.
    const SWEEP_BYTES: usize = if cfg!(debug_assertions) {
        1024 + 5
    } else {
        16 * 1024 + 5
    };

    /// Random single-word changes per randomized trial run.
    const WORD_TRIALS: usize = if cfg!(debug_assertions) {
        1 << 14
    } else {
        1 << 20
    };

    fn random_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    /// The fold spelled one word at a time, with no 32-byte blocks:
    /// word `i` (zero-padded if short) steps lane `i % 4`.
    fn reference(bytes: &[u8]) -> u64 {
        let mut lanes = SEEDS;
        for (i, w) in bytes.chunks(8).enumerate() {
            let mut padded = [0u8; 8];
            padded[..w.len()].copy_from_slice(w);
            let x = lanes[i % 4] ^ u64::from_le_bytes(padded);
            lanes[i % 4] = (x ^ (x >> 32)).wrapping_mul(K).rotate_left(ROT);
        }
        let mut h = lanes
            .iter()
            .zip([0u32, 16, 32, 48])
            .fold(bytes.len() as u64, |h, (lane, r)| {
                h.wrapping_add(lane.rotate_left(r))
            });
        for m in FIN {
            h ^= h >> 33;
            h = h.wrapping_mul(m);
        }
        h ^ (h >> 33)
    }

    /// Wire format: changing any of these is a format break and needs a
    /// new [`crate::VERSION`]. The values were computed by a separate
    /// transcription of the fold, not by this one.
    #[test]
    fn pinned_vectors() {
        let counting: Vec<u8> = (0..=255).collect();
        for (bytes, expected) in [
            (&b""[..], 0x432b_8fd4_9b25_d555),
            (b"a", 0x903f_c257_eb74_3382),
            (b"foobar", 0x01d5_2c60_9cbe_8e48),
            (b"0123456789abcdef0123456789abcdef", 0x3e51_07de_19d2_5d63),
            (&counting[..], 0xd310_816b_ce88_9ab4),
            (&counting[..37], 0x88a3_fb79_3a5a_8187),
        ] {
            assert_eq!(checksum(bytes), expected, "{bytes:?}");
        }
    }

    #[test]
    fn blocked_fold_matches_the_word_at_a_time_reference() {
        let mut rng = SplitMix64::seed_from_u64(0x00c4_ec55);
        for len in (0..200).chain([1000, 4096, 4099]) {
            let bytes = random_bytes(&mut rng, len);
            assert_eq!(checksum(&bytes), reference(&bytes), "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut rng = SplitMix64::seed_from_u64(0xf11b_5eed);
        let mut bytes = random_bytes(&mut rng, SWEEP_BYTES);
        let clean = checksum(&bytes);
        let mut seen = std::collections::HashSet::with_capacity(8 * SWEEP_BYTES + 1);
        seen.insert(clean);
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bytes[at] ^= 1 << bit;
                let flipped = checksum(&bytes);
                bytes[at] ^= 1 << bit;
                assert_ne!(flipped, clean, "flip of bit {bit} of byte {at} undetected");
                // Stronger than the guarantee: no two flips collide, so
                // every two-bit change of a once-flipped payload is
                // caught too — in one lane, 32 bytes apart, included.
                assert!(
                    seen.insert(flipped),
                    "flips collide at byte {at}, bit {bit}"
                );
            }
        }
    }

    #[test]
    fn any_change_confined_to_one_aligned_word_is_caught() {
        let mut rng = SplitMix64::seed_from_u64(0x0a11_9ed0);
        let mut bytes = random_bytes(&mut rng, SWEEP_BYTES);
        let clean = checksum(&bytes);
        let words = bytes.len().div_ceil(8);
        for _ in 0..WORD_TRIALS {
            let start = 8 * rng.gen_index(words);
            let end = (start + 8).min(bytes.len());
            let mut mask = rng.next_u64().to_le_bytes();
            // At least one bit changes; in the ragged tail only real
            // bytes do.
            mask[rng.gen_index(end - start)] |= 1 << rng.gen_index(8);
            for (b, m) in bytes[start..end].iter_mut().zip(mask) {
                *b ^= m;
            }
            assert_ne!(checksum(&bytes), clean, "change in word at {start}");
            for (b, m) in bytes[start..end].iter_mut().zip(mask) {
                *b ^= m;
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_checksum() {
        let mut rng = SplitMix64::seed_from_u64(0x2e80_b17e);
        for len in 0..=72 {
            let mut bytes = random_bytes(&mut rng, len);
            let before = checksum(&bytes);
            bytes.push(0);
            assert_ne!(checksum(&bytes), before, "length {len} plus one zero");
            bytes.push(0);
            assert_ne!(checksum(&bytes), before, "length {len} plus two zeros");
        }
        assert_ne!(checksum(&[0; 8]), checksum(&[0; 16]));
    }
}
