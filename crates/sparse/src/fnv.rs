//! FNV-1a 64-bit — the workspace's digest of test and benchmark outputs.
//!
//! Two independent copies of this fold used to live in the tree: the
//! dictionary's `hash_word` (the arena slot index) and the
//! columnar format's per-chunk payload checksum. Both fold the same
//! offset basis and prime in the same order, so their digests were
//! already byte-for-byte identical, and this module became the single
//! definition. Both users have since left it for folds that take eight
//! bytes per multiply where this one chains a multiply per byte: the
//! dictionary for `hpa_dict::hash_word`, and the columnar format, in its
//! version 2, for a four-lane chunk checksum (`hpa_colfmt::checksum`).
//! What still folds with it are the test suites' pinned digests and the
//! benchmark's cluster-file digest. It sits in `hpa-sparse` because that
//! crate is the bottom of the dependency order.
//!
//! The digest is stable across processes and platforms — no per-process
//! hasher seed — so a digest pinned on one machine checks on another.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference digests both original implementations produced
    /// (dict `hash_word` and colfmt `fnv1a` shared these exact values
    /// before the dedupe); changing any of them would move every pinned
    /// digest.
    #[test]
    fn digests_match_both_original_implementations() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// Byte-identical to a literal transcription of the two deduped
    /// folds (offset/prime spelled the way each original file spelled
    /// them), over a spread of inputs.
    #[test]
    fn identical_to_the_deduped_folds() {
        fn dict_style(word: &str) -> u64 {
            let mut h = 0xcbf29ce484222325u64;
            for b in word.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        }
        fn colfmt_style(bytes: &[u8]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let samples: &[&str] = &[
            "",
            "a",
            "ab",
            "the",
            "word123",
            "\u{1F600}emoji",
            "longer sample text with spaces",
        ];
        for s in samples {
            assert_eq!(fnv1a(s.as_bytes()), dict_style(s), "{s:?}");
            assert_eq!(fnv1a(s.as_bytes()), colfmt_style(s.as_bytes()), "{s:?}");
        }
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(fnv1a(&bytes), colfmt_style(&bytes));
    }
}
