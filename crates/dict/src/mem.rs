//! Analytic heap-footprint estimates for the two dictionary structures.
//!
//! The estimates are used by the execution simulator (which needs memory
//! figures without a counting allocator) and cross-checked against the
//! real counting allocator in `hpa-bench`'s Figure 4 binary. Constants
//! follow the actual Rust standard-library layouts:
//!
//! * `BTreeMap<Box<str>, u64>` stores entries in nodes of up to 11
//!   key/value pairs (B = 6); interior nodes add child pointers. Average
//!   occupancy is ~0.75, so per-entry overhead is the entry itself
//!   (16-byte `Box<str>` header + 8-byte value) divided by occupancy plus
//!   a small share of node headers.
//! * `HashMap<Box<str>, u64>` (hashbrown) allocates one flat table of
//!   `(key, value)` slots plus one control byte per slot, sized to the
//!   next power of two with 7/8 max load.
//!
//! Both add the string bytes themselves (each key's text is a separate
//! allocation owned by the `Box<str>`).

/// Per-entry size of `(Box<str>, u64)`.
const ENTRY_BYTES: u64 = 16 + 8;
/// Allocator rounds tiny string allocations up; assume 16-byte quantum.
const STRING_QUANTUM: u64 = 16;

/// Estimated heap bytes of a `BTreeMap<Box<str>, u64>` with `len` entries
/// whose keys total `string_bytes` of text.
pub fn btree_heap_bytes(len: u64, string_bytes: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    // Node of capacity 11 entries ~ 11*24 entry bytes + ~40 bytes header /
    // parent pointers; ~0.75 average occupancy.
    let per_entry = (ENTRY_BYTES as f64 + 40.0 / 11.0) / 0.75;
    let strings = string_round_up(len, string_bytes);
    (len as f64 * per_entry) as u64 + strings
}

/// Estimated heap bytes of a `HashMap<Box<str>, u64>` with `capacity`
/// reported capacity whose keys total `string_bytes` of text.
pub fn hash_heap_bytes(capacity: u64, string_bytes: u64) -> u64 {
    if capacity == 0 {
        return 0;
    }
    // hashbrown: buckets = next_pow2(capacity * 8 / 7), one ctrl byte +
    // one (key, value) slot per bucket.
    let buckets = (capacity * 8 / 7).next_power_of_two();
    let table = buckets * (ENTRY_BYTES + 1);
    // string count unknown here; callers track total text. Round each
    // string up by the allocation quantum using an assumed average word of
    // 8 bytes when text exists.
    let approx_strings = if string_bytes == 0 {
        0
    } else {
        string_bytes + (string_bytes / 8 + 1) * (STRING_QUANTUM / 2)
    };
    table + approx_strings
}

fn string_round_up(len: u64, string_bytes: u64) -> u64 {
    // Each key is its own allocation; round to the quantum on average.
    string_bytes + len * (STRING_QUANTUM / 2)
}

/// Heap bytes of an `ArenaDict`: `slot_capacity` 8-byte slots (hash
/// tag + id), the string arena's capacity, and 20 bytes per reserved
/// entry (a `u32` key end offset, the `u64` value and the `u64` key
/// prefix). Unlike the standard structures this is exact, not an
/// estimate: there is no per-key allocation to approximate.
pub fn arena_heap_bytes(slot_capacity: u64, arena_capacity: u64, entry_capacity: u64) -> u64 {
    slot_capacity * 8 + arena_capacity + entry_capacity * 20
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_structures_report_zero() {
        assert_eq!(btree_heap_bytes(0, 0), 0);
        assert_eq!(hash_heap_bytes(0, 0), 0);
        assert_eq!(arena_heap_bytes(0, 0, 0), 0);
    }

    #[test]
    fn arena_is_denser_than_either_standard_structure() {
        // 10k entries of ~8-byte words: table at 7/8 load plus the raw
        // text, no per-key boxes.
        let len = 10_000u64;
        let text = len * 8;
        let slot_cap = (len * 8 / 7).next_power_of_two();
        let arena = arena_heap_bytes(slot_cap, text, len);
        assert!(arena < btree_heap_bytes(len, text), "vs btree");
        assert!(arena < hash_heap_bytes(len, text), "vs hash");
    }

    #[test]
    fn btree_grows_linearly() {
        let small = btree_heap_bytes(100, 800);
        let large = btree_heap_bytes(10_000, 80_000);
        let ratio = large as f64 / small as f64;
        assert!((90.0..110.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hash_footprint_tracks_capacity_not_len() {
        // A pre-sized empty-ish table is dominated by its bucket array.
        let presized = hash_heap_bytes(4096, 24);
        let tight = hash_heap_bytes(3, 24);
        assert!(presized > 100 * tight, "{presized} vs {tight}");
    }

    #[test]
    fn hash_pow2_bucket_growth() {
        // capacity 7 -> 8 buckets; capacity 8 -> 16 buckets (8*8/7=9 -> 16).
        let c7 = hash_heap_bytes(7, 0);
        let c8 = hash_heap_bytes(8, 0);
        assert_eq!(c7, 8 * 25);
        assert_eq!(c8, 16 * 25);
    }

    #[test]
    fn paper_scale_contrast_is_order_of_magnitude() {
        // ~23k documents, each holding a presized 4K-entry hash table with
        // ~150 words of ~8 bytes, versus tree dictionaries sized to fit.
        let docs = 23_432u64;
        let hash_total: u64 = docs * hash_heap_bytes(4096, 150 * 8);
        let btree_total: u64 = docs * btree_heap_bytes(150, 150 * 8);
        assert!(
            hash_total > 10 * btree_total,
            "hash {hash_total} vs btree {btree_total}"
        );
        // And the absolute class matches the paper's contrast: GBs vs
        // hundreds of MBs.
        assert!(
            hash_total > 2 * 1024 * 1024 * 1024,
            "hash_total {hash_total}"
        );
        assert!(
            btree_total < 1024 * 1024 * 1024,
            "btree_total {btree_total}"
        );
    }
}
