//! Arena-interned open-addressing dictionary — the third Figure 4 arm.
//!
//! [`ArenaDict`] answers the allocation pattern both standard structures
//! share: one heap allocation per unique key (`Box<str>`), a key re-hash
//! on every operation, and key clones at merge time. Instead it keeps
//!
//! * an **append-only string arena** (`Vec<u8>`) holding every key's
//!   bytes back to back, and
//! * one flat, power-of-two slot table (`Vec<Slot>`) probed linearly,
//!   with no tombstones (the dictionary never deletes), where each slot
//!   stores `(cached_hash: u64, key offset: u32, key length: u32,
//!   value: u64)` — 24 bytes, no pointers.
//!
//! The cached hash pays off three times:
//!
//! 1. **Rehash-free growth** — doubling the table re-places slots by
//!    their cached hash; key bytes are never touched.
//! 2. **Hash-once merges** — [`ArenaDict::merge_from`] walks the source
//!    table linearly and inserts by cached hash; the destination compares
//!    key bytes only when a probe actually collides.
//! 3. **Hash-once pipelines** — callers that already hashed a token (to
//!    feed both the per-document and the document-frequency dictionary,
//!    as `count_words` does) pass it down through
//!    [`crate::Dictionary::add_hashed`] instead of hashing again.
//!
//! `for_each_sorted` builds a sorted slot index lazily (invalidated by
//! any insert) so `Vocab`'s ascending-word-order term-id assignment is
//! preserved bit-identically; value updates leave the index valid.
//! Everything is safe Rust — the crate-level `#![forbid(unsafe_code)]`
//! applies here too.

use crate::mem::arena_heap_bytes;
use crate::{hash_word, Dictionary};
use std::sync::OnceLock;

/// Sentinel key length marking an empty slot (keys are capped far below).
const EMPTY: u32 = u32::MAX;

/// Fibonacci multiplier (2^64 / φ): the slot index uses the *high* bits
/// of `hash * FIB` (multiply-shift hashing): they depend on every bit of
/// the hash, where masking off the low bits would use only those.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    off: u32,
    len: u32,
    value: u64,
}

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    off: 0,
    len: EMPTY,
    value: 0,
};

impl Slot {
    #[inline]
    fn occupied(&self) -> bool {
        self.len != EMPTY
    }
}

/// Running operation counters (see [`ArenaDict::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Linear-probe steps taken past the home slot by mutating operations.
    pub probe_steps: u64,
    /// Table growths (each re-places every slot by its cached hash).
    pub rehashes: u64,
    /// Bytes of key text interned in the arena.
    pub arena_bytes: u64,
    /// Current slot-table capacity.
    pub capacity: usize,
}

/// Open-addressing dictionary over an append-only string arena.
#[derive(Debug, Clone)]
pub struct ArenaDict {
    slots: Vec<Slot>,
    arena: Vec<u8>,
    len: usize,
    /// `64 - log2(slots.len())`; the home slot is `(hash * FIB) >> shift`.
    shift: u32,
    probe_steps: u64,
    rehashes: u64,
    /// Occupied slot indices in ascending key order, built on first
    /// `for_each_sorted` and dropped by any insert or growth.
    sorted: OnceLock<Vec<u32>>,
    /// Race-detector hook for the merge path (the only place an
    /// `ArenaDict` crosses threads in the scatter/merge pattern).
    track: crate::atomic::tracked::Track,
}

impl Default for ArenaDict {
    fn default() -> Self {
        ArenaDict {
            slots: Vec::new(),
            arena: Vec::new(),
            len: 0,
            shift: 0,
            probe_steps: 0,
            rehashes: 0,
            sorted: OnceLock::new(),
            track: crate::atomic::tracked::Track::new("dict::arena::ArenaDict"),
        }
    }
}

impl ArenaDict {
    /// Empty dictionary; the slot table is allocated on first insert.
    pub fn new() -> Self {
        ArenaDict::default()
    }

    /// Dictionary pre-sized for `entries` keys totalling about
    /// `key_bytes` of text.
    pub fn with_capacity(entries: usize, key_bytes: usize) -> Self {
        let mut d = ArenaDict::new();
        d.reserve_slots(entries);
        d.arena.reserve(key_bytes);
        d
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Snapshot of the probe/rehash/arena counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            probe_steps: self.probe_steps,
            rehashes: self.rehashes,
            arena_bytes: self.arena.len() as u64,
            capacity: self.slots.len(),
        }
    }

    #[inline]
    fn key_bytes(&self, s: &Slot) -> &[u8] {
        &self.arena[s.off as usize..s.off as usize + s.len as usize]
    }

    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Linear probe for `key`: `(slot index, found, steps past home)`.
    /// The table must have at least one empty slot (the load-factor
    /// bound guarantees it), or the probe could not terminate.
    #[inline]
    fn probe(&self, hash: u64, key: &[u8]) -> (usize, bool, u64) {
        let mask = self.slots.len() - 1;
        let mut idx = self.home(hash);
        let mut steps = 0u64;
        loop {
            let s = &self.slots[idx];
            if !s.occupied() {
                return (idx, false, steps);
            }
            // Cheap rejections first: the key bytes are read only when
            // the full 64-bit hash and the length both collide.
            if s.hash == hash && s.len as usize == key.len() && self.key_bytes(s) == key {
                return (idx, true, steps);
            }
            idx = (idx + 1) & mask;
            steps += 1;
        }
    }

    /// Grow the slot table (if needed) to hold `want` entries within the
    /// 7/8 load-factor bound, re-placing slots by cached hash.
    fn reserve_slots(&mut self, want: usize) {
        let mut cap = self.slots.len().max(8);
        while want * 8 > cap * 7 {
            cap *= 2;
        }
        if cap <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; cap]);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for s in old.iter().filter(|s| s.occupied()) {
            let mut idx = self.home(s.hash);
            while self.slots[idx].occupied() {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = *s;
        }
        if !self.arena.is_empty() || self.len > 0 {
            self.rehashes += 1;
        }
        // Slot indices moved: the sorted index is stale.
        self.sorted.take();
    }

    /// Append `key` to the arena and return its offset.
    fn intern(&mut self, key: &[u8]) -> u32 {
        let off = self.arena.len();
        assert!(
            off + key.len() <= EMPTY as usize,
            "arena exceeds the u32 offset space (4 GiB of key text)"
        );
        self.arena.extend_from_slice(key);
        off as u32
    }

    /// `add` on raw key bytes with a caller-supplied hash — the merge
    /// path enters here so source keys are never re-hashed (and never
    /// UTF-8-revalidated).
    fn add_bytes(&mut self, hash: u64, key: &[u8], delta: u64) -> u64 {
        self.reserve_slots(self.len + 1);
        let (idx, found, steps) = self.probe(hash, key);
        self.probe_steps += steps;
        if found {
            self.slots[idx].value += delta;
            self.slots[idx].value
        } else {
            let off = self.intern(key);
            self.slots[idx] = Slot {
                hash,
                off,
                len: key.len() as u32,
                value: delta,
            };
            self.len += 1;
            self.sorted.take();
            delta
        }
    }

    fn insert_bytes(&mut self, hash: u64, key: &[u8], value: u64) {
        self.reserve_slots(self.len + 1);
        let (idx, found, steps) = self.probe(hash, key);
        self.probe_steps += steps;
        if found {
            self.slots[idx].value = value;
        } else {
            let off = self.intern(key);
            self.slots[idx] = Slot {
                hash,
                off,
                len: key.len() as u32,
                value,
            };
            self.len += 1;
            self.sorted.take();
        }
    }

    fn get_bytes(&self, hash: u64, key: &[u8]) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let (idx, found, _) = self.probe(hash, key);
        found.then(|| self.slots[idx].value)
    }

    fn key_str(&self, s: &Slot) -> &str {
        // Keys enter through `&str` parameters and the arena is append-
        // only, so every recorded (offset, len) range is valid UTF-8.
        std::str::from_utf8(self.key_bytes(s)).expect("arena keys are valid UTF-8")
    }

    fn sorted_index(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut idx: Vec<u32> = (0..self.slots.len() as u32)
                .filter(|&i| self.slots[i as usize].occupied())
                .collect();
            // UTF-8 byte order equals `str` (scalar-value) order, so this
            // matches `BTreeMap<Box<str>, _>` iteration order exactly.
            idx.sort_unstable_by(|&a, &b| {
                self.key_bytes(&self.slots[a as usize])
                    .cmp(self.key_bytes(&self.slots[b as usize]))
            });
            idx
        })
    }

    /// Merge by cached hash: walk `other`'s slots linearly, reserve the
    /// worst-case capacity once (no incremental growth mid-merge), and
    /// insert each entry with its stored hash — key bytes are compared
    /// only on probe collision and copied only for genuinely new keys.
    pub fn merge_from(&mut self, other: &ArenaDict) {
        self.track.on_write();
        other.track.on_read();
        if other.len == 0 {
            return;
        }
        self.reserve_slots(self.len + other.len);
        self.arena.reserve(other.arena.len());
        for s in other.slots.iter().filter(|s| s.occupied()) {
            self.add_bytes(s.hash, other.key_bytes(s), s.value);
        }
        if hpa_trace::is_enabled() {
            hpa_trace::counter("dict", "arena-bytes", self.arena.len() as u64);
            hpa_trace::counter("dict", "probe-steps", self.probe_steps);
            hpa_trace::counter("dict", "rehashes", self.rehashes);
        }
    }
}

impl Dictionary for ArenaDict {
    fn add(&mut self, word: &str, delta: u64) -> u64 {
        self.add_bytes(hash_word(word), word.as_bytes(), delta)
    }

    fn add_hashed(&mut self, hash: u64, word: &str, delta: u64) -> u64 {
        debug_assert_eq!(hash, hash_word(word), "caller-supplied hash mismatch");
        self.add_bytes(hash, word.as_bytes(), delta)
    }

    fn insert(&mut self, word: &str, value: u64) {
        self.insert_bytes(hash_word(word), word.as_bytes(), value);
    }

    fn insert_hashed(&mut self, hash: u64, word: &str, value: u64) {
        debug_assert_eq!(hash, hash_word(word), "caller-supplied hash mismatch");
        self.insert_bytes(hash, word.as_bytes(), value);
    }

    fn get(&self, word: &str) -> Option<u64> {
        self.get_bytes(hash_word(word), word.as_bytes())
    }

    fn get_hashed(&self, hash: u64, word: &str) -> Option<u64> {
        debug_assert_eq!(hash, hash_word(word), "caller-supplied hash mismatch");
        self.get_bytes(hash, word.as_bytes())
    }

    fn len(&self) -> usize {
        self.len
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64)) {
        for &i in self.sorted_index() {
            let s = &self.slots[i as usize];
            f(self.key_str(s), s.value);
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&str, u64)) {
        for s in self.slots.iter().filter(|s| s.occupied()) {
            f(self.key_str(s), s.value);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        ArenaDict::merge_from(self, other);
    }

    fn heap_bytes(&self) -> u64 {
        arena_heap_bytes(
            self.slots.len() as u64,
            self.arena.capacity() as u64,
            self.sorted.get().map_or(0, |v| v.len()) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_insert_basics() {
        let mut d = ArenaDict::new();
        assert_eq!(d.get("missing"), None);
        assert_eq!(d.add("the", 1), 1);
        assert_eq!(d.add("the", 1), 2);
        assert_eq!(d.add("cat", 3), 3);
        d.insert("cat", 7);
        d.insert("new", 9);
        assert_eq!(d.get("the"), Some(2));
        assert_eq!(d.get("cat"), Some(7));
        assert_eq!(d.get("new"), Some(9));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn growth_keeps_every_key_and_counts_rehashes() {
        let mut d = ArenaDict::new();
        for i in 0..1000 {
            d.add(&format!("word{i}"), i);
        }
        assert_eq!(d.len(), 1000);
        for i in 0..1000 {
            assert_eq!(d.get(&format!("word{i}")), Some(i), "word{i}");
        }
        let stats = d.stats();
        assert!(stats.rehashes >= 6, "8 -> 2048 takes doublings: {stats:?}");
        assert!(stats.capacity >= 1000 * 8 / 7);
        assert_eq!(
            stats.arena_bytes,
            (0..1000).map(|i| format!("word{i}").len() as u64).sum()
        );
    }

    #[test]
    fn sorted_iteration_matches_btree_order() {
        let words = ["pear", "apple", "zebra", "mango", "apricot", "z", "a"];
        let mut d = ArenaDict::new();
        let mut reference = std::collections::BTreeMap::new();
        for (i, w) in words.iter().enumerate() {
            d.add(w, i as u64 + 1);
            reference.insert(w.to_string(), i as u64 + 1);
        }
        let mut seen = Vec::new();
        d.for_each_sorted(&mut |w, v| seen.push((w.to_string(), v)));
        let expect: Vec<(String, u64)> = reference.into_iter().collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn sorted_index_survives_value_updates_but_not_inserts() {
        let mut d = ArenaDict::new();
        d.add("b", 1);
        d.add("a", 1);
        let mut order = Vec::new();
        d.for_each_sorted(&mut |w, _| order.push(w.to_string()));
        assert_eq!(order, ["a", "b"]);
        // Value updates must not disturb the cached index…
        d.add("a", 5);
        d.insert("b", 9);
        let mut pairs = Vec::new();
        d.for_each_sorted(&mut |w, v| pairs.push((w.to_string(), v)));
        assert_eq!(pairs, [("a".to_string(), 6), ("b".to_string(), 9)]);
        // …and a new key must appear in order.
        d.add("ab", 2);
        let mut order = Vec::new();
        d.for_each_sorted(&mut |w, _| order.push(w.to_string()));
        assert_eq!(order, ["a", "ab", "b"]);
    }

    #[test]
    fn merge_sums_and_reserves_once() {
        let mut a = ArenaDict::new();
        let mut b = ArenaDict::new();
        for i in 0..300 {
            a.add(&format!("w{i}"), 1);
        }
        for i in 150..450 {
            b.add(&format!("w{i}"), 2);
        }
        let rehashes_before = a.stats().rehashes;
        a.merge_from(&b);
        assert_eq!(a.len(), 450);
        assert_eq!(a.get("w0"), Some(1));
        assert_eq!(a.get("w200"), Some(3));
        assert_eq!(a.get("w449"), Some(2));
        assert!(
            a.stats().rehashes <= rehashes_before + 1,
            "merge must reserve capacity up front, not grow incrementally"
        );
    }

    #[test]
    fn hashed_entry_points_match_plain_ones() {
        let mut d = ArenaDict::new();
        let h = hash_word("token");
        assert_eq!(d.add_hashed(h, "token", 2), 2);
        assert_eq!(d.get_hashed(h, "token"), Some(2));
        d.insert_hashed(h, "token", 11);
        assert_eq!(d.get("token"), Some(11));
    }

    #[test]
    fn empty_and_cloned_dictionaries() {
        let d = ArenaDict::new();
        assert!(d.is_empty());
        assert_eq!(d.heap_bytes(), 0);
        let mut calls = 0;
        d.for_each_sorted(&mut |_, _| calls += 1);
        assert_eq!(calls, 0);

        let mut d = ArenaDict::new();
        d.add("x", 4);
        let c = d.clone();
        assert_eq!(c.get("x"), Some(4));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lookups_leave_stats_unchanged() {
        let mut d = ArenaDict::new();
        for i in 0..1000 {
            d.add(&format!("word{i}"), i);
        }
        let before = d.stats();
        assert!(before.probe_steps > 0, "need collision chains: {before:?}");
        for i in 0..2000 {
            let w = format!("word{i}");
            let _ = d.get(&w);
            let _ = d.get_hashed(hash_word(&w), &w);
        }
        assert_eq!(d.stats(), before, "lookups through &self write nothing");
    }

    #[test]
    fn with_capacity_avoids_growth() {
        let mut d = ArenaDict::with_capacity(100, 800);
        for i in 0..100 {
            d.add(&format!("k{i}"), 1);
        }
        assert_eq!(d.stats().rehashes, 0);
    }

    #[test]
    fn heap_bytes_track_table_and_arena() {
        let mut d = ArenaDict::new();
        for i in 0..100 {
            d.add(&format!("key-number-{i}"), 1);
        }
        let stats = d.stats();
        assert_eq!(
            d.heap_bytes(),
            stats.capacity as u64 * 24 + d.arena.capacity() as u64
        );
    }
}
