//! Arena interner and dictionary — this repo's own Figure 4 arm.
//!
//! [`ArenaDict`] maps each distinct word to a **dense id in first-seen
//! order** and to a `u64` value, without the allocation pattern both
//! standard structures share (one `Box<str>` per unique key, a key
//! re-hash on every operation). It keeps
//!
//! * an **append-only string arena** (`Vec<u8>`) holding every key's
//!   bytes back to back in id order, with one `u32` end offset per id,
//! * one `u64` value per id,
//! * one `u64` *prefix* per id: the key's first eight bytes, zero-padded
//!   (see [`key_prefix`]), marked in its top byte when the key is shorter
//!   than eight bytes, and
//! * one flat, power-of-two slot table (`Vec<u64>`) probed linearly,
//!   with no tombstones (the dictionary never deletes), where a slot is
//!   `tag << 32 | id + 1` — 8 bytes, no pointers. The tag is the high
//!   half of the word's [`hash_word`]: a probe rejects on
//!   it before it reads anything else, and growth re-places slots by it,
//!   so neither touches the arena.
//!
//! A tag hit is confirmed on the prefix column: one load and one integer
//! compare. The marked prefix of a key shorter than eight bytes is that
//! key alone — its top byte is `0xF8 | len`, a byte no UTF-8 text holds,
//! so no other key, short or long, has the same one — and the arena is
//! read only for keys of eight bytes or more, whose prefixes match.
//!
//! The id is what TF/IDF is built on (`hpa_tfidf`): [`ArenaDict::intern`]
//! is the one hash probe a token costs, everything downstream — document
//! frequencies, per-document runs, the vocabulary's rank permutation — is
//! an array indexed by id. [`ArenaDict::merge_from`] folds another
//! interner in and returns its ids' new values, which is how per-chunk
//! vocabularies become one. The [`Dictionary`] operations are the same
//! probe plus the value array; sorted iteration sorts ids by key bytes
//! on each call ([`ArenaDict::sorted_ids`]). Everything is safe Rust —
//! the crate-level `#![forbid(unsafe_code)]` applies here too.

use crate::mem::arena_heap_bytes;
use crate::Dictionary;

/// A key's first eight bytes, zero-padded, as a little-endian `u64` —
/// the prefix `hpa_corpus::Tokenizer::for_each_prefixed` yields with
/// each token.
#[inline]
pub fn key_prefix(key: &[u8]) -> u64 {
    let mut p = [0u8; 8];
    let n = key.len().min(8);
    p[..n].copy_from_slice(&key[..n]);
    u64::from_le_bytes(p)
}

/// The prefix column's entry for a key of `len` bytes whose
/// [`key_prefix`] is `prefix`: a key shorter than eight bytes has zero
/// top byte, which becomes `0xF8 | len`. No UTF-8 text holds a byte from
/// 0xF8 up, so a marked prefix equals no other key's entry.
#[inline]
fn marked(prefix: u64, len: usize) -> u64 {
    if len < 8 {
        prefix | (0xF8 | len as u64) << 56
    } else {
        prefix
    }
}

/// [`key_prefix`] of a prefix column entry: the marker cleared.
#[inline]
fn unmarked(entry: u64) -> u64 {
    if entry >> 59 == 0x1F {
        entry & (u64::MAX >> 8)
    } else {
        entry
    }
}

/// Fibonacci multiplier (2^64 / φ): the slot index uses the *high* bits
/// of `tag * FIB` (multiply-shift hashing): they depend on every bit of
/// the tag, where masking off the low bits would use only those.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier of [`mix`] (SplitMix64's first), unrelated to [`FIB`]
/// so that the slot index is no second pass of the same multiply.
const MIX: u64 = 0xBF58_476D_1CE4_E5B9;

/// Xorshift-multiply-xorshift: one multiply, a bijection of `u64`. A
/// multiply carries each bit only upward, so the first xorshift copies
/// the high half into the low one, from where it reaches every bit of
/// the product's high half; the second brings that half back down.
#[inline]
fn mix(v: u64) -> u64 {
    let x = (v ^ v >> 32).wrapping_mul(MIX);
    x ^ x >> 32
}

/// A word's hash (see [`hash_word`]) from its [`marked`] prefix `entry`
/// and its bytes `key`: one [`mix`] of the entry for a key shorter than
/// eight bytes — the entry is the whole key and its length — and for a
/// longer one, the length and each further eight bytes, zero-padded,
/// folded in with one more mix each.
#[inline]
fn hash_marked(entry: u64, key: &[u8]) -> u64 {
    let mut h = entry;
    if key.len() >= 8 {
        h = mix(h) ^ key.len() as u64;
        for word in key[8..].chunks(8) {
            h = mix(h) ^ key_prefix(word);
        }
    }
    mix(h)
}

/// The 64-bit hash the interner places a word by, computed a word at a
/// time: the key's [`key_prefix`] marked with its length when it is
/// shorter than eight bytes (one multiply in all, and most tokens are
/// that short), and for a longer key one multiply more per further
/// eight bytes and one for the length. [`ArenaDict`] computes it
/// itself, from the prefix the tokenizer yields; this is the same
/// function on a word alone. Stable across processes, unlike a seeded
/// `DefaultHasher`, so probe order is deterministic.
#[inline]
pub fn hash_word(word: &str) -> u64 {
    let key = word.as_bytes();
    hash_marked(marked(key_prefix(key), key.len()), key)
}

/// The 32 bits of a word's hash a slot stores: the high half, which
/// [`mix`]'s multiply makes depend on every bit of its input.
#[inline]
fn fold(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// Running operation counters (see [`ArenaDict::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Linear-probe steps taken past the home slot by mutating operations.
    pub probe_steps: u64,
    /// Table growths (each re-places every slot by its stored tag).
    pub rehashes: u64,
    /// Bytes of key text interned in the arena.
    pub arena_bytes: u64,
    /// Current slot-table capacity.
    pub capacity: usize,
}

/// Open-addressing interner over an append-only string arena.
#[derive(Debug, Clone)]
pub struct ArenaDict {
    /// `tag << 32 | id + 1`, 0 when empty.
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`; the home slot is `(tag * FIB) >> shift`.
    shift: u32,
    /// Key bytes back to back, in id order.
    arena: Vec<u8>,
    /// `ends[id]` is where key `id` ends in the arena; it starts where
    /// the previous one ends.
    ends: Vec<u32>,
    /// Value by id; grows in step with `ends`.
    values: Vec<u64>,
    /// [`marked`] prefix by id; grows in step with `ends`.
    prefixes: Vec<u64>,
    probe_steps: u64,
    rehashes: u64,
    /// Race-detector hook for the merge path (the only place an
    /// `ArenaDict` crosses threads in the scatter/merge pattern).
    track: crate::atomic::tracked::Track,
}

impl Default for ArenaDict {
    fn default() -> Self {
        ArenaDict {
            slots: Vec::new(),
            shift: 0,
            arena: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
            prefixes: Vec::new(),
            probe_steps: 0,
            rehashes: 0,
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
        d.ends.reserve(entries);
        d.values.reserve(entries);
        d.prefixes.reserve(entries);
        d
    }

    /// Number of distinct keys — one more than the largest id.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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

    /// The id of `word`; a word not seen before takes the next id and
    /// the value 0.
    #[inline]
    pub fn intern(&mut self, word: &str) -> u32 {
        self.intern_prefixed(key_prefix(word.as_bytes()), word)
    }

    /// [`ArenaDict::intern`] for a caller that also has the word's
    /// [`key_prefix`] in hand, as the tokenizer yields it. This is the
    /// one probe a token costs: the word is hashed from the prefix (and
    /// its bytes past the eighth), and the caller indexes its own per-id
    /// arrays with the result.
    #[inline]
    pub fn intern_prefixed(&mut self, prefix: u64, word: &str) -> u32 {
        debug_assert_eq!(
            prefix,
            key_prefix(word.as_bytes()),
            "caller-supplied prefix mismatch"
        );
        let (key, entry) = (word.as_bytes(), marked(prefix, word.len()));
        self.intern_bytes(hash_marked(entry, key), entry, key)
    }

    /// The id of `word`, if it was interned.
    pub fn id_of(&self, word: &str) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let key = word.as_bytes();
        let entry = marked(key_prefix(key), key.len());
        self.probe(fold(hash_marked(entry, key)), entry, key).1
    }

    /// The word with the given id.
    pub fn key(&self, id: u32) -> &str {
        // Keys enter through `&str` parameters (or from another arena's
        // keys) and the arena is append-only, so every key range is
        // valid UTF-8.
        std::str::from_utf8(self.key_bytes(id)).expect("arena keys are valid UTF-8")
    }

    /// The [`key_prefix`] of the word with the given id, read off the
    /// prefix column (the arena is not touched).
    pub fn prefix(&self, id: u32) -> u64 {
        unmarked(self.prefixes[id as usize])
    }

    /// The value of the word with the given id.
    pub fn value(&self, id: u32) -> u64 {
        self.values[id as usize]
    }

    /// Add `delta` to the value of the word with the given id.
    #[inline]
    pub fn add_at(&mut self, id: u32, delta: u64) {
        self.values[id as usize] += delta;
    }

    /// True when `other` holds the same words under the same ids (the
    /// values may differ) — two flat array compares.
    pub fn same_keys(&self, other: &ArenaDict) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }

    /// Every id in ascending order of its key's bytes. UTF-8 byte order
    /// equals `str` (scalar-value) order, so this is
    /// `BTreeMap<Box<str>, _>` iteration order exactly. The sort compares
    /// the keys' first eight bytes as one big-endian integer, read off
    /// the prefix column, and reads the arena only to break ties.
    pub fn sorted_ids(&self) -> Vec<u32> {
        let mut keyed: Vec<(u64, u32)> = (0u32..)
            .zip(&self.prefixes)
            .map(|(id, &entry)| (unmarked(entry).swap_bytes(), id))
            .collect();
        // A zero-padded prefix orders like the key itself wherever two
        // prefixes differ; equal prefixes decide on the full keys.
        keyed.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| self.key_bytes(a.1).cmp(self.key_bytes(b.1)))
        });
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Fold `other` into this dictionary — values add, new words take
    /// the next ids in `other`'s id order — and return, for each of
    /// `other`'s ids, the id the same word has here.
    pub fn merge_from(&mut self, other: &ArenaDict) -> Vec<u32> {
        self.track.on_write();
        other.track.on_read();
        let map = (0..other.len() as u32)
            .map(|id| {
                let key = other.key_bytes(id);
                let entry = other.prefixes[id as usize];
                let here = self.intern_bytes(hash_marked(entry, key), entry, key);
                self.add_at(here, other.value(id));
                here
            })
            .collect();
        if hpa_trace::is_enabled() {
            hpa_trace::counter("dict", "arena-bytes", self.arena.len() as u64);
            hpa_trace::counter("dict", "probe-steps", self.probe_steps);
            hpa_trace::counter("dict", "rehashes", self.rehashes);
        }
        map
    }

    #[inline]
    fn key_bytes(&self, id: u32) -> &[u8] {
        let start = match id.checked_sub(1) {
            Some(prev) => self.ends[prev as usize],
            None => 0,
        };
        &self.arena[start as usize..self.ends[id as usize] as usize]
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((tag as u64).wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Linear probe for `key`, whose [`marked`] prefix is `prefix`:
    /// `(slot index, its id if found, steps past home)`. The table must
    /// have at least one empty slot (the load-factor bound guarantees
    /// it), or the probe could not terminate.
    #[inline]
    fn probe(&self, tag: u32, prefix: u64, key: &[u8]) -> (usize, Option<u32>, u64) {
        let mask = self.slots.len() - 1;
        let mut idx = self.home(tag);
        let mut steps = 0u64;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                return (idx, None, steps);
            }
            // Cheap rejection first: the prefix is read only when the
            // tags collide, the key bytes only when a key of eight bytes
            // or more matches on it.
            if (slot >> 32) as u32 == tag {
                let id = slot as u32 - 1;
                if self.prefixes[id as usize] == prefix
                    && (key.len() < 8 || self.key_bytes(id) == key)
                {
                    return (idx, Some(id), steps);
                }
            }
            idx = (idx + 1) & mask;
            steps += 1;
        }
    }

    /// Grow the slot table (if needed) to hold `want` entries within the
    /// 7/8 load-factor bound, re-placing slots by their stored tag.
    fn reserve_slots(&mut self, want: usize) {
        let mut cap = self.slots.len().max(8);
        while want * 8 > cap * 7 {
            cap *= 2;
        }
        if cap <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![0; cap]);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for slot in old.into_iter().filter(|&s| s != 0) {
            let mut idx = self.home((slot >> 32) as u32);
            while self.slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = slot;
        }
        if !self.is_empty() {
            self.rehashes += 1;
        }
    }

    /// Intern `key`, whose hash is `hash` and [`marked`] prefix `prefix`.
    #[inline]
    fn intern_bytes(&mut self, hash: u64, prefix: u64, key: &[u8]) -> u32 {
        // `reserve_slots`' own test, made here so that a hit calls nothing.
        let want = self.len() + 1;
        if want * 8 > self.slots.len() * 7 {
            self.reserve_slots(want);
        }
        let tag = fold(hash);
        let (idx, found, steps) = self.probe(tag, prefix, key);
        self.probe_steps += steps;
        match found {
            Some(id) => id,
            None => self.append(idx, tag, prefix, key),
        }
    }

    /// Give `key` the next id and the empty slot `idx` its probe ended on.
    #[cold]
    fn append(&mut self, idx: usize, tag: u32, prefix: u64, key: &[u8]) -> u32 {
        // A slot holds `id + 1` in 32 bits and an end offset is a `u32`.
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .expect("arena holds fewer than 2^32 - 1 keys");
        let end = u32::try_from(self.arena.len() + key.len())
            .expect("arena exceeds the u32 offset space (4 GiB of key text)");
        self.arena.extend_from_slice(key);
        self.ends.push(end);
        self.values.push(0);
        self.prefixes.push(prefix);
        self.slots[idx] = (tag as u64) << 32 | (id as u64 + 1);
        id
    }
}

impl Dictionary for ArenaDict {
    fn add(&mut self, word: &str, delta: u64) -> u64 {
        let id = self.intern(word);
        self.add_at(id, delta);
        self.value(id)
    }

    fn insert(&mut self, word: &str, value: u64) {
        let id = self.intern(word);
        self.values[id as usize] = value;
    }

    fn get(&self, word: &str) -> Option<u64> {
        self.id_of(word).map(|id| self.value(id))
    }

    fn len(&self) -> usize {
        ArenaDict::len(self)
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64)) {
        for id in self.sorted_ids() {
            f(self.key(id), self.value(id));
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&str, u64)) {
        for id in 0..self.len() as u32 {
            f(self.key(id), self.value(id));
        }
    }

    fn merge_from(&mut self, other: &Self) {
        ArenaDict::merge_from(self, other);
    }

    fn heap_bytes(&self) -> u64 {
        arena_heap_bytes(
            self.slots.len() as u64,
            self.arena.capacity() as u64,
            self.ends
                .capacity()
                .max(self.values.capacity())
                .max(self.prefixes.capacity()) as u64,
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
        // Value updates must not disturb the order…
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
        assert_eq!(d.id_of("token"), None);
        let id = d.intern("token");
        assert_eq!(d.get("token"), Some(0), "a new word starts at 0");
        d.add_at(id, 2);
        assert_eq!(d.add("token", 9), 11);
        assert_eq!(d.intern("token"), id, "interning is idempotent");
        assert_eq!(d.id_of("token"), Some(id));
        assert_eq!((d.key(id), d.value(id)), ("token", 11));
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut d = ArenaDict::new();
        for (i, w) in ["pear", "apple", "pear", "", "zebra", "apple"]
            .iter()
            .enumerate()
        {
            let id = d.intern(w);
            assert_eq!(id, [0, 1, 0, 2, 3, 1][i]);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.sorted_ids(), [2, 1, 0, 3]);
        let mut storage_order = Vec::new();
        d.for_each(&mut |w, _| storage_order.push(w.to_string()));
        assert_eq!(storage_order, ["pear", "apple", "", "zebra"]);
    }

    #[test]
    fn sorted_ids_break_prefix_ties_on_the_full_key() {
        // Equal first eight bytes, keys that end inside the prefix, and
        // zero bytes that look like its padding.
        let words = [
            "abcdefghz",
            "abcdefgh",
            "abcdefghi",
            "abcdefg",
            "ab\0",
            "ab",
            "ab\0\0c",
            "b",
            "",
        ];
        let mut d = ArenaDict::new();
        for w in words {
            d.add(w, 1);
        }
        let got: Vec<&str> = d.sorted_ids().into_iter().map(|id| d.key(id)).collect();
        let mut expect = words.to_vec();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn equal_tags_and_prefixes_still_tell_keys_apart() {
        // Every key under one hash, so each probe confirms on the prefix
        // column: zero bytes that look like a short key's padding, a key
        // ending at the eighth byte, and keys that share eight bytes
        // (the longer one first, so the eight-byte key probes past it).
        let keys: [&[u8]; 9] = [
            b"ab",
            b"ab\0",
            b"ab\0\0\0\0\0",
            b"ab\0\0\0\0\0\0",
            b"abcdefg",
            b"abcdefg\0",
            b"abcdefghi",
            b"abcdefgh",
            b"",
        ];
        let mut d = ArenaDict::new();
        let intern = |d: &mut ArenaDict, key: &[u8]| {
            d.intern_bytes(7, marked(key_prefix(key), key.len()), key)
        };
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(intern(&mut d, key), id as u32, "{key:?} is new");
        }
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(intern(&mut d, key), id as u32, "{key:?} is known");
            assert_eq!(d.key_bytes(id as u32), *key);
        }
    }

    #[test]
    fn merge_maps_the_other_sides_ids() {
        let mut a = ArenaDict::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = ArenaDict::new();
        b.add("z", 5);
        b.add("x", 7);
        assert_eq!(a.merge_from(&b), [2, 0]);
        assert_eq!((a.key(2), a.value(2), a.value(0)), ("z", 5, 8));
        assert!(a.merge_from(&ArenaDict::new()).is_empty());
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
            let _ = d.id_of(&w);
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
            stats.capacity as u64 * 8
                + d.arena.capacity() as u64
                + d.ends.capacity() as u64 * 4
                + d.values.capacity() as u64 * 8
                + d.prefixes.capacity() as u64 * 8
        );
    }
}
