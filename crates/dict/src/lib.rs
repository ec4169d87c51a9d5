#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Dictionary substrate: the data structures of the paper's Figure 4.
//!
//! TF/IDF keeps two kinds of dictionaries: per-document term-frequency
//! maps, and a corpus-wide map from word to document frequency. The paper
//! compares `std::map` (a red-black tree) against `std::unordered_map`
//! (a hash table, pre-sized to 4 K items "to minimize resizing overhead")
//! and finds that the best structure differs per workflow phase:
//! insertion-heavy word counting favours the tree, lookup-only phases
//! favour the hash table — but the hash table's memory footprint destroys
//! scalability of the transform phase.
//!
//! This crate provides the Rust equivalents: [`BTreeDict`] (ordered tree)
//! and [`HashDict`] (hash table, optionally pre-sized), unified behind the
//! [`Dictionary`] trait and the runtime-selectable [`AnyDict`]. Values are
//! `u64`; callers that need richer values pack them (see
//! [`pack`]/[`unpack`]).

use std::collections::{BTreeMap, HashMap};

pub mod arena;
pub mod atomic;
pub mod costmodel;
mod mem;

pub use arena::{hash_word, key_prefix, ArenaDict, ArenaStats};
pub use costmodel::OpCost;
pub use mem::{arena_heap_bytes, btree_heap_bytes, hash_heap_bytes};

/// Word → `u64` dictionary operations shared by both structures.
pub trait Dictionary {
    /// Add `delta` to `word`'s value, inserting it at `delta` if absent.
    /// Returns the new value.
    fn add(&mut self, word: &str, delta: u64) -> u64;

    /// Overwrite `word`'s value.
    fn insert(&mut self, word: &str, value: u64);

    /// Current value of `word`, if present.
    fn get(&self, word: &str) -> Option<u64>;

    /// Number of distinct words.
    fn len(&self) -> usize;

    /// True when no words are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every `(word, value)` pair in ascending word order. For the
    /// tree this is a plain walk; the hash table must collect and sort —
    /// the cost asymmetry the paper's output phase exposes.
    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64));

    /// Visit every `(word, value)` pair in *storage* order (no sorting) —
    /// for consumers that sort downstream by something cheaper than the
    /// word, like numeric term ids.
    fn for_each(&self, f: &mut dyn FnMut(&str, u64));

    /// Merge another dictionary into this one by summing values — used to
    /// combine per-thread document-frequency maps after parallel counting.
    fn merge_from(&mut self, other: &Self);

    /// Estimated heap footprint in bytes (structure + string storage).
    /// An analytic estimate (documented per implementation) so the
    /// simulator can reason about memory without a counting allocator.
    fn heap_bytes(&self) -> u64;
}

/// Pack two `u32`s (e.g. term id and document frequency) into a dictionary
/// value.
#[inline]
pub fn pack(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`pack`].
#[inline]
pub fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Ordered-tree dictionary — the reproduction's `std::map`.
///
/// `BTreeMap<Box<str>, u64>`: pointer-dense nodes, in-order iteration for
/// free, O(log n) everything.
#[derive(Debug, Default, Clone)]
pub struct BTreeDict {
    map: BTreeMap<Box<str>, u64>,
    string_bytes: u64,
}

impl BTreeDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Dictionary for BTreeDict {
    fn add(&mut self, word: &str, delta: u64) -> u64 {
        if let Some(v) = self.map.get_mut(word) {
            *v += delta;
            *v
        } else {
            self.string_bytes += word.len() as u64;
            self.map.insert(word.into(), delta);
            delta
        }
    }

    fn insert(&mut self, word: &str, value: u64) {
        if let Some(v) = self.map.get_mut(word) {
            *v = value;
        } else {
            self.string_bytes += word.len() as u64;
            self.map.insert(word.into(), value);
        }
    }

    fn get(&self, word: &str) -> Option<u64> {
        self.map.get(word).copied()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64)) {
        for (k, v) in &self.map {
            f(k, *v);
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&str, u64)) {
        // Tree storage order *is* sorted order.
        self.for_each_sorted(f);
    }

    fn merge_from(&mut self, other: &Self) {
        for (k, v) in &other.map {
            self.add(k, *v);
        }
    }

    fn heap_bytes(&self) -> u64 {
        btree_heap_bytes(self.map.len() as u64, self.string_bytes)
    }
}

/// Hash-table dictionary — the reproduction's `std::unordered_map`.
///
/// Optionally pre-sized (the paper pre-sizes to 4 K items). Pre-sizing
/// trades resize churn for footprint: a pre-sized table allocated per
/// document is exactly what drives the *Mix* workflow from 420 MB to
/// 12.8 GB in the paper.
#[derive(Debug, Default, Clone)]
pub struct HashDict {
    map: HashMap<Box<str>, u64>,
    string_bytes: u64,
}

impl HashDict {
    /// Empty dictionary with no reserved capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dictionary pre-sized for `capacity` items (the paper uses 4096).
    pub fn with_presize(capacity: usize) -> Self {
        HashDict {
            map: HashMap::with_capacity(capacity),
            string_bytes: 0,
        }
    }
}

impl Dictionary for HashDict {
    fn add(&mut self, word: &str, delta: u64) -> u64 {
        if let Some(v) = self.map.get_mut(word) {
            *v += delta;
            *v
        } else {
            self.string_bytes += word.len() as u64;
            self.map.insert(word.into(), delta);
            delta
        }
    }

    fn insert(&mut self, word: &str, value: u64) {
        if let Some(v) = self.map.get_mut(word) {
            *v = value;
        } else {
            self.string_bytes += word.len() as u64;
            self.map.insert(word.into(), value);
        }
    }

    fn get(&self, word: &str) -> Option<u64> {
        self.map.get(word).copied()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64)) {
        // Hash order is arbitrary: collect and sort. This allocation and
        // O(n log n) sort is the price the paper's ARFF output phase pays
        // when the dictionaries are hash tables.
        let mut entries: Vec<(&str, u64)> = self.map.iter().map(|(k, v)| (&**k, *v)).collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            f(k, v);
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&str, u64)) {
        for (k, v) in &self.map {
            f(k, *v);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        // Worst case every key is new: one up-front reservation instead
        // of incremental growth rehashes mid-merge.
        self.map.reserve(other.map.len());
        for (k, v) in &other.map {
            self.add(k, *v);
        }
    }

    fn heap_bytes(&self) -> u64 {
        hash_heap_bytes(self.map.capacity() as u64, self.string_bytes)
    }
}

/// Which dictionary implementation to use — the independent variable of
/// the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DictKind {
    /// Ordered tree (`std::map` in the paper; "map" in Figure 4).
    BTree,
    /// Hash table ("u-map" in Figure 4).
    Hash,
    /// Hash table pre-sized to hold this many items (the paper pre-sizes
    /// to 4 K "to minimize resizing overhead").
    HashPresized(usize),
    /// Arena interner ([`ArenaDict`]) — this repo's third Figure 4 arm.
    /// TF/IDF runs it as one interner per chunk of documents with flat
    /// `(id, tf)` runs, never as a dictionary per document: `map` and
    /// `u-map` are the paper's per-document arms. What ships: the
    /// default here, in `TfIdfConfig`, in `hpa cluster` and in the
    /// benchmark.
    #[default]
    Arena,
}

impl DictKind {
    /// Synonym for [`DictKind::Arena`]. `Auto` used to run a per-phase
    /// cost-model selector, which picked the arena in every phase at
    /// every thread count (EXPERIMENTS.md, "tried and removed"). The
    /// const stays for configurations that name it; `from_str` accepts
    /// only `"arena"` for this kind.
    #[allow(non_upper_case_globals)]
    pub const Auto: DictKind = DictKind::Arena;

    /// The paper's pre-sized configuration.
    pub const PAPER_PRESIZE: DictKind = DictKind::HashPresized(4096);

    /// Instantiate an empty dictionary of this kind.
    pub fn new_dict(&self) -> AnyDict {
        match self {
            DictKind::BTree => AnyDict::BTree(BTreeDict::new()),
            DictKind::Hash => AnyDict::Hash(HashDict::new()),
            DictKind::HashPresized(n) => AnyDict::Hash(HashDict::with_presize(*n)),
            DictKind::Arena => AnyDict::Arena(ArenaDict::new()),
        }
    }

    /// The kind a corpus-wide (never per-document) structure of this
    /// configuration uses: the pre-sized table degrades to the plain
    /// hash table.
    pub fn global_kind(&self) -> DictKind {
        match self {
            DictKind::HashPresized(_) => DictKind::Hash,
            k => *k,
        }
    }
}

impl std::str::FromStr for DictKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "map" | "btree" => Ok(DictKind::BTree),
            "u-map" | "umap" | "hash" => Ok(DictKind::Hash),
            "u-map-presized" | "hash-presized" => Ok(DictKind::PAPER_PRESIZE),
            "arena" => Ok(DictKind::Arena),
            other => Err(format!("unknown dictionary kind '{other}'")),
        }
    }
}

/// Runtime-selected dictionary (enum dispatch over the three structures).
#[derive(Debug, Clone)]
pub enum AnyDict {
    /// Ordered-tree variant.
    BTree(BTreeDict),
    /// Hash-table variant.
    Hash(HashDict),
    /// Arena-interned open-addressing variant.
    Arena(ArenaDict),
}

impl Default for AnyDict {
    fn default() -> Self {
        AnyDict::BTree(BTreeDict::new())
    }
}

macro_rules! dispatch {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            AnyDict::BTree($d) => $e,
            AnyDict::Hash($d) => $e,
            AnyDict::Arena($d) => $e,
        }
    };
}

impl Dictionary for AnyDict {
    fn add(&mut self, word: &str, delta: u64) -> u64 {
        dispatch!(self, d => d.add(word, delta))
    }
    fn insert(&mut self, word: &str, value: u64) {
        dispatch!(self, d => d.insert(word, value))
    }
    fn get(&self, word: &str) -> Option<u64> {
        dispatch!(self, d => d.get(word))
    }
    fn len(&self) -> usize {
        dispatch!(self, d => d.len())
    }
    fn for_each_sorted(&self, f: &mut dyn FnMut(&str, u64)) {
        dispatch!(self, d => d.for_each_sorted(f))
    }
    fn for_each(&self, f: &mut dyn FnMut(&str, u64)) {
        dispatch!(self, d => d.for_each(f))
    }
    fn merge_from(&mut self, other: &Self) {
        match (self, other) {
            (AnyDict::BTree(a), AnyDict::BTree(b)) => a.merge_from(b),
            (AnyDict::Hash(a), AnyDict::Hash(b)) => a.merge_from(b),
            (AnyDict::Arena(a), AnyDict::Arena(b)) => {
                a.merge_from(b);
            }
            // Mixed merges sum through the generic interface.
            (a, b) => b.for_each_sorted(&mut |w, v| {
                a.add(w, v);
            }),
        }
    }
    fn heap_bytes(&self) -> u64 {
        dispatch!(self, d => d.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<AnyDict> {
        vec![
            DictKind::BTree.new_dict(),
            DictKind::Hash.new_dict(),
            DictKind::HashPresized(64).new_dict(),
            DictKind::Arena.new_dict(),
        ]
    }

    #[test]
    fn add_counts_like_a_word_counter() {
        for mut d in kinds() {
            assert_eq!(d.add("the", 1), 1);
            assert_eq!(d.add("the", 1), 2);
            assert_eq!(d.add("cat", 3), 3);
            assert_eq!(d.get("the"), Some(2));
            assert_eq!(d.get("dog"), None);
            assert_eq!(d.len(), 2);
        }
    }

    #[test]
    fn insert_overwrites() {
        for mut d in kinds() {
            d.add("x", 5);
            d.insert("x", 1);
            assert_eq!(d.get("x"), Some(1));
            d.insert("y", 7);
            assert_eq!(d.get("y"), Some(7));
        }
    }

    #[test]
    fn for_each_sorted_is_ascending_in_both_structures() {
        for mut d in kinds() {
            for w in ["pear", "apple", "zebra", "mango"] {
                d.add(w, 1);
            }
            let mut seen = Vec::new();
            d.for_each_sorted(&mut |w, _| seen.push(w.to_string()));
            let mut sorted = seen.clone();
            sorted.sort();
            assert_eq!(seen, sorted);
            assert_eq!(seen.len(), 4);
        }
    }

    #[test]
    fn merge_sums_counts() {
        for kind in [DictKind::BTree, DictKind::Hash, DictKind::Arena] {
            let mut a = kind.new_dict();
            a.add("w", 2);
            a.add("x", 1);
            let mut b = kind.new_dict();
            b.add("w", 3);
            b.add("y", 4);
            a.merge_from(&b);
            assert_eq!(a.get("w"), Some(5));
            assert_eq!(a.get("x"), Some(1));
            assert_eq!(a.get("y"), Some(4));
        }
    }

    #[test]
    fn mixed_merge_works_through_generic_path() {
        let mut a = DictKind::BTree.new_dict();
        a.add("w", 1);
        let mut b = DictKind::Hash.new_dict();
        b.add("w", 2);
        b.add("z", 9);
        a.merge_from(&b);
        assert_eq!(a.get("w"), Some(3));
        assert_eq!(a.get("z"), Some(9));
    }

    #[test]
    fn presized_hash_reports_larger_footprint_when_sparse() {
        let mut small = DictKind::Hash.new_dict();
        let mut presized = DictKind::HashPresized(4096).new_dict();
        for w in ["a", "b", "c"] {
            small.add(w, 1);
            presized.add(w, 1);
        }
        assert!(
            presized.heap_bytes() > 10 * small.heap_bytes(),
            "presized {} vs {}",
            presized.heap_bytes(),
            small.heap_bytes()
        );
    }

    #[test]
    fn pack_unpack_round_trip() {
        let v = pack(0xDEAD_BEEF, 42);
        assert_eq!(unpack(v), (0xDEAD_BEEF, 42));
        assert_eq!(unpack(pack(0, 0)), (0, 0));
        assert_eq!(unpack(pack(u32::MAX, u32::MAX)), (u32::MAX, u32::MAX));
    }

    #[test]
    fn dict_kind_parsing_and_labels() {
        assert_eq!("map".parse::<DictKind>().unwrap(), DictKind::BTree);
        assert_eq!("u-map".parse::<DictKind>().unwrap(), DictKind::Hash);
        assert_eq!(
            "u-map-presized".parse::<DictKind>().unwrap(),
            DictKind::HashPresized(4096)
        );
        assert_eq!("arena".parse::<DictKind>().unwrap(), DictKind::Arena);
        assert!("auto".parse::<DictKind>().is_err());
        assert!("bogus".parse::<DictKind>().is_err());
    }

    #[test]
    fn hash_word_pinned_vectors() {
        // Probe order, `probe_steps` and the trace counters follow these.
        for (word, hash) in [
            ("", 0xebfd_be8b_d3fd_be8b),
            ("a", 0x928d_b3c8_7136_b8d1),
            ("foobar", 0x2073_c097_2f0c_fd98),
            ("abcdefgh", 0x93f4_5a9c_516f_aa10),
            ("abcdefghi", 0x7cf2_78f8_2e12_5934),
            ("internationalization", 0x7e96_07f2_fd76_07bc),
        ] {
            assert_eq!(hash_word(word), hash, "{word:?}");
        }
    }

    #[test]
    fn hash_word_separates_lengths_and_padding() {
        // Keys equal in their first eight bytes, and keys that differ
        // only by zero bytes that look like the prefix's padding.
        let words = [
            "ab",
            "ab\0",
            "ab\0\0\0\0\0",
            "ab\0\0\0\0\0\0",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
            "abcdefghi\0",
            "abcdefghj",
            "abcdefghijklmnop",
            "abcdefghijklmnop\0",
            "abcdefghijklmnopq",
            "",
            "\0",
        ];
        let hashes: std::collections::HashSet<u64> = words.iter().map(|w| hash_word(w)).collect();
        assert_eq!(hashes.len(), words.len());
        // The interner's tag is the high half: it must separate them too.
        let tags: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 32).collect();
        assert_eq!(tags.len(), words.len());
    }

    #[test]
    fn global_kind_degrades_only_the_presized_table() {
        assert_eq!(DictKind::PAPER_PRESIZE.global_kind(), DictKind::Hash);
        assert_eq!(DictKind::BTree.global_kind(), DictKind::BTree);
        assert_eq!(DictKind::Arena.global_kind(), DictKind::Arena);
    }

    #[test]
    fn mixed_merge_into_and_out_of_arena() {
        let mut a = DictKind::Arena.new_dict();
        a.add("w", 1);
        let mut b = DictKind::Hash.new_dict();
        b.add("w", 2);
        b.add("z", 9);
        a.merge_from(&b);
        assert_eq!(a.get("w"), Some(3));
        assert_eq!(a.get("z"), Some(9));

        let mut t = DictKind::BTree.new_dict();
        t.merge_from(&a);
        assert_eq!(t.get("w"), Some(3));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_dictionaries() {
        for d in kinds() {
            assert!(d.is_empty());
            assert_eq!(d.len(), 0);
            let mut calls = 0;
            d.for_each_sorted(&mut |_, _| calls += 1);
            assert_eq!(calls, 0);
        }
    }
}
