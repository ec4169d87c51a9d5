//! Term vocabulary: id ↔ word ↔ document frequency ↔ IDF.
//!
//! Term ids follow one rank, whatever the dictionary kind: descending
//! document frequency, ties in ascending key bytes (`ranked`). The
//! Zipf head of the vocabulary takes the lowest ids, so the centroid
//! rows that nearly every document gathers form one contiguous prefix
//! of K-means' centroid block (and of its postings). The words lie
//! back to back in one string, whatever the kind. The word → id index
//! depends on it: the paper's arms keep a dictionary of the kind under
//! study, because their transform phase's lookups hit this structure;
//! the interned arm keeps the counting phase's interner and the rank
//! permutation from its provisional ids to term ids, which is all its
//! transform needs. `idf = ln(N / df)` is taken once per term here, not
//! once per non-zero downstream.

use hpa_dict::{pack, unpack, AnyDict, ArenaDict, DictKind, Dictionary};
use hpa_sparse::{SparseVec, TermId};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::sync::Arc;

/// "No term id": the rank of a provisional id whose word was pruned (or,
/// against a foreign vocabulary, is unknown).
pub(crate) const PRUNED: TermId = TermId::MAX;

/// Documents with fewer terms than this sort their keys with
/// `sort_unstable`: below it a radix pass's 256 buckets cost more than
/// the comparisons they save.
const RADIX_MIN_KEYS: usize = 64;

/// Sort `keys` — `pack(term id, tf)`, every id below `dim`, none twice —
/// by id and return them sorted. Ids are distinct, so any sort by id
/// gives `sort_unstable`'s order. Enough keys are sorted by LSD radix,
/// one byte of the id per pass over `⌈log2(dim) / 8⌉` passes, ping-ponging
/// between `keys` and its own second half (so the scratch lives as long
/// as the caller's buffer, not one document); a pass whose byte is the
/// same in every key is skipped.
fn sort_by_id(keys: &mut Vec<u64>, dim: usize) -> &[u64] {
    let n = keys.len();
    if n < RADIX_MIN_KEYS {
        keys.sort_unstable();
        return keys;
    }
    let id_bits = usize::BITS - dim.saturating_sub(1).leading_zeros();
    let passes = id_bits.div_ceil(8) as usize;
    let mut counts = [[0u32; 256]; 4];
    for &key in keys.iter() {
        let id = (key >> 32) as usize;
        for (pass, count) in counts[..passes].iter_mut().enumerate() {
            count[(id >> (8 * pass)) & 0xFF] += 1;
        }
    }
    keys.resize(2 * n, 0);
    let (mut src, mut dst) = keys.split_at_mut(n);
    for (pass, count) in counts[..passes].iter_mut().enumerate() {
        let digit = |key: u64| (key >> (32 + 8 * pass)) as usize & 0xFF;
        if count[digit(src[0])] as usize == n {
            continue;
        }
        let mut at = 0;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &key in src.iter() {
            let slot = &mut count[digit(key)];
            dst[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Immutable vocabulary built from document frequencies. Cloning shares
/// the storage.
#[derive(Debug, Clone)]
pub struct Vocab(Arc<Inner>);

#[derive(Debug)]
struct Inner {
    terms: Terms,
    index: Index,
    kind: DictKind,
}

/// What is known of each term, by term id.
#[derive(Debug)]
struct Terms {
    /// Every word back to back; `ends[id]` closes word `id`.
    text: String,
    ends: Vec<u32>,
    dfs: Vec<u32>,
    idf: Vec<f64>,
    num_docs: usize,
}

#[derive(Debug)]
enum Index {
    /// The paper's arms: word → `pack(id, df)`.
    Dict(Box<AnyDict>),
    /// The interned arm: word → provisional id in the interner the
    /// vocabulary was ranked from (shared with the counts it came from),
    /// and each provisional id's term id ([`PRUNED`] if it has none).
    Interned {
        words: Arc<ArenaDict>,
        rank: Vec<TermId>,
    },
}

impl Terms {
    fn with_capacity(terms: usize, num_docs: usize) -> Self {
        Terms {
            text: String::new(),
            ends: Vec::with_capacity(terms),
            dfs: Vec::with_capacity(terms),
            idf: Vec::with_capacity(terms),
            num_docs,
        }
    }

    /// Append the next word in rank order ([`ranked`]); returns its id
    /// and its document frequency as stored.
    fn push(&mut self, word: &str, df: u64) -> (TermId, u32) {
        let id = TermId::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != PRUNED)
            .expect("vocabulary holds fewer than 2^32 - 1 terms");
        let df = df.min(u32::MAX as u64) as u32;
        self.text.push_str(word);
        let end = u32::try_from(self.text.len()).expect("vocabulary text exceeds 4 GiB");
        self.ends.push(end);
        self.dfs.push(df);
        self.idf.push((self.num_docs as f64 / df as f64).ln());
        (id, df)
    }
}

/// The one term-id rule of every dictionary kind: the ids of `words`
/// whose value — a document frequency — lies in `[min_df, max_df]`, by
/// descending document frequency, ties in ascending key bytes (UTF-8
/// byte order is `str` order). Within one df the ids sort by their
/// keys' first eight bytes as one big-endian integer, read off the
/// interner's prefix column; a zero-padded prefix orders like the key
/// itself wherever two prefixes differ, so keys are compared only when
/// two prefixes are equal. Keys are distinct, so the order is total.
///
/// Document frequencies are small integers. When the band's df range
/// is narrower than its number of terms — a Zipf vocabulary's case — a
/// counting pass buckets the ids by df and only each bucket is sorted,
/// which costs no more than a sort by key alone; otherwise one sort
/// takes the df first.
fn ranked(words: &ArenaDict, min_df: u64, max_df: u64) -> Vec<u32> {
    let band: Vec<u32> = (0..words.len() as u32)
        .filter(|&id| (min_df..=max_df).contains(&words.value(id)))
        .collect();
    let dfs = band.iter().map(|&id| words.value(id));
    let (low, top) = (dfs.clone().min().unwrap_or(0), dfs.max().unwrap_or(0));
    let keyed = |id: u32| (words.prefix(id).swap_bytes(), id);
    let by_key = |a: &(u64, u32), b: &(u64, u32)| {
        a.0.cmp(&b.0)
            .then_with(|| words.key(a.1).cmp(words.key(b.1)))
    };
    if top - low >= band.len() as u64 {
        let mut by_df: Vec<_> = band
            .iter()
            .map(|&id| (Reverse(words.value(id)), keyed(id)))
            .collect();
        by_df.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| by_key(&a.1, &b.1)));
        return by_df.into_iter().map(|(_, (_, id))| id).collect();
    }
    // `ends[d]` counts the ids `d` below the top df, then becomes where
    // they start, and, once they are placed, where they end.
    let bucket = |id: u32| (top - words.value(id)) as usize;
    let mut ends = vec![0usize; (top - low) as usize + 1];
    for &id in &band {
        ends[bucket(id)] += 1;
    }
    let mut at = 0;
    for end in ends.iter_mut() {
        (*end, at) = (at, at + *end);
    }
    let mut placed = vec![(0, 0); band.len()];
    for &id in &band {
        let slot = &mut ends[bucket(id)];
        placed[*slot] = keyed(id);
        *slot += 1;
    }
    let mut start = 0;
    for end in ends {
        placed[start..end].sort_unstable_by(by_key);
        start = end;
    }
    placed.into_iter().map(|(_, id)| id).collect()
}

impl Vocab {
    /// Build from a word → document-frequency dictionary over `num_docs`
    /// documents, keeping only terms whose document frequency lies in
    /// `[min_df, max_df]`. Ids follow the one rank: descending document
    /// frequency, ties in ascending word order.
    pub fn from_df_dict_pruned(
        kind: DictKind,
        df: &AnyDict,
        min_df: u64,
        max_df: u64,
        num_docs: usize,
    ) -> Self {
        // The global index is never per-document, so a pre-sized kind
        // degrades to the plain hash table here. Every kind ranks its
        // words in an interner; the rank reads no order of `df`'s own.
        let kind = kind.global_kind();
        let mut words = ArenaDict::with_capacity(df.len(), 0);
        df.for_each(&mut |word, count| words.insert(word, count));
        if kind == DictKind::Arena {
            return Vocab::from_interned(Arc::new(words), min_df, max_df, num_docs);
        }
        let mut terms = Terms::with_capacity(words.len(), num_docs);
        let mut index = kind.new_dict();
        for id in ranked(&words, min_df, max_df) {
            let word = words.key(id);
            let (id, df) = terms.push(word, words.value(id));
            index.insert(word, pack(id, df));
        }
        Vocab(Arc::new(Inner {
            terms,
            index: Index::Dict(Box::new(index)),
            kind,
        }))
    }

    /// The interned arm's vocabulary: rank `words`' ids ([`ranked`]),
    /// its values being the document frequencies over `num_docs`
    /// documents; a term outside `[min_df, max_df]` gets no rank.
    pub(crate) fn from_interned(
        words: Arc<ArenaDict>,
        min_df: u64,
        max_df: u64,
        num_docs: usize,
    ) -> Self {
        let mut terms = Terms::with_capacity(words.len(), num_docs);
        let mut rank = vec![PRUNED; words.len()];
        for id in ranked(&words, min_df, max_df) {
            rank[id as usize] = terms.push(words.key(id), words.value(id)).0;
        }
        Vocab(Arc::new(Inner {
            terms,
            index: Index::Interned { words, rank },
            kind: DictKind::Arena,
        }))
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.0.terms.ends.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The word with the given term id.
    pub fn word(&self, id: TermId) -> &str {
        let terms = &self.0.terms;
        let start = match id.checked_sub(1) {
            Some(prev) => terms.ends[prev as usize],
            None => 0,
        };
        &terms.text[start as usize..terms.ends[id as usize] as usize]
    }

    /// Document frequency of the given term id.
    pub fn df(&self, id: TermId) -> u32 {
        self.0.terms.dfs[id as usize]
    }

    /// Look a word up: `(term id, document frequency)`.
    pub fn lookup(&self, word: &str) -> Option<(TermId, u32)> {
        match &self.0.index {
            Index::Dict(index) => index.get(word).map(unpack),
            Index::Interned { words, rank } => {
                let id = rank[words.id_of(word)? as usize];
                (id != PRUNED).then(|| (id, self.df(id)))
            }
        }
    }

    /// The term id of each of `words`' ids, [`PRUNED`] where it has none.
    /// When `words` holds the keys this vocabulary was ranked from — the
    /// case inside one `fit` — this is the stored permutation; a
    /// vocabulary from elsewhere is asked word by word.
    pub(crate) fn ranks_of(&self, words: &ArenaDict) -> Cow<'_, [TermId]> {
        match &self.0.index {
            Index::Interned { words: own, rank }
                if std::ptr::eq(&**own, words) || own.same_keys(words) =>
            {
                Cow::Borrowed(rank)
            }
            _ => (0..words.len() as u32)
                .map(|id| self.lookup(words.key(id)).map_or(PRUNED, |(term, _)| term))
                .collect(),
        }
    }

    /// The one scoring function, for every dictionary arm's transform:
    /// `keys` holds a document's `pack(term id, tf)` pairs, each term
    /// once, in any order; the result is its normalized TF·IDF vector
    /// (`idf = ln(N / df)`), the arrays sized exactly. `keys` is left
    /// in an unspecified state; reusing one buffer across a loop's
    /// documents reuses the sort's scratch with it.
    pub fn score(&self, keys: &mut Vec<u64>) -> SparseVec {
        let keys = sort_by_id(keys, self.len());
        let mut terms = Vec::with_capacity(keys.len());
        let mut weights = Vec::with_capacity(keys.len());
        for &key in keys {
            let (id, tf) = unpack(key);
            terms.push(id);
            weights.push(tf as f64 * self.0.terms.idf[id as usize]);
        }
        let mut v = SparseVec::from_sorted_parts(terms, weights);
        v.normalize();
        v
    }

    /// Dictionary kind backing the word → id index.
    pub fn kind(&self) -> DictKind {
        self.0.kind
    }

    /// Actual heap footprint of the index and the per-term arrays. The
    /// interned arm's index is the interner it shares with the counts it
    /// was ranked from.
    pub fn heap_bytes(&self) -> u64 {
        let terms = &self.0.terms;
        let index = match &self.0.index {
            Index::Dict(index) => index.heap_bytes(),
            Index::Interned { words, rank } => words.heap_bytes() + (rank.capacity() * 4) as u64,
        };
        index
            + terms.text.capacity() as u64
            + ((terms.ends.capacity() + terms.dfs.capacity()) * 4) as u64
            + (terms.idf.capacity() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [DictKind; 4] = [
        DictKind::BTree,
        DictKind::Hash,
        DictKind::HashPresized(16),
        DictKind::Arena,
    ];

    fn df_dict() -> AnyDict {
        let mut d = DictKind::Hash.new_dict();
        d.add("pear", 3);
        d.add("apple", 7);
        d.add("zucchini", 1);
        d
    }

    #[test]
    fn ids_rank_by_descending_df_then_key_bytes_under_every_kind() {
        // Two df ties: "date"/"fig", and three words whose first eight
        // bytes are all "internal", so only their full keys order them.
        let mut df = DictKind::Hash.new_dict();
        for (word, count) in [
            ("fig", 2),
            ("internals", 5),
            ("apple", 1),
            ("internal", 5),
            ("date", 2),
            ("zebra", 9),
            ("internalize", 5),
            ("kiwi", 20),
        ] {
            df.add(word, count);
        }
        let words = |v: &Vocab| -> Vec<(String, u32)> {
            (0..v.len() as u32)
                .map(|id| (v.word(id).to_string(), v.df(id)))
                .collect()
        };
        let rank = [
            ("kiwi", 20),
            ("zebra", 9),
            ("internal", 5),
            ("internalize", 5),
            ("internals", 5),
            ("date", 2),
            ("fig", 2),
            ("apple", 1),
        ];
        for kind in KINDS {
            let all = Vocab::from_df_dict_pruned(kind, &df, 1, u64::MAX, 30);
            let expect: Vec<_> = rank.iter().map(|&(w, n)| (w.to_string(), n)).collect();
            assert_eq!(words(&all), expect, "{kind:?}");
            // The band [2, 9] drops the first and the last term; the
            // rest keep their order and close up.
            let band = Vocab::from_df_dict_pruned(kind, &df, 2, 9, 30);
            assert_eq!(words(&band), expect[1..7], "{kind:?}");
            assert_eq!(band.lookup("internalize"), Some((2, 5)), "{kind:?}");
            assert_eq!(band.lookup("kiwi"), None, "{kind:?}");
        }
    }

    #[test]
    fn ranked_equals_a_sort_by_descending_df_then_word() {
        let mut rng = hpa_rng::SplitMix64::seed_from_u64(41);
        // Dense dfs take the counting pass, spread-out ones the plain
        // sort; a quarter of the words share the 8-byte stem "internal".
        for (terms, df_range) in [(3_000, 40), (3_000, 1 << 40), (5, 3), (1, 1)] {
            let mut words = ArenaDict::new();
            while words.len() < terms {
                let stem = if rng.gen_index(4) == 0 {
                    "internal"
                } else {
                    ""
                };
                let len = 1 + rng.gen_index(6);
                let tail: String = (0..len)
                    .map(|_| (b'a' + rng.gen_index(26) as u8) as char)
                    .collect();
                words.insert(&format!("{stem}{tail}"), 1 + rng.gen_index(df_range) as u64);
            }
            for (min_df, max_df) in [(1, u64::MAX), (2, df_range as u64 / 2)] {
                let mut expect: Vec<u32> = (0..words.len() as u32)
                    .filter(|&id| (min_df..=max_df).contains(&words.value(id)))
                    .collect();
                expect.sort_by_key(|&id| (Reverse(words.value(id)), words.key(id)));
                assert_eq!(
                    ranked(&words, min_df, max_df),
                    expect,
                    "{terms} terms, dfs < {df_range}"
                );
            }
        }
    }

    #[test]
    fn lookup_round_trips_every_word() {
        for kind in KINDS {
            let v = Vocab::from_df_dict_pruned(kind, &df_dict(), 1, u64::MAX, 10);
            for id in 0..v.len() as u32 {
                let (got_id, got_df) = v.lookup(v.word(id)).unwrap();
                assert_eq!(got_id, id);
                assert_eq!(got_df, v.df(id));
            }
            assert_eq!(v.lookup("nope"), None);
        }
    }

    #[test]
    fn presized_kind_degrades_to_plain_hash() {
        let v =
            Vocab::from_df_dict_pruned(DictKind::HashPresized(4096), &df_dict(), 1, u64::MAX, 10);
        assert_eq!(v.kind(), DictKind::Hash);
    }

    #[test]
    fn arena_index_orders_ids_like_the_tree() {
        let tree = Vocab::from_df_dict_pruned(DictKind::BTree, &df_dict(), 1, u64::MAX, 10);
        let arena = Vocab::from_df_dict_pruned(DictKind::Arena, &df_dict(), 1, u64::MAX, 10);
        for id in 0..tree.len() as u32 {
            assert_eq!(tree.word(id), arena.word(id));
            assert_eq!(tree.df(id), arena.df(id));
        }
    }

    #[test]
    fn empty_df_dict() {
        for kind in KINDS {
            let v = Vocab::from_df_dict_pruned(kind, &kind.new_dict(), 1, u64::MAX, 0);
            assert!(v.is_empty());
            assert_eq!(v.lookup("x"), None);
            assert!(v.score(&mut Vec::new()).is_empty());
        }
    }

    #[test]
    fn pruned_words_have_no_id_under_any_kind() {
        for kind in KINDS {
            let v = Vocab::from_df_dict_pruned(kind, &df_dict(), 2, 5, 10);
            assert_eq!((v.len(), v.word(0), v.df(0)), (1, "pear", 3), "{kind:?}");
            assert_eq!(v.lookup("pear"), Some((0, 3)));
            assert_eq!(v.lookup("apple"), None, "{kind:?}: above max_df");
            assert_eq!(v.lookup("zucchini"), None, "{kind:?}: below min_df");
        }
    }

    #[test]
    fn score_weighs_sorts_and_normalizes_identically_for_every_kind() {
        let idf = |df: f64| (10.0f64 / df).ln();
        let raw = [2.0 * idf(7.0), 1.0 * idf(3.0), 4.0 * idf(1.0)];
        let norm = raw.iter().map(|w| w * w).sum::<f64>().sqrt();
        for kind in KINDS {
            let v = Vocab::from_df_dict_pruned(kind, &df_dict(), 1, u64::MAX, 10);
            let scored = v.score(&mut vec![pack(2, 4), pack(0, 2), pack(1, 1)]);
            assert_eq!(scored.terms(), [0, 1, 2], "{kind:?}");
            let expect: Vec<f64> = raw.iter().map(|w| w * (1.0 / norm)).collect();
            assert_eq!(scored.weights(), expect, "{kind:?}");
        }
    }

    #[test]
    fn radix_sort_by_id_equals_sort_unstable() {
        let mut rng = hpa_rng::SplitMix64::seed_from_u64(35);
        for dim in [1, 2, 255, 256, 257, 4_000, 65_536, 65_537, 300_000, 1 << 25] {
            for n in [0, 1, 2, RADIX_MIN_KEYS - 1, RADIX_MIN_KEYS, 300, 2_000] {
                let n = n.min(dim);
                // `n` distinct ids below `dim`: every id, or a random set.
                let mut ids: Vec<u32> = if n == dim {
                    (0..dim as u32).collect()
                } else {
                    let mut set = std::collections::BTreeSet::new();
                    while set.len() < n {
                        set.insert(rng.gen_index(dim) as u32);
                    }
                    set.into_iter().collect()
                };
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.gen_index(i + 1));
                }
                let mut keys: Vec<u64> = ids.iter().map(|&id| pack(id, rng.next_u32())).collect();
                let mut expect = keys.clone();
                expect.sort_unstable();
                assert_eq!(sort_by_id(&mut keys, dim), expect, "dim {dim}, {n} keys");
            }
        }
        // Ids sharing their low bytes: the skipped passes keep the order
        // the earlier ones made.
        let mut keys: Vec<u64> = (0..200u32).rev().map(|i| pack(i << 16 | 7, i)).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sort_by_id(&mut keys, 1 << 24), expect);
    }

    #[test]
    fn ranks_of_a_foreign_interner_go_through_the_words() {
        let mut own = ArenaDict::new();
        for (w, df) in [("pear", 3), ("apple", 7), ("zucchini", 1)] {
            own.insert(w, df);
        }
        let v = Vocab::from_interned(Arc::new(own.clone()), 1, u64::MAX, 10);
        assert_eq!(&*v.ranks_of(&own), [1, 0, 2]);
        assert!(matches!(v.ranks_of(&own), Cow::Borrowed(_)));
        // Same words, other ids, one unknown word.
        let mut foreign = ArenaDict::new();
        for w in ["zucchini", "quince", "apple"] {
            foreign.insert(w, 1);
        }
        assert_eq!(&*v.ranks_of(&foreign), [2, PRUNED, 0]);
        let tree = Vocab::from_df_dict_pruned(DictKind::BTree, &df_dict(), 1, u64::MAX, 10);
        assert_eq!(&*tree.ranks_of(&foreign), [2, PRUNED, 0]);
    }
}
