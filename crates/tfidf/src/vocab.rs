//! Term vocabulary: id ↔ word ↔ document frequency.
//!
//! Term ids are assigned in ascending word order, so a tree dictionary's
//! natural iteration order *is* id order — one reason the paper's
//! transform phase interacts with the dictionary choice. The word → id
//! index is stored in a dictionary of the same kind under study, because
//! the transform phase's lookups hit this structure.

use hpa_dict::{pack, unpack, AnyDict, DictKind, Dictionary};
use hpa_sparse::TermId;

/// Immutable vocabulary built from a document-frequency dictionary.
#[derive(Debug, Clone)]
pub struct Vocab {
    words: Vec<Box<str>>,
    dfs: Vec<u32>,
    index: AnyDict,
    kind: DictKind,
}

impl Vocab {
    /// Build from a word → document-frequency dictionary. Ids follow
    /// ascending word order.
    pub fn from_df_dict(kind: DictKind, df: &AnyDict) -> Self {
        Vocab::from_df_dict_pruned(kind, df, 1, u64::MAX)
    }

    /// Like [`Vocab::from_df_dict`], keeping only terms whose document
    /// frequency lies in `[min_df, max_df]`.
    pub fn from_df_dict_pruned(kind: DictKind, df: &AnyDict, min_df: u64, max_df: u64) -> Self {
        let mut words: Vec<Box<str>> = Vec::with_capacity(df.len());
        let mut dfs: Vec<u32> = Vec::with_capacity(df.len());
        // The global index is never per-document, so a pre-sized kind
        // degrades to the plain hash table here.
        let index_kind = kind.global_kind();
        let mut index = index_kind.new_dict();
        df.for_each_sorted(&mut |word, count| {
            if count < min_df || count > max_df {
                return;
            }
            let id = words.len() as u32;
            words.push(word.into());
            dfs.push(count.min(u32::MAX as u64) as u32);
            index.insert(word, pack(id, count.min(u32::MAX as u64) as u32));
        });
        Vocab {
            words,
            dfs,
            index,
            kind: index_kind,
        }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word with the given term id.
    pub fn word(&self, id: TermId) -> &str {
        &self.words[id as usize]
    }

    /// Document frequency of the given term id.
    pub fn df(&self, id: TermId) -> u32 {
        self.dfs[id as usize]
    }

    /// Look a word up: `(term id, document frequency)`.
    pub fn lookup(&self, word: &str) -> Option<(TermId, u32)> {
        self.index.get(word).map(unpack)
    }

    /// Dictionary kind backing the word → id index.
    pub fn kind(&self) -> DictKind {
        self.kind
    }

    /// Actual heap footprint of the index and word list.
    pub fn heap_bytes(&self) -> u64 {
        let strings: u64 = self.words.iter().map(|w| w.len() as u64).sum();
        self.index.heap_bytes()
            + strings
            + (self.words.capacity() * std::mem::size_of::<Box<str>>()) as u64
            + (self.dfs.capacity() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df_dict() -> AnyDict {
        let mut d = DictKind::Hash.new_dict();
        d.add("pear", 3);
        d.add("apple", 7);
        d.add("zucchini", 1);
        d
    }

    #[test]
    fn ids_follow_sorted_word_order() {
        let v = Vocab::from_df_dict(DictKind::Hash, &df_dict());
        assert_eq!(v.len(), 3);
        assert_eq!(v.word(0), "apple");
        assert_eq!(v.word(1), "pear");
        assert_eq!(v.word(2), "zucchini");
        assert_eq!(v.df(0), 7);
        assert_eq!(v.df(2), 1);
    }

    #[test]
    fn lookup_round_trips_every_word() {
        for kind in [
            DictKind::BTree,
            DictKind::Hash,
            DictKind::HashPresized(16),
            DictKind::Arena,
        ] {
            let v = Vocab::from_df_dict(kind, &df_dict());
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
        let v = Vocab::from_df_dict(DictKind::HashPresized(4096), &df_dict());
        assert_eq!(v.kind(), DictKind::Hash);
    }

    #[test]
    fn arena_index_orders_ids_like_the_tree() {
        let tree = Vocab::from_df_dict(DictKind::BTree, &df_dict());
        let arena = Vocab::from_df_dict(DictKind::Arena, &df_dict());
        for id in 0..tree.len() as u32 {
            assert_eq!(tree.word(id), arena.word(id));
            assert_eq!(tree.df(id), arena.df(id));
        }
    }

    #[test]
    fn empty_df_dict() {
        let v = Vocab::from_df_dict(DictKind::BTree, &DictKind::BTree.new_dict());
        assert!(v.is_empty());
        assert_eq!(v.lookup("x"), None);
    }
}
