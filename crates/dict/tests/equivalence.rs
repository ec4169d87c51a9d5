//! Cross-backend equivalence: the arena dictionary must be observably
//! indistinguishable from the tree and hash backends — same `add`
//! returns, same `get` results, same lengths, same `merge_from` sums,
//! and byte-for-byte the same `for_each_sorted` order — under random
//! operation workloads. Runs in every build (no external crates).

use hpa_dict::{AnyDict, DictKind, Dictionary};
use hpa_rng::SplitMix64;
use std::collections::BTreeMap;

const KINDS: [DictKind; 4] = [
    DictKind::BTree,
    DictKind::Hash,
    DictKind::HashPresized(64),
    DictKind::Arena,
];

/// A small vocabulary with many prefix-sharing words, so probe chains,
/// length ties, and sorted-order edge cases all get exercised.
fn word(rng: &mut SplitMix64) -> String {
    const STEMS: [&str; 8] = ["a", "ab", "abc", "b", "ba", "zz", "word", "wort"];
    let stem = STEMS[rng.gen_index(STEMS.len())];
    if rng.gen_ratio(1, 3) {
        format!("{stem}{}", rng.gen_index(10))
    } else {
        stem.to_string()
    }
}

fn sorted_entries(d: &AnyDict) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    d.for_each_sorted(&mut |w, v| out.push((w.to_string(), v)));
    out
}

#[test]
fn random_workloads_agree_across_all_backends() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut dicts: Vec<AnyDict> = KINDS.iter().map(|k| k.new_dict()).collect();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for _ in 0..400 {
            let w = word(&mut rng);
            match rng.gen_index(4) {
                0 => {
                    let d = rng.gen_index(5) as u64 + 1;
                    let expected = model.get(&w).copied().unwrap_or(0) + d;
                    model.insert(w.clone(), expected);
                    for dict in &mut dicts {
                        assert_eq!(dict.add(&w, d), expected, "add({w}) on {dict:?}");
                    }
                }
                1 => {
                    let v = rng.next_u64() >> 32;
                    model.insert(w.clone(), v);
                    for dict in &mut dicts {
                        dict.insert(&w, v);
                    }
                }
                2 => {
                    let expected = model.get(&w).copied();
                    for dict in &dicts {
                        assert_eq!(dict.get(&w), expected, "get({w})");
                    }
                }
                _ => {
                    // Two adds in a row must land on the same entry.
                    let d = rng.gen_index(3) as u64 + 1;
                    let expected = model.get(&w).copied().unwrap_or(0) + 2 * d;
                    model.insert(w.clone(), expected);
                    for dict in &mut dicts {
                        dict.add(&w, d);
                        assert_eq!(dict.add(&w, d), expected);
                    }
                }
            }
        }
        let expected: Vec<(String, u64)> = model.into_iter().collect();
        for (kind, dict) in KINDS.iter().zip(&dicts) {
            assert_eq!(dict.len(), expected.len(), "{kind:?} len");
            assert_eq!(
                sorted_entries(dict),
                expected,
                "{kind:?} sorted iteration order"
            );
        }
    }
}

#[test]
fn merge_from_agrees_across_all_backends() {
    for seed in 100..106u64 {
        let mut rng = SplitMix64::seed_from_u64(seed);
        // Build two word multisets, count them under every backend, merge,
        // and require identical sums in identical sorted order.
        let left: Vec<String> = (0..rng.gen_index(300)).map(|_| word(&mut rng)).collect();
        let right: Vec<String> = (0..rng.gen_index(300)).map(|_| word(&mut rng)).collect();
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        for w in left.iter().chain(&right) {
            *model.entry(w.clone()).or_insert(0) += 1;
        }
        let expected: Vec<(String, u64)> = model.into_iter().collect();
        for kind in KINDS {
            let mut a = kind.new_dict();
            let mut b = kind.new_dict();
            for w in &left {
                a.add(w, 1);
            }
            for w in &right {
                b.add(w, 1);
            }
            a.merge_from(&b);
            assert_eq!(sorted_entries(&a), expected, "{kind:?} merge");
        }
    }
}

#[test]
fn arena_sorted_order_is_insertion_order_independent() {
    // The same key set inserted in two different orders must iterate
    // identically — the sorted walk must not leak id order.
    let mut rng = SplitMix64::seed_from_u64(7);
    let mut words: Vec<String> = (0..200).map(|_| word(&mut rng)).collect();
    let mut forward = DictKind::Arena.new_dict();
    for w in &words {
        forward.add(w, 1);
    }
    words.reverse();
    let mut backward = DictKind::Arena.new_dict();
    for w in &words {
        backward.add(w, 1);
    }
    assert_eq!(sorted_entries(&forward), sorted_entries(&backward));
}

/// The arena interner as it was before it kept a prefix column, kept
/// verbatim (less its race-detector hook, trace counters and the
/// `Dictionary` surface) as the oracle of the prefix match: a tag hit
/// was confirmed by comparing the key bytes in the arena. It is keyed by
/// a hash function of the caller's choice: `hpa_dict::hash_word` to
/// compare probe by probe, `hpa_sparse::fnv1a` (the hash it had) to
/// compare probe lengths.
mod head {
    const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The tag a slot stores: the hash's high half, as the arena takes it.
    pub fn fold(hash: u64) -> u32 {
        (hash >> 32) as u32
    }

    /// `hpa_dict::hash_word` over key bytes (every key is UTF-8).
    pub fn hash_word(key: &[u8]) -> u64 {
        hpa_dict::hash_word(std::str::from_utf8(key).expect("UTF-8 key"))
    }

    pub struct ArenaDict {
        hash: fn(&[u8]) -> u64,
        slots: Vec<u64>,
        shift: u32,
        arena: Vec<u8>,
        ends: Vec<u32>,
        values: Vec<u64>,
        pub probe_steps: u64,
    }

    impl ArenaDict {
        pub fn new(hash: fn(&[u8]) -> u64) -> Self {
            ArenaDict {
                hash,
                slots: Vec::new(),
                shift: 0,
                arena: Vec::new(),
                ends: Vec::new(),
                values: Vec::new(),
                probe_steps: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.values.len()
        }

        pub fn intern(&mut self, word: &str) -> u32 {
            self.intern_bytes((self.hash)(word.as_bytes()), word.as_bytes())
        }

        pub fn sorted_ids(&self) -> Vec<u32> {
            let prefix = |key: &[u8]| {
                let mut p = [0u8; 8];
                let n = key.len().min(8);
                p[..n].copy_from_slice(&key[..n]);
                u64::from_be_bytes(p)
            };
            let mut keyed: Vec<(u64, u32)> = (0..self.len() as u32)
                .map(|id| (prefix(self.key_bytes(id)), id))
                .collect();
            keyed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| self.key_bytes(a.1).cmp(self.key_bytes(b.1)))
            });
            keyed.into_iter().map(|(_, id)| id).collect()
        }

        pub fn merge_from(&mut self, other: &ArenaDict) -> Vec<u32> {
            (0..other.len() as u32)
                .map(|id| {
                    let key = other.key_bytes(id);
                    let here = self.intern_bytes((self.hash)(key), key);
                    self.values[here as usize] += other.values[id as usize];
                    here
                })
                .collect()
        }

        fn key_bytes(&self, id: u32) -> &[u8] {
            let start = match id.checked_sub(1) {
                Some(prev) => self.ends[prev as usize],
                None => 0,
            };
            &self.arena[start as usize..self.ends[id as usize] as usize]
        }

        fn home(&self, tag: u32) -> usize {
            ((tag as u64).wrapping_mul(FIB) >> self.shift) as usize
        }

        fn probe(&self, tag: u32, key: &[u8]) -> (usize, Option<u32>, u64) {
            let mask = self.slots.len() - 1;
            let mut idx = self.home(tag);
            let mut steps = 0u64;
            loop {
                let slot = self.slots[idx];
                if slot == 0 {
                    return (idx, None, steps);
                }
                if (slot >> 32) as u32 == tag {
                    let id = slot as u32 - 1;
                    if self.key_bytes(id) == key {
                        return (idx, Some(id), steps);
                    }
                }
                idx = (idx + 1) & mask;
                steps += 1;
            }
        }

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
        }

        fn intern_bytes(&mut self, hash: u64, key: &[u8]) -> u32 {
            self.reserve_slots(self.len() + 1);
            let tag = fold(hash);
            let (idx, found, steps) = self.probe(tag, key);
            self.probe_steps += steps;
            if let Some(id) = found {
                return id;
            }
            let id = self.len() as u32;
            let end = (self.arena.len() + key.len()) as u32;
            self.arena.extend_from_slice(key);
            self.ends.push(end);
            self.values.push(0);
            self.slots[idx] = (tag as u64) << 32 | (id as u64 + 1);
            id
        }
    }
}

/// Words many of which share their first eight bytes, or their first
/// seven and end there, or hold zero bytes that look like a short key's
/// padding — `family` of each kind, enough that 32-bit tags collide —
/// and two long keys found to share their prefix and their tag, in a
/// random order with repeats.
fn prefix_sharing_words(rng: &mut SplitMix64, family: usize) -> Vec<String> {
    const FIXED: [&str; 14] = [
        "abcdefgh",
        "abcdefghi",
        "abcdefghij",
        "abcdefg",
        "abcdef",
        "bcdefgh",
        "abcdefg\0",
        "abcdefg\0\0",
        "ab",
        "ab\0",
        "ab\0\0\0\0\0\0",
        "",
        "\0",
        "é\u{10FFFF}x",
    ];
    let mut words: Vec<String> = FIXED.iter().map(|w| w.to_string()).collect();
    for i in 0..family {
        // A long key matching every other one on the prefix, and a
        // seven-byte key whose prefix alone decides.
        words.push(format!("abcdefgh{i}"));
        words.push(
            (0..7)
                .map(|_| (b'a' + rng.gen_index(26) as u8) as char)
                .collect(),
        );
    }
    // A multiplicative hash spreads a run of numbered keys evenly, so
    // the family may hold no tag collision on one prefix: search random
    // suffixes for a pair (a birthday search over 2^32 tags).
    let mut by_tag = std::collections::HashMap::new();
    let mut key = *b"abcdefgh______";
    loop {
        let mut digits = rng.next_u64();
        for b in &mut key[8..] {
            *b = b'a' + (digits % 26) as u8;
            digits /= 26;
        }
        let w = std::str::from_utf8(&key).expect("ASCII key");
        match by_tag.insert(head::fold(hpa_dict::hash_word(w)), key) {
            Some(twin) if twin != key => {
                let twin = std::str::from_utf8(&twin).expect("ASCII key");
                words.extend([twin.to_string(), w.to_string()]);
                break;
            }
            _ => {}
        }
    }
    for _ in 0..family {
        let again = words[rng.gen_index(words.len())].clone();
        words.push(again);
    }
    for i in (1..words.len()).rev() {
        words.swap(i, rng.gen_index(i + 1));
    }
    words
}

#[test]
fn arena_prefix_match_agrees_with_the_arena_compare() {
    let mut rng = SplitMix64::seed_from_u64(35);
    let words = prefix_sharing_words(&mut rng, 150_000);
    // The set must reach the prefix match through tag collisions: two
    // distinct words with one tag, both with an equal and with unequal
    // prefixes.
    let mut by_tag: std::collections::HashMap<u32, Vec<&str>> = Default::default();
    for w in &words {
        let same = by_tag
            .entry(head::fold(hpa_dict::hash_word(w)))
            .or_default();
        if !same.contains(&w.as_str()) {
            same.push(w);
        }
    }
    let prefix = |w: &str| hpa_dict::key_prefix(w.as_bytes());
    let pairs: Vec<(&str, &str)> = by_tag
        .values()
        .flat_map(|same| {
            let rest = same.iter().skip(1);
            rest.map(move |&w| (same[0], w))
        })
        .collect();
    assert!(
        pairs.iter().any(|&(a, b)| prefix(a) == prefix(b)),
        "no tag collision between words of one prefix"
    );
    assert!(
        pairs.iter().any(|&(a, b)| prefix(a) != prefix(b)),
        "no tag collision between words of two prefixes"
    );

    let (left, right) = words.split_at(words.len() / 3);
    let mut old = (
        head::ArenaDict::new(head::hash_word),
        head::ArenaDict::new(head::hash_word),
    );
    let mut new = (hpa_dict::ArenaDict::new(), hpa_dict::ArenaDict::new());
    for (side, part) in [(0, left), (1, right)] {
        for w in part {
            let (o, n) = if side == 0 {
                (&mut old.0, &mut new.0)
            } else {
                (&mut old.1, &mut new.1)
            };
            let id = if w.len() % 2 == 0 {
                n.intern(w)
            } else {
                n.intern_prefixed(prefix(w), w)
            };
            assert_eq!(id, o.intern(w), "id of {w:?}");
            n.add_at(id, 1);
        }
    }
    for (o, n) in [(&old.0, &new.0), (&old.1, &new.1)] {
        assert_eq!(n.len(), o.len());
        assert_eq!(n.stats().probe_steps, o.probe_steps);
        assert_eq!(n.sorted_ids(), o.sorted_ids());
    }
    assert_eq!(
        new.0.merge_from(&new.1),
        old.0.merge_from(&old.1),
        "merge map"
    );
    assert_eq!(new.0.stats().probe_steps, old.0.probe_steps, "merge probes");
    assert_eq!(new.0.sorted_ids(), old.0.sorted_ids(), "merged order");
    for w in &words {
        let id = new.0.id_of(w).expect("merged word");
        assert_eq!(new.0.key(id), w);
    }
    assert_eq!(new.0.id_of("abcdefgh_"), None);
    assert_eq!(new.0.id_of("ab\0\0"), None);
}

/// The word-at-a-time hash must place the generator's corpora no worse
/// than FNV-1a did: interning every token of an NSF and a Mix corpus
/// (scale 0.01) takes at most a tenth more probe steps than the oracle
/// keyed by FNV-1a, and yields the same ids (first-seen order).
#[test]
fn probe_lengths_stay_near_fnv1a() {
    use hpa_corpus::{CorpusSpec, Tokenizer};
    for spec in [CorpusSpec::nsf_abstracts(), CorpusSpec::mix()] {
        let corpus = spec.scaled(0.01).generate(42);
        let mut new = hpa_dict::ArenaDict::new();
        let mut fnv = head::ArenaDict::new(hpa_sparse::fnv1a);
        let (mut tok, mut buf) = (Tokenizer::new(), String::new());
        for i in 0..corpus.len() {
            let text = corpus.text(i, &mut buf).expect("in-memory text");
            tok.for_each_prefixed(text, |w, prefix| {
                assert_eq!(new.intern_prefixed(prefix, w), fnv.intern(w), "{w:?}");
            });
        }
        let (steps, oracle) = (new.stats().probe_steps, fnv.probe_steps);
        assert!(
            steps * 10 <= oracle * 11,
            "{}: {steps} probe steps against FNV-1a's {oracle}",
            spec.name
        );
    }
}
