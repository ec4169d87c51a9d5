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
