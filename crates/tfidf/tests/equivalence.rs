//! Cross-representation equivalence: the interned arm (`arena`) must
//! produce the model the paper's per-document-dictionary arm (`map`)
//! produces, bit for bit — vocabulary words, document frequencies, term
//! ids, weight bits and token counts — for seeded corpora and the hostile
//! shapes, under every executor and chunking: the model must not depend
//! on thread count, chunk count or the order provisional ids were handed
//! out in. Runs in every build; randomness comes from
//! `CorpusSpec::generate` and an in-file SplitMix64 step.

use hpa_corpus::{Corpus, CorpusSpec, Document};
use hpa_dict::DictKind;
use hpa_exec::{Exec, MachineModel};
use hpa_tfidf::{TfIdf, TfIdfConfig};

fn corpus_of<S: AsRef<str>>(texts: &[S]) -> Corpus {
    let docs = texts.iter().enumerate().map(|(i, text)| Document {
        id: i as u32,
        name: format!("d{i}"),
        text: text.as_ref().to_string(),
    });
    Corpus::from_documents("eq", docs.collect())
}

/// One SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `docs` documents over a small vocabulary of prefix-sharing words (ties
/// in the first eight bytes, words that are prefixes of others), some of
/// them capitalised, with a few empty documents in between.
fn prefix_heavy(seed: u64, docs: usize) -> Corpus {
    const STEMS: [&str; 8] = [
        "a",
        "ab",
        "abcdefgh",
        "abcdefghi",
        "abcdefghij",
        "zz",
        "word",
        "Wort",
    ];
    let mut state = seed;
    let texts: Vec<String> = (0..docs)
        .map(|_| {
            let len = next(&mut state) % 40;
            (0..len)
                .map(|_| {
                    let stem = STEMS[(next(&mut state) % 8) as usize];
                    match next(&mut state) % 3 {
                        0 => format!("{stem}{}", next(&mut state) % 10),
                        _ => stem.to_string(),
                    }
                })
                .collect::<Vec<_>>()
                .join(if next(&mut state).is_multiple_of(2) {
                    " "
                } else {
                    ", "
                })
        })
        .collect();
    corpus_of(&texts)
}

/// Everything a fit produces, in comparable form.
#[derive(Debug, PartialEq)]
struct Snapshot {
    total_terms: Vec<u64>,
    num_terms: usize,
    words: Vec<(String, u32)>,
    vectors: Vec<(Vec<u32>, Vec<u64>)>,
}

fn snapshot(kind: DictKind, exec: &Exec, corpus: &Corpus, config: TfIdfConfig) -> Snapshot {
    let op = TfIdf::new(TfIdfConfig {
        dict_kind: kind,
        charge_input_io: false,
        ..config
    });
    let counts = op.count_words(exec, corpus);
    let vocab = op.build_vocab(exec, &counts);
    let model = op.transform(exec, &counts, &vocab);
    assert_eq!(model.num_docs, corpus.len());
    for id in 0..vocab.len() as u32 {
        let word = vocab.word(id);
        assert_eq!(
            counts.df(word),
            Some(vocab.df(id) as u64),
            "{kind:?} {word}"
        );
        assert_eq!(
            vocab.lookup(word),
            Some((id, vocab.df(id))),
            "{kind:?} {word}"
        );
    }
    Snapshot {
        total_terms: counts.per_doc.iter().map(|d| d.total_terms).collect(),
        num_terms: counts.num_terms(),
        words: (0..vocab.len() as u32)
            .map(|id| (vocab.word(id).to_string(), vocab.df(id)))
            .collect(),
        vectors: model
            .vectors
            .iter()
            .map(|v| {
                let bits = v.weights().iter().map(|w| w.to_bits()).collect();
                (v.terms().to_vec(), bits)
            })
            .collect(),
    }
}

/// The tree arm under `Exec::sequential()` is the reference; the arena
/// arm must match it under every executor × grain.
fn assert_arena_matches_tree(label: &str, corpus: &Corpus, config: TfIdfConfig) {
    let reference = snapshot(DictKind::BTree, &Exec::sequential(), corpus, config);
    for exec in [
        Exec::sequential(),
        Exec::pool(2),
        Exec::pool(3),
        Exec::simulated(4, MachineModel::default()),
    ] {
        for grain in [0, 1, 7] {
            let config = TfIdfConfig { grain, ..config };
            let arena = snapshot(DictKind::Arena, &exec, corpus, config);
            assert_eq!(
                arena, reference,
                "{label}: arena under {exec:?}, grain {grain}"
            );
        }
    }
    let tree = snapshot(
        DictKind::BTree,
        &Exec::pool(3),
        corpus,
        TfIdfConfig { grain: 7, ..config },
    );
    assert_eq!(tree, reference, "{label}: the reference itself is stable");
}

#[test]
fn hostile_shapes_agree_with_the_tree() {
    let long: String = (0..30_000)
        .map(|i| format!("w{} ", (i * 7919) % 4001))
        .collect();
    let shapes: Vec<(&str, Corpus)> = vec![
        ("empty corpus", Corpus::default()),
        ("one empty document", corpus_of(&[""])),
        (
            "empty and separator-only documents between real ones",
            corpus_of(&["alpha beta", "", "  .,;!\n\t ", "beta gamma", ""]),
        ),
        ("single-token documents", corpus_of(&["x", "y", "x", "z"])),
        (
            "all-uppercase tokens",
            corpus_of(&["ALPHA BETA ALPHA", "BETA GAMMA", "alpha Gamma DELTA"]),
        ),
        (
            "every document identical",
            corpus_of(&["same words every time same"; 9]),
        ),
        (
            "one very long document among short ones",
            corpus_of(&["w1 w2 w3", long.as_str(), "w3 w4000 unseen"]),
        ),
    ];
    for (label, corpus) in &shapes {
        assert_arena_matches_tree(label, corpus, TfIdfConfig::default());
    }
    // df = N everywhere: idf = 0 and every vector is all zeros.
    let identical = snapshot(
        DictKind::Arena,
        &Exec::pool(2),
        &shapes[5].1,
        TfIdfConfig::default(),
    );
    assert_eq!(identical.words.len(), 4);
    for (terms, bits) in &identical.vectors {
        assert_eq!(terms.len(), 4);
        assert!(bits.iter().all(|&b| b == 0.0f64.to_bits()));
    }
}

#[test]
fn seeded_corpora_agree_with_the_tree() {
    for seed in [1u64, 7, 20160315] {
        let mix = CorpusSpec::mix().scaled(0.002).generate(seed);
        assert_arena_matches_tree(&format!("mix seed {seed}"), &mix, TfIdfConfig::default());
        let prefixes = prefix_heavy(seed, 60);
        assert_arena_matches_tree(
            &format!("prefix-heavy seed {seed}"),
            &prefixes,
            TfIdfConfig::default(),
        );
    }
    let nsf = CorpusSpec::nsf_abstracts().scaled(0.001).generate(3);
    assert_arena_matches_tree("nsf", &nsf, TfIdfConfig::default());
}

#[test]
fn pruned_vocabularies_agree_with_the_tree() {
    let pruning = TfIdfConfig {
        min_df: 2,
        max_df_fraction: 0.5,
        ..Default::default()
    };
    for seed in [2u64, 11] {
        let mix = CorpusSpec::mix().scaled(0.002).generate(seed);
        let unpruned = snapshot(
            DictKind::Arena,
            &Exec::sequential(),
            &mix,
            TfIdfConfig::default(),
        );
        let pruned = snapshot(DictKind::Arena, &Exec::sequential(), &mix, pruning);
        assert!(
            pruned.words.len() < unpruned.words.len() / 2,
            "pruning bites: {} of {} terms kept",
            pruned.words.len(),
            unpruned.words.len()
        );
        assert_eq!(
            pruned.num_terms, unpruned.num_terms,
            "counting is unaffected"
        );
        assert_arena_matches_tree(&format!("pruned mix seed {seed}"), &mix, pruning);
        assert_arena_matches_tree(
            &format!("pruned prefix-heavy seed {seed}"),
            &prefix_heavy(seed, 40),
            pruning,
        );
    }
}

#[test]
fn a_vocabulary_from_other_counts_is_applied_by_word() {
    // Training vocabulary, new documents: the arena transform must not
    // mistake the foreign vocabulary's rank permutation for its own.
    let train = CorpusSpec::mix().scaled(0.002).generate(5);
    let fresh = CorpusSpec::mix().scaled(0.001).generate(6);
    let apply = |kind: DictKind| {
        let op = TfIdf::new(TfIdfConfig {
            dict_kind: kind,
            charge_input_io: false,
            ..Default::default()
        });
        let exec = Exec::pool(2);
        let vocab = op.build_vocab(&exec, &op.count_words(&exec, &train));
        let model = op.transform(&exec, &op.count_words(&exec, &fresh), &vocab);
        model
            .vectors
            .iter()
            .map(|v| {
                let bits: Vec<u64> = v.weights().iter().map(|w| w.to_bits()).collect();
                (v.terms().to_vec(), bits)
            })
            .collect::<Vec<_>>()
    };
    let tree = apply(DictKind::BTree);
    assert!(tree.iter().any(|(terms, _)| !terms.is_empty()));
    assert_eq!(apply(DictKind::Arena), tree);
}
