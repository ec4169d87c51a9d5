//! Vocabulary pruning (`min_df` / `max_df_fraction`) behaviour.

use hpa_corpus::{Corpus, Document};
use hpa_exec::Exec;
use hpa_tfidf::{TfIdf, TfIdfConfig};

fn corpus() -> Corpus {
    // "common" in all 4 docs; "shared" in 2; each doc has a unique word.
    let texts = [
        "common shared unique1",
        "common shared unique2",
        "common unique3",
        "common unique4",
    ];
    Corpus::from_documents(
        "prune",
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Document {
                id: i as u32,
                name: format!("d{i}"),
                text: t.to_string(),
            })
            .collect(),
    )
}

fn fit(min_df: u32, max_df_fraction: f64) -> hpa_tfidf::TfIdfModel {
    let op = TfIdf::new(TfIdfConfig {
        min_df,
        max_df_fraction,
        charge_input_io: false,
        ..Default::default()
    });
    op.fit(&Exec::sequential(), &corpus())
}

#[test]
fn default_keeps_everything() {
    let model = fit(1, 1.0);
    assert_eq!(model.vocab.len(), 6); // common, shared, unique1..4
}

#[test]
fn min_df_drops_hapax_terms() {
    let model = fit(2, 1.0);
    assert_eq!(model.vocab.len(), 2); // common, shared
    assert!(model.vocab.lookup("unique1").is_none());
    assert!(model.vocab.lookup("shared").is_some());
}

#[test]
fn max_df_drops_ubiquitous_terms() {
    let model = fit(1, 0.6);
    // "common" (df=4/4) pruned; "shared" (df=2/4=0.5) kept.
    assert!(model.vocab.lookup("common").is_none());
    assert!(model.vocab.lookup("shared").is_some());
    assert_eq!(model.vocab.len(), 5);
}

#[test]
fn pruned_terms_vanish_from_vectors() {
    let model = fit(2, 0.6);
    assert_eq!(model.vocab.len(), 1); // only "shared"
    for (i, v) in model.vectors.iter().enumerate() {
        if i < 2 {
            assert_eq!(v.nnz(), 1, "docs 0/1 contain 'shared'");
            assert!((v.norm() - 1.0).abs() < 1e-12, "still normalized");
        } else {
            assert!(v.is_empty(), "docs 2/3 lose every term");
        }
    }
}

#[test]
fn term_ids_stay_dense_after_pruning() {
    let model = fit(2, 1.0);
    for id in 0..model.vocab.len() as u32 {
        let word = model.vocab.word(id);
        assert_eq!(model.vocab.lookup(word).unwrap().0, id);
    }
}
