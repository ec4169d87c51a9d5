//! Adding a stage of your own to the workflow.
//!
//! The paper argues that big-data operators "can involve any algorithm to
//! transform, classify or structure the data" — so the framework must be
//! open. This example adds a **top-terms summarizer**: a plain function
//! that takes the TF/IDF model and the fitted clustering and emits, per
//! cluster, the highest-scoring terms of that cluster's centroid. It runs
//! on the same executor as the built-in stages and records its own
//! `top-terms` phase through the same `OperatorCtx::timed` they use, so it
//! shows up in the same report (and, with tracing on, as a `phase/top-terms`
//! span).
//!
//! ```sh
//! cargo run --release --example custom_operator
//! ```

use hpa::exec::TaskCost;
use hpa::kmeans::KMeans;
use hpa::prelude::*;
use hpa::tfidf::TfIdf;
use hpa::workflow::OperatorCtx;

/// Per-cluster top `per_cluster` terms by centroid weight.
fn top_terms(
    ctx: &mut OperatorCtx<'_>,
    model: &TfIdfModel,
    clustering: &KMeansModel,
    per_cluster: usize,
) -> Vec<Vec<(String, f64)>> {
    ctx.timed("top-terms", |exec| {
        exec.serial(TaskCost::cpu(50_000), || {
            let centroids = &clustering.centroids;
            (0..centroids.k())
                .map(|c| centroids.centroid(c))
                .map(|centroid| {
                    let mut weighted: Vec<(u32, f64)> = centroid
                        .as_slice()
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| **w > 0.0)
                        .map(|(t, w)| (t as u32, *w))
                        .collect();
                    weighted.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
                    weighted
                        .into_iter()
                        .take(per_cluster)
                        .map(|(t, w)| (model.vocab.word(t).to_string(), w))
                        .collect()
                })
                .collect()
        })
    })
}

fn main() {
    let corpus = CorpusSpec::mix().scaled(0.01).generate(99);
    let exec = Exec::simulated(8, hpa::exec::MachineModel::default());
    let mut timer = PhaseTimer::new();
    let mut ctx = OperatorCtx {
        exec: &exec,
        timer: &mut timer,
    };

    // The fused pipeline, stage by stage, then the custom stage.
    let tfidf = TfIdf::new(TfIdfConfig::default());
    let counts = ctx.timed("input+wc", |exec| tfidf.count_words(exec, &corpus));
    let model = ctx.timed("transform", |exec| {
        let vocab = tfidf.build_vocab(exec, &counts);
        tfidf.transform(exec, &counts, &vocab)
    });
    let kmeans = KMeans::new(KMeansConfig {
        k: 5,
        max_iters: 12,
        ..Default::default()
    });
    let clustering = ctx.timed("kmeans", |exec| {
        kmeans.fit(exec, &model.vectors, model.vocab.len())
    });
    let summaries = top_terms(&mut ctx, &model, &clustering, 5);

    for (c, terms) in summaries.iter().enumerate() {
        let words: Vec<&str> = terms.iter().map(|(w, _)| w.as_str()).collect();
        println!("cluster {c}: {}", words.join(", "));
    }
    println!("\nphase report (including the custom phase):");
    print!("{}", timer.finish());
}
