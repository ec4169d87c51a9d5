//! Quickstart: generate a synthetic corpus, run the fused TF/IDF →
//! K-means workflow, and inspect phase times — the whole public API in
//! ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hpa::prelude::*;

fn main() {
    // A 1/100-scale "Mix" corpus (~230 documents), deterministic in the
    // seed.
    let corpus = CorpusSpec::mix().scaled(0.01).generate(42);
    let stats = corpus.stats().expect("a generated corpus is in memory");
    println!(
        "corpus: {} documents, {:.1} MB, {} distinct words",
        stats.documents,
        stats.megabytes(),
        stats.distinct_words
    );

    // Simulate an 8-core machine (runs anywhere, including single-core
    // hosts). Swap for `Exec::pool(8)` on a real multicore machine, or
    // `Exec::sequential()` for a plain single-threaded run.
    let exec = Exec::simulated(8, MachineModel::default());

    let workflow = WorkflowBuilder::new()
        .tfidf(TfIdfConfig::default())
        .kmeans(KMeansConfig {
            k: 8,
            max_iters: 15,
            ..Default::default()
        })
        .fused();

    let outcome = workflow.run(&corpus, &exec).expect("workflow runs");

    println!(
        "clustered {} documents into 8 clusters in {} iterations (inertia {:.2})",
        outcome.assignments.len(),
        outcome.iterations,
        outcome.inertia
    );
    println!("\nper-phase times (virtual, on the simulated 8-core machine):");
    print!("{}", outcome.phases);

    // Cluster sizes.
    let mut sizes = [0usize; 8];
    for &a in &outcome.assignments {
        sizes[a as usize] += 1;
    }
    println!("cluster sizes: {sizes:?}");
}
