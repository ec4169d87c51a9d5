//! Text clustering end-to-end, the way the paper's motivating workflow
//! runs in production: documents on disk, parallel input, TF/IDF, and a
//! comparison of the *discrete* strategy (ARFF intermediate on disk)
//! against the *fused* strategy (in-memory hand-off).
//!
//! ```sh
//! cargo run --release --example text_clustering
//! ```

use hpa::corpus::{disk, CorpusSpec};
use hpa::io::load_corpus_parallel;
use hpa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("hpa_example_corpus_{}", std::process::id()));

    // 1. Materialize a corpus as one .txt file per document — the input
    //    layout the paper's TF/IDF operator consumes.
    let corpus = CorpusSpec::nsf_abstracts().scaled(0.005).generate(7);
    let files = disk::write_corpus(&corpus, &dir)?;
    println!("wrote {files} documents to {}", dir.display());

    // 2. Open it with the parallel-input substrate (§3.2 of the paper:
    //    independent files read concurrently). The load lists the
    //    directory; the word count reads each file where it counts it.
    let exec = Exec::simulated(8, MachineModel::default());
    let loaded = load_corpus_parallel(&exec, "NSF abstracts", &dir)?;
    println!(
        "listed {} documents ({} bytes) for parallel input",
        loaded.len(),
        loaded.total_bytes()
    );

    // 3. Run the same workflow both ways and compare (§3.3, Figure 3).
    let build = || {
        WorkflowBuilder::new()
            .tfidf(TfIdfConfig::default())
            .kmeans(KMeansConfig {
                k: 8,
                max_iters: 10,
                ..Default::default()
            })
    };

    for (label, workflow) in [
        ("fused (merged)", build().fused()),
        ("discrete (ARFF on disk)", build().discrete()),
    ] {
        let exec = Exec::simulated(8, MachineModel::default());
        let outcome = workflow.run(&loaded, &exec)?;
        println!("\n=== {label} ===");
        print!("{}", outcome.phases);
    }

    // 4. The two strategies compute the same clustering; only the cost
    //    differs.
    let exec = Exec::sequential();
    let fused = build().fused().run(&loaded, &exec)?;
    let discrete = build().discrete().run(&loaded, &exec)?;
    assert_eq!(fused.assignments, discrete.assignments);
    println!("\nfused and discrete workflows agree on all assignments ✓");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
