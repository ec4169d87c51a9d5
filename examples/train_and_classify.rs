//! Train once, classify forever: fit the TF/IDF → K-means pipeline on a
//! training corpus, persist it to disk, load it back, and classify a
//! *new* batch of documents with the trained vocabulary and centroids.
//!
//! ```sh
//! cargo run --release --example train_and_classify
//! ```

use hpa::prelude::*;
use hpa::workflow::TrainedPipeline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train on one sample of the Mix distribution...
    let training = CorpusSpec::mix().scaled(0.01).generate(100);
    let exec = Exec::simulated(8, MachineModel::default());
    let (pipeline, train_assignments) = TrainedPipeline::train(
        &training,
        &exec,
        TfIdfConfig::default(),
        KMeansConfig {
            k: 6,
            max_iters: 15,
            ..Default::default()
        },
    )?;
    println!(
        "trained on {} documents: vocabulary {}, {} centroids",
        train_assignments.len(),
        pipeline.vocab.len(),
        pipeline.centroids.k()
    );

    // ...persist and reload (what a production service would do)...
    let path = std::env::temp_dir().join(format!("hpa_pipeline_{}.txt", std::process::id()));
    pipeline.save(std::io::BufWriter::new(std::fs::File::create(&path)?))?;
    let loaded = TrainedPipeline::load(std::io::BufReader::new(std::fs::File::open(&path)?))?;
    println!("model round-tripped through {}", path.display());

    // ...and classify a fresh batch drawn from the same distribution
    // (different seed: genuinely unseen documents).
    let fresh = CorpusSpec::mix().scaled(0.002).generate(2024);
    let predictions = loaded.predict(&exec, &fresh)?;
    let mut sizes = vec![0usize; loaded.centroids.k()];
    for &p in &predictions {
        sizes[p as usize] += 1;
    }
    println!(
        "classified {} unseen documents; cluster sizes {:?}",
        predictions.len(),
        sizes
    );

    // Unseen vocabulary degrades gracefully: unknown words are ignored.
    let odd = loaded.vectorize("words theModelNeverSaw qqqq");
    println!("vector for out-of-vocabulary text has {} terms", odd.nnz());

    std::fs::remove_file(&path)?;
    Ok(())
}
