//! Cross-crate integration tests: the full TF/IDF → K-means workflow
//! from corpus generation through clustering, across composition
//! strategies, dictionary kinds, and execution modes.

use hpa::corpus::CorpusSpec;
use hpa::dict::DictKind;
use hpa::exec::{CostMode, MachineModel};
use hpa::prelude::*;

fn corpus() -> Corpus {
    CorpusSpec::mix().scaled(0.003).generate(17)
}

fn builder(kind: DictKind) -> hpa::workflow::WorkflowBuilder {
    WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            dict_kind: kind,
            grain: 0,
            charge_input_io: true,
            ..Default::default()
        })
        .kmeans(KMeansConfig {
            k: 6,
            max_iters: 12,
            seed: 5,
            grain: 16,
            ..Default::default()
        })
}

#[test]
fn discrete_equals_fused_for_every_dictionary_kind() {
    let corpus = corpus();
    let exec = Exec::sequential();
    for kind in [
        DictKind::BTree,
        DictKind::Hash,
        DictKind::PAPER_PRESIZE,
        DictKind::Arena,
    ] {
        let fused = builder(kind).fused().run(&corpus, &exec).unwrap();
        let discrete = builder(kind).discrete().run(&corpus, &exec).unwrap();
        assert_eq!(
            fused.assignments, discrete.assignments,
            "strategies disagree under {kind:?}"
        );
        assert_eq!(fused.dim, discrete.dim);
        assert!((fused.inertia - discrete.inertia).abs() < 1e-9);
    }
}

#[test]
fn dictionary_kind_never_changes_the_answer() {
    // Figure 4 varies performance, not semantics: all dictionary kinds
    // must produce the identical clustering.
    let corpus = corpus();
    let exec = Exec::sequential();
    let reference = builder(DictKind::BTree)
        .fused()
        .run(&corpus, &exec)
        .unwrap();
    for kind in [DictKind::Hash, DictKind::PAPER_PRESIZE, DictKind::Arena] {
        let other = builder(kind).fused().run(&corpus, &exec).unwrap();
        assert_eq!(reference.assignments, other.assignments, "{kind:?}");
        assert_eq!(reference.dim, other.dim);
    }
}

#[test]
fn executors_agree_bit_for_bit() {
    // Fixed grains make chunk boundaries identical, so results must be
    // exactly equal across sequential, pooled, and simulated execution.
    let corpus = corpus();
    let reference = builder(DictKind::default())
        .fused()
        .run(&corpus, &Exec::sequential())
        .unwrap();
    for exec in [
        Exec::pool(4),
        Exec::simulated(8, MachineModel::default()),
        Exec::simulated_with(16, MachineModel::frictionless(), CostMode::Analytic),
    ] {
        let out = builder(DictKind::default())
            .fused()
            .run(&corpus, &exec)
            .unwrap();
        assert_eq!(reference.assignments, out.assignments, "under {exec:?}");
        assert_eq!(reference.inertia, out.inertia, "under {exec:?}");
    }
}

#[test]
fn simulated_time_decreases_with_cores_until_serial_floor() {
    let corpus = corpus();
    let mut last = f64::INFINITY;
    for cores in [1, 2, 4, 8] {
        let exec = Exec::simulated_with(cores, MachineModel::default(), CostMode::Analytic);
        let out = builder(DictKind::default())
            .fused()
            .run(&corpus, &exec)
            .unwrap();
        let t = out.phases.total().as_secs_f64();
        assert!(
            t <= last * 1.02,
            "virtual time increased from {last:.4}s to {t:.4}s at {cores} cores"
        );
        last = t;
    }
}

#[test]
fn workflow_from_disk_corpus_matches_in_memory() {
    let corpus = corpus();
    let dir = std::env::temp_dir().join(format!("hpa_it_disk_{}", std::process::id()));
    hpa::corpus::disk::write_corpus(&corpus, &dir).unwrap();
    let exec = Exec::sequential();
    let loaded = hpa::io::load_corpus_parallel(&exec, &corpus.name, &dir).unwrap();
    let a = builder(DictKind::default())
        .fused()
        .run(&corpus, &exec)
        .unwrap();
    let b = builder(DictKind::default())
        .fused()
        .run(&loaded, &exec)
        .unwrap();
    assert_eq!(a.assignments, b.assignments);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tfidf_model_survives_arff_round_trip_through_real_files() {
    let corpus = corpus();
    let exec = Exec::sequential();
    let model = hpa::tfidf::TfIdf::new(TfIdfConfig::default()).fit(&exec, &corpus);

    let path = std::env::temp_dir().join(format!("hpa_it_rt_{}.arff", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    hpa::tfidf::write_arff(&exec, &model, file).unwrap();

    let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let (rows, dim) = hpa::tfidf::read_arff(&exec, file).unwrap();
    assert_eq!(dim, model.vocab.len());
    assert_eq!(rows.len(), model.vectors.len());
    for (orig, got) in model.vectors.iter().zip(&rows) {
        assert_eq!(orig.terms(), got.terms());
        assert_eq!(orig.weights(), got.weights());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn clustering_quality_beats_random_assignment() {
    // Not just plumbing: the clustering must actually reduce inertia
    // versus assigning documents round-robin to the same number of
    // clusters.
    let corpus = corpus();
    let exec = Exec::sequential();
    let model = hpa::tfidf::TfIdf::new(TfIdfConfig::default()).fit(&exec, &corpus);
    let dim = model.vocab.len();
    let k = 6;

    let fitted = hpa::kmeans::KMeans::new(KMeansConfig {
        k,
        max_iters: 20,
        seed: 5,
        ..Default::default()
    })
    .fit(&exec, &model.vectors, dim);

    // Round-robin baseline with centroids recomputed per cluster.
    let assignments: Vec<u32> = (0..model.vectors.len()).map(|i| (i % k) as u32).collect();
    let mut centroids = vec![hpa::sparse::DenseVec::zeros(dim); k];
    let mut counts = vec![0u64; k];
    for (v, &a) in model.vectors.iter().zip(&assignments) {
        centroids[a as usize].add_sparse(v);
        counts[a as usize] += 1;
    }
    for (c, n) in centroids.iter_mut().zip(&counts) {
        if *n > 0 {
            c.scale(1.0 / *n as f64);
        }
    }
    let centroids = hpa::sparse::CentroidBlock::from_centroids(&centroids);
    let random_inertia = hpa::kmeans::inertia_of(&model.vectors, &centroids, &assignments);
    // Evaluate both against their final centroids. The synthetic corpus
    // has no topical structure (Zipf noise), so the margin is small — but
    // Lloyd's must still strictly beat round-robin.
    let fitted_inertia =
        hpa::kmeans::inertia_of(&model.vectors, &fitted.centroids, &fitted.assignments);
    assert!(
        fitted_inertia < random_inertia,
        "k-means inertia {fitted_inertia} vs round-robin {random_inertia}"
    );
}

#[test]
fn outcome_output_is_valid_csv_of_assignments() {
    let corpus = corpus();
    let exec = Exec::sequential();
    let out = builder(DictKind::default())
        .fused()
        .run(&corpus, &exec)
        .unwrap();
    let text = String::from_utf8(out.output.clone()).unwrap();
    let mut lines = 0;
    for (i, line) in text.lines().enumerate() {
        let (doc, cluster) = line.split_once(',').expect("doc,cluster");
        assert_eq!(doc.parse::<usize>().unwrap(), i);
        let c: u32 = cluster.parse().unwrap();
        assert_eq!(c, out.assignments[i]);
        lines += 1;
    }
    assert_eq!(lines, corpus.len());
}
