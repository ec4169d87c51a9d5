//! Pinned answers: what K-means returns on two small shapes of the
//! benchmark's corpora, as digests of its bits.
//!
//! The house contract is bit-identity — across executors, grains and
//! kernels, and across performance changes that claim to move no result.
//! These tests hold a fit to digests recorded once, so a change that moves
//! a bit of an assignment, of the inertia trace or of a centroid fails
//! here instead of in a hand comparison of cluster files. A change that
//! means to move them updates the pins in the same commit and says why.
//!
//! Two shapes, one per form of the centroid block:
//! * NSF Abstracts × 0.005 at `k` 8 — dense term rows;
//! * Mix × 0.01 at `k` 128 — postings rows.
//!
//! Each runs the shipped route — the default (interned) dictionary arm,
//! the default kernel, TF/IDF fused into K-means — and is fitted for
//! eight iterations at the default grain on the sequential executor, a
//! two-thread pool and four simulated cores. The paper's `map` arm must
//! give the same digests on the sequential executor.
//!
//! The disk route holds each shape to the same digests once more: the
//! corpus is written one file per document and loaded back with
//! `load_corpus_parallel`, as `hpa cluster` and the benchmark load it. On
//! that corpus `Workflow::run` must write one cluster file, pinned by its
//! digest, whether the matrix stays in memory or crosses a serial ARFF
//! file or a pipelined `.hpac` file.

use hpa::corpus::CorpusSpec;
use hpa::exec::MachineModel;
use hpa::prelude::*;
use hpa::sparse::fnv::{FNV_OFFSET, FNV_PRIME};
use std::path::{Path, PathBuf};

const SEED: u64 = 42;

/// FNV-1a over a stream of bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over a stream of 64-bit words, little-endian bytes.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words.into_iter().flat_map(u64::to_le_bytes))
}

/// Digests of one fit: assignments, inertia trace, centroids (`k`,
/// `dim`, norms, then every weight centroid by centroid).
#[derive(Debug, PartialEq, Eq)]
struct Answers {
    iterations: usize,
    assignments: u64,
    trace: u64,
    centroids: u64,
}

impl Answers {
    fn of(model: &KMeansModel) -> Self {
        let block = &model.centroids;
        let shape = [block.k() as u64, block.dim() as u64];
        let norms = block.norms().iter().map(|x| x.to_bits());
        let weights = (0..block.k()).flat_map(|c| (0..block.dim()).map(move |t| (t, c)));
        let weights = weights.map(|(t, c)| block.get(t, c).to_bits());
        Answers {
            iterations: model.iterations,
            assignments: digest(model.assignments.iter().map(|&a| u64::from(a))),
            trace: digest(model.trace.iter().map(|x| x.to_bits())),
            centroids: digest(shape.into_iter().chain(norms).chain(weights)),
        }
    }
}

fn execs() -> [Exec; 3] {
    [
        Exec::sequential(),
        Exec::pool(2),
        Exec::simulated(4, MachineModel::default()),
    ]
}

/// A fixed budget past convergence (a negative `tol` never breaks), so
/// later iterations run on carried bounds and prune.
fn kmeans_config(k: usize) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iters: 8,
        tol: -1.0,
        seed: SEED,
        ..Default::default()
    }
}

/// Fit `corpus` at `k` on every executor; each fit must give `expected`
/// and sweep the block in the `postings` form or not.
fn assert_pinned(corpus: &Corpus, k: usize, postings: bool, expected: &Answers) {
    let fit_tfidf = |config| hpa::tfidf::TfIdf::new(config).fit(&Exec::sequential(), corpus);
    let model = fit_tfidf(TfIdfConfig::default());
    let config = kmeans_config(k);
    for exec in execs() {
        let fitted = hpa::kmeans::KMeans::new(config).fit(&exec, &model.vectors, model.vocab.len());
        assert_eq!(fitted.centroids.is_postings(), postings, "{exec:?}: form");
        assert_eq!(&Answers::of(&fitted), expected, "{exec:?}");
    }
    let map = fit_tfidf(TfIdfConfig {
        dict_kind: DictKind::BTree,
        ..TfIdfConfig::default()
    });
    let fitted =
        hpa::kmeans::KMeans::new(config).fit(&Exec::sequential(), &map.vectors, map.vocab.len());
    assert_eq!(&Answers::of(&fitted), expected, "map arm");
}

/// A scratch directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hpa_answers_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The three transports the benchmark's workloads run: fused, a serial
/// ARFF file and a pipelined `.hpac` file, the files kept in `dir`.
fn workflows(k: usize, dir: &Path) -> [(&'static str, Workflow); 3] {
    let builder = || {
        WorkflowBuilder::new()
            .tfidf(TfIdfConfig::default())
            .kmeans(kmeans_config(k))
    };
    [
        ("fused", builder().fused()),
        (
            "arff",
            builder()
                .discrete_io(DiscreteIo::Serial)
                .intermediate_format(IntermediateFormat::Arff)
                .discrete_in(dir.to_path_buf()),
        ),
        (
            "hpac",
            builder()
                .discrete_io(DiscreteIo::Pipelined)
                .intermediate_format(IntermediateFormat::Binary)
                .discrete_in(dir.to_path_buf()),
        ),
    ]
}

/// Check `spec` against its pins in memory and from disk: the fit's
/// digests on both routes, and the digest of the cluster file
/// `Workflow::run` writes from the loaded corpus on every transport.
fn assert_shape_pinned(
    tag: &str,
    spec: CorpusSpec,
    k: usize,
    postings: bool,
    expected: Answers,
    cluster_file: u64,
) {
    let corpus = spec.generate(SEED);
    assert_pinned(&corpus, k, postings, &expected);

    let scratch = ScratchDir::new(tag);
    let (docs, intermediates) = (scratch.0.join("corpus"), scratch.0.join("intermediates"));
    hpa::corpus::disk::write_corpus(&corpus, &docs).unwrap();
    drop(corpus);
    let exec = Exec::pool(2);
    let loaded = hpa::io::load_corpus_parallel(&exec, tag, &docs).unwrap();
    assert_pinned(&loaded, k, postings, &expected);
    for (label, workflow) in workflows(k, &intermediates) {
        let outcome = workflow.run(&loaded, &exec).unwrap();
        assert_eq!(fnv1a(outcome.output), cluster_file, "{label}: cluster file");
    }
    let left: Vec<_> = std::fs::read_dir(&intermediates).unwrap().collect();
    assert!(left.is_empty(), "intermediates left behind: {left:?}");
}

#[test]
fn nsf_at_k8_is_pinned() {
    assert_shape_pinned(
        "nsf",
        CorpusSpec::nsf_abstracts().scaled(0.005),
        8,
        false,
        Answers {
            iterations: 8,
            assignments: 0xedbd_2dae_c3e3_d521,
            trace: 0x0c3f_0df2_9fbf_0063,
            centroids: 0x045b_d01b_49dc_ffb6,
        },
        0xbdcc_4215_f3b5_5271,
    );
}

#[test]
fn mix_at_k128_is_pinned() {
    assert_shape_pinned(
        "mix",
        CorpusSpec::mix().scaled(0.01),
        128,
        true,
        Answers {
            iterations: 8,
            assignments: 0x3b1c_1afa_13a2_8957,
            trace: 0xff5f_8f01_9332_8bda,
            centroids: 0x30bc_efe4_c18c_d52d,
        },
        0x4aef_1b78_1b23_90aa,
    );
}
