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

use hpa::corpus::CorpusSpec;
use hpa::exec::MachineModel;
use hpa::prelude::*;
use hpa::sparse::fnv::{FNV_OFFSET, FNV_PRIME};

const SEED: u64 = 42;

/// FNV-1a over a stream of 64-bit words, little-endian bytes.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
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

/// Fit `spec` at `k` on every executor; each fit must give `expected`
/// and sweep the block in the `postings` form or not.
fn assert_pinned(spec: CorpusSpec, k: usize, postings: bool, expected: Answers) {
    let corpus = spec.generate(SEED);
    let fit_tfidf = |config| hpa::tfidf::TfIdf::new(config).fit(&Exec::sequential(), &corpus);
    let model = fit_tfidf(TfIdfConfig::default());
    // A fixed budget past convergence (a negative `tol` never breaks),
    // so later iterations run on carried bounds and prune.
    let config = KMeansConfig {
        k,
        max_iters: 8,
        tol: -1.0,
        seed: SEED,
        ..Default::default()
    };
    for exec in execs() {
        let fitted = hpa::kmeans::KMeans::new(config).fit(&exec, &model.vectors, model.vocab.len());
        assert_eq!(fitted.centroids.is_postings(), postings, "{exec:?}: form");
        assert_eq!(Answers::of(&fitted), expected, "{exec:?}");
    }
    let map = fit_tfidf(TfIdfConfig {
        dict_kind: DictKind::BTree,
        ..TfIdfConfig::default()
    });
    let fitted =
        hpa::kmeans::KMeans::new(config).fit(&Exec::sequential(), &map.vectors, map.vocab.len());
    assert_eq!(Answers::of(&fitted), expected, "map arm");
}

#[test]
fn nsf_at_k8_is_pinned() {
    assert_pinned(
        CorpusSpec::nsf_abstracts().scaled(0.005),
        8,
        false,
        Answers {
            iterations: 8,
            assignments: 0xedbd_2dae_c3e3_d521,
            trace: 0x0c3f_0df2_9fbf_0063,
            centroids: 0x045b_d01b_49dc_ffb6,
        },
    );
}

#[test]
fn mix_at_k128_is_pinned() {
    assert_pinned(
        CorpusSpec::mix().scaled(0.01),
        128,
        true,
        Answers {
            iterations: 8,
            assignments: 0x3b1c_1afa_13a2_8957,
            trace: 0xff5f_8f01_9332_8bda,
            centroids: 0x30bc_efe4_c18c_d52d,
        },
    );
}
