//! No dark time inside a Lloyd iteration: the `kmeans/assign` and
//! `kmeans/update` spans account for each `kmeans/iter` span, and each
//! has a prediction to be held against.
//!
//! Own integration-test binary: the trace buffers are process-global.

use hpa_exec::Exec;
use hpa_kmeans::{KMeans, KMeansConfig};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;

#[test]
fn assign_and_update_cover_every_iteration() {
    let (n, dim, k) = (800, 20_000, 64);
    let mut rng = SplitMix64::seed_from_u64(0x5CA9);
    let vectors: Vec<SparseVec> = (0..n)
        .map(|_| {
            (0..60)
                .map(|_| (rng.gen_index(dim) as u32, rng.gen_range_f64(0.1, 1.0)))
                .collect()
        })
        .collect();

    hpa_trace::enable();
    let model = KMeans::new(KMeansConfig {
        k,
        max_iters: 4,
        tol: 0.0,
        ..Default::default()
    })
    .fit(&Exec::pool(2), &vectors, dim);
    hpa_trace::disable();
    let rec = hpa_trace::take();

    let phases = ["assign", "update"];
    let named = |name: &'static str| rec.spans_in("kmeans").filter(move |s| s.name == name);
    assert_eq!(named("iter").count(), model.iterations);
    for iter in named("iter") {
        let covered: u64 = rec
            .spans_in("kmeans")
            .filter(|s| phases.contains(&s.name) && s.arg == iter.arg)
            .map(|s| s.dur_ns)
            .sum();
        assert!(
            covered as f64 >= 0.95 * iter.dur_ns as f64,
            "iteration {:?}: {covered} ns of {} ns attributed",
            iter.arg,
            iter.dur_ns
        );
    }
    for phase in phases {
        assert_eq!(named(phase).count(), model.iterations, "{phase} spans");
        let predictions = rec.predictions_in("kmeans").filter(|p| p.name == phase);
        assert_eq!(predictions.count(), model.iterations, "{phase} predictions");
    }
    for gone in ["merge", "recompute", "rebuild"] {
        assert_eq!(named(gone).count(), 0, "{gone} spans");
    }
}
