//! Bounded allocation under the counting allocator: a fit holds one
//! `k × dim` array (the term-major block, which is also the model) plus
//! one `dim`-sized sum buffer per update task and, per cluster, two
//! `dim`-bit masks and a value list the size of its support — not a
//! row-major twin of the centroids, not one `k × dim` partial per
//! worker — and once the buffers exist an iteration allocates only the
//! parallel regions' task lists ("we do not create new objects during
//! the iterations").
//!
//! Own integration-test binary, one test: the allocator's counters are
//! process-global.

use hpa_exec::Exec;
use hpa_kmeans::{KMeans, KMeansConfig};
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DIM: usize = 24_000;

/// Documents over `DIM` terms that mostly share a small head of the
/// vocabulary, so that clusters keep trading members for many iterations.
fn corpus(n: usize) -> Vec<SparseVec> {
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    (0..n)
        .map(|_| {
            (0..40)
                .map(|_| {
                    let span = if rng.gen_index(10) < 9 { 120 } else { DIM };
                    (rng.gen_index(span) as u32, rng.gen_range_f64(-2.0, 2.0))
                })
                .collect()
        })
        .collect()
}

/// Allocation calls and peak live bytes of one fit.
fn fit(exec: &Exec, vectors: &[SparseVec], k: usize, iters: usize) -> (u64, usize) {
    let operator = KMeans::new(KMeansConfig {
        k,
        max_iters: iters,
        tol: 0.0,
        ..Default::default()
    });
    let gauge = HeapGauge::start();
    let model = operator.fit(exec, vectors, DIM);
    assert_eq!(model.iterations, iters, "ran to the iteration cap");
    (gauge.allocs_in_region(), gauge.peak_in_region())
}

#[test]
fn fit_memory_is_bounded_and_iterations_allocate_nothing_that_grows() {
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(4);
    let small = corpus(600);
    let large = corpus(1200);

    let k = 64;
    let (_, peak) = fit(&exec, &small, k, 3);
    let k_dim_bytes = k * DIM * std::mem::size_of::<f64>();
    assert!(
        (peak as f64) < 1.5 * k_dim_bytes as f64,
        "peak live heap {peak} B is {:.2} × k·dim·8",
        peak as f64 / k_dim_bytes as f64
    );
    assert!(peak > k_dim_bytes, "the block is counted");

    // Allocations per iteration after the first, from two iteration caps.
    let per_iteration = |vectors: &[SparseVec], k: usize| {
        let (short, _) = fit(&exec, vectors, k, 2);
        let (long, _) = fit(&exec, vectors, k, 6);
        (long - short) / 4
    };
    let base = per_iteration(&small, 32);
    let more_docs = per_iteration(&large, 32);
    let more_clusters = per_iteration(&small, 64);
    // 600 more documents or 32 more clusters would show; the slack is
    // for the pool's queues, which grow at moments that depend on timing.
    assert!(
        base.abs_diff(more_docs) <= 8,
        "allocations per iteration follow n: {base} vs {more_docs}"
    );
    assert!(
        base.abs_diff(more_clusters) <= 8,
        "allocations per iteration follow k: {base} vs {more_clusters}"
    );
}
