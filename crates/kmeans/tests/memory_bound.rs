//! Bounded allocation under the counting allocator: a fit holds its
//! centroid block in the one form it chose — `k × dim` dense weights, or
//! postings the size of the centroids' non-zeros — plus one `dim`-sized
//! sum buffer per update task and, per cluster, three `dim`-bit masks and
//! a value list the size of its old and new supports — not a row-major
//! twin of the centroids, not one `k × dim` partial per worker — and once
//! the buffers exist an iteration allocates only the parallel regions'
//! task lists ("we do not create new objects during the iterations").
//!
//! Own integration-test binary, one test: the allocator's counters are
//! process-global.

use hpa_exec::Exec;
use hpa_kmeans::{KMeans, KMeansConfig, KMeansModel};
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DIM: usize = 24_000;
const THREADS: usize = 4;

/// Documents over `DIM` terms, `share` in twenty of whose non-zeros fall
/// in the first `head` terms, so that clusters keep trading members for
/// many iterations.
fn corpus(n: usize, (head, share): (usize, usize)) -> Vec<SparseVec> {
    let mut rng = SplitMix64::seed_from_u64(0xB0B);
    (0..n)
        .map(|_| {
            (0..40)
                .map(|_| {
                    let span = if rng.gen_index(20) < share { head } else { DIM };
                    (rng.gen_index(span) as u32, rng.gen_range_f64(-2.0, 2.0))
                })
                .collect()
        })
        .collect()
}

/// Every centroid covers a small head that holds nearly all non-zeros:
/// dense term rows are cheaper to sweep.
const NARROW: (usize, usize) = (40, 19);
/// Most non-zeros spread over all terms, half over a wider head: a term
/// row holds a few centroids, and postings are cheaper.
const WIDE: (usize, usize) = (400, 10);
/// In between: postings are still cheaper at `k` 64 and 128, and the
/// clusters trade members for longer.
const MIXED: (usize, usize) = (120, 12);

/// Allocation calls and peak live bytes of one fit, and its model.
fn fit(exec: &Exec, vectors: &[SparseVec], k: usize, iters: usize) -> (u64, usize, KMeansModel) {
    let operator = KMeans::new(KMeansConfig {
        k,
        max_iters: iters,
        tol: 0.0,
        ..Default::default()
    });
    let gauge = HeapGauge::start();
    let model = operator.fit(exec, vectors, DIM);
    assert_eq!(model.iterations, iters, "ran to the iteration cap");
    (gauge.allocs_in_region(), gauge.peak_in_region(), model)
}

/// What a fit of `n` documents may hold besides its block: a `DIM`-sized
/// sum per update task (four per thread), three masks and a value list
/// per cluster, the list at most the old and the new support, the
/// per-document arrays, the per-term document
/// counts, and a quarter megabyte for the pool's queues, the regions'
/// task lists and a block of the other form while it is replaced.
fn buffers(model: &KMeansModel, n: usize) -> usize {
    let k = model.centroids.k();
    let tasks = k.div_ceil(k.div_ceil(THREADS * 4));
    let support: usize = (0..k)
        .map(|c| {
            let row = model.centroids.centroid(c);
            row.as_slice().iter().filter(|w| **w != 0.0).count()
        })
        .sum();
    let masks = k * 3 * DIM.div_ceil(64) * 8;
    tasks * DIM * 8 + masks + 2 * support * 8 + n * 40 + DIM * 4 + (1 << 18)
}

#[test]
fn fit_memory_is_bounded_and_iterations_allocate_nothing_that_grows() {
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(THREADS);
    let n = 600;

    // The allocator's peak is a high-water mark that never falls: the
    // smaller fit goes first.
    for (shape, k, postings) in [(WIDE, 64, true), (NARROW, 32, false)] {
        let label = format!("{shape:?}, k {k}");
        let vectors = corpus(n, shape);
        let (_, peak, model) = fit(&exec, &vectors, k, 3);
        assert_eq!(model.centroids.is_postings(), postings, "{label}");
        let block = model.centroids.heap_bytes();
        let dense = k * DIM * std::mem::size_of::<f64>();
        let bound = block + buffers(&model, n);
        assert!(peak < bound, "{label}: peak live heap {peak} B > {bound} B");
        if postings {
            // The dense form is never held.
            assert!(block < dense / 10, "{label}: postings take {block} B");
            assert!(peak < dense / 2, "{label}: peak live heap {peak} B");
        } else {
            assert!(peak > dense, "{label}: the block is counted");
        }
    }

    // Allocations per iteration after the first, from two iteration caps.
    let per_iteration = |vectors: &[SparseVec], k: usize| {
        let (short, _, _) = fit(&exec, vectors, k, 2);
        let (long, _, _) = fit(&exec, vectors, k, 6);
        (long - short) / 4
    };
    // Per shape, `k` and `2k` take the same form, so the same regions.
    for (shape, k) in [(NARROW, 16), (MIXED, 64)] {
        let (small, large) = (corpus(n, shape), corpus(2 * n, shape));
        let base = per_iteration(&small, k);
        let more_docs = per_iteration(&large, k);
        let more_clusters = per_iteration(&small, 2 * k);
        // 600 more documents or `k` more clusters would show; the slack
        // is for the pool's queues, which grow at moments that depend on
        // timing, and for a postings array outgrowing its capacity.
        assert!(
            base.abs_diff(more_docs) <= 8,
            "{shape:?}: allocations per iteration follow n: {base} vs {more_docs}"
        );
        assert!(
            base.abs_diff(more_clusters) <= 8,
            "{shape:?}: allocations per iteration follow k: {base} vs {more_clusters}"
        );
    }
}
