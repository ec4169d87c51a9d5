//! Analytic cost annotations for the K-means phases.
//!
//! Per Lloyd iteration the operator runs a parallel block rebuild over
//! term slabs, a parallel assignment loop over documents, a serial O(n)
//! regrouping by cluster and a parallel update over clusters; the
//! simulator needs their costs to reproduce Figure 1. Assignment scales
//! with `documents × nnz × k`; rebuild and update sweep `k × dim` once
//! each, in up to `dim / SLAB_TERMS` and `k` tasks. The paper's operator
//! merged and recomputed those arrays serially, which held its *Mix*
//! curve near 2.5x; this one does not (see EXPERIMENTS.md).

use crate::AssignKernel;
use hpa_exec::TaskCost;

/// Distance kernel: per (document non-zero, cluster) pair — one multiply-
/// add against the dense centroid plus the gather.
const ASSIGN_NS_PER_NNZ_CLUSTER: f64 = 1.6;
/// Fixed per-document overhead of the assignment loop (argmin bookkeeping,
/// norm lookups, assignment store).
const ASSIGN_NS_PER_DOC: f64 = 45.0;
/// Accumulating one non-zero of a member into its cluster's sum.
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

/// Turning a cluster's sum into its centroid, per element of the one
/// fused pass (multiply, movement metric, norm, store, clear).
const UPDATE_NS_PER_ELEM: f64 = 3.2;
/// Regrouping one document by cluster: two passes over its assignment,
/// one add into the inertia.
const MEMBERSHIP_NS_PER_DOC: f64 = 4.0;

/// Cost of assigning `docs` documents with `kernel`, split by the
/// *predicted* outcome per document: the `nnz_full` non-zeros of
/// full-sweep documents pay all `k` distances, the `nnz_pruned` of
/// documents the bounds let skip pay exactly one (the exact distance to
/// the assigned centroid that the inertia trace needs) — so `exec`
/// scheduling stays honest about how much work pruning actually
/// removes. Only the pruned kernel ever predicts a skip.
pub fn assign_cost(
    kernel: AssignKernel,
    nnz_full: u64,
    nnz_pruned: u64,
    docs: u64,
    k: usize,
) -> TaskCost {
    let blocked = (
        BLOCKED_ASSIGN_NS_PER_NNZ_CLUSTER,
        BLOCKED_ASSIGN_BYTES_PER_NNZ_CLUSTER,
    );
    let ((ns, bytes), doc_ns) = match kernel {
        AssignKernel::Naive => (
            (ASSIGN_NS_PER_NNZ_CLUSTER, ASSIGN_BYTES_PER_NNZ_CLUSTER),
            ASSIGN_NS_PER_DOC,
        ),
        AssignKernel::Blocked => (blocked, ASSIGN_NS_PER_DOC),
        AssignKernel::BlockedPruned => (blocked, ASSIGN_NS_PER_DOC + PRUNE_NS_PER_DOC),
    };
    let nnz = (nnz_full + nnz_pruned) as f64;
    let distance_nnz = nnz_full as f64 * k as f64 + nnz_pruned as f64;
    let cpu = distance_nnz * ns + docs as f64 * doc_ns;
    let mem = distance_nnz * bytes + nnz * 12.0;
    TaskCost::cpu_mem(cpu as u64, mem as u64)
}

/// Cost of transposing `terms` terms of `k` centroids into the
/// term-major block — charged per slab of the parallel rebuild.
pub fn block_rebuild_cost(k: usize, terms: usize) -> TaskCost {
    let elems = (k * terms) as f64;
    let cpu = elems * BLOCK_REBUILD_NS_PER_ELEM;
    TaskCost::cpu_mem(cpu as u64, (elems * 16.0) as u64)
}

/// Cost of the serial regrouping of `docs` documents into `k` clusters.
pub fn membership_cost(docs: u64, k: usize) -> TaskCost {
    let cpu = docs as f64 * MEMBERSHIP_NS_PER_DOC + k as f64;
    TaskCost::cpu_mem(cpu as u64, docs * 28)
}

/// Cost of recomputing one non-empty cluster whose members hold
/// `member_nnz` non-zeros: they are added into a cache-resident sum, and
/// one fused pass over `dim` elements rewrites the centroid.
pub fn update_cost(member_nnz: u64, dim: usize) -> TaskCost {
    let cpu = member_nnz as f64 * ACCUM_NS_PER_NNZ + dim as f64 * UPDATE_NS_PER_ELEM;
    TaskCost::cpu_mem(cpu as u64, member_nnz * 12 + dim as u64 * 16)
}

/// Cost of materializing the seed centroids.
pub fn init_cost(k: usize, dim: usize) -> TaskCost {
    let elems = (k * dim) as f64;
    TaskCost::cpu_mem((elems * 0.5) as u64, (elems * 8.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_cost_scales_with_nnz_and_k() {
        // Documents of 50 non-zeros each.
        let naive = |docs: u64, k| assign_cost(AssignKernel::Naive, docs * 50, 0, docs, k);
        let (k4, k8) = (naive(10, 4), naive(10, 8));
        assert!(k8.cpu_ns > (k4.cpu_ns as f64 * 1.6) as u64);
        let half = naive(5, 8);
        assert!((k8.cpu_ns as f64 / half.cpu_ns as f64 - 2.0).abs() < 0.05);
        // A predicted skip pays one distance, not k.
        let pruned = |skip| assign_cost(AssignKernel::BlockedPruned, 500 - skip, skip, 10, 8);
        assert!(pruned(400).cpu_ns < pruned(0).cpu_ns / 2);
    }

    #[test]
    fn rebuild_and_update_costs_are_linear_in_what_they_sweep() {
        let slab = block_rebuild_cost(10, 64);
        let whole = block_rebuild_cost(10, 64 * 100);
        assert_eq!(whole.cpu_ns, slab.cpu_ns * 100);
        assert_eq!(whole.mem_bytes, slab.mem_bytes * 100);
        // The update follows the members' non-zeros, plus one pass over
        // the centroid, whatever `k` is.
        let base = update_cost(0, 1000).cpu_ns;
        assert_eq!(update_cost(0, 100_000).cpu_ns, base * 100);
        assert_eq!(
            update_cost(5000, 1000).cpu_ns - base,
            (5000.0 * ACCUM_NS_PER_NNZ) as u64
        );
        assert!(membership_cost(2000, 8).cpu_ns > membership_cost(1000, 8).cpu_ns);
    }

    #[test]
    fn empty_range_is_free() {
        let c = assign_cost(AssignKernel::Naive, 0, 0, 0, 8);
        assert_eq!(c.cpu_ns, 0);
        assert_eq!(c.mem_bytes, 0);
    }

    #[test]
    fn mix_sweeps_more_centroid_per_unit_of_assignment_than_nsf() {
        // What is left of Figure 1's structural driver: the `k × dim`
        // sweeps of rebuild and update, relative to the `docs × nnz × k`
        // assignment work, are ~3x larger for Mix than for NSF Abstracts.
        // They run in parallel, so they do not cap the curve, but their
        // tasks are fewer and coarser than assignment's.
        let k = 8;
        let sweeps =
            |dim| (block_rebuild_cost(k, dim).cpu_ns + update_cost(0, k * dim).cpu_ns) as f64;
        // Approximate the assignment work with equal nnz per doc.
        let pruned = AssignKernel::BlockedPruned;
        let assign = |docs: u64| assign_cost(pruned, docs * 150, 0, docs, k).cpu_ns as f64;
        let frac_mix = sweeps(184_743) / assign(23_432);
        let frac_nsf = sweeps(267_914) / assign(101_483);
        assert!(
            frac_mix > 2.5 * frac_nsf,
            "mix {frac_mix:.4} vs nsf {frac_nsf:.4}"
        );
    }
}
