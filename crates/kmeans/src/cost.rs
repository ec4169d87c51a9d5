//! Analytic cost annotations for the K-means phases.
//!
//! Per Lloyd iteration the operator runs a parallel assignment loop over
//! documents, a serial O(n) regrouping by cluster and a parallel update
//! over clusters — under the blocked kernels followed by writing the new
//! columns into the term-major block, dense or as postings, in parallel
//! over runs of term slabs; the simulator needs their costs to reproduce
//! Figure 1.
//! Assignment scales with `documents × nnz × k` against dense term rows,
//! and with `documents × nnz × (fixed + L)` against postings rows, where
//! `L` is the mean row length a document non-zero finds ([`Sweep`]
//! prices both and picks the cheaper); the update with the members'
//! non-zeros plus the terms a cluster's old and new supports cover,
//! which is all `dim` of them only for the naive kernel's row-major
//! centroids. Nothing sweeps `k × dim`. The paper's operator
//! merged and recomputed `k × dim` arrays serially, which held its *Mix*
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
/// Postings form, per document non-zero: finding the term's row and
/// looping over it. With the next constant, fitted against the dense
/// form's step from sweeps of both forms over the same centroids —
/// 14.5 ns + 1.5 ns per entry against 1.5 ns per cluster
/// (EXPERIMENTS.md, "Postings rows") — so the two forms are priced in
/// one unit.
const POSTINGS_ASSIGN_NS_PER_NNZ: f64 = 9.7;
/// Postings form, per `(cluster, weight)` entry visited: one multiply-add
/// into the cluster's accumulator, as a dense step is.
const POSTINGS_ASSIGN_NS_PER_ENTRY: f64 = 1.0;
/// Extra per-document bookkeeping of the pruned kernel: bound carry,
/// sqrt, and the skip test.
const PRUNE_NS_PER_DOC: f64 = 14.0;
/// Turning a cluster's sum into its centroid, per term visited by the
/// one fused pass (multiply, movement metric, norm, store, clear).
const UPDATE_NS_PER_TERM: f64 = 3.2;
/// One 64-term word of a cluster's term mask: cleared, OR-ed with the
/// support, tested for set bits.
const MASK_NS_PER_WORD: f64 = 1.0;
/// Writing one weight of a column to its place in the term-major block.
const SCATTER_NS_PER_VALUE: f64 = 1.5;
/// Regrouping one document by cluster: two passes over its assignment,
/// one add into the inertia.
const MEMBERSHIP_NS_PER_DOC: f64 = 4.0;

/// What a full blocked sweep visits per document non-zero: the form of
/// the centroid block's term rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sweep {
    /// All `k` weights of the term's dense row.
    Dense,
    /// The term's postings row, `entries` long on average over the
    /// corpus's non-zeros (the `L` of DESIGN §9).
    Postings {
        /// Entries visited per document non-zero.
        entries: f64,
    },
}

impl Sweep {
    /// Work per document non-zero of a full sweep over `k` centroids, in
    /// the dense form's (non-zero, cluster) steps: `k` dense, the fixed
    /// cost plus `entries` as postings.
    pub fn steps_per_nnz(self, k: usize) -> f64 {
        match self {
            Sweep::Dense => k as f64,
            Sweep::Postings { entries } => {
                (POSTINGS_ASSIGN_NS_PER_NNZ + entries * POSTINGS_ASSIGN_NS_PER_ENTRY)
                    / BLOCKED_ASSIGN_NS_PER_NNZ_CLUSTER
            }
        }
    }

    /// The cheaper form for `k` centroids whose postings a full sweep
    /// would visit `entries` of per document non-zero: one comparison.
    pub fn cheaper(k: usize, entries: f64) -> Sweep {
        let postings = Sweep::Postings { entries };
        if postings.steps_per_nnz(k) < Sweep::Dense.steps_per_nnz(k) {
            postings
        } else {
            Sweep::Dense
        }
    }

    /// Whether postings can be cheaper at all for `k` centroids — their
    /// fixed cost alone is below `k` dense steps. If not, the per-term
    /// document counts that `entries` needs are not worth counting.
    pub fn postings_can_win(k: usize) -> bool {
        Sweep::cheaper(k, 0.0) != Sweep::Dense
    }
}

/// Cost of assigning `docs` documents with `kernel`, split by the
/// *predicted* outcome per document: the `nnz_full` non-zeros of
/// full-sweep documents pay a sweep over all `k` centroids in the form
/// `sweep` says the block is in, the `nnz_pruned` of documents the
/// bounds let skip pay exactly one distance (the exact distance to the
/// assigned centroid that the inertia trace needs) — so `exec`
/// scheduling stays honest about how much work pruning actually
/// removes. Only the pruned kernel ever predicts a skip; the naive
/// kernel's row-major centroids have no form.
pub fn assign_cost(
    kernel: AssignKernel,
    sweep: Sweep,
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
    // Steps per non-zero of a full sweep and of one distance; a postings
    // row is found, then searched.
    let (full, one) = match (kernel, sweep) {
        (AssignKernel::Naive, _) | (_, Sweep::Dense) => (k as f64, 1.0),
        (_, Sweep::Postings { .. }) => (
            sweep.steps_per_nnz(k),
            Sweep::Postings { entries: 0.0 }.steps_per_nnz(k),
        ),
    };
    let nnz = (nnz_full + nnz_pruned) as f64;
    let distance_nnz = nnz_full as f64 * full + nnz_pruned as f64 * one;
    let cpu = distance_nnz * ns + docs as f64 * doc_ns;
    let mem = distance_nnz * bytes + nnz * 12.0;
    TaskCost::cpu_mem(cpu as u64, mem as u64)
}

/// Cost of the serial regrouping of `docs` documents into `k` clusters.
pub fn membership_cost(docs: u64, k: usize) -> TaskCost {
    let cpu = docs as f64 * MEMBERSHIP_NS_PER_DOC + k as f64;
    TaskCost::cpu_mem(cpu as u64, docs * 28)
}

/// Cost of recomputing one non-empty cluster whose members hold
/// `member_nnz` non-zeros: they are added into a cache-resident sum
/// while a `dim`-bit mask collects their terms, and one fused pass over
/// the `touched_terms` of the cluster's old and new supports produces
/// the new weights. The naive kernel's row-major update touches all
/// `dim`.
pub fn update_cost(member_nnz: u64, touched_terms: usize, dim: usize) -> TaskCost {
    let words = dim.div_ceil(64) as f64;
    let cpu = member_nnz as f64 * ACCUM_NS_PER_NNZ
        + words * MASK_NS_PER_WORD
        + touched_terms as f64 * UPDATE_NS_PER_TERM;
    let mem = member_nnz * 12 + words as u64 * 16 + touched_terms as u64 * 24;
    TaskCost::cpu_mem(cpu as u64, mem)
}

/// Cost of writing `values` new weights of `k` columns into a run of
/// `slabs` term slabs of the block: a mask word per (slab, column),
/// then the writes — each to a cache line of its own until they are so
/// many that the whole run is rewritten.
pub fn scatter_cost(k: usize, slabs: usize, values: usize) -> TaskCost {
    let words = k * slabs;
    let cpu = words as f64 * MASK_NS_PER_WORD + values as f64 * SCATTER_NS_PER_VALUE;
    let run_bytes = words * 64 * std::mem::size_of::<f64>();
    TaskCost::cpu_mem(cpu as u64, (words * 8 + run_bytes.min(values * 64)) as u64)
}

/// Cost of one pass of the postings write — counting the rows' entries,
/// or placing them — over a run of `slabs` term slabs of `k` columns
/// that store `values` weights there: a mask word per (slab, column),
/// then each value read and, if not `+0.0`, counted or placed.
pub fn postings_pass_cost(k: usize, slabs: usize, values: usize) -> TaskCost {
    let words = k * slabs;
    let cpu = words as f64 * MASK_NS_PER_WORD + values as f64 * SCATTER_NS_PER_VALUE;
    TaskCost::cpu_mem(cpu as u64, (words * 8 + values * 24) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_cost_scales_with_nnz_and_k() {
        // Documents of 50 non-zeros each.
        let naive =
            |docs: u64, k| assign_cost(AssignKernel::Naive, Sweep::Dense, docs * 50, 0, docs, k);
        let (k4, k8) = (naive(10, 4), naive(10, 8));
        assert!(k8.cpu_ns > (k4.cpu_ns as f64 * 1.6) as u64);
        let half = naive(5, 8);
        assert!((k8.cpu_ns as f64 / half.cpu_ns as f64 - 2.0).abs() < 0.05);
        // A predicted skip pays one distance, not k.
        let pruned_kernel = AssignKernel::BlockedPruned;
        let pruned = |skip| assign_cost(pruned_kernel, Sweep::Dense, 500 - skip, skip, 10, 8);
        assert!(pruned(400).cpu_ns < pruned(0).cpu_ns / 2);
    }

    #[test]
    fn the_cheaper_form_follows_k_and_the_row_length() {
        // The shapes of the benchmark's two corpora, seeds and the
        // centroids after one update (EXPERIMENTS.md, "Postings rows").
        for entries in [1.26, 6.96] {
            assert_eq!(Sweep::cheaper(8, entries), Sweep::Dense, "k 8, L {entries}");
        }
        for entries in [20.3, 28.8] {
            let sweep = Sweep::cheaper(128, entries);
            assert_eq!(sweep, Sweep::Postings { entries }, "k 128, L {entries}");
        }
        // k 8 never counts its terms' documents; k 128 does.
        assert!(!Sweep::postings_can_win(8) && Sweep::postings_can_win(128));
        // Postings rows as long as the dense ones cost more.
        assert_eq!(Sweep::cheaper(128, 128.0), Sweep::Dense);
        // The form priced is the form swept: postings work follows L.
        let cost = |sweep| assign_cost(AssignKernel::Blocked, sweep, 1000, 0, 10, 128);
        let short = cost(Sweep::Postings { entries: 20.3 }).cpu_ns;
        let long = cost(Sweep::Postings { entries: 28.8 }).cpu_ns;
        assert!(short < long && long < cost(Sweep::Dense).cpu_ns / 2);
    }

    #[test]
    fn update_and_scatter_costs_are_linear_in_what_they_visit() {
        // The update follows the members' non-zeros and the terms of the
        // old and new supports; of `dim` it sees one mask word per 64.
        let mask = update_cost(0, 0, 64_000).cpu_ns;
        assert_eq!(mask, (1000.0 * MASK_NS_PER_WORD) as u64);
        assert_eq!(update_cost(0, 0, 6_400_000).cpu_ns, mask * 100);
        assert_eq!(
            update_cost(5000, 0, 64_000).cpu_ns - mask,
            (5000.0 * ACCUM_NS_PER_NNZ) as u64
        );
        assert_eq!(
            update_cost(0, 700, 64_000).cpu_ns - mask,
            (700.0 * UPDATE_NS_PER_TERM) as u64
        );
        // The scatter follows the weights it writes, plus one mask word
        // per (slab, column).
        let run = scatter_cost(10, 8, 0);
        assert_eq!(scatter_cost(10, 800, 0).cpu_ns, run.cpu_ns * 100);
        assert_eq!(scatter_cost(10, 800, 0).mem_bytes, run.mem_bytes * 100);
        // A weight costs a cache line, up to the 10 × 8 × 64 × 8 B there are.
        assert_eq!(scatter_cost(10, 8, 5).mem_bytes - run.mem_bytes, 5 * 64);
        assert_eq!(scatter_cost(10, 8, 5120).mem_bytes - run.mem_bytes, 40_960);
        assert_eq!(
            scatter_cost(10, 8, 4000).cpu_ns - run.cpu_ns,
            (4000.0 * SCATTER_NS_PER_VALUE) as u64
        );
        assert!(membership_cost(2000, 8).cpu_ns > membership_cost(1000, 8).cpu_ns);
        // A postings pass reads a scatter's mask words and values.
        let pass = postings_pass_cost(10, 8, 4000);
        assert_eq!(pass.cpu_ns, scatter_cost(10, 8, 4000).cpu_ns);
        assert_eq!(postings_pass_cost(10, 800, 0).cpu_ns, run.cpu_ns * 100);
    }

    #[test]
    fn empty_range_is_free() {
        let c = assign_cost(AssignKernel::Naive, Sweep::Dense, 0, 0, 0, 8);
        assert_eq!(c.cpu_ns, 0);
        assert_eq!(c.mem_bytes, 0);
    }

    #[test]
    fn mix_sweeps_more_centroid_per_unit_of_assignment_than_nsf() {
        // What is left of Figure 1's structural driver: the part of an
        // iteration that follows `k × dim` and not the documents — one
        // mask word per 64 terms per cluster, in the update and again in
        // the scatter — is still ~3x larger relative to the
        // `docs × nnz × k` assignment work for Mix than for NSF
        // Abstracts, but it is now under 1 % of it for both.
        let k = 8;
        let sweeps = |dim: usize| {
            let masks = update_cost(0, 0, dim).cpu_ns * k as u64;
            (masks + scatter_cost(k, dim.div_ceil(64), 0).cpu_ns) as f64
        };
        // Approximate the assignment work with equal nnz per doc.
        let pruned = AssignKernel::BlockedPruned;
        let assign =
            |docs: u64| assign_cost(pruned, Sweep::Dense, docs * 150, 0, docs, k).cpu_ns as f64;
        let frac_mix = sweeps(184_743) / assign(23_432);
        let frac_nsf = sweeps(267_914) / assign(101_483);
        assert!(
            frac_mix > 2.5 * frac_nsf,
            "mix {frac_mix:.4} vs nsf {frac_nsf:.4}"
        );
        assert!(frac_mix < 0.01, "mix {frac_mix:.4}");
    }
}
