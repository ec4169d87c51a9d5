//! Assignment kernels: naive, blocked, and blocked with exact
//! Hamerly-style pruning.
//!
//! The K-means hot loop is the document→centroid distance kernel. Three
//! arms, selectable via [`KMeansConfig::kernel`](crate::KMeansConfig):
//!
//! * [`AssignKernel::Naive`] — the original per-centroid loop: `k`
//!   independent [`squared_distance_to_centroid`] calls per document,
//!   `k` gather streams into `k` separate [`DenseVec`]s. Kept as the
//!   ablation baseline.
//! * [`AssignKernel::Blocked`] — one sweep over the document's
//!   non-zeros against a term-major [`CentroidBlock`] computes all `k`
//!   cross-products at once (one gather stream, 4-wide unrolled
//!   accumulators).
//! * [`AssignKernel::BlockedPruned`] — the blocked kernel plus exact
//!   triangle-inequality pruning: per-document upper/lower bounds
//!   maintained across Lloyd iterations from centroid-movement deltas
//!   skip the full `k`-way sweep for documents whose assignment
//!   provably cannot change.
//!
//! ## Bound invariants (the pruning correctness argument)
//!
//! For document `i` with current assignment `a`, working in *root*
//! (non-squared) distance space:
//!
//! * `ub[i]` is an upper bound on `d(x_i, centroid_a)`;
//! * `lb[i]` is a lower bound on `min over c != a` of `d(x_i, c)`.
//!
//! Both are exact (`ub` from a just-computed distance, `lb` from the
//! runner-up of a full sweep) at the iteration that last scanned the
//! document. When centroid `c` then moves by `delta_c = |c_new −
//! c_old|`, the triangle inequality gives `d(x, c_new) ∈ [d(x, c_old) −
//! delta_c, d(x, c_old) + delta_c]`, so the bounds survive a move as
//! `ub += delta_a` and `lb −= max over c != a of delta_c`. Whenever the
//! carried `ub < lb`, every rival centroid is strictly farther than the
//! current assignment, so the argmin — including the naive path's
//! lowest-index tie-breaking, which only matters at exact distance ties
//! — is unchanged and the `k−1` rival distances need not be computed.
//!
//! The test comes first, on the carried bounds alone (Hamerly's order).
//! A document they clear computes one distance, to its centroid; every
//! other document goes straight to the full sweep, which resets both
//! bounds exactly. Tightening `ub` to the exact distance before giving
//! up would rescue a few documents, but it costs that one distance for
//! every document that is swept anyway — on a dense block at `k` ≤ 8 a
//! row is one cache line, so the distance costs about a sweep, and on a
//! postings block it searches every row. The cost model's predicted
//! skip (`predicts_prune`) and the kernel's decision are the same
//! function.
//!
//! Two details make the arm **bit-identical** to the naive kernel
//! rather than merely equivalent:
//!
//! 1. a skipped document still computes its exact distance to the
//!    current centroid (the inertia trace needs it), in the same
//!    floating-point operation order as the naive kernel and the full
//!    sweep, so the inertia accumulates the same bits; and
//! 2. the maintained bounds are deflated/inflated by `BOUND_SLACK`
//!    at every update, so accumulated floating-point rounding in the
//!    `sqrt`/add/subtract chain can never produce an unsound skip —
//!    only a vanishingly rare spurious full scan.
//!
//! [`squared_distance_to_centroid`]: hpa_sparse::squared_distance_to_centroid

use hpa_exec::sync::Mutex;
use hpa_sparse::{squared_distance_to_centroid, CentroidBlock, DenseVec, SparseVec};

/// Which distance kernel the assignment phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignKernel {
    /// Per-centroid scalar kernel: `k` passes over each document's
    /// non-zeros (the pre-blocking baseline, kept for the ablation).
    Naive,
    /// Term-major [`CentroidBlock`] kernel: all `k` distances in one
    /// sweep over the document's non-zeros.
    Blocked,
    /// Blocked kernel plus exact Hamerly-style bound pruning (the
    /// default, bit-identical results). A skipped document costs one
    /// distance instead of `k`; whether that pays on wall clock depends
    /// on how many the bounds clear (DESIGN §9).
    #[default]
    BlockedPruned,
}

impl AssignKernel {
    /// Stable label for reports and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            AssignKernel::Naive => "naive",
            AssignKernel::Blocked => "blocked",
            AssignKernel::BlockedPruned => "blocked+pruned",
        }
    }
}

/// Work counters of the assignment phase, accumulated across iterations
/// and exposed on [`KMeansModel`](crate::KMeansModel) and as `hpa-trace`
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Documents processed (documents × iterations).
    pub docs: u64,
    /// Documents whose full `k`-way sweep was skipped by the bounds.
    pub docs_pruned: u64,
    /// Document→centroid distances actually computed.
    pub distances_computed: u64,
    /// Distances proven unnecessary and skipped.
    pub distances_pruned: u64,
}

impl AssignStats {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &AssignStats) {
        self.docs += other.docs;
        self.docs_pruned += other.docs_pruned;
        self.distances_computed += other.distances_computed;
        self.distances_pruned += other.distances_pruned;
    }

    /// Fraction of documents pruned (0 when nothing ran).
    pub fn prune_rate(&self) -> f64 {
        if self.docs == 0 {
            0.0
        } else {
            self.docs_pruned as f64 / self.docs as f64
        }
    }
}

/// Relative slack applied to every maintained-bound update: the lower
/// bound is deflated and the upper bound inflated by this factor, so
/// floating-point rounding in the bound arithmetic (a few ulps per
/// iteration, ~1e-16 relative) can never accumulate into an unsound
/// skip. 1e-12 per update dominates the rounding noise by three orders
/// of magnitude while staying far below any distance margin that
/// actually decides a pruning test.
const BOUND_SLACK: f64 = 1e-12;

/// Per-chunk mutable state of the assignment loop. Chunk ranges are
/// disjoint, so each parallel task owns its slices outright — one lock
/// per *chunk* per iteration (taken by the task that processes it),
/// not one per document.
pub(crate) struct ChunkState<'a> {
    /// Assignment output slice for this chunk's documents.
    pub assign: &'a mut [u32],
    /// Upper bounds on the root-distance to the assigned centroid.
    pub ub: &'a mut [f64],
    /// Lower bounds on the root-distance to the nearest rival centroid.
    pub lb: &'a mut [f64],
    /// Squared distance of each document to its assigned centroid — with
    /// `assign`, all the centroid update needs from this loop.
    pub best_d: &'a mut [f64],
    /// Distance scratch (`k` wide), recycled across iterations.
    pub dist: Vec<f64>,
    /// Counters for the current iteration (reset each pass).
    pub iter_stats: AssignStats,
}

/// Split the per-document arrays into per-chunk disjoint views of
/// `grain` documents each (the last may be shorter), one lock per view.
pub(crate) fn chunk_states<'a>(
    assign: &'a mut [u32],
    ub: &'a mut [f64],
    lb: &'a mut [f64],
    best_d: &'a mut [f64],
    grain: usize,
    k: usize,
) -> Vec<Mutex<ChunkState<'a>>> {
    let bounds = ub.chunks_mut(grain).zip(lb.chunks_mut(grain));
    let outputs = assign.chunks_mut(grain).zip(best_d.chunks_mut(grain));
    outputs
        .zip(bounds)
        .map(|((assign, best_d), (ub, lb))| {
            Mutex::new(ChunkState {
                assign,
                ub,
                lb,
                best_d,
                dist: vec![0.0; k],
                iter_stats: AssignStats::default(),
            })
        })
        .collect()
}

/// Per-centroid movement state carried between Lloyd iterations.
#[derive(Debug, Default)]
pub(crate) struct Movement {
    /// Root-space movement `|c_new − c_old|` per centroid.
    pub delta: Vec<f64>,
    /// Largest delta and its centroid index.
    pub max: f64,
    pub argmax: usize,
    /// Second-largest delta (for documents assigned to the argmax).
    pub second: f64,
}

impl Movement {
    /// Reset for `k` centroids with zero movement (first iteration).
    pub fn reset(&mut self, k: usize) {
        self.delta.clear();
        self.delta.resize(k, 0.0);
        self.max = 0.0;
        self.argmax = 0;
        self.second = 0.0;
    }

    /// Record centroid `c` having moved by squared distance `d_sq`.
    pub fn record(&mut self, c: usize, d_sq: f64) {
        let d = d_sq.sqrt();
        self.delta[c] = d;
        if d > self.max {
            self.second = self.max;
            self.max = d;
            self.argmax = c;
        } else if d > self.second {
            self.second = d;
        }
    }

    /// Largest movement among centroids other than `a` — the amount the
    /// nearest-rival lower bound must retreat by.
    #[inline]
    pub fn max_excluding(&self, a: usize) -> f64 {
        if a == self.argmax {
            self.second
        } else {
            self.max
        }
    }
}

/// Outcome of assigning one document.
struct DocOutcome {
    best: usize,
    best_d: f64,
    pruned: bool,
}

/// Assign the documents of one chunk with the selected kernel, writing
/// assignments, distances and bounds through `state`.
/// `rows` serve the naive arm and `block` the blocked arms — each is
/// empty under the other; `norms` has one entry per centroid for both.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assign_chunk(
    kernel: AssignKernel,
    vectors: &[SparseVec],
    range: std::ops::Range<usize>,
    rows: &[DenseVec],
    norms: &[f64],
    block: &CentroidBlock,
    movement: &Movement,
    state: &mut ChunkState<'_>,
) {
    let k = norms.len();
    state.iter_stats = AssignStats::default();
    for (local, i) in range.enumerate() {
        let x = &vectors[i];
        let outcome = match kernel {
            AssignKernel::Naive => assign_doc_naive(x, rows, norms),
            AssignKernel::Blocked => assign_doc_blocked(x, block, &mut state.dist),
            AssignKernel::BlockedPruned => {
                let prior = state.assign[local] as usize;
                assign_doc_pruned(
                    x,
                    block,
                    prior,
                    movement,
                    &mut state.ub[local],
                    &mut state.lb[local],
                    &mut state.dist,
                )
            }
        };
        state.assign[local] = outcome.best as u32;
        state.best_d[local] = outcome.best_d;
        state.iter_stats.docs += 1;
        if outcome.pruned {
            state.iter_stats.docs_pruned += 1;
            state.iter_stats.distances_computed += 1;
            state.iter_stats.distances_pruned += (k as u64).saturating_sub(1);
        } else {
            state.iter_stats.distances_computed += k as u64;
        }
    }
}

/// The original per-centroid kernel: lowest index wins distance ties
/// (strict `<` while scanning in centroid order).
fn assign_doc_naive(x: &SparseVec, centroids: &[DenseVec], norms: &[f64]) -> DocOutcome {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = squared_distance_to_centroid(x, centroid, norms[c]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    DocOutcome {
        best,
        best_d,
        pruned: false,
    }
}

/// Blocked full sweep: identical argmin scan over bit-identical
/// distances.
fn assign_doc_blocked(x: &SparseVec, block: &CentroidBlock, dist: &mut [f64]) -> DocOutcome {
    block.distances_into(x, dist);
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, &d) in dist.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    DocOutcome {
        best,
        best_d,
        pruned: false,
    }
}

/// Blocked sweep guarded by the Hamerly bounds: a document the carried
/// bounds clear computes only its exact distance to the assigned centroid
/// (the inertia trace needs it) and keeps its assignment; every other
/// document is swept in full.
fn assign_doc_pruned(
    x: &SparseVec,
    block: &CentroidBlock,
    prior: usize,
    movement: &Movement,
    ub: &mut f64,
    lb: &mut f64,
    dist: &mut [f64],
) -> DocOutcome {
    if predicts_prune(*ub, *lb, prior, movement) {
        // Every rival is strictly farther: the assignment (and, a
        // fortiori, the naive lowest-index tie-breaking) cannot change.
        // The rival bound carries; the exact distance tightens `ub`.
        *lb = carried_lb(*lb, prior, movement);
        let d_prior = block.distance_to(x, prior);
        *ub = d_prior.sqrt();
        return DocOutcome {
            best: prior,
            best_d: d_prior,
            pruned: true,
        };
    }

    // Full sweep; reset both bounds to exact values. (In the first
    // iteration `lb` is 0, so no document is cleared.)
    block.distances_into(x, dist);
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut second_d = f64::INFINITY;
    for (c, &d) in dist.iter().enumerate() {
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = c;
        } else if d < second_d {
            second_d = d;
        }
    }
    *ub = best_d.sqrt();
    *lb = second_d.sqrt();
    DocOutcome {
        best,
        best_d,
        pruned: false,
    }
}

/// The lower bound on the distance to the nearest rival, carried across
/// the movement since the last iteration with slack against
/// floating-point drift.
#[inline]
fn carried_lb(lb: f64, prior: usize, movement: &Movement) -> f64 {
    (lb - movement.max_excluding(prior)) * (1.0 - BOUND_SLACK)
}

/// Whether the pruned kernel skips the full sweep for a document whose
/// last bounds were `ub` / `lb`: the carried bounds clear it. The kernel
/// decides by this test and the cost model predicts by it, so the
/// simulator charges exactly the sweeps that run.
#[inline]
pub(crate) fn predicts_prune(ub: f64, lb: f64, prior: usize, movement: &Movement) -> bool {
    let ub = (ub + movement.delta[prior]) * (1.0 + BOUND_SLACK);
    ub < carried_lb(lb, prior, movement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_tracks_max_and_second() {
        let mut mv = Movement::default();
        mv.reset(4);
        mv.record(0, 9.0); // delta 3
        mv.record(1, 1.0); // delta 1
        mv.record(2, 16.0); // delta 4
        assert_eq!(mv.delta, vec![3.0, 1.0, 4.0, 0.0]);
        assert_eq!(mv.max, 4.0);
        assert_eq!(mv.argmax, 2);
        assert_eq!(mv.second, 3.0);
        assert_eq!(mv.max_excluding(2), 3.0);
        assert_eq!(mv.max_excluding(0), 4.0);
    }

    #[test]
    fn chunk_states_split_covers_everything() {
        let mut a = vec![0u32; 10];
        let mut u = vec![0.0; 10];
        let mut l = vec![0.0; 10];
        let mut d = vec![0.0; 10];
        let states = chunk_states(&mut a, &mut u, &mut l, &mut d, 4, 3);
        assert_eq!(states.len(), 3);
        let total: usize = states.iter().map(|s| s.lock().assign.len()).sum();
        assert_eq!(total, 10);
        for s in &states {
            assert_eq!(s.lock().dist.len(), 3);
        }
    }

    /// Three centroids over four terms; the document sits near centroid
    /// 0 and its rivals are at least 3 away. Dense, and as postings.
    fn near_zero() -> (SparseVec, [CentroidBlock; 2]) {
        let rows = [
            [1.1, 0.0, 0.2, 0.0],
            [0.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -5.0],
        ];
        let rows: Vec<DenseVec> = rows
            .iter()
            .map(|r| DenseVec::from_vec(r.to_vec()))
            .collect();
        let dense = CentroidBlock::from_centroids(&rows);
        let mut postings = CentroidBlock::default();
        postings.write_postings(4, dense.norms(), |c| {
            rows[c].as_slice().iter().copied().enumerate()
        });
        let x = SparseVec::from_pairs(vec![(0, 1.0), (2, 0.25)]);
        (x, [dense, postings])
    }

    /// Movement since the last iteration: centroid 0 by 1, the rivals by
    /// at most 1.
    fn moved_by_one() -> Movement {
        let mut movement = Movement::default();
        movement.reset(3);
        movement.record(0, 1.0);
        movement.record(1, 0.25);
        movement.record(2, 1.0);
        movement
    }

    #[test]
    fn the_carried_bounds_decide_before_any_distance() {
        let (x, blocks) = near_zero();
        let movement = moved_by_one();
        for block in &blocks {
            let form = if block.is_postings() {
                "postings"
            } else {
                "dense"
            };
            // Carried: `ub` ≈ 4 + 1, `lb` ≈ 4 − 1 — not cleared, although
            // the exact distance to centroid 0 (≈ 0.1) would clear them:
            // a full sweep, with no tightening distance before it.
            let (mut ub, mut lb) = (4.0, 4.0);
            assert!(!predicts_prune(ub, lb, 0, &movement));
            assert!(block.distance_to(&x, 0).sqrt() < (lb - 1.0) * (1.0 - BOUND_SLACK));
            let mut dist = vec![0.0; 3];
            let outcome = assign_doc_pruned(&x, block, 0, &movement, &mut ub, &mut lb, &mut dist);
            let swept = assign_doc_blocked(&x, block, &mut [0.0; 3]);
            assert!(!outcome.pruned, "{form}");
            assert_eq!(
                (outcome.best, outcome.best_d.to_bits()),
                (swept.best, swept.best_d.to_bits()),
                "{form}"
            );
            // Both bounds are the sweep's exact root distances.
            let mut exact = vec![0.0; 3];
            block.distances_into(&x, &mut exact);
            exact.sort_by(f64::total_cmp);
            assert_eq!(ub.to_bits(), exact[0].sqrt().to_bits(), "{form}");
            assert_eq!(lb.to_bits(), exact[1].sqrt().to_bits(), "{form}");

            // Carried: `ub` ≈ 1 + 1 < `lb` ≈ 4 − 1 — cleared: one
            // distance, no sweep; it becomes `ub`, `lb` carries.
            let (mut ub, mut lb) = (1.0, 4.0);
            let carried = carried_lb(lb, 0, &movement);
            let mut dist = vec![f64::NAN; 3];
            let outcome = assign_doc_pruned(&x, block, 0, &movement, &mut ub, &mut lb, &mut dist);
            assert!(outcome.pruned, "{form}");
            assert!(dist.iter().all(|d| d.is_nan()), "{form}: no sweep");
            let d = block.distance_to(&x, 0);
            assert_eq!((outcome.best, outcome.best_d.to_bits()), (0, d.to_bits()));
            assert_eq!(
                (ub.to_bits(), lb.to_bits()),
                (d.sqrt().to_bits(), carried.to_bits())
            );
        }
    }

    #[test]
    fn stats_merge_and_prune_rate() {
        let mut a = AssignStats {
            docs: 10,
            docs_pruned: 4,
            distances_computed: 52,
            distances_pruned: 28,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.docs, 20);
        assert_eq!(a.distances_pruned, 56);
        assert!((a.prune_rate() - 0.4).abs() < 1e-12);
        assert_eq!(AssignStats::default().prune_rate(), 0.0);
    }
}
