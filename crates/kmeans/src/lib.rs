#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! K-means clustering on sparse document vectors.
//!
//! The paper's numeric operator (§3.1): Lloyd's algorithm over normalized
//! TF/IDF vectors, assigning documents to `k = 8` clusters. The
//! implementation carries the paper's two key optimizations —
//!
//! * **sparse vectors** for the documents (the paper keeps the centroids
//!   dense, with distances computed via the expansion
//!   `|x−c|² = |x|² − 2·x·c + |c|²` touching only each document's
//!   non-zeros), and
//! * **buffer recycling** across iterations ("we do not create new
//!   objects during the iterations") — toggleable for the ablation bench.
//!
//! On top of the paper's two, this reproduction restructures the hot
//! distance kernel itself (see [`assign`]): a term-major
//! [`CentroidBlock`] computes all `k`
//! distances in one sweep over each document's non-zeros, and exact
//! Hamerly-style bounds skip the sweep entirely for documents whose
//! assignment provably cannot change. Both arms are bit-identical to
//! the naive kernel, which stays available via
//! [`KMeansConfig::kernel`] as the ablation baseline.
//!
//! Each kernel keeps the one centroid layout it reads. The blocked
//! kernels own only the term-major block — written after seeding and
//! after every update, returned as the model — and the naive kernel only
//! row-major [`DenseVec`]s, transposed into the model's block once, after
//! its last iteration. The block's term rows are dense (`k` weights) or
//! postings (only the non-zero ones), whichever [`cost::Sweep`] prices
//! cheaper for the next sweep: with `k` 8 always dense, with `k` 128 over
//! a large vocabulary postings, which also never allocates the `k ×
//! vocabulary` array. The update's per-cluster columns, not the block,
//! hold the centroids between writes. Nothing sweeps `k × vocabulary`.
//!
//! Every phase of an iteration runs on the [`Exec`] substrate: documents
//! are assigned in parallel over chunks, and — after a serial O(n)
//! regrouping by cluster — each centroid is recomputed by the one task
//! that owns it; under the blocked kernels the new columns are then
//! written into the block, dense or as postings, in parallel over runs
//! of term slabs (the private `update` module has the steps and why they
//! are the same bits as the dense pass). No `k x vocabulary` array is
//! kept per worker or merged, so the model is bit-identical at every
//! thread count and grain.
//!
//! [`baseline::SimpleKMeans`] reproduces the WEKA comparator: dense,
//! single-threaded, allocation-happy.

pub mod assign;
pub mod baseline;
pub mod cost;
pub mod init;
mod update;

pub use assign::{AssignKernel, AssignStats};

use cost::Sweep;
use hpa_exec::sync::Mutex;
use hpa_exec::{Exec, TaskCost};
use hpa_sparse::{CentroidBlock, DenseVec, SparseVec};
use std::ops::Range;
use update::Column;

/// Update tasks per thread — runs of clusters in step 1, runs of term
/// slabs in the scatter: enough for stealing to even out unequal tasks,
/// few enough that the tasks' sum buffers stay a small fraction of the
/// centroids.
const UPDATE_TASKS_PER_THREAD: usize = 4;

/// Where the task that recomputes a cluster puts the result.
enum Target<'a> {
    /// The naive kernel's row-major centroid, rewritten in place.
    Row(&'a mut DenseVec),
    /// The blocked kernels' column, written into the block afterwards.
    Column(&'a mut Column),
}

/// Cluster-initialization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitMethod {
    /// Choose `k` distinct documents at random as seed centroids.
    #[default]
    RandomPoints,
    /// k-means++ seeding (distance-proportional sampling).
    KMeansPlusPlus,
}

/// K-means configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters (the paper uses 8).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on the maximum centroid movement (squared
    /// Euclidean).
    pub tol: f64,
    /// Seed for centroid initialization.
    pub seed: u64,
    /// Initialization strategy.
    pub init: InitMethod,
    /// Documents per assignment chunk. 0 = the executor's default grain
    /// ([`Exec::chunks_for`]): about eight chunks per thread and at most
    /// 64 documents each, as Cilk's `cilk_for` splits a loop, so that
    /// work stealing can even out chunks of unequal cost.
    pub grain: usize,
    /// Reuse accumulation buffers across iterations (the paper's
    /// optimization). Disabling reallocates everything each iteration —
    /// the ablation's "naive" arm.
    pub recycle_buffers: bool,
    /// Which assignment kernel runs the document→centroid distance loop
    /// (see [`assign`]); all three arms produce bit-identical results.
    pub kernel: AssignKernel,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 30,
            tol: 1e-9,
            seed: 42,
            init: InitMethod::RandomPoints,
            grain: 0,
            recycle_buffers: true,
            kernel: AssignKernel::default(),
        }
    }
}

/// A fitted clustering.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Final centroids, term-major: the block the blocked kernels fitted
    /// in, or the naive kernel's rows transposed once.
    /// [`CentroidBlock::centroid`] reads one as a row.
    pub centroids: CentroidBlock,
    /// Cluster index per document.
    pub assignments: Vec<u32>,
    /// Sum of squared distances of documents to their centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the centroid-movement tolerance was reached before
    /// `max_iters`.
    pub converged: bool,
    /// Inertia after each Lloyd iteration (length = `iterations`); the
    /// sequence is non-increasing — a property the test suite asserts.
    pub trace: Vec<f64>,
    /// Assignment-phase work counters accumulated over all iterations
    /// (distances computed vs. proven unnecessary by the pruning
    /// bounds; zeros for the non-pruned kernels' pruning fields).
    pub assign_stats: AssignStats,
}

/// The K-means operator.
#[derive(Debug, Clone, Default)]
pub struct KMeans {
    /// Operator configuration.
    pub config: KMeansConfig,
}

impl KMeans {
    /// New operator with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    /// Cluster `vectors` (dimensionality `dim`) under `exec`.
    ///
    /// Returns a trivial empty model for an empty input; panics if
    /// `k == 0`.
    pub fn fit(&self, exec: &Exec, vectors: &[SparseVec], dim: usize) -> KMeansModel {
        let cfg = &self.config;
        assert!(cfg.k > 0, "k must be positive");
        let n = vectors.len();
        if n == 0 {
            return KMeansModel {
                centroids: CentroidBlock::default(),
                assignments: Vec::new(),
                inertia: 0.0,
                iterations: 0,
                converged: true,
                trace: Vec::new(),
                assign_stats: AssignStats::default(),
            };
        }
        let k = cfg.k.min(n);

        let seeds = match cfg.init {
            InitMethod::RandomPoints => init::random_points(vectors, k, cfg.seed),
            InitMethod::KMeansPlusPlus => init::kmeans_plus_plus(vectors, k, cfg.seed),
        };
        let use_block = cfg.kernel != AssignKernel::Naive;
        let update_grain = k.div_ceil(exec.threads() * UPDATE_TASKS_PER_THREAD);
        // Pricing the block's postings form takes each term's document
        // count: counted only where postings can win at this `k` at all.
        let counting = use_block && Sweep::postings_can_win(k);

        // --- Initialization: each kernel's one layout, seeded with the
        // chosen documents and priced as `k` one-member updates (and the
        // counting pass as adding every non-zero once). `|c|^2` per
        // centroid is taken here; from here on the update keeps it
        // current.
        let seed_cost = seeds.iter().fold(TaskCost::default(), |total, &i| {
            let nnz = vectors[i].nnz();
            total + cost::update_cost(nnz as u64, if use_block { nnz } else { dim }, dim)
        });
        let count_cost = if counting {
            cost::update_cost(vectors.iter().map(|x| x.nnz() as u64).sum(), 0, 0)
        } else {
            TaskCost::default()
        };
        let mut norms = vec![0.0f64; k];
        let mut rows: Vec<DenseVec> = Vec::new();
        let mut columns: Vec<Column> = Vec::new();
        let counts = exec.serial(seed_cost + count_cost, || {
            let counts = counting.then(|| update::DocCounts::count(vectors, dim));
            for (&i, norm) in seeds.iter().zip(&mut norms) {
                if use_block {
                    let (column, norm_sq) = Column::seeded(&vectors[i], dim, counts.as_ref());
                    columns.push(column);
                    *norm = norm_sq;
                } else {
                    let mut row = DenseVec::zeros(dim);
                    row.add_sparse(&vectors[i]);
                    *norm = row.norm_sq();
                    rows.push(row);
                }
            }
            counts
        });
        let mut block = CentroidBlock::default();
        let mut sweep = Sweep::Dense;
        if use_block {
            (sweep, _) = update::write(exec, &mut block, &columns, &norms, dim, counts.as_ref());
        }

        let mut assignments = vec![0u32; n];
        let mut best_d = vec![0.0f64; n];
        // Hamerly bounds (root-distance space), carried across
        // iterations by the pruned kernel. `ub = ∞, lb = 0` forces a
        // full sweep the first time a document is seen.
        let mut bound_ub = vec![f64::INFINITY; n];
        let mut bound_lb = vec![0.0f64; n];
        let mut inertia = f64::INFINITY;
        let mut iterations = 0;
        let mut converged = false;
        let mut trace: Vec<f64> = Vec::with_capacity(cfg.max_iters);
        let mut total_stats = AssignStats::default();

        let grain = if cfg.grain > 0 {
            cfg.grain
        } else {
            n.div_ceil(exec.chunks_for(n, 0))
        };
        let ranges = hpa_exec::chunk_ranges(n, grain);
        let new_sums = || -> Vec<Mutex<DenseVec>> {
            (0..k.div_ceil(update_grain))
                .map(|_| Mutex::new(DenseVec::zeros(dim)))
                .collect()
        };
        // Recycled across iterations: the centroids, the norms, the
        // columns' masks and value lists, the update tasks' sum buffers,
        // the member lists and the movement deltas. With recycling off
        // all but the last are allocated afresh every iteration (the
        // centroids as a copy) — the pessimization the §3.1 ablation
        // measures.
        let mut sums = new_sums();
        let mut membership = update::Membership::new(n, k);
        let mut moved = vec![0.0f64; k];
        let mut movement = assign::Movement::default();
        movement.reset(k);

        {
            // Chunk ranges are disjoint, so every parallel task owns its
            // chunk's slices of the per-document arrays outright: one
            // lock per chunk per iteration, none per document.
            let chunk_slots = assign::chunk_states(
                &mut assignments,
                &mut bound_ub,
                &mut bound_lb,
                &mut best_d,
                grain,
                k,
            );

            for iter in 0..cfg.max_iters {
                iterations = iter + 1;
                let _iter_span = hpa_trace::span!("kmeans", "iter", iter as u64);
                if !cfg.recycle_buffers {
                    rows = rows.clone();
                    block = block.clone();
                    columns = columns.clone();
                    norms = norms.clone();
                    sums = new_sums();
                    membership = update::Membership::new(n, k);
                }

                // --- Parallel assignment through the selected kernel,
                // costed by the skips the pre-assignment bounds predict —
                // the test the kernel itself decides by.
                let assign_cost = |chunks: Range<usize>| {
                    let mut total = TaskCost::default();
                    for ci in chunks {
                        let state = chunk_slots[ci].lock();
                        let (mut nnz_all, mut nnz_pruned) = (0u64, 0u64);
                        for (local, i) in ranges[ci].clone().enumerate() {
                            let skips = cfg.kernel == AssignKernel::BlockedPruned
                                && assign::predicts_prune(
                                    state.ub[local],
                                    state.lb[local],
                                    state.assign[local] as usize,
                                    &movement,
                                );
                            let nnz = vectors[i].nnz() as u64;
                            nnz_all += nnz;
                            nnz_pruned += nnz * u64::from(skips);
                        }
                        let (nnz_full, docs) = (nnz_all - nnz_pruned, ranges[ci].len() as u64);
                        total +=
                            cost::assign_cost(cfg.kernel, sweep, nnz_full, nnz_pruned, docs, k);
                    }
                    total
                };
                if hpa_trace::is_enabled() {
                    // Same kernel-matched cost closure the simulator
                    // consumes, priced per iteration for the ledger.
                    hpa_trace::predict(
                        "kmeans",
                        "assign",
                        exec.predict_region_ns(ranges.len(), 1, assign_cost),
                    );
                }
                // The block this iteration sweeps: 0 = dense.
                hpa_trace::counter("kmeans", "block-entries", block.postings_len() as u64);
                let assign_span = hpa_trace::span!("kmeans", "assign", iter as u64);
                exec.par_chunks(
                    ranges.len(),
                    1,
                    |chunk_idx_range| {
                        for ci in chunk_idx_range {
                            assign::assign_chunk(
                                cfg.kernel,
                                vectors,
                                ranges[ci].clone(),
                                &rows,
                                &norms,
                                &block,
                                &movement,
                                &mut chunk_slots[ci].lock(),
                            );
                        }
                    },
                    assign_cost,
                );
                drop(assign_span);

                // Pruning effectiveness for this iteration: fold the
                // per-chunk counters into the run totals and the trace.
                let mut iter_stats = AssignStats::default();
                for slot in &chunk_slots {
                    iter_stats.merge(&slot.lock().iter_stats);
                }
                total_stats.merge(&iter_stats);
                hpa_trace::counter("kmeans", "docs_pruned", iter_stats.docs_pruned);
                hpa_trace::counter(
                    "kmeans",
                    "distances_computed",
                    iter_stats.distances_computed,
                );
                hpa_trace::counter("kmeans", "distances_pruned", iter_stats.distances_pruned);

                // --- Owner-computes update: regroup the documents by
                // cluster (serial, O(n)), then one task per run of
                // clusters recomputes its centroids, norms and movement —
                // rows in place, columns for the scatter that follows.
                let _update_span = hpa_trace::span!("kmeans", "update", iter as u64);
                let regroup_cost = cost::membership_cost(n as u64, k);
                inertia = exec.serial(regroup_cost, || membership.regroup(&chunk_slots));
                trace.push(inertia);
                // One of `rows` and `columns` is empty.
                let targets = (rows.iter_mut().map(Target::Row))
                    .chain(columns.iter_mut().map(Target::Column));
                let cells: Vec<_> = targets
                    .zip(norms.iter_mut().zip(moved.iter_mut()))
                    .map(Mutex::new)
                    .collect();
                let members_of = |c: usize| membership.of(c).iter().map(|&i| &vectors[i as usize]);
                let update_cost = |clusters: Range<usize>| {
                    let mut total = TaskCost::default();
                    for c in clusters.filter(|&c| !membership.of(c).is_empty()) {
                        let nnz: usize = members_of(c).map(SparseVec::nnz).sum();
                        // A column visits its old and new supports: at
                        // most what it holds plus what the members bring.
                        let touched = match &cells[c].lock().0 {
                            Target::Row(_) => dim,
                            Target::Column(column) => (column.stored() + nnz).min(dim),
                        };
                        total += cost::update_cost(nnz as u64, touched, dim);
                    }
                    total
                };
                let mut predicted = 0;
                if hpa_trace::is_enabled() {
                    predicted = exec.predict_serial_ns(&regroup_cost)
                        + exec.predict_region_ns(k, update_grain, update_cost);
                }
                exec.par_chunks(
                    k,
                    update_grain,
                    |clusters| {
                        let mut sum = sums[clusters.start / update_grain].lock();
                        for c in clusters {
                            let mut cell = cells[c].lock();
                            let (target, (norm, moved)) = &mut *cell;
                            // An empty cluster keeps its centroid (the
                            // paper's operator does not re-seed mid-run)
                            // and has not moved.
                            **moved = 0.0;
                            let members = membership.of(c).len();
                            if members == 0 {
                                continue;
                            }
                            let mean = 1.0 / members as f64;
                            (**moved, **norm) = match target {
                                Target::Row(centroid) => {
                                    members_of(c).for_each(|x| sum.add_sparse(x));
                                    centroid.replace_with_scaled(&mut sum, mean)
                                }
                                Target::Column(column) => {
                                    let sum = sum.as_mut_slice();
                                    column.recompute(sum, members_of(c), mean, counts.as_ref())
                                }
                            };
                        }
                    },
                    update_cost,
                );
                drop(cells);
                if use_block {
                    let written;
                    (sweep, written) =
                        update::write(exec, &mut block, &columns, &norms, dim, counts.as_ref());
                    predicted += written;
                }
                hpa_trace::predict("kmeans", "update", predicted);

                // Movement deltas for the next iteration's bounds, in
                // cluster order.
                movement.reset(k);
                let mut max_movement: f64 = 0.0;
                for (c, &d_sq) in moved.iter().enumerate() {
                    movement.record(c, d_sq);
                    max_movement = max_movement.max(d_sq);
                }
                if max_movement <= cfg.tol {
                    converged = true;
                    break;
                }
            }
        }

        if !use_block {
            block = CentroidBlock::from_centroids(&rows);
        }
        KMeansModel {
            centroids: block,
            assignments,
            inertia,
            iterations,
            converged,
            trace,
            assign_stats: total_stats,
        }
    }
}

/// Compute the inertia of an assignment against explicit centroids —
/// a test/verification helper.
pub fn inertia_of(vectors: &[SparseVec], centroids: &CentroidBlock, assignments: &[u32]) -> f64 {
    vectors
        .iter()
        .zip(assignments)
        .map(|(x, &a)| centroids.distance_to(x, a as usize))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_exec::MachineModel;

    /// Three well-separated clusters in a 9-dimensional space.
    fn clustered_data() -> (Vec<SparseVec>, usize) {
        let mut v = Vec::new();
        for g in 0..3u32 {
            for j in 0..20u32 {
                let base = g * 3;
                let jitter = 0.01 * (j as f64);
                v.push(SparseVec::from_pairs(vec![
                    (base, 1.0 + jitter),
                    (base + 1, 1.0 - jitter),
                    (base + 2, 0.5),
                ]));
            }
        }
        (v, 9)
    }

    fn cfg(k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            max_iters: 50,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_separated_clusters() {
        let (data, dim) = clustered_data();
        let model = KMeans::new(cfg(3)).fit(&Exec::sequential(), &data, dim);
        assert!(model.converged);
        // All members of a group share an assignment, and groups differ.
        let g0 = model.assignments[0];
        let g1 = model.assignments[20];
        let g2 = model.assignments[40];
        assert!(model.assignments[..20].iter().all(|&a| a == g0));
        assert!(model.assignments[20..40].iter().all(|&a| a == g1));
        assert!(model.assignments[40..].iter().all(|&a| a == g2));
        assert_ne!(g0, g1);
        assert_ne!(g1, g2);
        assert_ne!(g0, g2);
    }

    #[test]
    fn identical_results_across_executors() {
        let (data, dim) = clustered_data();
        let reference = KMeans::new(cfg(3)).fit(&Exec::sequential(), &data, dim);
        for exec in [
            Exec::pool(3),
            Exec::simulated(4, MachineModel::default()),
            Exec::simulated_with(
                8,
                MachineModel::frictionless(),
                hpa_exec::CostMode::Analytic,
            ),
        ] {
            let other = KMeans::new(cfg(3)).fit(&exec, &data, dim);
            assert_eq!(reference.assignments, other.assignments, "under {exec:?}");
            assert_eq!(reference.iterations, other.iterations);
            assert_eq!(reference.inertia.to_bits(), other.inertia.to_bits());
            assert_eq!(reference.centroids, other.centroids, "under {exec:?}");
        }
    }

    #[test]
    fn inertia_matches_recomputation() {
        let (data, dim) = clustered_data();
        let model = KMeans::new(cfg(3)).fit(&Exec::sequential(), &data, dim);
        // `model.inertia` is measured against the centroids *before* the
        // final recompute; recomputing against final centroids can only
        // be equal or better.
        let recomputed = inertia_of(&data, &model.centroids, &model.assignments);
        assert!(recomputed <= model.inertia + 1e-9);
    }

    #[test]
    fn assignments_are_argmin() {
        let (data, dim) = clustered_data();
        let model = KMeans::new(cfg(3)).fit(&Exec::sequential(), &data, dim);
        for (x, &a) in data.iter().zip(&model.assignments) {
            let da = model.centroids.distance_to(x, a as usize);
            for c in 0..model.centroids.k() {
                let dc = model.centroids.distance_to(x, c);
                assert!(da <= dc + 1e-9, "doc assigned to {a} but {c} is closer");
            }
        }
    }

    #[test]
    fn recycling_toggle_gives_same_answer() {
        let (data, dim) = clustered_data();
        let mut a_cfg = cfg(3);
        a_cfg.recycle_buffers = true;
        let mut b_cfg = cfg(3);
        b_cfg.recycle_buffers = false;
        let a = KMeans::new(a_cfg).fit(&Exec::sequential(), &data, dim);
        let b = KMeans::new(b_cfg).fit(&Exec::sequential(), &data, dim);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let data = vec![
            SparseVec::from_pairs(vec![(0, 1.0)]),
            SparseVec::from_pairs(vec![(1, 1.0)]),
        ];
        let model = KMeans::new(cfg(8)).fit(&Exec::sequential(), &data, 2);
        assert_eq!(model.centroids.k(), 2);
        assert!(model.inertia < 1e-12, "2 points, 2 clusters: zero inertia");
    }

    #[test]
    fn empty_input_gives_empty_model() {
        let model = KMeans::new(cfg(3)).fit(&Exec::sequential(), &[], 5);
        assert_eq!(model.centroids.k(), 0);
        assert!(model.assignments.is_empty());
        assert!(model.converged);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KMeans::new(cfg(0)).fit(&Exec::sequential(), &[SparseVec::new()], 1);
    }

    #[test]
    fn kmeans_plus_plus_also_converges() {
        let (data, dim) = clustered_data();
        let mut c = cfg(3);
        c.init = InitMethod::KMeansPlusPlus;
        let model = KMeans::new(c).fit(&Exec::sequential(), &data, dim);
        assert!(model.converged);
        // ++ seeding on well-separated data lands one seed per group;
        // the remaining inertia is just the within-group jitter (~0.4).
        assert!(model.inertia < 0.5, "inertia {}", model.inertia);
    }

    #[test]
    fn zero_vectors_all_land_in_one_cluster() {
        let data = vec![SparseVec::new(), SparseVec::new(), SparseVec::new()];
        let model = KMeans::new(cfg(2)).fit(&Exec::sequential(), &data, 4);
        let first = model.assignments[0];
        assert!(model.assignments.iter().all(|&a| a == first));
    }
}
