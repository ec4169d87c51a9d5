#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! K-means clustering on sparse document vectors.
//!
//! The paper's numeric operator (§3.1): Lloyd's algorithm over normalized
//! TF/IDF vectors, assigning documents to `k = 8` clusters. The
//! implementation carries the paper's two key optimizations —
//!
//! * **sparse vectors** for the documents (centroids stay dense, with
//!   distances computed via the expansion
//!   `|x−c|² = |x|² − 2·x·c + |c|²` touching only each document's
//!   non-zeros), and
//! * **buffer recycling** across iterations ("we do not create new
//!   objects during the iterations") — toggleable for the ablation bench.
//!
//! On top of the paper's two, this reproduction restructures the hot
//! distance kernel itself (see [`assign`]): a term-major
//! [`CentroidBlock`](hpa_sparse::CentroidBlock) computes all `k`
//! distances in one sweep over each document's non-zeros, and exact
//! Hamerly-style bounds skip the sweep entirely for documents whose
//! assignment provably cannot change. Both arms are bit-identical to
//! the naive kernel, which stays available via
//! [`KMeansConfig::kernel`] as the ablation baseline.
//!
//! All document loops run on the [`Exec`] substrate with one partial
//! accumulator per worker (mirroring Cilk reducers); the per-iteration
//! pairwise tree merge of those partials — `log2(P)` rounds over dense
//! `k x vocabulary` arrays — is the serial fraction that limits
//! scalability on the vocabulary-heavy *Mix* data set in Figure 1.
//!
//! [`baseline::SimpleKMeans`] reproduces the WEKA comparator: dense,
//! single-threaded, allocation-happy.

pub mod assign;
pub mod baseline;
pub mod cost;
pub mod init;

pub use assign::{AssignKernel, AssignStats};

use hpa_exec::sync::Mutex;
use hpa_exec::{Exec, TaskCost};
use hpa_sparse::{squared_distance_to_centroid, CentroidBlock, DenseVec, SparseVec};

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
    /// Parallel-loop chunk size (0 = one chunk per thread, mirroring Cilk
    /// reducer granularity).
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
    /// Final centroids, `k` dense vectors of the input dimensionality.
    pub centroids: Vec<DenseVec>,
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

/// Partial accumulation state of one parallel chunk.
struct Partial {
    sums: Vec<DenseVec>,
    counts: Vec<u64>,
    cost: f64,
}

impl Partial {
    fn new(k: usize, dim: usize) -> Self {
        Partial {
            sums: (0..k).map(|_| DenseVec::zeros(dim)).collect(),
            counts: vec![0; k],
            cost: 0.0,
        }
    }

    /// Zero in place, keeping every allocation — the recycling path.
    fn reset(&mut self, k: usize, dim: usize) {
        self.sums.resize_with(k, DenseVec::default);
        for s in &mut self.sums {
            s.reset(dim);
        }
        self.counts.clear();
        self.counts.resize(k, 0);
        self.cost = 0.0;
    }

    /// Fold `other` into `self` without consuming either allocation.
    fn merge_in_place(&mut self, other: &Partial) {
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            a.add(b);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.cost += other.cost;
    }
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
                centroids: Vec::new(),
                assignments: Vec::new(),
                inertia: 0.0,
                iterations: 0,
                converged: true,
                trace: Vec::new(),
                assign_stats: AssignStats::default(),
            };
        }
        let k = cfg.k.min(n);

        // --- Initialization (serial; cheap relative to iterations).
        let seeds = match cfg.init {
            InitMethod::RandomPoints => init::random_points(vectors, k, cfg.seed),
            InitMethod::KMeansPlusPlus => init::kmeans_plus_plus(vectors, k, cfg.seed),
        };
        let mut centroids: Vec<DenseVec> = exec.serial(cost::init_cost(k, dim), || {
            seeds
                .iter()
                .map(|&i| {
                    let mut c = DenseVec::zeros(dim);
                    c.add_sparse(&vectors[i]);
                    c
                })
                .collect()
        });

        let mut assignments = vec![0u32; n];
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

        // Recycled across iterations: centroid norms, the per-chunk
        // partial accumulators (k dense vectors each!), the term-major
        // centroid block, the movement deltas, and the recompute
        // scratch. With recycling off, every iteration allocates the
        // norms/partials afresh — the pessimization the §3.1 ablation
        // measures.
        let mut norms: Vec<f64> = Vec::new();
        let grain = if cfg.grain > 0 {
            cfg.grain
        } else {
            n.div_ceil(exec.threads())
        };
        let ranges = hpa_exec::chunk_ranges(n, grain);
        let mut partials: Vec<Mutex<Partial>> = Vec::new();
        // Pairwise-merge pairing schedule: depends only on the chunk
        // count, so compute it once instead of per round per iteration.
        let merge_rounds = assign::merge_schedule(ranges.len());
        let use_block = matches!(
            cfg.kernel,
            AssignKernel::Blocked | AssignKernel::BlockedPruned
        );
        let mut block = CentroidBlock::new();
        let mut movement = assign::Movement::default();
        movement.reset(k);

        {
            // Chunk ranges are disjoint, so every parallel task owns its
            // chunk's slices of the assignment/bound arrays outright:
            // one lock per chunk per iteration, none per document.
            let chunk_slots: Vec<Mutex<assign::ChunkState<'_>>> =
                assign::chunk_states(&mut assignments, &mut bound_ub, &mut bound_lb, &ranges, k)
                    .into_iter()
                    .map(Mutex::new)
                    .collect();

            for iter in 0..cfg.max_iters {
                iterations = iter + 1;
                let _iter_span = hpa_trace::span!("kmeans", "iter", iter as u64);
                if use_block {
                    // Re-transpose the centroids into the term-major
                    // block (also refreshes the norms it carries).
                    exec.serial(cost::block_rebuild_cost(k, dim), || {
                        block.rebuild(&centroids)
                    });
                } else if cfg.recycle_buffers {
                    norms.clear();
                    norms.extend(centroids.iter().map(|c| c.norm_sq()));
                } else {
                    norms = centroids.iter().map(|c| c.norm_sq()).collect();
                }
                if cfg.recycle_buffers && partials.len() == ranges.len() {
                    for p in &partials {
                        p.lock().reset(k, dim);
                    }
                } else {
                    partials = ranges
                        .iter()
                        .map(|_| Mutex::new(Partial::new(k, dim)))
                        .collect();
                }
                let norms_ref = &norms;
                let centroids_ref = &centroids;
                let partials_ref = &partials;
                let ranges_ref = &ranges;
                let chunk_slots_ref = &chunk_slots;
                let block_ref = &block;
                let movement_ref = &movement;
                let kernel = cfg.kernel;

                // --- Parallel assignment + per-chunk partial centroid
                // sums, through the selected kernel.
                let assign_cost = |chunk_idx_range: std::ops::Range<usize>| {
                    let mut total = TaskCost::default();
                    for ci in chunk_idx_range.clone() {
                        let range = ranges_ref[ci].clone();
                        total += match kernel {
                            AssignKernel::Naive => cost::assign_chunk_cost(vectors, range, k),
                            AssignKernel::Blocked => {
                                cost::assign_chunk_cost_blocked(vectors, range, k)
                            }
                            AssignKernel::BlockedPruned => {
                                // Predict per-document skips from the
                                // pre-assignment bounds (conservative:
                                // the kernel can only skip more).
                                let state = chunk_slots_ref[ci].lock();
                                let docs = range.len() as u64;
                                let mut nnz_full = 0u64;
                                let mut nnz_pruned = 0u64;
                                for (local, i) in range.enumerate() {
                                    let nnz = vectors[i].nnz() as u64;
                                    if assign::predicts_prune(
                                        state.ub[local],
                                        state.lb[local],
                                        state.assign[local] as usize,
                                        movement_ref,
                                    ) {
                                        nnz_pruned += nnz;
                                    } else {
                                        nnz_full += nnz;
                                    }
                                }
                                cost::assign_cost_pruned(nnz_full, nnz_pruned, docs, k)
                            }
                        };
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
                let assign_span = hpa_trace::span!("kmeans", "assign", iter as u64);
                exec.par_chunks(
                    ranges.len(),
                    1,
                    |chunk_idx_range| {
                        for ci in chunk_idx_range {
                            let mut acc = partials_ref[ci].lock();
                            let mut state = chunk_slots_ref[ci].lock();
                            assign::assign_chunk(
                                kernel,
                                vectors,
                                ranges_ref[ci].clone(),
                                centroids_ref,
                                norms_ref,
                                block_ref,
                                movement_ref,
                                &mut state,
                                |i, best, best_d| {
                                    acc.sums[best].add_sparse(&vectors[i]);
                                    acc.counts[best] += 1;
                                    acc.cost += best_d;
                                },
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

                // --- Parallel in-place tree merge of the partials
                // (pairwise rounds, like Cilk reducer merges), leaving
                // the total in partials[0]. Allocation-free: the pairing
                // schedule is precomputed.
                if hpa_trace::is_enabled() {
                    let ns: u64 = merge_rounds
                        .iter()
                        .map(|(_, pair_lhs)| {
                            exec.predict_region_ns(pair_lhs.len(), 1, |pair_range| {
                                let mut total = TaskCost::default();
                                for _ in pair_range {
                                    total += cost::reduce_cost(k, dim);
                                }
                                total
                            })
                        })
                        .sum();
                    hpa_trace::predict("kmeans", "merge", ns);
                }
                let merge_span = hpa_trace::span!("kmeans", "merge", iter as u64);
                for (stride, pair_lhs) in &merge_rounds {
                    let stride = *stride;
                    let pair_lhs_ref = pair_lhs;
                    exec.par_chunks(
                        pair_lhs.len(),
                        1,
                        |pair_range| {
                            for pi in pair_range {
                                let i = pair_lhs_ref[pi];
                                let mut a = partials_ref[i].lock();
                                let b = partials_ref[i + stride].lock();
                                a.merge_in_place(&b);
                            }
                        },
                        |pair_range| {
                            let mut total = TaskCost::default();
                            for _ in pair_range {
                                total += cost::reduce_cost(k, dim);
                            }
                            total
                        },
                    );
                }
                drop(merge_span);
                let partial = partials[0].lock();

                // --- Serial centroid recompute; records per-centroid
                // movement deltas for the next iteration's bounds.
                if hpa_trace::is_enabled() {
                    hpa_trace::predict(
                        "kmeans",
                        "recompute",
                        exec.predict_serial_ns(&cost::recompute_cost(k, dim)),
                    );
                }
                let _recompute_span = hpa_trace::span!("kmeans", "recompute", iter as u64);
                let new_inertia = partial.cost;
                let max_movement = {
                    let centroids = &mut centroids;
                    let movement = &mut movement;
                    exec.serial(cost::recompute_cost(k, dim), move || {
                        movement.reset(k);
                        let mut max_move: f64 = 0.0;
                        #[allow(clippy::needless_range_loop)] // c indexes three parallel arrays
                        for c in 0..k {
                            if partial.counts[c] == 0 {
                                // Empty cluster: keep its previous centroid
                                // (the paper's operator does not re-seed
                                // mid-run); its movement delta stays zero.
                                continue;
                            }
                            let mut fresh = partial.sums[c].clone();
                            fresh.scale(1.0 / partial.counts[c] as f64);
                            let moved = centroids[c].squared_distance(&fresh);
                            movement.record(c, moved);
                            max_move = max_move.max(moved);
                            if cfg.recycle_buffers {
                                centroids[c].copy_from(&fresh);
                            } else {
                                centroids[c] = fresh;
                            }
                        }
                        max_move
                    })
                };

                inertia = new_inertia;
                trace.push(inertia);
                if max_movement <= cfg.tol {
                    converged = true;
                    break;
                }
            }
        }

        KMeansModel {
            centroids,
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
pub fn inertia_of(vectors: &[SparseVec], centroids: &[DenseVec], assignments: &[u32]) -> f64 {
    let norms: Vec<f64> = centroids.iter().map(|c| c.norm_sq()).collect();
    vectors
        .iter()
        .zip(assignments)
        .map(|(x, &a)| squared_distance_to_centroid(x, &centroids[a as usize], norms[a as usize]))
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
            grain: 8,
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
            assert!((reference.inertia - other.inertia).abs() < 1e-12);
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
        let norms: Vec<f64> = model.centroids.iter().map(|c| c.norm_sq()).collect();
        for (x, &a) in data.iter().zip(&model.assignments) {
            let da =
                squared_distance_to_centroid(x, &model.centroids[a as usize], norms[a as usize]);
            for (c, centroid) in model.centroids.iter().enumerate() {
                let dc = squared_distance_to_centroid(x, centroid, norms[c]);
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
        assert_eq!(model.centroids.len(), 2);
        assert!(model.inertia < 1e-12, "2 points, 2 clusters: zero inertia");
    }

    #[test]
    fn empty_input_gives_empty_model() {
        let model = KMeans::new(cfg(3)).fit(&Exec::sequential(), &[], 5);
        assert!(model.centroids.is_empty());
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
