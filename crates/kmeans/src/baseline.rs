//! The WEKA-style baseline: `SimpleKMeans`.
//!
//! §3.1 of the paper compares its implementation against WEKA 3.6.13's
//! single-threaded `SimpleKMeans`, which "requires over 2 hours" on data
//! the optimized operator clusters in seconds. The paper attributes the
//! gap to exactly two pessimizations, which this baseline reintroduces
//! deliberately:
//!
//! 1. **dense representation of sparse data** — every document is
//!    expanded to a dense `dim`-length vector, and every distance
//!    computation walks the full dimensionality instead of the document's
//!    non-zeros;
//! 2. **no recycling** — fresh vectors are allocated for every distance
//!    and every iteration's accumulators ("new objects during the
//!    iterations").
//!
//! It is still the same Lloyd's algorithm, so on small inputs it agrees
//! with the optimized operator given the same seeding; it is just
//! asymptotically slower by a factor of `dim / nnz` (three orders of
//! magnitude at the paper's scale — hence "aborted after 2 hours").
//!
//! [`SimpleKMeans::fit_with_budget`] stops early when a wall-clock budget
//! is exceeded, reproducing the paper's aborted run faithfully in the
//! benchmark harness.

use crate::{init, InitMethod, KMeansConfig, KMeansModel};
use hpa_sparse::{CentroidBlock, DenseVec, SparseVec};
use std::time::{Duration, Instant};

/// Single-threaded, dense, allocation-happy K-means.
#[derive(Debug, Clone, Default)]
pub struct SimpleKMeans {
    /// Shares the optimized operator's configuration (parallel fields are
    /// ignored; this baseline is single-threaded by design).
    pub config: KMeansConfig,
}

/// Outcome of a budgeted baseline run.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The model if the run completed within budget.
    pub model: Option<KMeansModel>,
    /// Iterations completed before finishing or aborting.
    pub iterations_done: usize,
    /// Wall time spent.
    pub elapsed: Duration,
    /// True when the time budget expired first (the paper's ">2 hours,
    /// aborted" case).
    pub aborted: bool,
}

impl SimpleKMeans {
    /// New baseline with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        SimpleKMeans { config }
    }

    /// Run to completion (no budget). Use only on small inputs.
    pub fn fit(&self, vectors: &[SparseVec], dim: usize) -> KMeansModel {
        let outcome = self.fit_with_budget(vectors, dim, Duration::MAX);
        outcome.model.expect("unbounded budget always completes")
    }

    /// Run with a wall-clock budget; aborts (like the paper aborted WEKA)
    /// when exceeded.
    pub fn fit_with_budget(
        &self,
        vectors: &[SparseVec],
        dim: usize,
        budget: Duration,
    ) -> BaselineOutcome {
        let start = Instant::now();
        let cfg = &self.config;
        assert!(cfg.k > 0, "k must be positive");
        let n = vectors.len();
        if n == 0 {
            return BaselineOutcome {
                model: Some(KMeansModel {
                    centroids: CentroidBlock::default(),
                    assignments: Vec::new(),
                    inertia: 0.0,
                    iterations: 0,
                    converged: true,
                    trace: Vec::new(),
                    assign_stats: crate::AssignStats::default(),
                }),
                iterations_done: 0,
                elapsed: start.elapsed(),
                aborted: false,
            };
        }
        let k = cfg.k.min(n);

        let seeds = match cfg.init {
            InitMethod::RandomPoints => init::random_points(vectors, k, cfg.seed),
            InitMethod::KMeansPlusPlus => init::kmeans_plus_plus(vectors, k, cfg.seed),
        };
        let mut centroids: Vec<DenseVec> = seeds
            .iter()
            .map(|&i| {
                let mut d = DenseVec::zeros(dim);
                d.add_sparse(&vectors[i]);
                d
            })
            .collect();

        let mut assignments = vec![0u32; n];
        let mut inertia = f64::INFINITY;
        let mut converged = false;
        let mut iterations = 0;
        let mut trace: Vec<f64> = Vec::with_capacity(cfg.max_iters);

        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            // Pessimization 2: fresh accumulators every iteration.
            let mut sums: Vec<DenseVec> = (0..k).map(|_| DenseVec::zeros(dim)).collect();
            let mut counts = vec![0u64; k];
            let mut cost = 0.0;

            for (i, sparse_x) in vectors.iter().enumerate() {
                // Pessimization 1: densify the instance — a fresh
                // dim-length allocation per document per iteration — and
                // compute every distance over the full dimensionality
                // (the dim/nnz slowdown).
                let mut x = DenseVec::zeros(dim);
                x.add_sparse(sparse_x);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = x.squared_distance(centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                assignments[i] = best as u32;
                sums[best].add(&x);
                counts[best] += 1;
                cost += best_d;

                if i % 256 == 0 && start.elapsed() > budget {
                    return BaselineOutcome {
                        model: None,
                        iterations_done: iter,
                        elapsed: start.elapsed(),
                        aborted: true,
                    };
                }
            }

            let mut max_move: f64 = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    continue;
                }
                let mut fresh = sums[c].clone();
                fresh.scale(1.0 / counts[c] as f64);
                max_move = max_move.max(centroids[c].squared_distance(&fresh));
                centroids[c] = fresh;
            }
            inertia = cost;
            trace.push(inertia);
            if max_move <= cfg.tol {
                converged = true;
                break;
            }
        }

        BaselineOutcome {
            model: Some(KMeansModel {
                centroids: CentroidBlock::from_centroids(&centroids),
                assignments,
                inertia,
                iterations,
                converged,
                trace,
                assign_stats: crate::AssignStats::default(),
            }),
            iterations_done: iterations,
            elapsed: start.elapsed(),
            aborted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KMeans;
    use hpa_exec::Exec;

    fn data() -> (Vec<SparseVec>, usize) {
        let mut v = Vec::new();
        for g in 0..2u32 {
            for j in 0..10u32 {
                v.push(SparseVec::from_pairs(vec![
                    (g * 2, 2.0 + 0.01 * j as f64),
                    (g * 2 + 1, 1.0),
                ]));
            }
        }
        (v, 4)
    }

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            k: 2,
            max_iters: 40,
            seed: 11,
            grain: 4,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_agrees_with_optimized_operator() {
        let (v, dim) = data();
        let fast = KMeans::new(cfg()).fit(&Exec::sequential(), &v, dim);
        let slow = SimpleKMeans::new(cfg()).fit(&v, dim);
        assert_eq!(fast.assignments, slow.assignments);
        assert!((fast.inertia - slow.inertia).abs() < 1e-9);
        assert_eq!(fast.iterations, slow.iterations);
    }

    #[test]
    fn budget_abort_reports_progress() {
        // Large enough dense problem that a zero budget trips immediately.
        let v: Vec<SparseVec> = (0..500)
            .map(|i| SparseVec::from_pairs(vec![(i % 64, 1.0 + i as f64)]))
            .collect();
        let outcome = SimpleKMeans::new(cfg()).fit_with_budget(&v, 2_000, Duration::ZERO);
        assert!(outcome.aborted);
        assert!(outcome.model.is_none());
    }

    #[test]
    fn generous_budget_completes() {
        let (v, dim) = data();
        let outcome = SimpleKMeans::new(cfg()).fit_with_budget(&v, dim, Duration::from_secs(60));
        assert!(!outcome.aborted);
        assert!(outcome.model.is_some());
    }

    #[test]
    fn empty_input() {
        let outcome = SimpleKMeans::new(cfg()).fit_with_budget(&[], 4, Duration::from_secs(1));
        assert!(!outcome.aborted);
        assert_eq!(outcome.model.unwrap().assignments.len(), 0);
    }
}
