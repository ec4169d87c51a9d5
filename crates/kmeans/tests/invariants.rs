//! Property-based invariants of Lloyd's algorithm: cost monotonicity,
//! assignment optimality, and executor equivalence on arbitrary sparse
//! inputs.
//!
//! Gated behind the non-default `proptest` feature because the `proptest`
//! crate is unavailable in offline builds (see workspace Cargo.toml).
#![cfg(feature = "proptest")]

use hpa_exec::{CostMode, Exec, MachineModel};
use hpa_kmeans::{inertia_of, KMeans, KMeansConfig};
use hpa_sparse::SparseVec;
use proptest::prelude::*;

const DIM: u32 = 24;

fn arb_vectors() -> impl Strategy<Value = Vec<SparseVec>> {
    prop::collection::vec(
        prop::collection::vec((0..DIM, 0.1..10.0f64), 1..6).prop_map(SparseVec::from_pairs),
        2..40,
    )
}

fn cfg(k: usize, max_iters: usize) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iters,
        tol: 0.0,
        seed: 31,
        grain: 4,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inertia_non_increasing_in_iteration_count(vectors in arb_vectors(), k in 1usize..5) {
        // Lloyd's is deterministic given the seed, and running i+1
        // iterations extends the same trajectory by one step — so the
        // inertia sequence across max_iters must be non-increasing.
        let mut last = f64::INFINITY;
        for iters in 1..6 {
            let model = KMeans::new(cfg(k, iters)).fit(&Exec::sequential(), &vectors, DIM as usize);
            prop_assert!(
                model.inertia <= last + 1e-9,
                "inertia rose from {last} to {} at {iters} iters",
                model.inertia
            );
            last = model.inertia;
        }
    }

    #[test]
    fn every_assignment_is_the_argmin(vectors in arb_vectors(), k in 1usize..5) {
        let model = KMeans::new(cfg(k, 8)).fit(&Exec::sequential(), &vectors, DIM as usize);
        for (x, &a) in vectors.iter().zip(&model.assignments) {
            let da = model.centroids.distance_to(x, a as usize);
            for c in 0..model.centroids.k() {
                let dc = model.centroids.distance_to(x, c);
                prop_assert!(da <= dc + 1e-9, "doc assigned {a}, but {c} closer");
            }
        }
    }

    #[test]
    fn reported_inertia_matches_recomputation_convention(vectors in arb_vectors(), k in 1usize..4) {
        // inertia is measured against the pre-recompute centroids, so
        // recomputing against the final centroids can only improve it.
        let model = KMeans::new(cfg(k, 6)).fit(&Exec::sequential(), &vectors, DIM as usize);
        let recomputed = inertia_of(&vectors, &model.centroids, &model.assignments);
        prop_assert!(recomputed <= model.inertia + 1e-9);
    }

    #[test]
    fn executors_identical_on_arbitrary_input(vectors in arb_vectors(), k in 1usize..4) {
        let reference = KMeans::new(cfg(k, 6)).fit(&Exec::sequential(), &vectors, DIM as usize);
        for exec in [
            Exec::pool(3),
            Exec::simulated_with(4, MachineModel::frictionless(), CostMode::Analytic),
        ] {
            let other = KMeans::new(cfg(k, 6)).fit(&exec, &vectors, DIM as usize);
            prop_assert_eq!(&reference.assignments, &other.assignments);
            prop_assert_eq!(reference.inertia, other.inertia);
        }
    }

    #[test]
    fn trace_is_nonincreasing_and_matches_iterations(vectors in arb_vectors(), k in 1usize..5) {
        let model = KMeans::new(cfg(k, 8)).fit(&Exec::sequential(), &vectors, DIM as usize);
        prop_assert_eq!(model.trace.len(), model.iterations);
        for w in model.trace.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "trace rose: {:?}", w);
        }
        prop_assert_eq!(model.trace.last().copied().unwrap_or(0.0), model.inertia);
    }

    #[test]
    fn assignment_kernels_bit_identical(vectors in arb_vectors(), k in 1usize..6) {
        use hpa_kmeans::AssignKernel;
        let run = |kernel| {
            let mut c = cfg(k, 8);
            c.kernel = kernel;
            KMeans::new(c).fit(&Exec::sequential(), &vectors, DIM as usize)
        };
        let reference = run(AssignKernel::Naive);
        for kernel in [AssignKernel::Blocked, AssignKernel::BlockedPruned] {
            let other = run(kernel);
            prop_assert_eq!(&reference.assignments, &other.assignments);
            prop_assert_eq!(reference.inertia.to_bits(), other.inertia.to_bits());
            let rt: Vec<u64> = reference.trace.iter().map(|x| x.to_bits()).collect();
            let ot: Vec<u64> = other.trace.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(rt, ot);
        }
    }

    #[test]
    fn cluster_ids_in_range(vectors in arb_vectors(), k in 1usize..6) {
        let model = KMeans::new(cfg(k, 4)).fit(&Exec::sequential(), &vectors, DIM as usize);
        let k_eff = k.min(vectors.len());
        prop_assert_eq!(model.centroids.k(), k_eff);
        for &a in &model.assignments {
            prop_assert!((a as usize) < k_eff);
        }
    }
}
