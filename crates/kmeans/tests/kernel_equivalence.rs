//! Bit-exactness of the assignment kernels: the blocked and
//! blocked+pruned arms must produce assignments, inertia traces, and
//! centroids *bit-identical* to the naive per-centroid kernel, across
//! corpus shapes (empty documents, single non-zeros, k > n, exact
//! distance ties) and across executors. This is the contract that lets
//! the fast kernel be the default without perturbing any simulated or
//! measured result.

use hpa_exec::{CostMode, Exec, MachineModel};
use hpa_kmeans::{AssignKernel, KMeans, KMeansConfig, KMeansModel};
use hpa_rng::SplitMix64;
use hpa_sparse::SparseVec;

const KERNELS: [AssignKernel; 3] = [
    AssignKernel::Naive,
    AssignKernel::Blocked,
    AssignKernel::BlockedPruned,
];

fn cfg(k: usize, kernel: AssignKernel) -> KMeansConfig {
    KMeansConfig {
        k,
        max_iters: 12,
        tol: 0.0,
        seed: 7,
        grain: 3,
        kernel,
        ..Default::default()
    }
}

/// The executor axis: sequential, the real pool, and the simulated
/// machine.
fn execs() -> [Exec; 3] {
    [
        Exec::sequential(),
        Exec::pool(4),
        Exec::simulated_with(8, MachineModel::default(), CostMode::Analytic),
    ]
}

fn fit(vectors: &[SparseVec], dim: usize, k: usize, kernel: AssignKernel) -> KMeansModel {
    KMeans::new(cfg(k, kernel)).fit(&Exec::sequential(), vectors, dim)
}

/// Random sparse corpus: `n` documents over `dim` terms, `max_nnz`
/// non-zeros each (possibly zero → empty documents).
fn corpus(rng: &mut SplitMix64, n: usize, dim: u32, max_nnz: usize) -> Vec<SparseVec> {
    (0..n)
        .map(|_| {
            let nnz = rng.gen_index(max_nnz + 1);
            (0..nnz)
                .map(|_| {
                    (
                        rng.gen_index(dim as usize) as u32,
                        rng.gen_range_f64(-2.0, 2.0),
                    )
                })
                .collect()
        })
        .collect()
}

fn assert_identical(reference: &KMeansModel, other: &KMeansModel, label: &str) {
    assert_eq!(
        reference.assignments, other.assignments,
        "{label}: assignments"
    );
    assert_eq!(
        reference.iterations, other.iterations,
        "{label}: iterations"
    );
    assert_eq!(reference.converged, other.converged, "{label}: converged");
    assert_eq!(
        reference.inertia.to_bits(),
        other.inertia.to_bits(),
        "{label}: inertia"
    );
    let rt: Vec<u64> = reference.trace.iter().map(|x| x.to_bits()).collect();
    let ot: Vec<u64> = other.trace.iter().map(|x| x.to_bits()).collect();
    assert_eq!(rt, ot, "{label}: inertia trace");
    let (a, b) = (&reference.centroids, &other.centroids);
    assert_eq!((a.k(), a.dim()), (b.k(), b.dim()), "{label}: k × dim");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(a.norms()), bits(b.norms()), "{label}: norms");
    for c in 0..a.k() {
        let (ac, bc) = (a.centroid(c), b.centroid(c));
        assert_eq!(
            bits(ac.as_slice()),
            bits(bc.as_slice()),
            "{label}: centroid {c}"
        );
    }
}

#[test]
fn kernels_agree_bitwise_on_random_corpora() {
    let mut rng = SplitMix64::seed_from_u64(0xA11C);
    for (n, dim, max_nnz, k) in [
        (40, 30u32, 6, 4),
        (120, 80, 12, 8),
        (64, 16, 3, 8),
        (200, 120, 20, 5),
        // Many clusters: the k-accumulator sweep does the work.
        (240, 90, 12, 48),
        // Long documents: per-document gather chains in the hundreds.
        (48, 900, 400, 6),
        // Postings at seeding, dense once the clusters fill in.
        (200, 40, 12, 16),
    ] {
        let vectors = corpus(&mut rng, n, dim, max_nnz);
        let reference = fit(&vectors, dim as usize, k, AssignKernel::Naive);
        for kernel in [AssignKernel::Blocked, AssignKernel::BlockedPruned] {
            let other = fit(&vectors, dim as usize, k, kernel);
            let label = format!("n={n} dim={dim} k={k} {}", kernel.label());
            assert_identical(&reference, &other, &label);
            // Both forms of the block stay exercised: the wide-`k` row's
            // centroids fit on postings, the `k` = 8 rows' do not.
            match k {
                48 => assert!(other.centroids.is_postings(), "{label}"),
                8 => assert!(!other.centroids.is_postings(), "{label}"),
                _ => {}
            }
        }
    }
}

#[test]
fn kernels_agree_on_degenerate_shapes() {
    let shapes: Vec<(Vec<SparseVec>, usize, usize)> = vec![
        // All-empty documents.
        (vec![SparseVec::new(); 5], 4, 2),
        // Single non-zero per document.
        (
            (0..8)
                .map(|i| SparseVec::from_pairs(vec![(i % 3, 1.0 + i as f64)]))
                .collect(),
            3,
            3,
        ),
        // k > n: more clusters requested than documents.
        (
            (0..3)
                .map(|i| SparseVec::from_pairs(vec![(i, 2.0)]))
                .collect(),
            3,
            9,
        ),
        // k = 1: no rival centroids at all for the pruning bounds.
        (
            (0..10)
                .map(|i| SparseVec::from_pairs(vec![(i % 4, 0.5 * i as f64)]))
                .collect(),
            4,
            1,
        ),
    ];
    for (idx, (vectors, dim, k)) in shapes.iter().enumerate() {
        let reference = fit(vectors, *dim, *k, AssignKernel::Naive);
        for kernel in KERNELS {
            for exec in execs() {
                let model = KMeans::new(cfg(*k, kernel)).fit(&exec, vectors, *dim);
                assert_identical(
                    &reference,
                    &model,
                    &format!("shape {idx} {}", kernel.label()),
                );
            }
        }
    }
}

#[test]
fn ties_break_to_lowest_index_in_every_kernel() {
    // Duplicate documents equidistant from symmetric seed centroids force
    // exact distance ties; every kernel must resolve them identically
    // (lowest centroid index wins via the strict `<` argmin scan).
    let vectors: Vec<SparseVec> = (0..12)
        .map(|i| SparseVec::from_pairs(vec![(0, 1.0), (1, if i % 2 == 0 { 1.0 } else { -1.0 })]))
        .collect();
    let reference = fit(&vectors, 2, 4, AssignKernel::Naive);
    for kernel in [AssignKernel::Blocked, AssignKernel::BlockedPruned] {
        let other = fit(&vectors, 2, 4, kernel);
        assert_identical(&reference, &other, kernel.label());
    }
}

#[test]
fn kernels_agree_across_executors() {
    let mut rng = SplitMix64::seed_from_u64(99);
    let vectors = corpus(&mut rng, 90, 50, 10);
    let reference = fit(&vectors, 50, 6, AssignKernel::Naive);
    for kernel in KERNELS {
        for exec in execs() {
            let model = KMeans::new(cfg(6, kernel)).fit(&exec, &vectors, 50);
            assert_identical(&reference, &model, kernel.label());
        }
    }
}

#[test]
fn model_does_not_depend_on_thread_count_or_grain() {
    // Every cluster's sum is formed by one task in document order, so
    // not only the assignments but every bit of the model is fixed by
    // the input alone.
    let mut rng = SplitMix64::seed_from_u64(0x0117);
    let vectors = corpus(&mut rng, 320, 90, 14);
    for kernel in KERNELS {
        let fit_on = |exec: &Exec, grain: usize| {
            KMeans::new(KMeansConfig {
                grain,
                ..cfg(7, kernel)
            })
            .fit(exec, &vectors, 90)
        };
        let reference = fit_on(&Exec::sequential(), 0);
        assert!(reference.iterations > 2, "{}", kernel.label());
        for exec in [
            Exec::sequential(),
            Exec::pool(2),
            Exec::pool(3),
            Exec::simulated(4, MachineModel::default()),
        ] {
            for grain in [0, 7, 64] {
                let model = fit_on(&exec, grain);
                let label = format!("{} {exec:?} grain {grain}", kernel.label());
                assert_identical(&reference, &model, &label);
                assert_eq!(reference.assign_stats, model.assign_stats, "{label}");
            }
        }
    }
}

#[test]
fn pruning_actually_prunes_and_accounts_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    let vectors = corpus(&mut rng, 150, 60, 10);
    let k = 8;
    let model = fit(&vectors, 60, k, AssignKernel::BlockedPruned);
    let stats = model.assign_stats;
    assert_eq!(
        stats.docs,
        (vectors.len() * model.iterations) as u64,
        "every document counted every iteration"
    );
    // Conservation: every (doc, centroid) distance is either computed or
    // provably skipped.
    assert_eq!(
        stats.distances_computed + stats.distances_pruned,
        stats.docs * k as u64,
        "distance accounting must be exact"
    );
    assert!(
        model.iterations > 2,
        "need multiple iterations for bounds to engage (got {})",
        model.iterations
    );
    assert!(
        stats.docs_pruned > 0,
        "pruning should skip at least some documents: {stats:?}"
    );
    assert_eq!(
        stats.distances_pruned,
        stats.docs_pruned * (k as u64 - 1),
        "a pruned document skips exactly k-1 rival distances"
    );

    // The non-pruned arms never report pruning.
    for kernel in [AssignKernel::Naive, AssignKernel::Blocked] {
        let s = fit(&vectors, 60, k, kernel).assign_stats;
        assert_eq!(s.docs_pruned, 0, "{}", kernel.label());
        assert_eq!(s.distances_pruned, 0, "{}", kernel.label());
        assert_eq!(
            s.distances_computed,
            s.docs * k as u64,
            "{}",
            kernel.label()
        );
    }
}

#[test]
fn first_iteration_never_prunes() {
    // Bounds start at ub = +inf, lb = 0, which forces a full sweep, so
    // iteration 1 must compute every distance.
    let mut rng = SplitMix64::seed_from_u64(3);
    let vectors = corpus(&mut rng, 60, 30, 8);
    let model = KMeans::new(KMeansConfig {
        k: 5,
        max_iters: 1,
        tol: 0.0,
        seed: 11,
        kernel: AssignKernel::BlockedPruned,
        ..Default::default()
    })
    .fit(&Exec::sequential(), &vectors, 30);
    assert_eq!(model.assign_stats.docs_pruned, 0);
    assert_eq!(
        model.assign_stats.distances_computed,
        model.assign_stats.docs * 5
    );
}
