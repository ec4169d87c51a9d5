//! The sparse kernels the clustering relies on, checked against a dense
//! reference on random vectors (SplitMix64, fixed seeds — deterministic,
//! no external crates).

use hpa_rng::SplitMix64;
use hpa_sparse::{squared_distance_to_centroid, DenseVec, SparseVec};

const DIM: usize = 64;
const TRIALS: usize = 500;

/// Up to 39 unsorted, possibly repeated `(term, weight)` pairs in ±100.
fn random_sparse(rng: &mut SplitMix64) -> SparseVec {
    let pairs = (0..rng.gen_index(40))
        .map(|_| (rng.gen_index(DIM) as u32, rng.gen_range_f64(-100.0, 100.0)))
        .collect();
    SparseVec::from_pairs(pairs)
}

fn densify(s: &SparseVec) -> Vec<f64> {
    let mut d = vec![0.0; DIM];
    for (t, w) in s.iter() {
        d[t as usize] += w;
    }
    d
}

fn dense_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[test]
fn dot_matches_dense_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5ba5_0001);
    for _ in 0..TRIALS {
        let (a, b) = (random_sparse(&mut rng), random_sparse(&mut rng));
        let expected = dense_dot(&densify(&a), &densify(&b));
        assert!((a.dot(&b) - expected).abs() < 1e-6, "{a:?} · {b:?}");
    }
}

#[test]
fn dot_is_bit_symmetric() {
    // The merge join visits shared terms in the same order either way
    // round, so the sum is the same bits, not merely close.
    let mut rng = SplitMix64::seed_from_u64(0x5ba5_0005);
    for _ in 0..TRIALS {
        let (a, b) = (random_sparse(&mut rng), random_sparse(&mut rng));
        assert_eq!(a.dot(&b).to_bits(), b.dot(&a).to_bits());
    }
}

#[test]
fn dot_dense_agrees_with_sparse_dot() {
    let mut rng = SplitMix64::seed_from_u64(0x5ba5_0002);
    for _ in 0..TRIALS {
        let (a, b) = (random_sparse(&mut rng), random_sparse(&mut rng));
        let db = densify(&b);
        assert!((a.dot_dense(&db) - a.dot(&b)).abs() < 1e-6);
        // Terms past the dense length contribute nothing.
        let short = &db[..DIM / 2];
        let head: f64 = a
            .iter()
            .filter(|&(t, _)| (t as usize) < DIM / 2)
            .map(|(t, w)| w * short[t as usize])
            .sum();
        assert!((a.dot_dense(short) - head).abs() < 1e-6);
    }
}

#[test]
fn distance_expansion_matches_dense_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5ba5_0003);
    for _ in 0..TRIALS {
        let x = random_sparse(&mut rng);
        let c: Vec<f64> = (0..DIM).map(|_| rng.gen_range_f64(-50.0, 50.0)).collect();
        let cv = DenseVec::from_vec(c.clone());
        let got = squared_distance_to_centroid(&x, &cv, cv.norm_sq());
        let expected: f64 = densify(&x)
            .iter()
            .zip(&c)
            .map(|(p, q)| (p - q) * (p - q))
            .sum();
        let scale = expected.abs().max(1.0);
        assert!(
            (got - expected).abs() / scale < 1e-9,
            "got {got} expected {expected}"
        );
    }
}

#[test]
fn add_into_dense_matches_dense_reference() {
    let mut rng = SplitMix64::seed_from_u64(0x5ba5_0004);
    for _ in 0..TRIALS {
        // Accumulating two vectors into one buffer that starts empty
        // (and must grow) equals their dense sum, entry for entry.
        let (a, b) = (random_sparse(&mut rng), random_sparse(&mut rng));
        let mut acc = Vec::new();
        a.add_into_dense(&mut acc);
        b.add_into_dense(&mut acc);
        let last = a.terms().last().max(b.terms().last());
        assert_eq!(acc.len(), last.map_or(0, |&t| t as usize + 1));
        let (da, db) = (densify(&a), densify(&b));
        for (i, (x, y)) in da.iter().zip(&db).enumerate() {
            assert_eq!(acc.get(i).copied().unwrap_or(0.0), x + y, "term {i}");
        }
    }
}
