//! Property-based tests for the sparse vector algebra: every law the
//! clustering kernels rely on is checked against a dense reference model.
//!
//! Gated behind the non-default `proptest` feature because the `proptest`
//! crate is unavailable in offline builds (see workspace Cargo.toml).
#![cfg(feature = "proptest")]

use hpa_sparse::{cosine_similarity, squared_distance_to_centroid, DenseVec, SparseVec};
use proptest::prelude::*;

const DIM: u32 = 64;

fn arb_pairs() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0..DIM, -100.0..100.0f64), 0..40)
}

fn densify(s: &SparseVec) -> Vec<f64> {
    let mut d = vec![0.0; DIM as usize];
    for (t, w) in s.iter() {
        d[t as usize] += w;
    }
    d
}

proptest! {
    #[test]
    fn from_pairs_invariant_sorted_unique(pairs in arb_pairs()) {
        let s = SparseVec::from_pairs(pairs);
        let terms = s.terms();
        for w in terms.windows(2) {
            prop_assert!(w[0] < w[1], "terms sorted strictly");
        }
        prop_assert_eq!(terms.len(), s.weights().len());
    }

    #[test]
    fn from_pairs_preserves_total_mass(pairs in arb_pairs()) {
        let expected: f64 = pairs.iter().map(|p| p.1).sum();
        let s = SparseVec::from_pairs(pairs);
        let got: f64 = s.weights().iter().sum();
        prop_assert!((expected - got).abs() < 1e-9);
    }

    #[test]
    fn dot_matches_dense_reference(a in arb_pairs(), b in arb_pairs()) {
        let sa = SparseVec::from_pairs(a);
        let sb = SparseVec::from_pairs(b);
        let da = densify(&sa);
        let db = densify(&sb);
        let dense_dot: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum();
        prop_assert!((sa.dot(&sb) - dense_dot).abs() < 1e-6);
    }

    #[test]
    fn dot_is_symmetric(a in arb_pairs(), b in arb_pairs()) {
        let sa = SparseVec::from_pairs(a);
        let sb = SparseVec::from_pairs(b);
        prop_assert_eq!(sa.dot(&sb), sb.dot(&sa));
    }

    #[test]
    fn dot_dense_agrees_with_sparse_dot(a in arb_pairs(), b in arb_pairs()) {
        let sa = SparseVec::from_pairs(a);
        let sb = SparseVec::from_pairs(b);
        let db = densify(&sb);
        prop_assert!((sa.dot_dense(&db) - sa.dot(&sb)).abs() < 1e-6);
    }

    #[test]
    fn normalize_yields_unit_or_zero(a in arb_pairs()) {
        let mut s = SparseVec::from_pairs(a);
        s.normalize();
        let n = s.norm();
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distance_expansion_matches_dense(a in arb_pairs(), c in prop::collection::vec(-50.0..50.0f64, DIM as usize)) {
        let x = SparseVec::from_pairs(a);
        let cv = DenseVec::from_vec(c.clone());
        let got = squared_distance_to_centroid(&x, &cv, cv.norm_sq());
        let dx = densify(&x);
        let expected: f64 = dx.iter().zip(&c).map(|(p, q)| (p - q) * (p - q)).sum();
        let scale = expected.abs().max(1.0);
        prop_assert!((got - expected).abs() / scale < 1e-9, "got {got} expected {expected}");
    }

    #[test]
    fn cosine_in_unit_interval_for_nonneg(a in prop::collection::vec((0..DIM, 0.0..100.0f64), 0..30),
                                          b in prop::collection::vec((0..DIM, 0.0..100.0f64), 0..30)) {
        let sa = SparseVec::from_pairs(a);
        let sb = SparseVec::from_pairs(b);
        let c = cosine_similarity(&sa, &sb);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c), "cosine {c} out of range");
    }

    #[test]
    fn add_into_dense_matches_model(a in arb_pairs()) {
        let s = SparseVec::from_pairs(a);
        let mut acc: Vec<f64> = Vec::new();
        s.add_into_dense(&mut acc);
        let model = densify(&s);
        for (i, &m) in model.iter().enumerate() {
            let got = acc.get(i).copied().unwrap_or(0.0);
            prop_assert!((got - m).abs() < 1e-12);
        }
    }
}
