//! Distance kernels used by clustering.
//!
//! The hot kernel of sparse K-means is the distance from a sparse document
//! to a dense centroid. Expanding `|x - c|^2 = |x|^2 - 2 x·c + |c|^2`
//! lets the kernel touch only the document's non-zeros plus two
//! precomputed norms, instead of the full vocabulary dimension — this is
//! the optimization that separates the paper's implementation from the
//! WEKA-style dense baseline.

use crate::{DenseVec, SparseVec};

/// Squared Euclidean distance from sparse `x` to dense centroid `c`, given
/// the precomputed `|c|^2`. Touches only `x.nnz()` centroid components.
pub fn squared_distance_to_centroid(x: &SparseVec, c: &DenseVec, c_norm_sq: f64) -> f64 {
    let cross = x.dot_dense(c.as_slice());
    // Clamp: floating-point cancellation can drive tiny distances slightly
    // negative, which would poison sqrt and argmin comparisons downstream.
    (x.norm_sq() - 2.0 * cross + c_norm_sq).max(0.0)
}

/// Cosine similarity between two sparse vectors; 0 when either is zero.
pub fn cosine_similarity(a: &SparseVec, b: &SparseVec) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    a.dot(b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn distance_matches_dense_expansion() {
        let x = sv(&[(0, 1.0), (2, 3.0)]);
        let c = DenseVec::from_vec(vec![0.5, 1.0, 1.0, 2.0]);
        let d = squared_distance_to_centroid(&x, &c, c.norm_sq());
        // Dense computation: (1-0.5)^2 + (0-1)^2 + (3-1)^2 + (0-2)^2
        let expected = 0.25 + 1.0 + 4.0 + 4.0;
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let x = sv(&[(1, 2.0), (3, 4.0)]);
        let mut c = DenseVec::zeros(4);
        c.add_sparse(&x);
        let d = squared_distance_to_centroid(&x, &c, c.norm_sq());
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn distance_never_negative() {
        // Construct a case with heavy cancellation.
        let x = sv(&[(0, 1e8), (1, 1e8)]);
        let mut c = DenseVec::zeros(2);
        c.add_sparse(&x);
        let d = squared_distance_to_centroid(&x, &c, c.norm_sq());
        assert!(d >= 0.0);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let a = sv(&[(0, 1.0), (1, 1.0)]);
        let b = sv(&[(0, 1.0), (1, 1.0)]);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-12);
        let c = sv(&[(2, 5.0)]);
        assert_eq!(cosine_similarity(&a, &c), 0.0);
        assert_eq!(cosine_similarity(&a, &SparseVec::new()), 0.0);
    }
}
