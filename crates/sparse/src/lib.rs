#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Sparse vector algebra.
//!
//! The paper's first key optimization for K-means is "using sparse vectors
//! to represent inherently sparse data" (§3.1): a document's TF/IDF vector
//! has a few hundred non-zeros out of a vocabulary of hundreds of
//! thousands. [`SparseVec`] stores sorted `(term_id, weight)` pairs;
//! [`DenseVec`] is the dense accumulator used for centroids (centroids are
//! means over many documents and are not sparse).

pub mod block;
pub mod dense;
pub mod distance;
pub mod fnv;

pub use block::CentroidBlock;
pub use dense::DenseVec;
pub use distance::{cosine_similarity, squared_distance_to_centroid};
pub use fnv::fnv1a;

/// Term identifier. `u32` keeps pairs at 12 bytes + padding; vocabularies
/// in the paper peak below 300 K terms.
pub type TermId = u32;

/// An immutable sparse vector: strictly increasing `term_id`s with `f64`
/// weights. Zero weights are permitted (they arise from IDF of terms
/// present in every document) but duplicate term ids are not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    terms: Vec<TermId>,
    weights: Vec<f64>,
}

impl SparseVec {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted pairs; duplicate term ids have their weights
    /// summed (useful when accumulating counts).
    pub fn from_pairs(mut pairs: Vec<(TermId, f64)>) -> Self {
        pairs.sort_unstable_by_key(|p| p.0);
        let mut terms = Vec::with_capacity(pairs.len());
        let mut weights = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            if terms.last() == Some(&t) {
                *weights.last_mut().expect("parallel arrays") += w;
            } else {
                terms.push(t);
                weights.push(w);
            }
        }
        SparseVec { terms, weights }
    }

    /// Build from pairs already sorted by strictly increasing term id.
    ///
    /// # Panics
    /// Like [`SparseVec::from_sorted_parts`].
    pub fn from_sorted(pairs: Vec<(TermId, f64)>) -> Self {
        let (terms, weights) = pairs.into_iter().unzip();
        SparseVec::from_sorted_parts(terms, weights)
    }

    /// Build from the two parallel arrays themselves — no copy — with
    /// `terms` strictly increasing.
    ///
    /// # Panics
    /// Panics (debug and release) if the arrays differ in length or the
    /// ids are not strictly increasing — violating the invariant silently
    /// would corrupt every dot product.
    pub fn from_sorted_parts(terms: Vec<TermId>, weights: Vec<f64>) -> Self {
        assert_eq!(terms.len(), weights.len(), "one weight per term id");
        for w in terms.windows(2) {
            assert!(
                w[0] < w[1],
                "term ids must be strictly increasing: {} !< {}",
                w[0],
                w[1]
            );
        }
        SparseVec { terms, weights }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Term ids, strictly increasing.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Weights, parallel to [`terms`](Self::terms).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Iterate `(term_id, weight)` pairs in term order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.terms.iter().copied().zip(self.weights.iter().copied())
    }

    /// Weight of `term`, or 0 if absent. O(log nnz).
    pub fn get(&self, term: TermId) -> f64 {
        match self.terms.binary_search(&term) {
            Ok(i) => self.weights[i],
            Err(_) => 0.0,
        }
    }

    /// Sparse–sparse dot product (merge join, O(nnz_a + nnz_b)).
    pub fn dot(&self, other: &SparseVec) -> f64 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.weights[i] * other.weights[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Dot product against a dense vector indexed by term id. Terms beyond
    /// the dense length contribute zero.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (t, w) in self.iter() {
            if let Some(d) = dense.get(t as usize) {
                sum += w * d;
            }
        }
        sum
    }

    /// Sum of squared weights.
    pub fn norm_sq(&self) -> f64 {
        self.weights.iter().map(|w| w * w).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale all weights in place.
    pub fn scale(&mut self, factor: f64) {
        for w in &mut self.weights {
            *w *= factor;
        }
    }

    /// Normalize to unit Euclidean norm in place; zero vectors are left
    /// unchanged. The paper clusters documents "based on their *normalized*
    /// TF/IDF scores".
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Add this vector into a dense accumulator (`acc[t] += w`), growing it
    /// if needed — the centroid-accumulation kernel of K-means.
    pub fn add_into_dense(&self, acc: &mut Vec<f64>) {
        if let Some(&max_t) = self.terms.last() {
            if acc.len() <= max_t as usize {
                acc.resize(max_t as usize + 1, 0.0);
            }
        }
        for (t, w) in self.iter() {
            acc[t as usize] += w;
        }
    }

    /// Approximate heap footprint in bytes (the backing arrays).
    pub fn heap_bytes(&self) -> usize {
        self.terms.capacity() * std::mem::size_of::<TermId>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
    }
}

impl FromIterator<(TermId, f64)> for SparseVec {
    fn from_iter<I: IntoIterator<Item = (TermId, f64)>>(iter: I) -> Self {
        SparseVec::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let s = v(&[(5, 1.0), (2, 2.0), (5, 3.0), (0, 1.0)]);
        assert_eq!(s.terms(), &[0, 2, 5]);
        assert_eq!(s.weights(), &[1.0, 2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_rejects_duplicates() {
        SparseVec::from_sorted(vec![(1, 1.0), (1, 2.0)]);
    }

    #[test]
    fn from_sorted_parts_takes_the_arrays_and_checks_them() {
        let s = SparseVec::from_sorted_parts(vec![1, 4, 9], vec![0.5, 0.0, 2.0]);
        assert_eq!(s, v(&[(1, 0.5), (4, 0.0), (9, 2.0)]));
        assert!(SparseVec::from_sorted_parts(Vec::new(), Vec::new()).is_empty());
        for (terms, weights) in [(vec![2, 1], vec![1.0, 1.0]), (vec![1, 2], vec![1.0])] {
            let bad = std::panic::catch_unwind(|| SparseVec::from_sorted_parts(terms, weights));
            assert!(bad.is_err(), "unsorted ids and ragged arrays are rejected");
        }
    }

    #[test]
    fn get_binary_searches() {
        let s = v(&[(10, 1.5), (20, 2.5)]);
        assert_eq!(s.get(10), 1.5);
        assert_eq!(s.get(20), 2.5);
        assert_eq!(s.get(15), 0.0);
        assert_eq!(s.get(0), 0.0);
    }

    #[test]
    fn dot_merge_join_matches_manual() {
        let a = v(&[(1, 2.0), (3, 4.0), (7, 1.0)]);
        let b = v(&[(3, 0.5), (7, 2.0), (9, 5.0)]);
        assert_eq!(a.dot(&b), 4.0 * 0.5 + 1.0 * 2.0);
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.dot(&SparseVec::new()), 0.0);
    }

    #[test]
    fn dot_dense_ignores_out_of_range_terms() {
        let a = v(&[(0, 1.0), (2, 3.0), (100, 9.0)]);
        let dense = [2.0, 0.0, 4.0];
        assert_eq!(a.dot_dense(&dense), 1.0 * 2.0 + 3.0 * 4.0);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut a = v(&[(1, 3.0), (2, 4.0)]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-12);
        assert!((a.get(1) - 0.6).abs() < 1e-12);
        // Zero vector untouched.
        let mut z = SparseVec::new();
        z.normalize();
        assert!(z.is_empty());
    }

    #[test]
    fn add_into_dense_grows_accumulator() {
        let a = v(&[(2, 1.0), (5, 2.0)]);
        let mut acc = vec![0.0; 3];
        a.add_into_dense(&mut acc);
        assert_eq!(acc, vec![0.0, 0.0, 1.0, 0.0, 0.0, 2.0]);
        a.add_into_dense(&mut acc);
        assert_eq!(acc[5], 4.0);
    }

    #[test]
    fn heap_bytes_counts_both_arrays() {
        let a = v(&[(1, 1.0), (2, 2.0)]);
        assert!(a.heap_bytes() >= 2 * (4 + 8));
    }

    #[test]
    fn collect_from_iterator() {
        let s: SparseVec = [(3u32, 1.0), (1u32, 2.0)].into_iter().collect();
        assert_eq!(s.terms(), &[1, 3]);
    }
}
