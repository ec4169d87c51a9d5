//! Dense vectors — centroid representation.
//!
//! K-means centroids are means over many sparse documents, so they are
//! effectively dense over the vocabulary. [`DenseVec`] is a thin wrapper
//! over `Vec<f64>` with the operations the clustering kernel needs, built
//! for reuse: `replace_with_scaled` leaves the sum buffer zeroed in place,
//! so per-iteration accumulators recycle their allocation (the paper's
//! §3.1 optimization).

use crate::SparseVec;

/// A dense `f64` vector indexed by term id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVec {
    data: Vec<f64>,
}

impl DenseVec {
    /// Zero vector of the given dimensionality.
    pub fn zeros(dim: usize) -> Self {
        DenseVec {
            data: vec![0.0; dim],
        }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(data: Vec<f64>) -> Self {
        DenseVec { data }
    }

    /// Dimensionality.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `self[t] += w` for each entry of `s`; `s` must fit the dimension.
    pub fn add_sparse(&mut self, s: &SparseVec) {
        for (t, w) in s.iter() {
            debug_assert!((t as usize) < self.data.len(), "term {t} out of bounds");
            self.data[t as usize] += w;
        }
    }

    /// `self += other`, elementwise; dimensions must match.
    pub fn add(&mut self, other: &DenseVec) {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiply every component by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Sum of squared components.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean distance to another dense vector of the same
    /// dimension.
    pub fn squared_distance(&self, other: &DenseVec) -> f64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Copy `other` into `self`, reusing the allocation.
    pub fn copy_from(&mut self, other: &DenseVec) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// The centroid update in one pass: `self` becomes `sum * factor` and
    /// `sum` all zeros, ready for its next use. Returns the squared
    /// distance `self` moved by and its new squared norm, bit-identical to
    /// `scale` on a copy of `sum`, then `squared_distance`, `copy_from`
    /// and `norm_sq`.
    pub fn replace_with_scaled(&mut self, sum: &mut DenseVec, factor: f64) -> (f64, f64) {
        assert_eq!(self.len(), sum.len(), "dimension mismatch");
        // `Iterator::sum`'s own zero, so that an empty vector agrees too.
        let mut squares: f64 = std::iter::empty::<f64>().sum();
        let moved = self
            .data
            .iter_mut()
            .zip(&mut sum.data)
            .map(|(old, s)| {
                let fresh = *s * factor;
                let step = *old - fresh;
                squares += fresh * fresh;
                *old = fresh;
                *s = 0.0;
                step * step
            })
            .sum();
        (moved, squares)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

impl From<Vec<f64>> for DenseVec {
    fn from(v: Vec<f64>) -> Self {
        DenseVec::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sparse_accumulates() {
        let mut d = DenseVec::zeros(6);
        let s = SparseVec::from_pairs(vec![(1, 2.0), (4, 3.0)]);
        d.add_sparse(&s);
        d.add_sparse(&s);
        assert_eq!(d.as_slice(), &[0.0, 4.0, 0.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = DenseVec::from_vec(vec![1.0, 2.0]);
        let b = DenseVec::from_vec(vec![3.0, 4.0]);
        a.add(&b);
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_mismatched_dims() {
        let mut a = DenseVec::zeros(2);
        a.add(&DenseVec::zeros(3));
    }

    #[test]
    fn squared_distance_matches_manual() {
        let a = DenseVec::from_vec(vec![1.0, 0.0, 2.0]);
        let b = DenseVec::from_vec(vec![0.0, 0.0, 4.0]);
        assert_eq!(a.squared_distance(&b), 1.0 + 4.0);
        assert_eq!(a.squared_distance(&a), 0.0);
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let mut a = DenseVec::zeros(64);
        let ptr = a.as_slice().as_ptr();
        let b = DenseVec::from_vec(vec![1.0; 32]);
        a.copy_from(&b);
        assert_eq!(a.len(), 32);
        assert_eq!(a.as_slice().as_ptr(), ptr);
        assert_eq!(a.as_slice()[0], 1.0);
    }

    #[test]
    fn fused_update_matches_the_separate_passes_bitwise() {
        for dim in [0, 1, 7, 64, 1000] {
            let wave = |i: usize, a: f64| ((i * 37 % 101) as f64 - 50.0) * a;
            let sum = DenseVec::from_vec((0..dim).map(|i| wave(i, 0.731)).collect());
            let old = DenseVec::from_vec((0..dim).map(|i| wave(i + 13, 0.0193)).collect());
            let factor = 1.0 / 37.0;

            let mut fresh = sum.clone();
            fresh.scale(factor);
            let moved = old.squared_distance(&fresh);
            let mut separate = old.clone();
            separate.copy_from(&fresh);

            let (mut fused, mut buffer) = (old.clone(), sum.clone());
            let (fused_moved, fused_norm) = fused.replace_with_scaled(&mut buffer, factor);
            assert_eq!(fused_moved.to_bits(), moved.to_bits(), "dim={dim}");
            assert_eq!(
                fused_norm.to_bits(),
                separate.norm_sq().to_bits(),
                "dim={dim}"
            );
            let bits = |v: &DenseVec| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&separate), "dim={dim}");
            assert_eq!(
                buffer,
                DenseVec::zeros(dim),
                "sum buffer is ready for reuse"
            );
        }
    }

    #[test]
    fn norms() {
        let a = DenseVec::from_vec(vec![3.0, 4.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }
}
