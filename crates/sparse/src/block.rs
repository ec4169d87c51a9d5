//! Term-major centroid block — the multi-centroid distance kernel.
//!
//! The naive K-means inner loop computes `k` sparse–dense dot products
//! per document, one per centroid: `k` independent gather streams over
//! `k` separate [`DenseVec`]s, each touching `nnz` scattered cache lines.
//! [`CentroidBlock`] transposes the centroid set into a single
//! `[dim][k]` array — the `k` centroid weights for each *term* are
//! contiguous — so one sweep over a document's non-zeros computes all
//! `k` cross-products simultaneously: one gather stream, and each
//! gathered cache line feeds up to eight accumulators.
//!
//! The block is a centroid *store*, not a per-iteration copy of one:
//! the blocked K-means kernels seed it, update it in place (parallel
//! writers each own a run of term slabs, see
//! [`CentroidBlock::slab_runs_mut`]) and return it as the model, so the
//! centroids exist once. [`CentroidBlock::from_centroids`] transposes a
//! row-major set for the callers that start from rows.
//!
//! ## Bit-exactness contract
//!
//! Every accumulator receives its multiply-adds in *term order* — the
//! exact floating-point operation sequence of
//! [`SparseVec::dot_dense`] against that centroid — so
//! [`CentroidBlock::distances_into`] and
//! [`CentroidBlock::distance_to`] return values bit-identical to
//! [`crate::squared_distance_to_centroid`]. The 4-wide unrolling below runs
//! *across* the `k` independent accumulators (for ILP), never within
//! one sum, which is what preserves the op order per centroid. The
//! kernel-equivalence test suites in `hpa-kmeans` assert this end to
//! end.

use crate::{DenseVec, SparseVec};
use std::slice::ChunksMut;

/// Terms per slab: `64 × k` doubles, 64 KB at `k = 128` — and one `u64`
/// of a per-centroid term mask, which is how a writer says which of a
/// slab's terms it holds values for.
pub const SLAB_TERMS: usize = 64;

/// `k` dense centroids stored term-major (`data[t * k + c]`), with the
/// per-centroid squared norms the distance expansion needs.
///
/// The blocked K-means kernels keep their centroids here and nowhere
/// else: built zeroed, seeded and then updated in place through
/// [`slab_runs_mut`](CentroidBlock::slab_runs_mut), whose disjoint runs
/// of term slabs parallel writers fill without touching each other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CentroidBlock {
    k: usize,
    dim: usize,
    /// Term-major weights: `data[t * k + c]` is centroid `c` at term `t`.
    data: Vec<f64>,
    /// `|c|^2` per centroid, computed in term order (bit-identical to
    /// [`DenseVec::norm_sq`]).
    norms: Vec<f64>,
}

impl CentroidBlock {
    /// `k` all-zero centroids of `dim` terms. The backing pages are the
    /// allocator's untouched zero pages: a term's row costs memory only
    /// once something is written to it.
    pub fn zeros(k: usize, dim: usize) -> Self {
        CentroidBlock {
            k,
            dim,
            data: vec![0.0; k * dim],
            norms: vec![0.0; k],
        }
    }

    /// Transpose a row-major centroid set. All centroids must share one
    /// dimensionality.
    pub fn from_centroids(centroids: &[DenseVec]) -> Self {
        let dim = centroids.first().map_or(0, |c| c.len());
        let mut block = Self::zeros(centroids.len(), dim);
        for (c, centroid) in centroids.iter().enumerate() {
            block.set_centroid(c, centroid.as_slice());
        }
        block
    }

    /// Overwrite centroid `c` with `values` (one per term) and its norm
    /// with their squared sum.
    pub fn set_centroid(&mut self, c: usize, values: &[f64]) {
        assert!(c < self.k, "centroid index {c} out of range");
        assert_eq!(values.len(), self.dim, "centroid dimension mismatch");
        for (row, &w) in self.data.chunks_exact_mut(self.k).zip(values) {
            row[c] = w;
        }
        self.norms[c] = values.iter().map(|w| w * w).sum();
    }

    /// Centroid `c` at term `t`.
    #[inline]
    pub fn get(&self, t: usize, c: usize) -> f64 {
        assert!(c < self.k, "centroid index {c} out of range");
        self.data[t * self.k + c]
    }

    /// Centroid `c` as a row.
    pub fn centroid(&self, c: usize) -> DenseVec {
        (0..self.dim)
            .map(|t| self.get(t, c))
            .collect::<Vec<_>>()
            .into()
    }

    /// The weights, split into consecutive runs of `slabs` term slabs
    /// ([`SLAB_TERMS`] terms × `k` each; the last run may be shorter) —
    /// disjoint slices that parallel writers can fill independently.
    /// Within a run, term `t` of centroid `c` sits at `(t - first) * k + c`
    /// where `first` is the run's first term.
    pub fn slab_runs_mut(&mut self, slabs: usize) -> ChunksMut<'_, f64> {
        self.data.chunks_mut((slabs * SLAB_TERMS * self.k).max(1))
    }

    /// The squared norms, for a writer that has just changed the
    /// centroids they belong to.
    pub fn norms_mut(&mut self) -> &mut [f64] {
        &mut self.norms
    }

    /// Number of centroids in the block.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dimensionality (terms per centroid).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Precomputed `|c|^2` per centroid.
    pub fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Cross-products of `x` against all `k` centroids in one sweep over
    /// `x`'s non-zeros: `out[c] = x · centroid_c`. `out` must have length
    /// `k`. Terms at or beyond `dim` contribute zero (matching
    /// [`SparseVec::dot_dense`]).
    pub fn dots_into(&self, x: &SparseVec, out: &mut [f64]) {
        assert_eq!(out.len(), self.k, "output length must equal k");
        out.fill(0.0);
        let k = self.k;
        for (t, w) in x.iter() {
            let t = t as usize;
            if t >= self.dim {
                continue;
            }
            let row = &self.data[t * k..t * k + k];
            // 4-wide unroll across the k independent accumulators; each
            // accumulator still sees its adds in term order.
            let (row4, row_tail) = row.split_at(k & !3);
            let (out4, out_tail) = out.split_at_mut(k & !3);
            for (o, r) in out4.chunks_exact_mut(4).zip(row4.chunks_exact(4)) {
                o[0] += w * r[0];
                o[1] += w * r[1];
                o[2] += w * r[2];
                o[3] += w * r[3];
            }
            for (o, r) in out_tail.iter_mut().zip(row_tail) {
                *o += w * r;
            }
        }
    }

    /// Squared Euclidean distances from `x` to all `k` centroids via the
    /// expansion `|x|^2 - 2 x·c + |c|^2`, clamped at zero. Bit-identical
    /// per centroid to [`squared_distance_to_centroid`].
    ///
    /// [`squared_distance_to_centroid`]: crate::squared_distance_to_centroid
    pub fn distances_into(&self, x: &SparseVec, out: &mut [f64]) {
        self.dots_into(x, out);
        let xn = x.norm_sq();
        for (d, &cn) in out.iter_mut().zip(&self.norms) {
            *d = (xn - 2.0 * *d + cn).max(0.0);
        }
    }

    /// Squared Euclidean distance from `x` to centroid `c` alone — the
    /// pruned path's single-centroid kernel (strided gather, same op
    /// order as the full sweep's accumulator `c`).
    pub fn distance_to(&self, x: &SparseVec, c: usize) -> f64 {
        assert!(c < self.k, "centroid index {c} out of range");
        let k = self.k;
        let mut cross = 0.0;
        for (t, w) in x.iter() {
            let t = t as usize;
            if t >= self.dim {
                continue;
            }
            cross += w * self.data[t * k + c];
        }
        (x.norm_sq() - 2.0 * cross + self.norms[c]).max(0.0)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.data.capacity() + self.norms.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::squared_distance_to_centroid;

    fn centroids(k: usize, dim: usize) -> Vec<DenseVec> {
        (0..k)
            .map(|c| {
                DenseVec::from_vec(
                    (0..dim)
                        .map(|t| ((c * 31 + t * 7) % 13) as f64 * 0.37 - 1.5)
                        .collect(),
                )
            })
            .collect()
    }

    fn doc(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn dots_match_dot_dense_bitwise() {
        for k in [1, 2, 3, 4, 5, 7, 8, 11] {
            let cs = centroids(k, 40);
            let block = CentroidBlock::from_centroids(&cs);
            let x = doc(&[(0, 0.3), (3, -1.7), (17, 2.25), (39, 0.001)]);
            let mut out = vec![0.0; k];
            block.dots_into(&x, &mut out);
            for (c, centroid) in cs.iter().enumerate() {
                let reference = x.dot_dense(centroid.as_slice());
                assert_eq!(out[c].to_bits(), reference.to_bits(), "k={k} c={c}");
            }
        }
    }

    #[test]
    fn distances_match_scalar_kernel_bitwise() {
        let cs = centroids(8, 25);
        let block = CentroidBlock::from_centroids(&cs);
        for x in [
            doc(&[]),
            doc(&[(5, 1.0)]),
            doc(&[(0, 0.25), (1, 0.5), (2, 0.75), (24, -3.0)]),
        ] {
            let mut out = vec![0.0; 8];
            block.distances_into(&x, &mut out);
            for (c, centroid) in cs.iter().enumerate() {
                let reference = squared_distance_to_centroid(&x, centroid, centroid.norm_sq());
                assert_eq!(out[c].to_bits(), reference.to_bits());
                assert_eq!(block.distance_to(&x, c).to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn terms_beyond_dim_are_ignored_like_dot_dense() {
        let cs = centroids(3, 4);
        let block = CentroidBlock::from_centroids(&cs);
        let x = doc(&[(1, 2.0), (9, 100.0)]);
        let mut out = vec![0.0; 3];
        block.dots_into(&x, &mut out);
        for (c, centroid) in cs.iter().enumerate() {
            assert_eq!(out[c], x.dot_dense(centroid.as_slice()));
        }
    }

    #[test]
    fn transpose_round_trips_rows_and_norms_bitwise() {
        for (k, dim) in [(1, 1), (3, 70), (8, 25), (5, 0)] {
            let cs = centroids(k, dim);
            let block = CentroidBlock::from_centroids(&cs);
            assert_eq!((block.k(), block.dim()), (k, dim));
            for (c, centroid) in cs.iter().enumerate() {
                assert_eq!(block.norms()[c].to_bits(), centroid.norm_sq().to_bits());
                assert_eq!(&block.centroid(c), centroid, "k={k} dim={dim} c={c}");
                for (t, w) in centroid.as_slice().iter().enumerate() {
                    assert_eq!(block.get(t, c).to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn slab_runs_written_in_any_order_equal_the_elementwise_transpose() {
        for k in [1, 3, 8, 11, 128] {
            for dim in [
                1,
                SLAB_TERMS - 1,
                SLAB_TERMS,
                SLAB_TERMS + 1,
                3 * SLAB_TERMS + 7,
            ] {
                let cs = centroids(k, dim);
                for slabs in [1, 2, 5] {
                    // Over a block that held other values, runs filled
                    // last to first.
                    let mut by_run = CentroidBlock::from_centroids(&centroids(k + 2, dim)[2..]);
                    let runs: Vec<&mut [f64]> = by_run.slab_runs_mut(slabs).collect();
                    assert_eq!(runs.len(), dim.div_ceil(slabs * SLAB_TERMS));
                    for (index, run) in runs.into_iter().enumerate().rev() {
                        let first = index * slabs * SLAB_TERMS;
                        for (local, row) in run.chunks_exact_mut(k).enumerate() {
                            for (c, w) in row.iter_mut().enumerate() {
                                *w = cs[c].as_slice()[first + local];
                            }
                        }
                    }
                    for (c, centroid) in cs.iter().enumerate() {
                        by_run.norms_mut()[c] = centroid.norm_sq();
                    }
                    assert_eq!(
                        by_run,
                        CentroidBlock::from_centroids(&cs),
                        "k={k} dim={dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_block_handles_empty_inputs() {
        let block = CentroidBlock::default();
        assert_eq!(block.k(), 0);
        let mut out = vec![];
        block.dots_into(&doc(&[(1, 1.0)]), &mut out);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn wrong_output_length_panics() {
        let block = CentroidBlock::from_centroids(&centroids(4, 4));
        block.dots_into(&doc(&[]), &mut [0.0; 3]);
    }
}
