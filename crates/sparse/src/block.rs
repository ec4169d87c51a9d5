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

/// Terms per slab of the tiled rebuild: `64 × k` doubles, 64 KB at
/// `k = 128`.
pub const SLAB_TERMS: usize = 64;

/// `k` dense centroids stored term-major (`data[t * k + c]`), with the
/// per-centroid squared norms the distance expansion needs.
///
/// Built empty and (re)filled with [`rebuild`](CentroidBlock::rebuild)
/// each Lloyd iteration; the backing allocation is recycled.
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
    /// Empty block; fill with [`rebuild`](CentroidBlock::rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from a centroid set.
    pub fn from_centroids(centroids: &[DenseVec]) -> Self {
        let mut b = Self::new();
        b.rebuild(centroids);
        b
    }

    /// Re-transpose `centroids` into the block, reusing the allocation.
    /// All centroids must share one dimensionality.
    pub fn rebuild(&mut self, centroids: &[DenseVec]) {
        let dim = centroids.first().map_or(0, |c| c.len());
        for centroid in centroids {
            assert_eq!(centroid.len(), dim, "centroid dimension mismatch");
        }
        let norms: Vec<f64> = centroids.iter().map(|c| c.norm_sq()).collect();
        for (index, slab) in self.begin_rebuild(dim, &norms).enumerate() {
            Self::fill_slab(slab, index, centroids);
        }
    }

    /// First half of a rebuild the caller parallelises: size the block
    /// for `norms.len()` centroids of `dim` terms, install their squared
    /// `norms`, and hand out the term slabs ([`SLAB_TERMS`] terms × `k`
    /// each, the last one shorter) for [`fill_slab`](Self::fill_slab).
    /// Only a growing block is zero-filled: the slabs get overwritten.
    pub fn begin_rebuild(&mut self, dim: usize, norms: &[f64]) -> ChunksMut<'_, f64> {
        self.k = norms.len();
        self.dim = dim;
        self.norms.clear();
        self.norms.extend_from_slice(norms);
        self.data.resize(dim * self.k, 0.0);
        self.data.chunks_mut((SLAB_TERMS * self.k).max(1))
    }

    /// Transpose terms `index * SLAB_TERMS ..` of `centroids` into their
    /// slab. A slab is small enough to stay in cache while every
    /// centroid scatters its run of terms into it, so each line of the
    /// block goes to memory once per rebuild.
    pub fn fill_slab(slab: &mut [f64], index: usize, centroids: &[DenseVec]) {
        let k = centroids.len();
        let first = index * SLAB_TERMS;
        let terms = slab.len() / k;
        for (c, centroid) in centroids.iter().enumerate() {
            let run = &centroid.as_slice()[first..first + terms];
            for (row, &w) in slab.chunks_exact_mut(k).zip(run) {
                row[c] = w;
            }
        }
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
    fn rebuild_reuses_allocation_and_updates_norms() {
        let mut block = CentroidBlock::from_centroids(&centroids(8, 100));
        let ptr = block.data.as_ptr();
        block.rebuild(&centroids(4, 50));
        assert_eq!(block.k(), 4);
        assert_eq!(block.dim(), 50);
        assert_eq!(block.data.as_ptr(), ptr, "allocation reused");
        assert_eq!(block.norms().len(), 4);
        let expected: Vec<f64> = centroids(4, 50).iter().map(|c| c.norm_sq()).collect();
        assert_eq!(block.norms(), expected.as_slice());
    }

    #[test]
    fn tiled_rebuild_matches_elementwise_transpose_bitwise() {
        for k in [1, 3, 8, 11, 128] {
            for dim in [
                1,
                SLAB_TERMS - 1,
                SLAB_TERMS,
                SLAB_TERMS + 1,
                3 * SLAB_TERMS + 7,
            ] {
                let cs = centroids(k, dim);
                let norms: Vec<f64> = cs.iter().map(|c| c.norm_sq()).collect();
                // Recycled from another shape, slabs filled last to first.
                let mut by_slab = CentroidBlock::from_centroids(&centroids(5, 300));
                let slabs: Vec<&mut [f64]> = by_slab.begin_rebuild(dim, &norms).collect();
                assert_eq!(slabs.len(), dim.div_ceil(SLAB_TERMS));
                for (index, slab) in slabs.into_iter().enumerate().rev() {
                    CentroidBlock::fill_slab(slab, index, &cs);
                }
                let whole = CentroidBlock::from_centroids(&cs);
                for block in [&by_slab, &whole] {
                    assert_eq!((block.k(), block.dim()), (k, dim));
                    assert_eq!(block.data.len(), k * dim);
                    for (c, centroid) in cs.iter().enumerate() {
                        assert_eq!(block.norms()[c].to_bits(), norms[c].to_bits());
                        for (t, w) in centroid.as_slice().iter().enumerate() {
                            let got = block.data[t * k + c];
                            assert_eq!(got.to_bits(), w.to_bits(), "k={k} dim={dim} c={c} t={t}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_block_handles_empty_inputs() {
        let block = CentroidBlock::new();
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
