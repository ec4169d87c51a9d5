//! Term-major centroid block — the multi-centroid distance kernel.
//!
//! The naive K-means inner loop computes `k` sparse–dense dot products
//! per document, one per centroid: `k` independent gather streams over
//! `k` separate [`DenseVec`]s, each touching `nnz` scattered cache lines.
//! [`CentroidBlock`] stores the centroid set *term-major* — everything
//! the `k` centroids hold for one term is in one row — so one sweep over
//! a document's non-zeros computes all `k` cross-products
//! simultaneously: one gather stream, one row per non-zero.
//!
//! A row has one of two forms, the same for every row of a block:
//!
//! * **dense** — all `k` weights, `data[t * k + c]`; each gathered cache
//!   line feeds up to eight accumulators. What a block built from rows
//!   ([`CentroidBlock::from_centroids`], [`CentroidBlock::zeros`]) holds.
//! * **postings** — only the `(cluster, weight)` pairs whose weight is
//!   not `+0.0`, clusters ascending, written by
//!   [`CentroidBlock::write_postings`]. A sweep then does the work of the
//!   centroids' non-zeros instead of `k` multiply-adds per document
//!   non-zero, which is what wins when many sparse centroids share a
//!   large vocabulary (`k` 128 over 41 k terms: 1–3 % of the weights are
//!   non-zero).
//!
//! The block is a centroid *store*, not a per-iteration copy of one:
//! the blocked K-means kernels write it after every update, in the form
//! they price cheaper, and return it as the model, so the centroids
//! exist once. Writers each own a run of term slabs: of the dense
//! weights through [`CentroidBlock::slab_runs_mut`], of the postings
//! arrays through [`CentroidBlock::write_postings_runs`].
//!
//! ## Bit-exactness contract
//!
//! Every accumulator receives its multiply-adds in *term order* — the
//! exact floating-point operation sequence of
//! [`SparseVec::dot_dense`] against that centroid — so
//! [`CentroidBlock::distances_into`] and
//! [`CentroidBlock::distance_to`] return values bit-identical to
//! [`crate::squared_distance_to_centroid`], in either form. The 4-wide
//! unrolling of the dense form runs *across* the `k` independent
//! accumulators (for ILP), never within one sum, which is what preserves
//! the op order per centroid. The postings form skips the `+0.0`
//! weights: each would have added `+0.0 × w`, a zero, to an accumulator
//! that starts at `+0.0` and so is never `-0.0` — an addition that
//! changes no bit. The kernel-equivalence test suites in `hpa-kmeans`
//! assert this end to end.

use crate::{DenseVec, SparseVec};
use std::slice::ChunksMut;

/// Terms per slab: `64 × k` doubles, 64 KB at `k = 128` — and one `u64`
/// of a per-centroid term mask, which is how a writer says which of a
/// slab's terms it holds values for.
pub const SLAB_TERMS: usize = 64;

/// `k` centroids stored term-major, with the per-centroid squared norms
/// the distance expansion needs.
///
/// The blocked K-means kernels keep their centroids here and nowhere
/// else. Two blocks are equal when they hold the same `k`, `dim`, norm
/// bits and weight bits, whatever their forms.
#[derive(Debug, Clone, Default)]
pub struct CentroidBlock {
    k: usize,
    dim: usize,
    weights: Weights,
    /// `|c|^2` per centroid, computed in term order (bit-identical to
    /// [`DenseVec::norm_sq`]).
    norms: Vec<f64>,
}

/// The two forms of a block's term rows.
#[derive(Debug, Clone)]
enum Weights {
    /// `data[t * k + c]` is centroid `c` at term `t`.
    Dense(Vec<f64>),
    Postings(Postings),
}

impl Default for Weights {
    fn default() -> Self {
        Weights::Dense(Vec::new())
    }
}

/// Term `t`'s row is `clusters[offsets[t]..offsets[t + 1]]`, ascending,
/// with the weights at the same positions of `weights`; every weight
/// not stored is `+0.0`.
#[derive(Debug, Clone, Default)]
struct Postings {
    offsets: Vec<usize>,
    clusters: Vec<u32>,
    weights: Vec<f64>,
}

impl Postings {
    #[inline]
    fn row(&self, t: usize) -> (&[u32], &[f64]) {
        let range = self.offsets[t]..self.offsets[t + 1];
        (&self.clusters[range.clone()], &self.weights[range])
    }

    #[inline]
    fn get(&self, t: usize, c: usize) -> f64 {
        let (clusters, weights) = self.row(t);
        clusters
            .binary_search(&(c as u32))
            .map_or(0.0, |at| weights[at])
    }
}

/// One run of term rows of a postings block that
/// [`CentroidBlock::write_postings_runs`] is writing: the rows' cursors
/// and their contiguous range of the arrays.
#[derive(Debug)]
pub struct PostingsRun<'a> {
    /// The run's first term.
    first: usize,
    /// Where the run's range starts in the arrays.
    base: usize,
    /// Per row of the run, where its next entry goes.
    cursors: &'a mut [usize],
    clusters: &'a mut [u32],
    weights: &'a mut [f64],
    /// Entries pushed so far.
    pushed: usize,
}

impl PostingsRun<'_> {
    /// Append `(cluster, weight)` to the row of term `t`, which must be
    /// one of this run's.
    #[inline]
    pub fn push(&mut self, t: usize, cluster: usize, weight: f64) {
        let cursor = &mut self.cursors[t - self.first];
        let at = *cursor - self.base;
        self.clusters[at] = cluster as u32;
        self.weights[at] = weight;
        *cursor += 1;
        self.pushed += 1;
    }
}

impl CentroidBlock {
    /// `k` all-zero centroids of `dim` terms, dense. The backing pages
    /// are the allocator's untouched zero pages: a term's row costs
    /// memory only once something is written to it.
    pub fn zeros(k: usize, dim: usize) -> Self {
        CentroidBlock {
            k,
            dim,
            weights: Weights::Dense(vec![0.0; k * dim]),
            norms: vec![0.0; k],
        }
    }

    /// Transpose a row-major centroid set into a dense block. All
    /// centroids must share one dimensionality.
    pub fn from_centroids(centroids: &[DenseVec]) -> Self {
        let dim = centroids.first().map_or(0, |c| c.len());
        let mut block = Self::zeros(centroids.len(), dim);
        for (c, centroid) in centroids.iter().enumerate() {
            block.set_centroid(c, centroid.as_slice());
        }
        block
    }

    /// Rewrite the block as `norms.len()` centroids of `dim` terms in the
    /// postings form, with these norms. `column(c)` yields centroid `c`'s
    /// `(term, weight)` pairs, distinct terms below `dim` in any order;
    /// it is called twice per centroid and must yield the same pairs
    /// both times. Every term it does not yield, and every `+0.0` weight,
    /// is `+0.0`. A postings block's arrays are reused; a dense block's
    /// weights are freed first. The serial form of
    /// [`write_postings_runs`](Self::write_postings_runs), in one run.
    pub fn write_postings<I>(&mut self, dim: usize, norms: &[f64], column: impl Fn(usize) -> I)
    where
        I: Iterator<Item = (usize, f64)>,
    {
        let k = norms.len();
        let stored = |c| column(c).filter(|(_, w): &(usize, f64)| w.to_bits() != 0);
        self.write_postings_runs(
            dim,
            norms,
            dim.div_ceil(SLAB_TERMS),
            |mut rows| {
                if let Some(lengths) = rows.first_mut() {
                    (0..k).for_each(|c| stored(c).for_each(|(t, _)| lengths[t] += 1));
                }
            },
            |runs| {
                if let Some(run) = runs.first_mut() {
                    (0..k).for_each(|c| stored(c).for_each(|(t, w)| run.push(t, c, w)));
                }
            },
        );
    }

    /// Rewrite the block as `norms.len()` centroids of `dim` terms in the
    /// postings form, with these norms, one run of `slabs` term slabs at
    /// a time (the last run may be shorter), so that parallel writers can
    /// each take whole runs — the postings twin of
    /// [`slab_runs_mut`](Self::slab_runs_mut). In three steps:
    ///
    /// 1. `count` gets one zeroed slice per run, in run order: it sets
    ///    entry `i` of run `r`'s slice to the number of entries row
    ///    `r · slabs · SLAB_TERMS + i` will hold.
    /// 2. Serially, each row's length becomes its place in the arrays.
    /// 3. `fill` gets the [`PostingsRun`]s, one per run in run order, and
    ///    [`push`](PostingsRun::push)es exactly the entries counted for
    ///    each row, in ascending cluster order within the row.
    ///
    /// A run's rows are one contiguous range of the arrays, so the block
    /// has the same bytes however the runs are shared out or ordered.
    /// Arrays are reused as [`write_postings`](Self::write_postings)
    /// reuses them. Panics if a run gets more or fewer entries than were
    /// counted for it.
    pub fn write_postings_runs(
        &mut self,
        dim: usize,
        norms: &[f64],
        slabs: usize,
        count: impl FnOnce(Vec<&mut [usize]>),
        fill: impl FnOnce(&mut [PostingsRun<'_>]),
    ) {
        let mut postings = match std::mem::take(&mut self.weights) {
            Weights::Postings(postings) => postings,
            Weights::Dense(_) => Postings::default(),
        };
        let Postings {
            offsets,
            clusters,
            weights,
        } = &mut postings;
        let run_terms = (slabs * SLAB_TERMS).max(1);
        offsets.clear();
        offsets.resize(dim + 1, 0);
        count(offsets[1..].chunks_mut(run_terms).collect());
        // Row `t`'s length, in `offsets[t + 1]`, becomes its start: the
        // cursor `push` advances to the row's end, which is the next
        // row's start that `offsets[t + 1]` must finally hold.
        let mut ends = Vec::with_capacity(dim.div_ceil(run_terms));
        let mut next = 0;
        for run in offsets[1..].chunks_mut(run_terms) {
            for slot in run {
                next += std::mem::replace(slot, next);
            }
            ends.push(next);
        }
        // Every slot below `next` is written by `fill`.
        clusters.resize(next, 0);
        weights.resize(next, 0.0);
        let (mut clusters_left, mut weights_left) = (&mut clusters[..], &mut weights[..]);
        let mut runs = Vec::with_capacity(ends.len());
        let mut base = 0;
        for (index, (cursors, &end)) in offsets[1..].chunks_mut(run_terms).zip(&ends).enumerate() {
            let (clusters, rest) = std::mem::take(&mut clusters_left).split_at_mut(end - base);
            clusters_left = rest;
            let (weights, rest) = std::mem::take(&mut weights_left).split_at_mut(end - base);
            weights_left = rest;
            runs.push(PostingsRun {
                first: index * run_terms,
                base,
                cursors,
                clusters,
                weights,
                pushed: 0,
            });
            base = end;
        }
        fill(&mut runs);
        for run in runs {
            assert_eq!(
                run.pushed,
                run.clusters.len(),
                "a postings run got the wrong count"
            );
        }
        (self.k, self.dim) = (norms.len(), dim);
        self.weights = Weights::Postings(postings);
        self.norms.clear();
        self.norms.extend_from_slice(norms);
    }

    /// The dense weights. A postings block is only ever rewritten whole,
    /// by [`write_postings`](Self::write_postings).
    fn dense_mut(&mut self) -> &mut Vec<f64> {
        match &mut self.weights {
            Weights::Dense(data) => data,
            Weights::Postings(_) => panic!("a postings block has no dense weights to write"),
        }
    }

    /// Overwrite centroid `c` of a dense block with `values` (one per
    /// term) and its norm with their squared sum.
    pub fn set_centroid(&mut self, c: usize, values: &[f64]) {
        assert!(c < self.k, "centroid index {c} out of range");
        assert_eq!(values.len(), self.dim, "centroid dimension mismatch");
        let k = self.k;
        for (row, &w) in self.dense_mut().chunks_exact_mut(k).zip(values) {
            row[c] = w;
        }
        self.norms[c] = values.iter().map(|w| w * w).sum();
    }

    /// Centroid `c` at term `t`.
    #[inline]
    pub fn get(&self, t: usize, c: usize) -> f64 {
        assert!(c < self.k, "centroid index {c} out of range");
        match &self.weights {
            Weights::Dense(data) => data[t * self.k + c],
            Weights::Postings(postings) => postings.get(t, c),
        }
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
    /// where `first` is the run's first term. The block must be dense.
    pub fn slab_runs_mut(&mut self, slabs: usize) -> ChunksMut<'_, f64> {
        let run = (slabs * SLAB_TERMS * self.k).max(1);
        self.dense_mut().chunks_mut(run)
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

    /// Whether the rows are in the postings form.
    pub fn is_postings(&self) -> bool {
        matches!(self.weights, Weights::Postings(_))
    }

    /// The `(cluster, weight)` entries of the postings form; 0 for the
    /// dense form.
    pub fn postings_len(&self) -> usize {
        match &self.weights {
            Weights::Dense(_) => 0,
            Weights::Postings(postings) => postings.weights.len(),
        }
    }

    /// Cross-products of `x` against all `k` centroids in one sweep over
    /// `x`'s non-zeros: `out[c] = x · centroid_c`. `out` must have length
    /// `k`. Terms at or beyond `dim` contribute zero (matching
    /// [`SparseVec::dot_dense`]).
    pub fn dots_into(&self, x: &SparseVec, out: &mut [f64]) {
        assert_eq!(out.len(), self.k, "output length must equal k");
        out.fill(0.0);
        let k = self.k;
        let terms = x.iter().filter(|&(t, _)| (t as usize) < self.dim);
        match &self.weights {
            Weights::Dense(data) => {
                for (t, w) in terms {
                    let t = t as usize;
                    let row = &data[t * k..t * k + k];
                    // 4-wide unroll across the k independent
                    // accumulators; each still sees its adds in term
                    // order.
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
            Weights::Postings(postings) => {
                for (t, w) in terms {
                    let (clusters, weights) = postings.row(t as usize);
                    for (&c, &r) in clusters.iter().zip(weights) {
                        out[c as usize] += w * r;
                    }
                }
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
    /// pruned path's single-centroid kernel (strided gather or a search
    /// of each postings row, same op order as the full sweep's
    /// accumulator `c`).
    pub fn distance_to(&self, x: &SparseVec, c: usize) -> f64 {
        assert!(c < self.k, "centroid index {c} out of range");
        let k = self.k;
        let mut cross = 0.0;
        let terms = x.iter().filter(|&(t, _)| (t as usize) < self.dim);
        match &self.weights {
            Weights::Dense(data) => {
                for (t, w) in terms {
                    cross += w * data[t as usize * k + c];
                }
            }
            Weights::Postings(postings) => {
                for (t, w) in terms {
                    cross += w * postings.get(t as usize, c);
                }
            }
        }
        (x.norm_sq() - 2.0 * cross + self.norms[c]).max(0.0)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        let weights = match &self.weights {
            Weights::Dense(data) => data.capacity() * std::mem::size_of::<f64>(),
            Weights::Postings(p) => {
                p.offsets.capacity() * std::mem::size_of::<usize>()
                    + p.clusters.capacity() * std::mem::size_of::<u32>()
                    + p.weights.capacity() * std::mem::size_of::<f64>()
            }
        };
        weights + self.norms.capacity() * std::mem::size_of::<f64>()
    }
}

impl PartialEq for CentroidBlock {
    fn eq(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        (self.k, self.dim) == (other.k, other.dim)
            && bits(&self.norms) == bits(&other.norms)
            && (0..self.dim)
                .all(|t| (0..self.k).all(|c| self.get(t, c).to_bits() == other.get(t, c).to_bits()))
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

    /// Mostly-zero centroids: negative weights, one `-0.0`, every fourth
    /// centroid empty and every ninth term's row empty.
    fn sparse_centroids(k: usize, dim: usize) -> Vec<DenseVec> {
        let weight = |c: usize, t: usize| match () {
            _ if c % 4 == 3 || t % 9 == 4 => 0.0,
            _ if (c, t) == (1, 2) => -0.0,
            _ if (c * 31 + t * 7).is_multiple_of(5) => ((c * 13 + t * 3) % 11) as f64 * 0.37 - 1.9,
            _ => 0.0,
        };
        (0..k)
            .map(|c| DenseVec::from_vec((0..dim).map(|t| weight(c, t)).collect()))
            .collect()
    }

    /// The postings form of `cs`, through the public writer.
    fn postings_of(cs: &[DenseVec]) -> CentroidBlock {
        let dim = cs.first().map_or(0, |c| c.len());
        let norms: Vec<f64> = cs.iter().map(DenseVec::norm_sq).collect();
        let mut block = CentroidBlock::default();
        block.write_postings(dim, &norms, |c| {
            cs[c].as_slice().iter().copied().enumerate()
        });
        block
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn both_forms_give_the_same_bits() {
        let docs = [
            doc(&[]),
            doc(&[(0, 0.3), (2, -1.7), (4, 0.5)]),
            doc(&[(1, -2.5), (17, 2.25), (39, 0.001), (129, 4.0)]),
            // Terms at and beyond every `dim` below.
            doc(&[(3, 1.0), (130, -3.0), (1000, 7.0)]),
        ];
        for k in [1, 3, 4, 8, 11, 128] {
            for dim in [0, 1, 40, 130] {
                let cs = sparse_centroids(k, dim);
                let dense = CentroidBlock::from_centroids(&cs);
                let postings = postings_of(&cs);
                let label = format!("k={k} dim={dim}");
                assert!(postings.is_postings() && !dense.is_postings(), "{label}");
                assert_eq!((postings.k(), postings.dim()), (k, dim), "{label}");
                assert_eq!(bits(postings.norms()), bits(dense.norms()), "{label}");
                assert_eq!(postings, dense, "{label}");
                let stored = cs
                    .iter()
                    .flat_map(|c| c.as_slice())
                    .filter(|w| w.to_bits() != 0);
                assert_eq!(postings.postings_len(), stored.count(), "{label}");
                for x in &docs {
                    let (mut a, mut b) = (vec![0.0; k], vec![0.0; k]);
                    dense.dots_into(x, &mut a);
                    postings.dots_into(x, &mut b);
                    assert_eq!(bits(&a), bits(&b), "{label} dots");
                    for (c, centroid) in cs.iter().enumerate() {
                        let reference = x.dot_dense(centroid.as_slice());
                        assert_eq!(b[c].to_bits(), reference.to_bits(), "{label} c={c}");
                    }
                    dense.distances_into(x, &mut a);
                    postings.distances_into(x, &mut b);
                    assert_eq!(bits(&a), bits(&b), "{label} distances");
                    for (c, swept) in b.iter().enumerate() {
                        let (d, p) = (dense.distance_to(x, c), postings.distance_to(x, c));
                        assert_eq!(d.to_bits(), p.to_bits(), "{label} c={c}");
                        assert_eq!(p.to_bits(), swept.to_bits(), "{label} c={c}");
                    }
                }
                for (c, centroid) in cs.iter().enumerate() {
                    let row = postings.centroid(c);
                    assert_eq!(bits(row.as_slice()), bits(centroid.as_slice()), "{label}");
                    for t in 0..dim {
                        assert_eq!(postings.get(t, c).to_bits(), dense.get(t, c).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn postings_are_rewritten_in_place() {
        let (k, dim) = (11, 130);
        let (first, second) = (sparse_centroids(k, dim), centroids(k, dim));
        let norms: Vec<f64> = second.iter().map(DenseVec::norm_sq).collect();
        // Over a dense block, then over postings of other centroids.
        let mut block = CentroidBlock::from_centroids(&first);
        for _ in 0..2 {
            block.write_postings(dim, &norms, |c| {
                second[c].as_slice().iter().copied().enumerate()
            });
            assert!(block.is_postings());
            assert_eq!(block, CentroidBlock::from_centroids(&second));
        }
        // Terms in any order, zeros left out.
        let sparse = sparse_centroids(k, dim);
        let norms: Vec<f64> = sparse.iter().map(DenseVec::norm_sq).collect();
        block.write_postings(dim, &norms, |c| {
            let row = sparse[c].as_slice().iter().copied().enumerate();
            row.rev().filter(|(_, w)| *w != 0.0 || w.is_sign_negative())
        });
        assert_eq!(block, postings_of(&sparse));
    }

    #[test]
    fn postings_runs_filled_in_any_order_equal_the_serial_writer() {
        for k in [1, 3, 11, 128] {
            for dim in [0, 1, SLAB_TERMS, SLAB_TERMS + 1, 3 * SLAB_TERMS + 7] {
                let cs = sparse_centroids(k, dim);
                let norms: Vec<f64> = cs.iter().map(DenseVec::norm_sq).collect();
                let stored = |c: usize, terms: std::ops::Range<usize>| {
                    let row = cs[c].as_slice()[terms.clone()].iter().copied();
                    let row = terms.zip(row);
                    row.filter(|(_, w)| w.to_bits() != 0)
                };
                for slabs in [1, 2, 5] {
                    let run_terms = slabs * SLAB_TERMS;
                    let terms = |run: usize| run * run_terms..((run + 1) * run_terms).min(dim);
                    // Over a dense block, runs counted and filled last
                    // to first.
                    let mut block = CentroidBlock::from_centroids(&centroids(k, dim));
                    block.write_postings_runs(
                        dim,
                        &norms,
                        slabs,
                        |mut rows| {
                            assert_eq!(rows.len(), dim.div_ceil(run_terms));
                            for (run, lengths) in rows.iter_mut().enumerate().rev() {
                                for c in 0..k {
                                    let first = run * run_terms;
                                    stored(c, terms(run))
                                        .for_each(|(t, _)| lengths[t - first] += 1);
                                }
                            }
                        },
                        |runs| {
                            for (run, writer) in runs.iter_mut().enumerate().rev() {
                                for c in 0..k {
                                    stored(c, terms(run)).for_each(|(t, w)| writer.push(t, c, w));
                                }
                            }
                        },
                    );
                    let label = format!("k={k} dim={dim} slabs={slabs}");
                    assert!(block.is_postings(), "{label}");
                    assert_eq!(block, postings_of(&cs), "{label}");
                    assert_eq!(block, CentroidBlock::from_centroids(&cs), "{label}");
                    for t in 0..dim {
                        let Weights::Postings(postings) = &block.weights else {
                            unreachable!()
                        };
                        let (clusters, _) = postings.row(t);
                        assert!(clusters.windows(2).all(|w| w[0] < w[1]), "{label} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong count")]
    fn a_run_left_short_panics() {
        let cs = sparse_centroids(3, 10);
        let norms: Vec<f64> = cs.iter().map(DenseVec::norm_sq).collect();
        CentroidBlock::default().write_postings_runs(
            10,
            &norms,
            1,
            |mut rows| rows[0][2] = 1,
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "no dense weights")]
    fn dense_writers_refuse_a_postings_block() {
        postings_of(&sparse_centroids(3, 10)).set_centroid(0, &[0.0; 10]);
    }

    #[test]
    fn equality_compares_bits_across_forms() {
        let cs = sparse_centroids(4, 20);
        let postings = postings_of(&cs);
        let mut other = cs.clone();
        other[0] = DenseVec::from_vec(vec![0.0; 20]);
        // Equal once centroid 0 is rewritten; then one weight flipped
        // from `+0.0` to `-0.0`, norms unchanged.
        let mut flipped = CentroidBlock::from_centroids(&other);
        flipped.set_centroid(0, cs[0].as_slice());
        assert_eq!(flipped, postings);
        let mut signed = cs[0].as_slice().to_vec();
        assert_eq!(signed[1].to_bits(), 0);
        signed[1] = -0.0;
        flipped.set_centroid(0, &signed);
        assert_eq!(bits(flipped.norms()), bits(postings.norms()));
        assert_ne!(flipped, postings);
        let mut renormed = CentroidBlock::from_centroids(&cs);
        renormed.norms_mut()[1] = -renormed.norms()[1];
        assert_ne!(renormed, postings);
        assert_ne!(CentroidBlock::from_centroids(&cs[..3]), postings);
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
