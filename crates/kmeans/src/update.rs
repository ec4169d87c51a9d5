//! The owner-computes centroid update.
//!
//! The assignment loop leaves one cluster index and one squared distance
//! per document. [`Membership::regroup`] (serial, O(n)) sums the
//! distances in document order — the inertia — and counting-sorts the
//! documents into per-cluster member lists; `fit` then recomputes each
//! cluster in exactly one task, adding its members in document order
//! into a `dim`-sized buffer that stays in cache. No sum is ever split
//! between tasks, so the model is the same bits at every thread count
//! and grain.
//!
//! Under the blocked kernels each centroid is its cluster's [`Column`]
//! — a term mask and the weights of its set bits — and the term-major
//! [`CentroidBlock`] the assignment sweeps is written from the columns,
//! so a cluster's update reaches it in two steps. **Step 1**
//! ([`Column::recompute`], one task per run of clusters): while the
//! members are added into the sum each of their terms is also OR-ed into
//! a `dim`-bit mask; the mask of the column's current support is OR-ed
//! in, and the set bits are walked in ascending term order — old weight
//! from the column's previous values, scale, movement², norm², clear the
//! sum slot, append the new weight to the column's value list. An empty
//! cluster's column is left as it is. **Step 2** ([`write`]): the
//! columns, shared read-only, become the block in the form a full sweep
//! prices cheaper ([`Sweep::cheaper`]), one task per run of term slabs
//! either way: dense through [`scatter`] (every column's values written
//! to their place in the run), or postings through [`postings`] (a
//! counting sort of the columns' non-zero weights by term, split by
//! run: each run counts its rows, a serial prefix places the runs, each
//! run fills its own range). The work follows the members'
//! non-zeros plus `dim / 64` mask words plus the old and new supports.
//! Only a cluster whose members hold at least `dim` non-zeros looks at
//! all `dim` slots of its sum, once, to find the non-zero ones — fewer
//! operations than marking each non-zero as it is added.
//!
//! This is bit-identical to the dense pass
//! ([`DenseVec::replace_with_scaled`](hpa_sparse::DenseVec::replace_with_scaled),
//! which the naive kernel's row-major centroids still take): the
//! surviving operations keep their term order, and every skipped term
//! has a `+0.0` sum and a `+0.0` old weight, so it contributed an exact
//! `+0.0` to two non-negative running sums. The one exception is the
//! `-0.0` that `Iterator::sum` starts from, which survives only when
//! there is no term at all — see [`zero_sum`].

use crate::assign::ChunkState;
use crate::cost::{self, Sweep};
use hpa_exec::sync::Mutex;
use hpa_exec::Exec;
use hpa_sparse::block::SLAB_TERMS;
use hpa_sparse::{CentroidBlock, SparseVec};
use std::ops::Range;

/// Documents grouped by assigned cluster.
pub(crate) struct Membership {
    /// Document indices, cluster by cluster, in document order within
    /// each cluster.
    members: Vec<u32>,
    /// Cluster `c` owns `members[ends[c - 1]..ends[c]]`.
    ends: Vec<usize>,
}

impl Membership {
    /// Room for `n` documents in `k` clusters.
    pub fn new(n: usize, k: usize) -> Self {
        Membership {
            members: vec![0; n],
            ends: vec![0; k],
        }
    }

    /// Regroup by the assignments in `chunks` (consecutive, covering all
    /// documents) and return the inertia.
    pub fn regroup(&mut self, chunks: &[Mutex<ChunkState<'_>>]) -> f64 {
        let mut inertia = 0.0;
        self.ends.fill(0);
        for chunk in chunks {
            let chunk = chunk.lock();
            for (&a, &d) in chunk.assign.iter().zip(chunk.best_d.iter()) {
                self.ends[a as usize] += 1;
                inertia += d;
            }
        }
        // Counts become start offsets; placing a cluster's documents
        // then advances each offset to the cluster's end.
        let mut start = 0;
        for end in &mut self.ends {
            start += std::mem::replace(end, start);
        }
        let mut doc = 0u32;
        for chunk in chunks {
            for &a in chunk.lock().assign.iter() {
                let slot = &mut self.ends[a as usize];
                self.members[*slot] = doc;
                *slot += 1;
                doc += 1;
            }
        }
        inertia
    }

    /// The documents of cluster `c`, in document order.
    pub fn of(&self, c: usize) -> &[u32] {
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.members[start..self.ends[c]]
    }
}

/// What `Iterator::sum` returns for the squares of `dim` weights that
/// are all zero: it starts from `-0.0`, which the first `+0.0` turns
/// into `+0.0`. A sum over only the non-zero terms starts here.
fn zero_sum(dim: usize) -> f64 {
    if dim == 0 {
        -0.0
    } else {
        0.0
    }
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        (word != 0).then(|| {
            word &= word - 1;
            bit
        })
    })
}

/// Per-term document counts of the corpus and its number of non-zeros:
/// what turns the columns' supports into the mean length of the postings
/// rows a full sweep visits.
pub(crate) struct DocCounts {
    per_term: Vec<u32>,
    nnz: u64,
}

impl DocCounts {
    /// Count `vectors`, whose terms are below `dim`.
    pub fn count(vectors: &[SparseVec], dim: usize) -> Self {
        let mut per_term = vec![0u32; dim];
        for &t in vectors.iter().flat_map(SparseVec::terms) {
            per_term[t as usize] += 1;
        }
        let nnz = vectors.iter().map(|x| x.nnz() as u64).sum();
        DocCounts { per_term, nnz }
    }
}

/// One cluster's centroid as the update keeps it, step 1 hands it to
/// step 2 and the postings form is written from it. The masks hold one
/// bit per term, one word per term slab.
#[derive(Debug, Clone)]
pub(crate) struct Column {
    /// Terms whose weight may differ from `+0.0`.
    support: Vec<u64>,
    /// Terms `values` holds a weight for: the support before the last
    /// recompute ∪ the support after it.
    walk: Vec<u64>,
    /// The weight of every `walk` term, in ascending term order. This is
    /// the centroid: every other term is `+0.0`.
    values: Vec<f64>,
    /// The support before the last recompute, which read its old weights
    /// by it; recycled.
    old_support: Vec<u64>,
    /// Postings entries a full sweep visits for this centroid: the
    /// document counts of its terms whose weight is not `+0.0`. Zero
    /// when not counted.
    reach: u64,
}

const _: () = assert!(SLAB_TERMS == u64::BITS as usize);

impl Column {
    /// The column of a centroid seeded with document `x`, and its squared
    /// norm. Bit-identical to `DenseVec::zeros(dim)` + `add_sparse(x)` +
    /// `norm_sq()`.
    pub fn seeded(x: &SparseVec, dim: usize, counts: Option<&DocCounts>) -> (Self, f64) {
        let mut walk = vec![0u64; dim.div_ceil(SLAB_TERMS)];
        for &t in x.terms() {
            walk[t as usize / SLAB_TERMS] |= 1 << (t as usize % SLAB_TERMS);
        }
        let values: Vec<f64> = x.weights().iter().map(|w| 0.0 + w).collect();
        let norm = values.iter().fold(zero_sum(dim), |sum, v| sum + v * v);
        let mut column = Column {
            support: walk.clone(),
            old_support: vec![0; walk.len()],
            walk,
            values,
            reach: 0,
        };
        if let Some(counts) = counts {
            column.reach = column
                .entries()
                .map(|(t, _)| counts.per_term[t] as u64)
                .sum();
        }
        (column, norm)
    }

    /// Number of weights the last recompute produced — an upper bound on
    /// the size of the support.
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// The `(term, weight)` pairs whose weight is not `+0.0`, ascending.
    fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let terms = self
            .walk
            .iter()
            .enumerate()
            .flat_map(|(slab, &word)| ones(word).map(move |bit| slab * SLAB_TERMS + bit));
        terms
            .zip(self.values.iter().copied())
            .filter(|(_, w)| w.to_bits() != 0)
    }

    /// Step 1: the mean of `members` (added in the order given, `mean` =
    /// 1 / their number) becomes the column's values and support, and —
    /// with `counts` — its reach. `sum` must be `dim` zeros and is left
    /// so. Returns the squared distance the centroid moves by and its new
    /// squared norm.
    pub fn recompute<'a>(
        &mut self,
        sum: &mut [f64],
        members: impl Iterator<Item = &'a SparseVec> + Clone,
        mean: f64,
        counts: Option<&DocCounts>,
    ) -> (f64, f64) {
        // The old weights: the support's alone. The last recompute also
        // stored a `+0.0` for each term that left the support, which is
        // `+0.0` without it.
        let walked = self.walk.iter().zip(&self.support);
        let mut in_support =
            walked.flat_map(|(&walk, &support)| ones(walk).map(move |bit| support >> bit & 1 == 1));
        self.values.retain(|_| in_support.next() == Some(true));
        let kept = self.values.len();
        self.old_support.copy_from_slice(&self.support);
        // The members' terms: marked one read-modify-write per non-zero,
        // or — when the members bring at least as many non-zeros as
        // there are terms — read off the sum, one compare per term. (A
        // sum that cancelled to zero then counts as untouched, which it
        // is: it needs neither clearing nor, outside the old support,
        // storing.)
        if members.clone().map(SparseVec::nnz).sum::<usize>() < sum.len() {
            self.walk.fill(0);
            for x in members {
                for (t, w) in x.iter() {
                    let t = t as usize;
                    sum[t] += w;
                    self.walk[t / SLAB_TERMS] |= 1 << (t % SLAB_TERMS);
                }
            }
        } else {
            for x in members {
                for (t, w) in x.iter() {
                    sum[t as usize] += w;
                }
            }
            for (walk, slab) in self.walk.iter_mut().zip(sum.chunks(SLAB_TERMS)) {
                let mask = |mask, s: &f64| mask << 1 | u64::from(*s != 0.0);
                *walk = slab.iter().rev().fold(0, mask);
            }
        }
        for (walk, support) in self.walk.iter_mut().zip(&mut self.support) {
            let touched = *walk;
            *walk |= *support;
            *support = touched;
        }
        // The old weights move to the end of a list as long as the new
        // walk, which holds the old support: no term's new place is then
        // past an old weight not yet read, so the walk overwrites them in
        // place.
        let stored = popcount(&self.walk);
        let mut old = stored - kept;
        self.values.resize(stored, 0.0);
        self.values.copy_within(0..kept, old);
        self.reach = 0;
        let (mut moved, mut norm) = (zero_sum(sum.len()), zero_sum(sum.len()));
        let mut next = 0;
        for (slab, (&word, &was)) in self.walk.iter().zip(&self.old_support).enumerate() {
            for bit in ones(word) {
                let t = slab * SLAB_TERMS + bit;
                let prior = if was >> bit & 1 == 1 {
                    old += 1;
                    self.values[old - 1]
                } else {
                    0.0
                };
                let fresh = std::mem::take(&mut sum[t]) * mean;
                let step = prior - fresh;
                moved += step * step;
                norm += fresh * fresh;
                if let Some(counts) = counts.filter(|_| fresh.to_bits() != 0) {
                    self.reach += counts.per_term[t] as u64;
                }
                self.values[next] = fresh;
                next += 1;
            }
        }
        (moved, norm)
    }
}

/// Write the columns into `block`, with these norms, in the form a full
/// sweep prices cheaper: postings through [`postings`] when `counts` says
/// their rows are short enough, else dense through [`scatter`] — over a
/// fresh zero block unless the block already is a dense one of `k`
/// centroids. Returns the form and, when tracing, the write's predicted
/// nanoseconds — a part of the caller's `kmeans/update` prediction.
pub(crate) fn write(
    exec: &Exec,
    block: &mut CentroidBlock,
    columns: &[Column],
    norms: &[f64],
    dim: usize,
    counts: Option<&DocCounts>,
) -> (Sweep, u64) {
    let k = columns.len();
    let sweep = counts.map_or(Sweep::Dense, |counts| {
        let reach: u64 = columns.iter().map(|column| column.reach).sum();
        Sweep::cheaper(k, reach as f64 / counts.nnz.max(1) as f64)
    });
    if sweep == Sweep::Dense {
        if block.is_postings() || block.k() != k {
            *block = CentroidBlock::zeros(k, dim);
        }
        return (sweep, scatter(exec, block, columns, norms));
    }
    (sweep, postings(exec, block, columns, norms, dim))
}

/// Term slabs per run of step 2's tasks, out of `slabs`.
fn run_slabs(exec: &Exec, slabs: usize) -> usize {
    slabs
        .div_ceil(exec.threads() * crate::UPDATE_TASKS_PER_THREAD)
        .max(1)
}

/// The term slabs, out of `slabs`, of the runs of `run_slabs` in `runs`.
fn slabs_of(runs: Range<usize>, run_slabs: usize, slabs: usize) -> Range<usize> {
    runs.start * run_slabs..(runs.end * run_slabs).min(slabs)
}

/// The weights `columns` store for the terms of `slabs`.
fn stored_in(columns: &[Column], slabs: Range<usize>) -> usize {
    let values = columns
        .iter()
        .map(|column| popcount(&column.walk[slabs.clone()]));
    values.sum()
}

/// Step 2 for a dense block: install `norms` and write every column's
/// values into `block`, one task per run of term slabs. Returns, when
/// tracing, the region's predicted nanoseconds.
fn scatter(exec: &Exec, block: &mut CentroidBlock, columns: &[Column], norms: &[f64]) -> u64 {
    block.norms_mut().copy_from_slice(norms);
    let (k, slabs) = (block.k(), block.dim().div_ceil(SLAB_TERMS));
    let run_slabs = run_slabs(exec, slabs);
    let cost = |runs: Range<usize>| {
        let slabs = slabs_of(runs, run_slabs, slabs);
        cost::scatter_cost(k, slabs.len(), stored_in(columns, slabs))
    };
    let runs: Vec<Mutex<&mut [f64]>> = block.slab_runs_mut(run_slabs).map(Mutex::new).collect();
    let predicted = if hpa_trace::is_enabled() {
        exec.predict_region_ns(runs.len(), 1, cost)
    } else {
        0
    };
    exec.par_chunks(
        runs.len(),
        1,
        |range| {
            for run in range {
                scatter_run(&mut runs[run].lock(), run * run_slabs, columns);
            }
        },
        cost,
    );
    predicted
}

/// [`scatter`] for one run of term slabs starting at slab `first_slab`
/// (a slice from [`CentroidBlock::slab_runs_mut`]). Slab by slab, so
/// that the `64 × k` weights being written stay in cache while all `k`
/// columns visit them.
fn scatter_run(run: &mut [f64], first_slab: usize, columns: &[Column]) {
    let k = columns.len();
    let mut cursors = cursors_at(columns, first_slab);
    for (slab, weights) in run.chunks_mut(SLAB_TERMS * k).enumerate() {
        for (c, column) in columns.iter().enumerate() {
            for bit in ones(column.walk[first_slab + slab]) {
                weights[bit * k + c] = column.values[cursors[c]];
                cursors[c] += 1;
            }
        }
    }
}

/// Step 2 for the postings form: the block becomes the columns' weights
/// that are not `+0.0`, with these norms, through
/// [`CentroidBlock::write_postings_runs`] — one task per run of term
/// slabs counts the entries of its rows, and once the block has placed
/// the runs, one task per run fills them. Returns, when tracing, the
/// write's predicted nanoseconds.
fn postings(
    exec: &Exec,
    block: &mut CentroidBlock,
    columns: &[Column],
    norms: &[f64],
    dim: usize,
) -> u64 {
    let (k, slabs) = (columns.len(), dim.div_ceil(SLAB_TERMS));
    let run_slabs = run_slabs(exec, slabs);
    let cost = |runs: Range<usize>| {
        let slabs = slabs_of(runs, run_slabs, slabs);
        cost::postings_pass_cost(k, slabs.len(), stored_in(columns, slabs))
    };
    let predicted = if hpa_trace::is_enabled() {
        2 * exec.predict_region_ns(slabs.div_ceil(run_slabs), 1, cost)
    } else {
        0
    };
    let run_slabs_of = |run: usize| slabs_of(run..run + 1, run_slabs, slabs);
    block.write_postings_runs(
        dim,
        norms,
        run_slabs,
        |rows| {
            let rows: Vec<Mutex<&mut [usize]>> = rows.into_iter().map(Mutex::new).collect();
            exec.par_chunks(
                rows.len(),
                1,
                |range| {
                    for run in range {
                        let lengths = &mut **rows[run].lock();
                        let slabs = run_slabs_of(run);
                        let first = slabs.start * SLAB_TERMS;
                        for_each_entry(columns, slabs, |t, _, _| lengths[t - first] += 1);
                    }
                },
                cost,
            );
        },
        |runs| {
            let runs: Vec<_> = runs.iter_mut().map(Mutex::new).collect();
            exec.par_chunks(
                runs.len(),
                1,
                |range| {
                    for run in range {
                        let writer = &mut **runs[run].lock();
                        for_each_entry(columns, run_slabs_of(run), |t, c, w| writer.push(t, c, w));
                    }
                },
                cost,
            );
        },
    );
    predicted
}

/// Each column's cursor into its values at term slab `slab`: the number
/// of weights it stores for the terms before it.
fn cursors_at(columns: &[Column], slab: usize) -> Vec<usize> {
    columns
        .iter()
        .map(|column| popcount(&column.walk[..slab]))
        .collect()
}

/// Every column's weights that are not `+0.0` in term slabs `slabs`,
/// column by column in term order, as `entry(term, column, weight)` —
/// so each row sees its clusters ascending.
fn for_each_entry(
    columns: &[Column],
    slabs: Range<usize>,
    mut entry: impl FnMut(usize, usize, f64),
) {
    let cursors = cursors_at(columns, slabs.start);
    for (c, (column, mut cursor)) in columns.iter().zip(cursors).enumerate() {
        for slab in slabs.clone() {
            for bit in ones(column.walk[slab]) {
                let weight = column.values[cursor];
                cursor += 1;
                if weight.to_bits() != 0 {
                    entry(slab * SLAB_TERMS + bit, c, weight);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_sparse::DenseVec;

    const K: usize = 3;
    /// The column the rounds update; its neighbours only keep.
    const C: usize = 1;

    /// A block whose columns go through [`Column`] + [`scatter`], next to
    /// row-major centroids that take the dense pass.
    struct Twin {
        block: CentroidBlock,
        columns: Vec<Column>,
        rows: Vec<DenseVec>,
        dim: usize,
        /// Made-up document counts, for the columns' reach.
        counts: DocCounts,
        /// Slabs per scatter run; changed between rounds.
        run_slabs: usize,
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    impl Twin {
        fn seeded(seeds: [&SparseVec; K], dim: usize) -> Self {
            let counts = DocCounts {
                per_term: (0..dim).map(|t| t as u32 % 7 + 1).collect(),
                nnz: 1,
            };
            let (columns, norms): (Vec<Column>, Vec<f64>) = seeds
                .iter()
                .map(|x| Column::seeded(x, dim, Some(&counts)))
                .unzip();
            let rows: Vec<DenseVec> = seeds
                .iter()
                .map(|x| {
                    let mut row = DenseVec::zeros(dim);
                    row.add_sparse(x);
                    row
                })
                .collect();
            let mut twin = Twin {
                block: CentroidBlock::zeros(K, dim),
                columns,
                rows,
                dim,
                counts,
                run_slabs: 1,
            };
            twin.scatter(&norms);
            for (row, norm) in twin.rows.iter().zip(&norms) {
                assert_eq!(norm.to_bits(), row.norm_sq().to_bits(), "seed norm");
            }
            twin.assert_same("seeded");
            twin
        }

        /// Step 2, runs filled last to first.
        fn scatter(&mut self, norms: &[f64]) {
            self.block.norms_mut().copy_from_slice(norms);
            let runs: Vec<&mut [f64]> = self.block.slab_runs_mut(self.run_slabs).collect();
            for (index, run) in runs.into_iter().enumerate().rev() {
                scatter_run(run, index * self.run_slabs, &self.columns);
            }
        }

        fn assert_same(&self, label: &str) {
            for (c, row) in self.rows.iter().enumerate() {
                let column = self.block.centroid(c);
                assert_eq!(
                    bits(column.as_slice()),
                    bits(row.as_slice()),
                    "{label} c={c}"
                );
                // Everything outside the support is `+0.0`.
                for t in 0..self.dim {
                    let bit = self.columns[c].support[t / SLAB_TERMS] >> (t % SLAB_TERMS) & 1;
                    assert!(
                        bit == 1 || self.block.get(t, c).to_bits() == 0,
                        "{label} t={t}"
                    );
                }
                // The column alone is the centroid, and knows its reach.
                let mut own = vec![0.0; self.dim];
                let mut reach = 0;
                for (t, w) in self.columns[c].entries() {
                    own[t] = w;
                    reach += self.counts.per_term[t] as u64;
                }
                assert_eq!(bits(&own), bits(row.as_slice()), "{label} c={c} own");
                assert_eq!(self.columns[c].reach, reach, "{label} c={c} reach");
            }
            // Postings written from the columns hold the same centroids.
            let mut postings = CentroidBlock::default();
            let columns = &self.columns;
            postings.write_postings(self.dim, self.block.norms(), |c| columns[c].entries());
            assert_eq!(postings, self.block, "{label} postings");
        }

        /// One update of column `C` from `members` on both sides; the
        /// other columns are empty clusters, which keep theirs. Returns
        /// `(moved², norm²)`.
        fn round(&mut self, members: &[SparseVec], label: &str) -> (f64, f64) {
            let mean = 1.0 / members.len() as f64;
            let mut dense_sum = DenseVec::zeros(self.dim);
            members.iter().for_each(|x| dense_sum.add_sparse(x));
            let (dense_moved, dense_norm) = self.rows[C].replace_with_scaled(&mut dense_sum, mean);

            let mut norms = self.block.norms().to_vec();
            let mut sum = vec![0.0; self.dim];
            let counts = Some(&self.counts);
            let (moved, norm) = self.columns[C].recompute(&mut sum, members.iter(), mean, counts);
            assert_eq!(moved.to_bits(), dense_moved.to_bits(), "{label} moved");
            assert_eq!(norm.to_bits(), dense_norm.to_bits(), "{label} norm");
            norms[C] = norm;
            assert_eq!(
                bits(&sum),
                bits(&vec![0.0; self.dim]),
                "{label}: sum left zeroed"
            );
            self.scatter(&norms);
            self.assert_same(label);
            (dense_moved, dense_norm)
        }
    }

    fn doc(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// `count` documents of up to `nnz` terms below `dim`, some weights
    /// negative.
    fn docs(rng: &mut hpa_rng::SplitMix64, count: usize, nnz: usize, dim: usize) -> Vec<SparseVec> {
        (0..count)
            .map(|_| {
                (0..rng.gen_index(nnz + 1).min(dim))
                    .map(|_| (rng.gen_index(dim) as u32, rng.gen_range_f64(-2.0, 2.0)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sparse_update_matches_the_dense_pass_bitwise() {
        let mut rng = hpa_rng::SplitMix64::seed_from_u64(0x5EED);
        // Rounds whose members' terms were marked / read off the sum.
        let (mut marked, mut scanned) = (0, 0);
        for dim in [0, 1, 63, 64, 65, 3 * 64 + 7] {
            let seeds = docs(&mut rng, K, 9, dim);
            let mut twin = Twin::seeded([&seeds[0], &seeds[1], &seeds[2]], dim);
            for (round, run_slabs) in [1, 2, 7, 1].into_iter().enumerate() {
                twin.run_slabs = run_slabs;
                let label = format!("dim={dim} round={round}");
                let mut members = docs(&mut rng, 1 + round * 3, 12, dim);
                if dim > 0 {
                    // The last term, in the partly-used last mask word.
                    members.push(doc(&[(dim as u32 - 1, 0.37)]));
                }
                if members.iter().map(SparseVec::nnz).sum::<usize>() < dim {
                    marked += 1;
                } else {
                    scanned += 1;
                }
                twin.round(&members, &label);
            }
        }
        assert!(
            marked >= 4 && scanned >= 4,
            "{marked} marked, {scanned} scanned"
        );
    }

    #[test]
    fn all_zero_members_give_positive_zero_unless_there_is_no_term() {
        let empty = SparseVec::new();
        // Nothing touched, `dim > 0`: `+0.0`, as the dense pass's first
        // `+0.0` would have made it.
        let mut twin = Twin::seeded([&empty; K], 70);
        let (moved, norm) = twin.round(&[empty.clone(), empty.clone()], "zero members");
        assert_eq!((moved.to_bits(), norm.to_bits()), (0, 0));
        // `dim == 0`: `Iterator::sum`'s `-0.0` survives on both sides.
        let mut twin = Twin::seeded([&empty; K], 0);
        let (moved, norm) = twin.round(std::slice::from_ref(&empty), "no terms");
        assert_eq!(
            (moved.to_bits(), norm.to_bits()),
            ((-0.0f64).to_bits(), (-0.0f64).to_bits())
        );
        // A non-zero centroid whose members are all zero moves to zero.
        let seed = doc(&[(3, 1.5), (69, -0.5)]);
        let mut twin = Twin::seeded([&empty, &seed, &empty], 70);
        let (moved, norm) = twin.round(std::slice::from_ref(&empty), "to zero");
        assert_eq!((moved, norm.to_bits()), (1.5 * 1.5 + 0.5 * 0.5, 0));
    }

    fn execs() -> [Exec; 3] {
        let machine = hpa_exec::MachineModel::default();
        [
            Exec::sequential(),
            Exec::pool(2),
            Exec::simulated(4, machine),
        ]
    }

    /// The dense block of the columns' entries, with these norms.
    fn dense_of(columns: &[Column], norms: &[f64], dim: usize) -> CentroidBlock {
        let mut dense = CentroidBlock::zeros(columns.len(), dim);
        for (c, column) in columns.iter().enumerate() {
            let mut row = vec![0.0; dim];
            column.entries().for_each(|(t, w)| row[t] = w);
            dense.set_centroid(c, &row);
        }
        dense.norms_mut().copy_from_slice(norms);
        dense
    }

    #[test]
    fn write_takes_the_priced_form_and_switches_both_ways() {
        let (k, dim) = (16, 200);
        // Every term in one document: a column's reach is its number of
        // stored weights, and `L` is their total over the corpus's
        // non-zeros — short rows over a large corpus, long over a tiny
        // one.
        let counts = |nnz| DocCounts {
            per_term: vec![1; dim],
            nnz,
        };
        let (large, tiny) = (counts(1 << 20), counts(1));
        for exec in execs() {
            let mut rng = hpa_rng::SplitMix64::seed_from_u64(0xF0);
            let seeds = docs(&mut rng, k, 9, dim);
            let (mut columns, mut norms): (Vec<Column>, Vec<f64>) = seeds
                .iter()
                .map(|x| Column::seeded(x, dim, Some(&large)))
                .unzip();
            let mut block = CentroidBlock::default();
            for (round, counts) in [&large, &tiny, &large, &tiny, &tiny]
                .into_iter()
                .enumerate()
            {
                if round > 0 {
                    // Move one centroid between writes.
                    let members = docs(&mut rng, 3, 12, dim);
                    let mut sum = vec![0.0; dim];
                    let column = &mut columns[round];
                    (_, norms[round]) = column.recompute(&mut sum, members.iter(), 1.0 / 3.0, None);
                }
                let (sweep, _) = write(&exec, &mut block, &columns, &norms, dim, Some(counts));
                let postings = std::ptr::eq(counts, &large);
                let label = format!("{exec:?} round {round}");
                assert_eq!(block.is_postings(), postings, "{label}");
                assert_eq!(sweep != Sweep::Dense, postings, "{label}");
                assert_eq!(block, dense_of(&columns, &norms, dim), "{label}");
            }
            // Without counts, dense.
            let (sweep, _) = write(&exec, &mut block, &columns, &norms, dim, None);
            assert_eq!(sweep, Sweep::Dense);
        }

        // The postings writer alone, at shapes the price never sends to
        // it (`k` 1) and at edges: an empty column, `dim` not a multiple
        // of 64 or 0, and fewer slabs than the runs `pool(2)` (8) and
        // `simulated(4)` (16) ask for.
        for exec in execs() {
            let mut rng = hpa_rng::SplitMix64::seed_from_u64(0xF1);
            for (k, dim) in [(1, 200), (5, 65), (16, 200), (3, 1), (2, 0)] {
                let mut seeds = docs(&mut rng, k, 9, dim);
                if k > 1 {
                    seeds[k - 1] = SparseVec::new();
                }
                let (mut columns, mut norms): (Vec<Column>, Vec<f64>) =
                    seeds.iter().map(|x| Column::seeded(x, dim, None)).unzip();
                // Every other column moves to members that lack most of
                // its terms: each term that left stays stored, as `+0.0`.
                for c in (0..k).step_by(2) {
                    let members = docs(&mut rng, 2, 3, dim);
                    let mut sum = vec![0.0; dim];
                    let column = &mut columns[c];
                    (_, norms[c]) = column.recompute(&mut sum, members.iter(), 0.5, None);
                }
                let label = format!("{exec:?} k={k} dim={dim}");
                if dim > 64 {
                    let zeros = columns.iter().flat_map(|column| &column.values);
                    assert!(zeros.filter(|w| w.to_bits() == 0).count() > 0, "{label}");
                }
                // Over a dense block, then over its own postings.
                let mut block = CentroidBlock::zeros(k, dim);
                for pass in 0..2 {
                    postings(&exec, &mut block, &columns, &norms, dim);
                    assert!(block.is_postings(), "{label} pass {pass}");
                    assert_eq!(
                        block,
                        dense_of(&columns, &norms, dim),
                        "{label} pass {pass}"
                    );
                    let stored = columns.iter().map(|column| column.entries().count());
                    assert_eq!(block.postings_len(), stored.sum::<usize>(), "{label}");
                }
            }
        }
    }

    #[test]
    fn empty_cluster_keeps_column_norm_and_support() {
        let seeds = [
            doc(&[(0, 1.0)]),
            doc(&[(5, 2.0), (64, -1.0)]),
            doc(&[(99, 0.5)]),
        ];
        let mut twin = Twin::seeded([&seeds[0], &seeds[1], &seeds[2]], 100);
        // Column `C` stays empty while the others move: it keeps its
        // weights, and scattering them again changes nothing.
        let before = (twin.block.clone(), twin.columns[C].clone());
        for c in [0, 2] {
            let mut sum = vec![0.0; 100];
            let members = [doc(&[(c as u32 + 10, 1.0)])];
            let counts = Some(&twin.counts);
            twin.columns[c].recompute(&mut sum, members.iter(), 1.0, counts);
        }
        let norms = twin.block.norms().to_vec();
        twin.scatter(&norms);
        let kept = &twin.columns[C];
        assert_eq!(kept.support, before.1.support);
        assert_eq!(bits(&kept.values), bits(&before.1.values));
        assert_eq!(twin.block.centroid(C), before.0.centroid(C));
        assert_eq!(twin.block.get(5, C), 2.0);
        // The kept support still zeroes its terms when members return.
        twin.rows[0] = twin.block.centroid(0);
        twin.rows[2] = twin.block.centroid(2);
        twin.round(&[doc(&[(7, 1.0)])], "after keep");
        assert_eq!(twin.block.get(5, C).to_bits(), 0);
    }

    #[test]
    fn leaving_terms_and_cancelled_sums_are_stored_as_positive_zero() {
        let seed = doc(&[(2, 1.25), (40, -3.0), (130, 0.5)]);
        let empty = SparseVec::new();
        let mut twin = Twin::seeded([&empty, &seed, &empty], 131);
        // Term 40 leaves (no member has it); term 2 cancels exactly.
        let members = [doc(&[(2, 1.5), (130, 1.0)]), doc(&[(2, -1.5), (77, 4.0)])];
        twin.round(&members, "leave + cancel");
        let column = &twin.columns[C];
        assert_eq!(column.stored(), 4, "old ∪ new support: 2, 40, 77, 130");
        for t in [2, 40] {
            assert_eq!(twin.block.get(t, C).to_bits(), 0, "t={t}");
        }
        let in_support = |t: usize| column.support[t / SLAB_TERMS] >> (t % SLAB_TERMS) & 1 == 1;
        assert!(!in_support(40), "a term no member has drops out");
        assert!(in_support(2) && in_support(77) && in_support(130));
        // Next time round it is neither visited nor scattered.
        twin.round(&[doc(&[(77, 1.0)])], "after leaving");
        assert_eq!(twin.columns[C].stored(), 3, "2, 77, 130");

        // Members with as many non-zeros as there are terms: the mask is
        // read off the sum, so the cancelled term 0 leaves with term 2.
        let seed = doc(&[(0, 1.25), (2, -3.0)]);
        let mut twin = Twin::seeded([&empty, &seed, &empty], 4);
        let members = [doc(&[(0, 1.5), (3, 1.0)]), doc(&[(0, -1.5), (1, 4.0)])];
        twin.round(&members, "leave + cancel, scanned");
        assert_eq!(twin.columns[C].stored(), 4, "old ∪ new support: 0, 1, 2, 3");
        assert_eq!(twin.columns[C].support, [0b1010]);
        for t in [0, 2] {
            assert_eq!(twin.block.get(t, C).to_bits(), 0, "t={t}");
        }
    }
}
