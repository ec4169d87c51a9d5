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

use crate::assign::ChunkState;
use hpa_exec::sync::Mutex;

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
