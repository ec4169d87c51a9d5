//! Analytic per-operation costs of the modelled C++ dictionary structures.
//!
//! The paper's Figure 4 compares `std::map` against `std::unordered_map`
//! **as implemented by libstdc++ on its 2016 testbed**. Rust's own
//! structures behave differently (`std::collections::HashMap` is a flat
//! SwissTable, not a node-based chained table), so measured-mode runs of
//! this reproduction legitimately diverge from the paper on insert-heavy
//! phases. To reproduce the paper's *published* trade-off, analytic-mode
//! experiments charge dictionary operations with the cost profile of the
//! original C++ structures:
//!
//! * `std::map` (red-black tree): every operation walks `log2(n)` node
//!   levels; inserts additionally allocate one node. Lookup and insert
//!   costs are similar, both growing with `n`.
//! * `std::unordered_map` (chained hash table): lookups are O(1) and
//!   cheap; inserts allocate a node, and — unless the table was pre-sized
//!   — pay amortized rehashing, which relocates every element. The
//!   structure's memory footprint (sparse bucket array + one allocation
//!   per element) makes its *memory traffic per operation* much higher,
//!   which is what throttles its scalability on shared bandwidth.
//!
//! Constants are calibrated so that the default [`hpa_exec`-style machine
//! model] reproduces the phase contrast of Figure 4; they are documented
//! here in one place so the calibration is auditable.

use crate::DictKind;

/// Per-operation cost estimate: CPU nanoseconds and memory traffic bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// CPU nanoseconds for the operation.
    pub cpu_ns: f64,
    /// Bytes of memory traffic (cache misses) the operation causes.
    pub mem_bytes: f64,
}

/// Natural log2 with a floor of 1 to keep costs sane for tiny tables.
fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// CPU stall attributable to TLB/page-walk misses when touching a chained
/// hash table of `len` entries (~120 B of node + bucket per entry).
/// Saturates once the table exceeds TLB reach (~4 MB).
fn tlb_stall_ns(len: usize) -> f64 {
    90.0 * ((len as f64 * 120.0) / 4.0e6).min(1.0)
}

/// Extra stall per access to a *pre-sized, sparsely occupied* table: the
/// bucket array "is by construction both sparse … and very large" (§3.4),
/// so probes have no locality — every access is a cold line on a freshly
/// faulted page.
const COLD_SPARSE_ARRAY_NS: f64 = 120.0;

/// CPU stall from cache/TLB misses touching an arena table of `len`
/// entries (~32 B of slot, offset, value and key text per entry — the
/// whole structure is four flat allocations, so its working set is a
/// fraction of the chained table's 120 B/entry and the stall saturates
/// later and lower.
fn arena_stall_ns(len: usize) -> f64 {
    70.0 * ((len as f64 * 32.0) / 4.0e6).min(1.0)
}

impl DictKind {
    /// One-time cost of *creating* a dictionary of this kind — charged
    /// once per document for the per-document term maps. Pre-sized tables
    /// pay for allocating, zeroing, and first-touch faulting their bucket
    /// array; this is a substantial share of the paper's u-map word-count
    /// slowdown and of its 12.8 GB footprint.
    pub fn creation_cost(&self) -> OpCost {
        match self {
            DictKind::BTree => OpCost {
                cpu_ns: 50.0,
                mem_bytes: 64.0,
            },
            DictKind::Hash => OpCost {
                cpu_ns: 200.0,
                mem_bytes: 256.0,
            },
            DictKind::HashPresized(cap) => {
                let bucket_bytes = (*cap as f64) * 8.0;
                OpCost {
                    // ~0.9 ns/B: memset plus amortized page faults.
                    cpu_ns: bucket_bytes * 0.9,
                    mem_bytes: bucket_bytes,
                }
            }
            // Empty `Vec`s; the slot table is allocated lazily on the
            // first insert (charged to that insert's growth share).
            // TF/IDF creates one per chunk of documents, never one per
            // document.
            DictKind::Arena => OpCost {
                cpu_ns: 30.0,
                mem_bytes: 0.0,
            },
        }
    }

    /// Cost of inserting a *new* word into a dictionary currently holding
    /// `len` entries.
    pub fn insert_cost(&self, len: usize) -> OpCost {
        match self {
            // Tree: walk log n levels (upper levels cached, deeper ones
            // cold — folded into the per-level constant), allocate and
            // link one node.
            DictKind::BTree => OpCost {
                cpu_ns: 45.0 + 12.0 * lg(len),
                mem_bytes: 64.0 + 8.0 * lg(len),
            },
            // Chained hash table: hash + bucket probe + node allocation
            // (110 ns), TLB stalls on a large table, plus amortized
            // rehashing — every doubling relocates all nodes, up to
            // ~160 ns of scattered writes per insert at scale. This is
            // the "(i) resize operations (ii) memory pressure" cost the
            // paper names.
            DictKind::Hash => OpCost {
                cpu_ns: 110.0 + tlb_stall_ns(len) + 160.0 * (lg(len) / 18.0).min(1.0),
                mem_bytes: 260.0,
            },
            // Pre-sized table: no rehashing below the reserved capacity,
            // but every probe lands on the cold sparse array.
            DictKind::HashPresized(cap) => {
                if len < *cap {
                    OpCost {
                        cpu_ns: 120.0 + COLD_SPARSE_ARRAY_NS + 0.5 * tlb_stall_ns(len),
                        mem_bytes: 190.0,
                    }
                } else {
                    DictKind::Hash.insert_cost(len)
                }
            }
            // Arena: hash + short linear probe + append to the arena; no
            // per-key allocation. Growth re-places 8 B slots by their
            // stored tag (key bytes untouched), amortized into the
            // constant. Half the arena stall: inserts touch the tail of
            // the arena, which is still cache-warm.
            DictKind::Arena => OpCost {
                cpu_ns: 30.0 + 0.5 * arena_stall_ns(len),
                mem_bytes: 80.0,
            },
        }
    }

    /// Cost of incrementing an *existing* word (hit path of word
    /// counting).
    pub fn increment_cost(&self, len: usize) -> OpCost {
        match self {
            DictKind::BTree => OpCost {
                cpu_ns: 25.0 + 12.0 * lg(len),
                // Upper tree levels are cache-resident; charge ~2 cold
                // levels.
                mem_bytes: 24.0 + 4.0 * lg(len),
            },
            DictKind::Hash => OpCost {
                cpu_ns: 35.0 + tlb_stall_ns(len),
                mem_bytes: self.hash_touch_bytes(len),
            },
            DictKind::HashPresized(_) => OpCost {
                cpu_ns: 35.0 + COLD_SPARSE_ARRAY_NS + 0.5 * tlb_stall_ns(len),
                mem_bytes: self.hash_touch_bytes(len) + 64.0,
            },
            // One hash, one (usually first-probe) 8 B slot touch, the
            // key compare, the id-indexed value: TF/IDF's intern.
            DictKind::Arena => OpCost {
                cpu_ns: 18.0 + 0.5 * arena_stall_ns(len),
                mem_bytes: 32.0,
            },
        }
    }

    /// Cost of a read-only lookup in a dictionary of `len` entries — the
    /// transform and output phases are made of these. Hash lookups stay
    /// cheaper than tree lookups at vocabulary scale (the paper's O(1) vs
    /// O(log n) point) even after TLB stalls, but they carry more memory
    /// traffic.
    pub fn lookup_cost(&self, len: usize) -> OpCost {
        match self {
            DictKind::BTree => OpCost {
                // Deep tree walks with string comparisons at every level;
                // levels below the cache-resident top are ~pointer-chase
                // latency each.
                cpu_ns: 25.0 + 20.0 * lg(len),
                mem_bytes: 20.0 + 5.0 * lg(len),
            },
            DictKind::Hash => OpCost {
                cpu_ns: 38.0 + tlb_stall_ns(len),
                mem_bytes: self.hash_touch_bytes(len),
            },
            DictKind::HashPresized(_) => OpCost {
                cpu_ns: 38.0 + COLD_SPARSE_ARRAY_NS + 0.5 * tlb_stall_ns(len),
                mem_bytes: self.hash_touch_bytes(len) + 64.0,
            },
            // Cheap hash (word-at-a-time vs SipHash-class), flat probe, compact
            // working set: beats the chained table on both axes.
            DictKind::Arena => OpCost {
                cpu_ns: 20.0 + arena_stall_ns(len),
                mem_bytes: 48.0,
            },
        }
    }

    /// Cost of visiting one entry in *storage order* (no sorting) — the
    /// transform phase walks per-document dictionaries this way. A
    /// pre-sized table must scan its sparse bucket array to find its few
    /// occupied slots.
    pub fn iter_step_cost(&self, len: usize) -> OpCost {
        match self {
            DictKind::BTree => OpCost {
                cpu_ns: 12.0,
                mem_bytes: 40.0,
            },
            DictKind::Hash => OpCost {
                cpu_ns: 15.0,
                mem_bytes: 70.0,
            },
            DictKind::HashPresized(cap) => {
                // Scanning cap buckets to yield len entries.
                let scan = (*cap as f64 * 0.8) / (len.max(1) as f64);
                OpCost {
                    cpu_ns: 15.0 + scan.min(200.0),
                    mem_bytes: 70.0 + ((*cap as f64 * 8.0) / len.max(1) as f64).min(400.0),
                }
            }
            // Dense scan of the per-id arrays in id order; key text
            // only when the consumer reads it.
            DictKind::Arena => OpCost {
                cpu_ns: 8.0,
                mem_bytes: 32.0,
            },
        }
    }

    /// Memory traffic of touching one entry of a chained hash table of
    /// `len` entries: bucket slot + node cache line, plus page-walk
    /// traffic once the table exceeds TLB reach. This term is what makes
    /// the `u-map` workflow's multi-GB working set hurt at high thread
    /// counts.
    fn hash_touch_bytes(&self, len: usize) -> f64 {
        let base = 8.0 + 64.0; // bucket pointer + node cache line
        let table_bytes = len as f64 * 120.0;
        let tlb_penalty = (table_bytes / 4.0e6).min(1.0) * 128.0;
        base + tlb_penalty
    }

    /// Cost of merging one entry of a source dictionary into a
    /// destination of `len` entries (the serial tail of word
    /// counting). The standard
    /// structures re-hash or re-compare the key from scratch and clone
    /// it when new; the arena re-hashes it, probes flat 8 B slots and
    /// appends new key bytes to one array.
    pub fn merge_step_cost(&self, len: usize) -> OpCost {
        match self {
            DictKind::BTree => self.increment_cost(len),
            DictKind::Hash | DictKind::HashPresized(_) => {
                let up = self.increment_cost(len);
                OpCost {
                    cpu_ns: up.cpu_ns + 12.0, // re-hash the source key
                    mem_bytes: up.mem_bytes + 16.0,
                }
            }
            DictKind::Arena => OpCost {
                cpu_ns: 12.0 + 0.5 * arena_stall_ns(len),
                mem_bytes: 32.0,
            },
        }
    }

    /// Resident bytes of a dictionary holding `len` entries with
    /// `string_bytes` of key text — the analytic counterpart of
    /// `Dictionary::heap_bytes`, for the *modelled C++* structures.
    pub fn resident_bytes(&self, len: usize, string_bytes: u64) -> u64 {
        match self {
            // RB-tree node: 3 pointers + color + key + value ~ 48 B/entry.
            DictKind::BTree => len as u64 * 48 + string_bytes,
            // Chained table at load ~1: bucket array 8 B + node 56 B.
            DictKind::Hash => len as u64 * 64 + string_bytes,
            // Pre-sized: bucket array for `cap` regardless of occupancy.
            DictKind::HashPresized(cap) => {
                (*cap).max(len) as u64 * 8 + len as u64 * 56 + string_bytes
            }
            // Our own structure models as itself: a power-of-two table
            // of 8 B slots at ≤ 7/8 load, 12 B of offset and value per
            // entry, and the raw key text.
            DictKind::Arena => {
                if len == 0 {
                    0
                } else {
                    (len as u64 * 8 / 7).next_power_of_two().max(8) * 8
                        + len as u64 * 12
                        + string_bytes
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_costs_grow_with_size_hash_lookups_saturate() {
        let small = DictKind::BTree.lookup_cost(100);
        let large = DictKind::BTree.lookup_cost(1_000_000);
        assert!(large.cpu_ns > small.cpu_ns + 50.0);

        // Hash lookup cost saturates once past TLB reach (O(1) plus a
        // bounded stall), unlike the tree's O(log n) growth.
        let h1 = DictKind::Hash.lookup_cost(1_000_000);
        let h2 = DictKind::Hash.lookup_cost(100_000_000);
        assert_eq!(h1.cpu_ns, h2.cpu_ns, "hash lookup saturates");
        assert!(h1.mem_bytes > DictKind::Hash.lookup_cost(100).mem_bytes);
    }

    #[test]
    fn hash_lookup_cheaper_cpu_than_tree_at_scale() {
        // The paper's transform phase favours u-map on one thread.
        let n = 185_000; // Mix vocabulary
        assert!(DictKind::Hash.lookup_cost(n).cpu_ns < DictKind::BTree.lookup_cost(n).cpu_ns);
    }

    #[test]
    fn tree_insert_cheaper_than_hash_insert_at_doc_scale() {
        // The paper's input+wc phase favours map: unordered_map inserts
        // pay allocation + rehash.
        let n = 200; // per-document dictionary size
        assert!(DictKind::BTree.insert_cost(n).cpu_ns < DictKind::Hash.insert_cost(n).cpu_ns);
    }

    #[test]
    fn presized_insert_pays_for_the_sparse_array() {
        // "the array underlying the hash table is by construction both
        // sparse … and very large" — pre-sizing trades rehashes for cold
        // probes and a big creation cost.
        let n = 150;
        let presized = DictKind::HashPresized(4096);
        assert!(presized.insert_cost(n).cpu_ns > DictKind::Hash.increment_cost(n).cpu_ns);
        assert!(presized.creation_cost().cpu_ns > 50.0 * DictKind::Hash.creation_cost().cpu_ns);
        assert!(presized.creation_cost().mem_bytes >= 4096.0 * 8.0);
    }

    #[test]
    fn presized_falls_back_to_plain_hash_beyond_capacity() {
        let k = DictKind::HashPresized(64);
        assert_eq!(
            k.insert_cost(100).cpu_ns,
            DictKind::Hash.insert_cost(100).cpu_ns
        );
    }

    #[test]
    fn hash_traffic_dominates_tree_traffic() {
        let n = 185_000;
        assert!(
            DictKind::Hash.lookup_cost(n).mem_bytes
                > 1.8 * DictKind::BTree.lookup_cost(n).mem_bytes
        );
    }

    #[test]
    fn presized_iteration_scans_sparse_buckets() {
        let presized = DictKind::HashPresized(4096);
        // 150 entries in a 4096-slot table: each yielded entry costs a
        // long scan; a well-filled table does not.
        assert!(
            presized.iter_step_cost(150).cpu_ns > 2.0 * DictKind::Hash.iter_step_cost(150).cpu_ns
        );
        assert!(presized.iter_step_cost(4000).cpu_ns < presized.iter_step_cost(150).cpu_ns);
    }

    #[test]
    fn presized_resident_bytes_charge_full_capacity() {
        let presized = DictKind::HashPresized(4096).resident_bytes(150, 1200);
        let tight = DictKind::Hash.resident_bytes(150, 1200);
        let tree = DictKind::BTree.resident_bytes(150, 1200);
        assert!(presized > 2 * tight);
        assert!(presized > 3 * tree);
    }

    #[test]
    fn arena_wins_the_phases_its_layout_targets() {
        // Insert-heavy word counting: no per-key allocation, no rehash
        // relocation, no cold sparse array.
        let doc = 150;
        assert!(DictKind::Arena.insert_cost(doc).cpu_ns < DictKind::BTree.insert_cost(doc).cpu_ns);
        assert!(DictKind::Arena.insert_cost(doc).cpu_ns < DictKind::Hash.insert_cost(doc).cpu_ns);
        // Merging into flat slots undercuts both node-based structures.
        let global = 150_000;
        assert!(
            DictKind::Arena.merge_step_cost(global).cpu_ns
                < DictKind::Hash.merge_step_cost(global).cpu_ns
        );
        assert!(
            DictKind::Arena.merge_step_cost(global).cpu_ns
                < DictKind::BTree.merge_step_cost(global).cpu_ns
        );
        // And it carries less traffic than the chained table everywhere.
        assert!(
            DictKind::Arena.lookup_cost(185_000).mem_bytes
                < DictKind::Hash.lookup_cost(185_000).mem_bytes
        );
    }

    #[test]
    fn arena_resident_bytes_are_flat_table_plus_text() {
        assert_eq!(DictKind::Arena.resident_bytes(0, 0), 0);
        // 150 entries -> next_pow2(171) = 256 slots.
        assert_eq!(
            DictKind::Arena.resident_bytes(150, 1200),
            256 * 8 + 150 * 12 + 1200
        );
        assert!(
            DictKind::Arena.resident_bytes(150, 1200) < DictKind::BTree.resident_bytes(150, 1200)
        );
    }

    #[test]
    fn paper_scale_memory_contrast() {
        // Mix: 23 432 per-document dictionaries (~150 entries each) plus a
        // 184 743-word global dictionary. Presized u-map lands in the
        // GB class; map stays in the low hundreds of MB. (The paper
        // reports 12.8 GB vs 420 MB; our leaner model reproduces the
        // ordering and the memory-class gap, not the exact 30x ratio —
        // see EXPERIMENTS.md.)
        let docs = 23_432u64;
        let per_doc_strings = 150 * 8;
        let umap: u64 = docs * DictKind::HashPresized(4096).resident_bytes(150, per_doc_strings)
            + DictKind::Hash.resident_bytes(184_743, 184_743 * 8);
        let map: u64 = docs * DictKind::BTree.resident_bytes(150, per_doc_strings)
            + DictKind::BTree.resident_bytes(184_743, 184_743 * 8);
        assert!(umap > 900_000_000, "u-map total {umap}");
        assert!(map < 300_000_000, "map total {map}");
        assert!(umap > 3 * map, "contrast {umap} vs {map}");
    }
}
