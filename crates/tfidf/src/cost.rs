//! Analytic cost annotations for the TF/IDF phases.
//!
//! These functions translate workload statistics (document bytes, token
//! estimates, dictionary sizes) into [`TaskCost`]s using the dictionary
//! cost model of `hpa_dict::costmodel`. They are only consulted by the
//! execution simulator in analytic mode; real-thread runs measure the
//! actual Rust structures instead. Token-count estimates are derived from
//! byte counts (average token + separator ≈ 7.3 bytes in the calibrated
//! corpora) so costs are deterministic and computable before a chunk runs.

use hpa_corpus::Corpus;
use hpa_dict::DictKind;
use hpa_exec::{Exec, TaskCost};
use hpa_io::READ_CPU_NS_PER_BYTE;
use std::ops::Range;

/// Shape statistics of a sparse TF/IDF matrix — row count, total
/// non-zeros, and dimensionality. These three numbers are all the
/// intermediate cost estimators below actually consume, so the workflow
/// planner can price every transport of a matrix (ARFF or binary, serial
/// or pipelined) without holding the materialized rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatrixStats {
    /// Number of rows (documents).
    pub rows: u64,
    /// Total non-zero entries across all rows.
    pub nnz: u64,
    /// Vocabulary size (matrix dimensionality).
    pub dim: u64,
}

impl MatrixStats {
    /// Exact statistics of a materialized matrix.
    pub fn of(rows: &[hpa_sparse::SparseVec], dim: usize) -> Self {
        Self {
            rows: rows.len() as u64,
            nnz: rows.iter().map(|r| r.nnz() as u64).sum(),
            dim: dim as u64,
        }
    }

    /// Non-zeros attributed to `count` rows under an even spread — the
    /// chunk-level approximation the planner uses when pricing a
    /// parallel region without the per-row nnz breakdown.
    pub fn nnz_of_rows(&self, count: u64) -> u64 {
        if self.rows == 0 {
            0
        } else {
            (self.nnz as f64 * count as f64 / self.rows as f64) as u64
        }
    }
}

/// Estimated bytes per token (word + separator) in the synthetic corpora.
pub const BYTES_PER_TOKEN: f64 = 7.3;
/// Estimated fraction of a document's tokens that are distinct.
pub const DISTINCT_FRACTION: f64 = 0.45;
/// Tokenizer CPU cost per input byte (scan + classify).
pub const TOKENIZE_NS_PER_BYTE: f64 = 0.8;

/// CPU cost of appending one `(id, tf)` entry to a run and stamping the
/// id's scratch — what a term's first hit in a document adds to its
/// intern on the interned arm.
pub const RUN_APPEND_NS: f64 = 6.0;
/// CPU cost per term of the interned transform outside its sort: the
/// remap load, the `tf · idf` multiply and the two array pushes.
pub const REMAP_SCALE_NS: f64 = 8.0;

/// Cost of the input + word-count work for the documents of `range`: the
/// read of each document's bytes, then the count.
/// For the paper's arms `kind` backs both the per-document counters and
/// the chunk-local document-frequency dictionary; the interned arm pays
/// one intern per token and one run append per distinct term of a
/// document, and creates nothing per document.
pub fn wc_chunk_cost(
    kind: DictKind,
    corpus: &Corpus,
    range: Range<usize>,
    charge_io: bool,
) -> TaskCost {
    let bytes: u64 = range.clone().map(|i| corpus.doc_bytes(i)).sum();
    let files = range.len() as u64;
    let tokens = bytes as f64 / BYTES_PER_TOKEN;
    let distinct = tokens * DISTINCT_FRACTION;
    let hits = tokens - distinct;

    let (cpu, mem) = if kind == DictKind::Arena {
        // Every token probes the chunk's interner, which grows toward
        // vocabulary scale; nearly all of them hit.
        let intern = kind.increment_cost(50_000);
        (
            bytes as f64 * (TOKENIZE_NS_PER_BYTE + READ_CPU_NS_PER_BYTE)
                + tokens * intern.cpu_ns
                + distinct * RUN_APPEND_NS,
            bytes as f64 + tokens * intern.mem_bytes + distinct * 8.0,
        )
    } else {
        // Per-document dictionary: created once per document, then every
        // distinct token inserts once and the rest increment. Average
        // per-doc dictionary size ~ distinct/files.
        let avg_doc_dict = if files > 0 {
            (distinct / files as f64) as usize
        } else {
            0
        };
        let create = kind.creation_cost();
        let insert = kind.insert_cost(avg_doc_dict);
        let incr = kind.increment_cost(avg_doc_dict);
        // Document-frequency updates: one per distinct token, into a
        // chunk-local dictionary that grows toward vocabulary scale. The
        // global structure is never the pre-sized per-document kind.
        let df_up = kind.global_kind().increment_cost(50_000);
        (
            bytes as f64 * (TOKENIZE_NS_PER_BYTE + READ_CPU_NS_PER_BYTE)
                + files as f64 * create.cpu_ns
                + distinct * (insert.cpu_ns + df_up.cpu_ns)
                + hits * incr.cpu_ns,
            bytes as f64
                + files as f64 * create.mem_bytes
                + distinct * (insert.mem_bytes + df_up.mem_bytes)
                + hits * incr.mem_bytes,
        )
    };

    TaskCost {
        cpu_ns: cpu as u64,
        mem_bytes: mem as u64,
        io_read_bytes: if charge_io { bytes } else { 0 },
        io_ops: if charge_io { files } else { 0 },
        ..Default::default()
    }
}

/// A-priori estimate of the entries one chunk-local document-frequency
/// dictionary holds when `num_docs` documents are split over `threads`
/// chunks: roughly the vocabulary observed in its share of the documents.
pub fn df_partial_entries(num_docs: usize, threads: usize) -> f64 {
    let tokens_per_chunk = num_docs as f64 / threads.max(1) as f64 * 400.0;
    (tokens_per_chunk * 0.25).min(300_000.0)
}

/// Cost of merging `entries` entries of chunk-local document-frequency
/// structures into the global one (the serial tail of the word-count
/// phase); merging folds each entry in once. The paper's arms pay it per
/// pair of a tree reduction with [`df_partial_entries`] entries; the
/// interned arm folds its chunks' interners serially and passes the
/// number of terms they held.
pub fn df_merge_cost(kind: DictKind, entries: f64) -> TaskCost {
    // The standard structures re-hash or re-compare every key; the arena
    // re-hashes it and probes flat slots. `merge_step_cost` prices both.
    let up = kind.global_kind().merge_step_cost(150_000);
    TaskCost {
        cpu_ns: (entries * up.cpu_ns) as u64,
        mem_bytes: (entries * up.mem_bytes) as u64,
        ..Default::default()
    }
}

/// CPU cost per word of ranking a vocabulary of `len` words, before the
/// `lg(len)` comparison term: the counting pass over document frequency
/// and the integer sort of `(first eight key bytes, id)` pairs, whose
/// comparisons touch key bytes only on prefix ties.
const RANK_NS: f64 = 10.0;
/// CPU cost per word per `lg(len)` of the ranking sort.
const RANK_NS_PER_LG: f64 = 4.5;
/// Bytes of memory traffic per word of the ranking sort.
const RANK_MEM_BYTES: f64 = 48.0;

/// Cost of building a vocabulary of `vocab_len` words. Every arm ranks
/// its words by the one rule (`Vocab`): a counting pass over document
/// frequency and an integer sort of each df's words by their first eight
/// key bytes, then per word a copy and a logarithm. The paper's arms first
/// copy their global document-frequency dictionary into an interner —
/// one storage-order step and one intern per word — and afterwards
/// insert each ranked word into a lookup index of `kind`; the interned
/// arm ranks the interner it counted with and fills no index.
pub fn vocab_build_cost(kind: DictKind, vocab_len: usize) -> TaskCost {
    let kind = kind.global_kind();
    let rank_ns = RANK_NS + RANK_NS_PER_LG * (vocab_len.max(2) as f64).log2();
    let mut per_word = rank_ns + 30.0; // +30ns string copy
    let mut per_word_mem = RANK_MEM_BYTES + 24.0;
    if kind != DictKind::Arena {
        for op in [
            kind.iter_step_cost(vocab_len),
            DictKind::Arena.insert_cost(vocab_len),
            kind.insert_cost(vocab_len),
        ] {
            per_word += op.cpu_ns;
            per_word_mem += op.mem_bytes;
        }
    }
    TaskCost {
        cpu_ns: (vocab_len as f64 * per_word) as u64,
        mem_bytes: (vocab_len as f64 * per_word_mem) as u64,
        ..Default::default()
    }
}

/// Cost of transforming the documents of `range` into TF·IDF vectors.
/// The paper's arms, per distinct term: one storage-order iteration step
/// over the per-document dictionary, one lookup in the vocabulary index,
/// the score computation, and a numeric sort of the resulting id/weight
/// pairs (trivial for the tree, whose walk already yields id order) —
/// `kind` backs both the per-document counters being walked and the
/// vocabulary index being probed. The interned arm, per distinct term:
/// a remap load, its share of an integer sort, and the scale.
pub fn transform_chunk_cost(
    kind: DictKind,
    counts: &crate::WordCounts,
    vocab_len: usize,
    range: Range<usize>,
) -> TaskCost {
    let mut cpu = 0.0;
    let mut mem = 0.0;
    // The vocabulary index is the global (never pre-sized) structure.
    let lookup = kind.global_kind().lookup_cost(vocab_len);
    for i in range {
        let k = counts.distinct_terms(i);
        let lg_k = (k.max(2) as f64).log2();
        let (per_term, per_term_mem) = if kind == DictKind::Arena {
            // An integer sort costs ~2 ns per key and level. 8 B run
            // entry in, 4 B remap load, 12 B of vector out.
            (2.0 * lg_k + REMAP_SCALE_NS, 24.0)
        } else {
            let iter = kind.iter_step_cost(k);
            // Numeric pair sort: the tree yields ids pre-sorted (branch-
            // predictable ~3 ns/elem verification), hash kinds pay a real
            // sort of ~12·log2(k) ns/elem.
            let sort = match kind {
                DictKind::BTree => 3.0,
                _ => 12.0 * lg_k,
            };
            (
                iter.cpu_ns + lookup.cpu_ns + sort + 35.0, // +score+push
                iter.mem_bytes + lookup.mem_bytes + 12.0,
            )
        };
        cpu += k as f64 * per_term + 60.0; // +normalize pass etc.
        mem += k as f64 * per_term_mem;
    }
    TaskCost {
        cpu_ns: cpu as u64,
        mem_bytes: mem as u64,
        ..Default::default()
    }
}

/// Cost of parsing an ARFF matrix shaped like `m` (the "kmeans-input"
/// phase of the discrete workflow). The file was written moments
/// earlier, so it is read back from the page cache — the cost is float
/// parsing (CPU) plus the memory traffic of the text and the
/// materialized vectors, exactly the "parsing and data conversions"
/// overhead §1 of the paper attributes to discrete workflows.
pub fn arff_read_cost_stats(m: &MatrixStats) -> TaskCost {
    // Text form: "{i w,...}" ~ 22 bytes per entry; header: one attribute
    // line (~25 bytes) per dimension.
    let bytes = m.nnz * 22 + m.dim * 25;
    TaskCost {
        // iostream-class float parsing: ~220 ns/value before the
        // machine model's 2016-testbed CPU scaling (~1.2 us effective).
        cpu_ns: m.nnz * 220 + m.dim * 100,
        mem_bytes: bytes * 2 + m.nnz * 12,
        ..Default::default()
    }
}

/// Text bytes per sparse ARFF entry (`"{i w,...}"` ≈ 22 bytes/entry) —
/// the same constant [`arff_read_cost_stats`] uses, shared by the chunked
/// format/parse estimates so the split phases sum to the serial model.
pub const ARFF_BYTES_PER_ENTRY: u64 = 22;

/// Formatting share of [`hpa_io::counter::WRITE_CPU_NS_PER_BYTE`]: the
/// ftoa/itoa work that the pipelined writer's *parallel* format stage
/// performs. Together with [`DRAIN_CPU_NS_PER_BYTE`] it sums to the
/// serial writer's 1.2 ns/byte, so pipelined and serial runs charge the
/// same total work — only the schedule differs.
pub const FORMAT_CPU_NS_PER_BYTE: f64 = 1.0;

/// Drain share of the write cost: the single ordered thread that copies
/// formatted buffers to the file (memcpy into the page cache).
pub const DRAIN_CPU_NS_PER_BYTE: f64 = 0.2;

/// Cost of formatting one chunk of `rows` sparse rows carrying `nnz`
/// entries into an in-memory buffer (the parallel stage of the pipelined
/// ARFF writer). Computable before the chunk runs: the byte volume is
/// estimated from nnz.
pub fn arff_format_cost_for(rows: u64, nnz: u64) -> TaskCost {
    let bytes = arff_body_bytes(rows, nnz);
    TaskCost {
        cpu_ns: (bytes as f64 * FORMAT_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes,
        ..Default::default()
    }
}

/// ARFF data-section bytes (text rows only, no header) for `rows` rows
/// carrying `nnz` entries — the volume the pipelined writer's drain and
/// the parallel reader's slurp both move.
pub fn arff_body_bytes(rows: u64, nnz: u64) -> u64 {
    nnz * ARFF_BYTES_PER_ENTRY + rows * 3
}

/// Cost of the pipelined writer's drain stage: one ordered pass copying
/// `bytes` of formatted text into the (buffered) output file. Like
/// [`hpa_io::ByteCounter::cost`], buffered writes land in the page cache,
/// so no `io_write_bytes` are charged.
pub fn arff_drain_cost(bytes: u64) -> TaskCost {
    TaskCost {
        cpu_ns: (bytes as f64 * DRAIN_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes * 2,
        ..Default::default()
    }
}

/// Pre-run estimate of the *serial* ARFF writer's cost. `write_arff`
/// prices itself post-hoc from its [`hpa_io::ByteCounter`] (the byte
/// count is only known after formatting), so its conformance prediction
/// needs this up-front estimate instead: header + rows at the counter's
/// write rate, byte volume estimated from nnz exactly as the chunked
/// format/drain estimates do.
pub fn arff_write_estimate_stats(m: &MatrixStats) -> TaskCost {
    let bytes = arff_body_bytes(m.rows, m.nnz) + m.dim * 25;
    TaskCost {
        cpu_ns: (bytes as f64 * hpa_io::counter::WRITE_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes * 2,
        ..Default::default()
    }
}

/// Cost of parsing the ARFF header (serial prefix of the parallel read).
pub fn arff_header_cost(dim: usize) -> TaskCost {
    TaskCost {
        cpu_ns: dim as u64 * 100,
        mem_bytes: dim as u64 * 50,
        ..Default::default()
    }
}

/// Cost of slurping the data section into memory before chunked parsing
/// (page-cache-warm copy, like [`arff_read_cost_stats`]'s no-device
/// assumption).
pub fn arff_slurp_cost(bytes: u64) -> TaskCost {
    TaskCost {
        cpu_ns: (bytes as f64 * READ_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes,
        ..Default::default()
    }
}

/// Cost of parsing one line-aligned chunk of `bytes` of the data section
/// (the parallel stage of the chunked ARFF reader). The entry estimate
/// inverts [`ARFF_BYTES_PER_ENTRY`]; per-value parse cost matches
/// [`arff_read_cost_stats`].
pub fn arff_parse_chunk_cost(bytes: u64) -> TaskCost {
    let nnz = bytes / ARFF_BYTES_PER_ENTRY;
    TaskCost {
        cpu_ns: nnz * 220,
        mem_bytes: bytes * 2 + nnz * 12,
        ..Default::default()
    }
}

/// Binary colfmt bytes per sparse entry: ~2 bytes of delta-varint term
/// id plus the raw 8-byte little-endian weight — 10 bytes against
/// ARFF's ~22 bytes of `"{i w,...}"` text. The byte shrink *and* the
/// cheaper per-byte work below are what kill the "ARFF tax".
pub const COLFMT_BYTES_PER_ENTRY: u64 = 10;

/// Encoding share of [`COLFMT_WRITE_NS_PER_BYTE`]: delta+varint packing
/// of term ids, the raw weight memcpy, and the FNV checksum pass — the
/// parallel stage of the pipelined binary writer. Far below ARFF's
/// [`FORMAT_CPU_NS_PER_BYTE`] because there is no ftoa: a weight is an
/// 8-byte copy, not a 17-significant-digit decimal rendering.
pub const COLFMT_ENCODE_NS_PER_BYTE: f64 = 0.35;

/// Drain share of the binary write cost: the same single ordered
/// page-cache copy as [`DRAIN_CPU_NS_PER_BYTE`] — memcpy does not care
/// what the bytes mean.
pub const COLFMT_DRAIN_NS_PER_BYTE: f64 = 0.2;

/// Serial binary writer rate: encode + drain, asserted to sum exactly
/// (mirroring the ARFF invariant) so pipelined and serial runs charge
/// identical total work.
pub const COLFMT_WRITE_NS_PER_BYTE: f64 = 0.55;

/// Checksum verification rate on the read side. Set for format version
/// 1's FNV-1a (one multiply + xor per byte). Version 2's four-lane fold
/// measures ≈ 0.23 ns/B on the 2-core build host, against FNV-1a's
/// ≈ 1.6 ns/B; the constant is kept so that no simulated figure or
/// planner price moves (EXPERIMENTS.md, "Checksum `.hpac` chunks eight
/// bytes at a time").
pub const COLFMT_CHECKSUM_NS_PER_BYTE: f64 = 0.3;

/// Per-entry decode cost: two varint reads (row bookkeeping amortized),
/// a bounds check, and an 8-byte weight copy — against ARFF's ~220 ns
/// iostream-class float parse.
pub const COLFMT_DECODE_NS_PER_ENTRY: f64 = 16.0;

/// Encoded size of one chunk block (header + payload) of `rows` rows
/// carrying `nnz` entries: 40-byte chunk header, ~1 varint byte per row
/// length, and [`COLFMT_BYTES_PER_ENTRY`] per entry.
pub fn colfmt_chunk_bytes_for(rows: u64, nnz: u64) -> u64 {
    hpa_colfmt::CHUNK_HEADER_LEN as u64 + rows + nnz * COLFMT_BYTES_PER_ENTRY
}

/// Estimated size of a whole colfmt file shaped like `m` at the default
/// chunk grain. Ignores `dim`: the binary header is fixed-size.
pub fn colfmt_file_bytes_stats(m: &MatrixStats) -> u64 {
    let chunks = (m.rows as usize).div_ceil(hpa_colfmt::DEFAULT_CHUNK_ROWS) as u64;
    hpa_colfmt::FILE_HEADER_LEN as u64
        + chunks * hpa_colfmt::CHUNK_HEADER_LEN as u64
        + m.rows
        + m.nnz * COLFMT_BYTES_PER_ENTRY
}

/// Pre-run estimate of the *serial* colfmt writer: the whole file at
/// the serial write rate. Unlike [`arff_write_estimate_stats`] there is
/// no per-dimension term, because the binary header is 32 fixed bytes —
/// ARFF spends ~25 text bytes per vocabulary word before the first row.
pub fn colfmt_write_estimate_stats(m: &MatrixStats) -> TaskCost {
    let bytes = colfmt_file_bytes_stats(m);
    TaskCost {
        cpu_ns: (bytes as f64 * COLFMT_WRITE_NS_PER_BYTE) as u64,
        mem_bytes: bytes * 2,
        ..Default::default()
    }
}

/// Cost of encoding one chunk of `rows` sparse rows carrying `nnz`
/// entries into an in-memory block (the parallel stage of the pipelined
/// binary writer).
pub fn colfmt_encode_cost_for(rows: u64, nnz: u64) -> TaskCost {
    let bytes = colfmt_chunk_bytes_for(rows, nnz);
    TaskCost {
        cpu_ns: (bytes as f64 * COLFMT_ENCODE_NS_PER_BYTE) as u64,
        mem_bytes: bytes,
        ..Default::default()
    }
}

/// Cost of the binary writer's drain stage: one ordered page-cache copy
/// of `bytes` of encoded blocks (no `io_write_bytes`, same buffered-
/// write policy as [`arff_drain_cost`]).
pub fn colfmt_drain_cost(bytes: u64) -> TaskCost {
    TaskCost {
        cpu_ns: (bytes as f64 * COLFMT_DRAIN_NS_PER_BYTE) as u64,
        mem_bytes: bytes * 2,
        ..Default::default()
    }
}

/// Cost of writing the fixed 32-byte binary file header (the serial
/// prefix of the pipelined writer). A constant — compare
/// [`arff_header_cost`], which scales with the vocabulary.
pub fn colfmt_header_cost() -> TaskCost {
    TaskCost {
        cpu_ns: 100,
        mem_bytes: 64,
        ..Default::default()
    }
}

/// Cost of reading `bytes` of the binary intermediate into memory — the
/// parallel reader's window fills, which together read the file once
/// (page-cache warm, like [`arff_slurp_cost`]: the file was written
/// moments earlier by the same workflow).
pub fn colfmt_fill_cost(bytes: u64) -> TaskCost {
    TaskCost {
        cpu_ns: (bytes as f64 * READ_CPU_NS_PER_BYTE) as u64,
        mem_bytes: bytes,
        ..Default::default()
    }
}

/// Cost of walking `chunks` chunk headers (fixed size) and placing their
/// payloads in a window, payload bytes untouched.
pub fn colfmt_index_cost(chunks: u64) -> TaskCost {
    TaskCost {
        cpu_ns: 100 + chunks * 25,
        mem_bytes: chunks * 56,
        ..Default::default()
    }
}

/// Cost of verifying and decoding one chunk of `bytes` (the parallel
/// stage of the binary reader): a checksum pass over the block plus
/// per-entry varint/copy work, with the entry count estimated by
/// inverting [`COLFMT_BYTES_PER_ENTRY`].
pub fn colfmt_decode_chunk_cost(bytes: u64) -> TaskCost {
    let nnz = bytes.saturating_sub(hpa_colfmt::CHUNK_HEADER_LEN as u64) / COLFMT_BYTES_PER_ENTRY;
    TaskCost {
        cpu_ns: (bytes as f64 * COLFMT_CHECKSUM_NS_PER_BYTE
            + nnz as f64 * COLFMT_DECODE_NS_PER_ENTRY) as u64,
        mem_bytes: bytes + nnz * 12,
        ..Default::default()
    }
}

/// Cost of the serial streaming binary read of a matrix shaped like `m`:
/// one read + checksum pass over the file bytes plus per-entry decode
/// work.
pub fn colfmt_read_cost_stats(m: &MatrixStats) -> TaskCost {
    let bytes = colfmt_file_bytes_stats(m);
    TaskCost {
        cpu_ns: (bytes as f64 * (READ_CPU_NS_PER_BYTE + COLFMT_CHECKSUM_NS_PER_BYTE)
            + m.nnz as f64 * COLFMT_DECODE_NS_PER_ENTRY) as u64,
        mem_bytes: bytes * 2 + m.nnz * 12,
        ..Default::default()
    }
}

// ---- One price per transport leg --------------------------------------
//
// Each of the eight legs (`{arff, colfmt}` × `{serial, pipelined}` ×
// `{write, read}`) is priced by exactly one function below. The leg's own
// `hpa_trace::predict` site calls it, and `hpa_plan::price` sums a write
// and a read of the same functions, so the number the planner decides on
// is the number the audit ledger checks. Parallel regions are priced from
// an even spread of nnz over rows ([`MatrixStats::nnz_of_rows`]) at the
// grains the legs actually run.

/// Rows per format task of the pipelined ARFF writer: a handful of
/// chunks per worker keeps every thread busy, and the grain only shifts
/// buffer sizes, never output bytes.
pub fn arff_format_grain(rows: usize, threads: usize) -> usize {
    rows.div_ceil(threads * 4).max(1)
}

/// Byte target of one parse task of the chunked ARFF reader over a data
/// section of `body_bytes` (chunks are then extended to a line end).
pub fn arff_parse_target(body_bytes: usize, threads: usize) -> usize {
    (body_bytes / (threads * 4).max(1)).max(16 * 1024)
}

/// Predicted wall time (ns) of [`crate::write_arff`]: fully serial.
pub fn arff_write_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    exec.predict_serial_ns(&arff_write_estimate_stats(m))
}

/// Predicted wall time (ns) of [`crate::read_arff`]: fully serial.
pub fn arff_read_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    exec.predict_serial_ns(&arff_read_cost_stats(m))
}

/// Predicted wall time (ns) of [`crate::write_arff_overlapped`]: serial
/// header, then the parallel format region hides (or is hidden by) the
/// single ordered drain.
pub fn arff_write_overlapped_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    let n = m.rows as usize;
    let header_ns = exec.predict_serial_ns(&arff_header_cost(m.dim as usize));
    let format_ns = exec.predict_region_ns(n, arff_format_grain(n, exec.threads()), |range| {
        arff_format_cost_for(range.len() as u64, m.nnz_of_rows(range.len() as u64))
    });
    let drain_ns = exec.predict_serial_ns(&arff_drain_cost(arff_body_bytes(m.rows, m.nnz)));
    header_ns + format_ns.max(drain_ns)
}

/// Predicted wall time (ns) of [`crate::read_arff_parallel`]: serial
/// header + slurp, then line-aligned chunks parse in parallel.
pub fn arff_read_parallel_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    let body = arff_body_bytes(m.rows, m.nnz);
    let header_ns = exec.predict_serial_ns(&arff_header_cost(m.dim as usize));
    let slurp_ns = exec.predict_serial_ns(&arff_slurp_cost(body));
    let nchunks = (body as usize).div_ceil(arff_parse_target(body as usize, exec.threads()));
    let parse_ns = exec.predict_region_ns(nchunks, 1, |chunks| {
        arff_parse_chunk_cost(body * chunks.len() as u64 / nchunks.max(1) as u64)
    });
    header_ns + slurp_ns + parse_ns
}

/// Predicted wall time (ns) of [`crate::write_colfmt`]: fully serial.
pub fn colfmt_write_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    exec.predict_serial_ns(&colfmt_write_estimate_stats(m))
}

/// Predicted wall time (ns) of [`crate::read_colfmt`]: fully serial.
pub fn colfmt_read_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    exec.predict_serial_ns(&colfmt_read_cost_stats(m))
}

/// Predicted wall time (ns) of [`crate::write_colfmt_overlapped`]: serial
/// 32-byte header, chunk-parallel encode at the format's fixed chunk
/// grain, overlapped with the ordered drain.
pub fn colfmt_write_overlapped_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    let header_ns = exec.predict_serial_ns(&colfmt_header_cost());
    let encode_ns =
        exec.predict_region_ns(m.rows as usize, hpa_colfmt::DEFAULT_CHUNK_ROWS, |range| {
            colfmt_encode_cost_for(range.len() as u64, m.nnz_of_rows(range.len() as u64))
        });
    let body_bytes = colfmt_file_bytes_stats(m).saturating_sub(hpa_colfmt::FILE_HEADER_LEN as u64);
    let drain_ns = exec.predict_serial_ns(&colfmt_drain_cost(body_bytes));
    header_ns + encode_ns.max(drain_ns)
}

/// Predicted wall time (ns) of [`crate::read_colfmt_parallel`]: its
/// serial window fills priced as one pass over the file plus one walk of
/// the chunk headers, and its windows' chunk-parallel checksum + decode
/// as one region (the joins between windows are not priced).
pub fn colfmt_read_parallel_ns(m: &MatrixStats, exec: &Exec) -> u64 {
    let file = colfmt_file_bytes_stats(m);
    let nchunks = (m.rows as usize).div_ceil(hpa_colfmt::DEFAULT_CHUNK_ROWS);
    let fill_ns = exec.predict_serial_ns(&colfmt_fill_cost(file));
    let index_ns = exec.predict_serial_ns(&colfmt_index_cost(nchunks as u64));
    let body = file.saturating_sub(hpa_colfmt::FILE_HEADER_LEN as u64);
    let decode_ns = exec.predict_region_ns(nchunks, 1, |chunks| {
        colfmt_decode_chunk_cost(body * chunks.len() as u64 / nchunks.max(1) as u64)
    });
    fill_ns + index_ns + decode_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::{Corpus, CorpusSpec};

    fn sample_corpus() -> Corpus {
        CorpusSpec::mix().scaled(0.002).generate(1)
    }

    /// `(rows, nnz)` of a slice of materialized rows.
    fn shape(rows: &[hpa_sparse::SparseVec]) -> (u64, u64) {
        let m = MatrixStats::of(rows, 0);
        (m.rows, m.nnz)
    }

    #[test]
    fn wc_cost_scales_with_bytes() {
        let c = sample_corpus();
        let half = wc_chunk_cost(DictKind::BTree, &c, 0..c.len() / 2, true);
        let full = wc_chunk_cost(DictKind::BTree, &c, 0..c.len(), true);
        assert!(full.cpu_ns > half.cpu_ns);
        assert_eq!(full.io_ops, c.len() as u64);
        assert_eq!(full.io_read_bytes, c.total_bytes());
    }

    #[test]
    fn wc_without_io_charge_has_no_io() {
        let c = sample_corpus();
        let cost = wc_chunk_cost(DictKind::Hash, &c, 0..c.len(), false);
        assert_eq!(cost.io_read_bytes, 0);
        assert_eq!(cost.io_ops, 0);
        assert!(cost.cpu_ns > 0);
    }

    #[test]
    fn umap_wc_costs_more_cpu_than_map() {
        // The paper: input+wc is faster with map. Its u-map configuration
        // is the 4K-pre-sized table, whose creation cost and cold sparse
        // array dominate the insert-heavy phase.
        let c = sample_corpus();
        let map = wc_chunk_cost(DictKind::BTree, &c, 0..c.len(), false);
        let umap = wc_chunk_cost(DictKind::PAPER_PRESIZE, &c, 0..c.len(), false);
        assert!(
            umap.cpu_ns > map.cpu_ns,
            "umap {} map {}",
            umap.cpu_ns,
            map.cpu_ns
        );
    }

    #[test]
    fn transform_favours_umap_cpu_but_costs_more_traffic() {
        let c = sample_corpus();
        let exec = hpa_exec::Exec::sequential();
        let op = crate::TfIdf::new(crate::TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        });
        let counts = op.count_words(&exec, &c);
        let v = 185_000;
        let map = transform_chunk_cost(DictKind::BTree, &counts, v, 0..c.len());
        let umap = transform_chunk_cost(DictKind::Hash, &counts, v, 0..c.len());
        assert!(
            umap.cpu_ns < map.cpu_ns,
            "umap cpu {} map cpu {}",
            umap.cpu_ns,
            map.cpu_ns
        );
        assert!(
            umap.mem_bytes > map.mem_bytes,
            "umap mem {} map mem {}",
            umap.mem_bytes,
            map.mem_bytes
        );
    }

    #[test]
    fn arena_merge_is_cheaper_than_rehashing_merges() {
        // The flat fold has no node to allocate or chase (hash kinds) and
        // no per-key comparison descent (tree).
        let entries = df_partial_entries(20_000, 4);
        let arena = df_merge_cost(DictKind::Arena, entries);
        let hash = df_merge_cost(DictKind::Hash, entries);
        let btree = df_merge_cost(DictKind::BTree, entries);
        assert!(
            arena.cpu_ns < hash.cpu_ns,
            "{} vs {}",
            arena.cpu_ns,
            hash.cpu_ns
        );
        assert!(
            arena.cpu_ns < btree.cpu_ns,
            "{} vs {}",
            arena.cpu_ns,
            btree.cpu_ns
        );
    }

    #[test]
    fn pipelined_write_split_sums_to_the_serial_rate() {
        assert!(
            (FORMAT_CPU_NS_PER_BYTE + DRAIN_CPU_NS_PER_BYTE
                - hpa_io::counter::WRITE_CPU_NS_PER_BYTE)
                .abs()
                < 1e-9,
            "format + drain must equal the serial writer's ns/byte"
        );
    }

    #[test]
    fn colfmt_write_split_sums_to_the_serial_rate() {
        assert!(
            (COLFMT_ENCODE_NS_PER_BYTE + COLFMT_DRAIN_NS_PER_BYTE - COLFMT_WRITE_NS_PER_BYTE).abs()
                < 1e-9,
            "encode + drain must equal the serial binary writer's ns/byte"
        );
    }

    #[test]
    fn colfmt_is_cheaper_than_arff_on_both_sides() {
        // The whole point of the binary intermediate: fewer bytes at a
        // cheaper per-byte rate on the write side, and per-entry decode
        // instead of float parsing on the read side.
        let rows: Vec<hpa_sparse::SparseVec> = (0..200)
            .map(|i| hpa_sparse::SparseVec::from_pairs(vec![(i, 1.5), (i + 300, 0.25)]))
            .collect();
        let m = MatrixStats::of(&rows, 1000);
        let aw = arff_write_estimate_stats(&m);
        let cw = colfmt_write_estimate_stats(&m);
        assert!(
            cw.cpu_ns * 2 < aw.cpu_ns,
            "write {} vs {}",
            cw.cpu_ns,
            aw.cpu_ns
        );
        let ar = arff_read_cost_stats(&m);
        let cr = colfmt_read_cost_stats(&m);
        assert!(
            cr.cpu_ns * 2 < ar.cpu_ns,
            "read {} vs {}",
            cr.cpu_ns,
            ar.cpu_ns
        );
    }

    #[test]
    fn colfmt_split_read_approximates_the_serial_read_model() {
        let rows: Vec<hpa_sparse::SparseVec> = (0..600)
            .map(|i| hpa_sparse::SparseVec::from_pairs(vec![(i, 1.5), (i + 700, 2.0)]))
            .collect();
        let m = MatrixStats::of(&rows, 0);
        let serial = colfmt_read_cost_stats(&m);
        let chunks = rows.len().div_ceil(hpa_colfmt::DEFAULT_CHUNK_ROWS);
        let mut split = colfmt_fill_cost(colfmt_file_bytes_stats(&m));
        split += colfmt_index_cost(chunks as u64);
        for chunk in rows.chunks(hpa_colfmt::DEFAULT_CHUNK_ROWS) {
            let (n, nnz) = shape(chunk);
            split += colfmt_decode_chunk_cost(colfmt_chunk_bytes_for(n, nnz));
        }
        let ratio = split.cpu_ns as f64 / serial.cpu_ns as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "split cpu {} vs serial cpu {}",
            split.cpu_ns,
            serial.cpu_ns
        );
    }

    #[test]
    fn colfmt_encode_plus_drain_matches_the_serial_write_estimate() {
        let rows: Vec<hpa_sparse::SparseVec> = (0..600)
            .map(|i| hpa_sparse::SparseVec::from_pairs(vec![(i, 1.5), (i + 700, 2.0)]))
            .collect();
        let serial = colfmt_write_estimate_stats(&MatrixStats::of(&rows, 0));
        let mut split = colfmt_header_cost();
        for chunk in rows.chunks(hpa_colfmt::DEFAULT_CHUNK_ROWS) {
            let (n, nnz) = shape(chunk);
            split += colfmt_encode_cost_for(n, nnz);
            split += colfmt_drain_cost(colfmt_chunk_bytes_for(n, nnz));
        }
        let ratio = split.cpu_ns as f64 / serial.cpu_ns as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "split cpu {} vs serial cpu {}",
            split.cpu_ns,
            serial.cpu_ns
        );
    }

    #[test]
    fn chunked_parse_cost_approximates_the_serial_read_model() {
        let rows: Vec<hpa_sparse::SparseVec> = (0..50)
            .map(|i| hpa_sparse::SparseVec::from_pairs(vec![(i, 1.5), (i + 50, 2.0)]))
            .collect();
        let dim = 100;
        let m = MatrixStats::of(&rows, dim);
        let serial = arff_read_cost_stats(&m);
        let data_bytes = m.nnz * ARFF_BYTES_PER_ENTRY;
        let mut split = arff_header_cost(dim);
        split += arff_parse_chunk_cost(data_bytes);
        let ratio = split.cpu_ns as f64 / serial.cpu_ns as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "split cpu {} vs serial cpu {}",
            split.cpu_ns,
            serial.cpu_ns
        );
    }

    #[test]
    fn matrix_stats_of_counts_rows_nnz_and_dim() {
        // `MatrixStats::of` is the one bridge from materialized rows to
        // every estimator above.
        let rows: Vec<hpa_sparse::SparseVec> = (0..300)
            .map(|i| hpa_sparse::SparseVec::from_pairs(vec![(i, 1.5), (i + 400, 0.5)]))
            .collect();
        let m = MatrixStats::of(&rows, 900);
        assert_eq!((m.rows, m.nnz, m.dim), (300, 600, 900));
        assert_eq!(MatrixStats::of(&[], 7).dim, 7);
    }

    #[test]
    fn nnz_shares_of_a_partition_are_proportional() {
        let m = MatrixStats {
            rows: 100,
            nnz: 1000,
            dim: 50,
        };
        assert_eq!(m.nnz_of_rows(100), 1000);
        assert_eq!(m.nnz_of_rows(50), 500);
        assert_eq!(m.nnz_of_rows(0), 0);
        assert_eq!(MatrixStats::default().nnz_of_rows(10), 0);
    }

    #[test]
    fn arff_read_cost_tracks_nnz() {
        let rows = vec![
            hpa_sparse::SparseVec::from_pairs(vec![(0, 1.0), (5, 2.0)]),
            hpa_sparse::SparseVec::from_pairs(vec![(3, 1.0)]),
        ];
        let cost = arff_read_cost_stats(&MatrixStats::of(&rows, 10));
        assert_eq!(cost.io_read_bytes, 0, "intermediate is page-cache warm");
        assert_eq!(cost.mem_bytes, (3 * 22 + 250) * 2 + 3 * 12);
        assert!(cost.cpu_ns > 0);
    }
}
