#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The TF/IDF operator.
//!
//! Mirrors the paper's two-phase structure (§3.2):
//!
//! 1. **input + word count** ([`TfIdf::count_words`]) — a parallel loop
//!    over documents: tokenize, count term frequencies per document and
//!    document frequencies per chunk of documents, and merge the chunks
//!    at the end.
//! 2. **transform + output** — [`TfIdf::build_vocab`] assigns term ids by
//!    descending document frequency, ties by word (the Zipf head first:
//!    its centroid rows become one prefix of K-means' block);
//!    [`TfIdf::transform`] (parallel per document)
//!    converts term counts to normalized TF·IDF sparse vectors;
//!    [`write_arff`] emits the WEKA-format matrix **sequentially**,
//!    because "the ARFF format does not facilitate parallel output".
//!
//! The [`DictKind`] — Figure 4's independent variable — selects one of
//! two representations of the counts, once per call:
//!
//! * `map`, `u-map` and `u-map-presized` are **the paper's arms**: one
//!   dictionary per document (word → tf), one document-frequency
//!   dictionary per chunk tree-merged into a global one, and a transform
//!   that looks every word of every document up in the vocabulary's
//!   index. Their footprint, not their arithmetic, is what Figure 4 is
//!   about, so their shape is kept as the paper has it.
//! * `arena` (= `auto`; what `--dict arena` and `benchmark/` run)
//!   **interns each token exactly once**. A chunk of documents owns one
//!   [`ArenaDict`] interner (word → dense chunk-local id, its value the
//!   chunk's document frequency) and one flat array of `(id, tf)` pairs
//!   in which each document's terms form a contiguous *run*, in
//!   first-seen order; id-indexed scratch (the last document that touched
//!   the id, and where in that document's run) makes a repeated token an
//!   array increment. Afterwards the chunks' interners fold into the
//!   first chunk's, which yields the corpus-wide provisional ids and one
//!   local → provisional id map per later chunk. The vocabulary is a
//!   rank permutation of the provisional ids by document frequency
//!   (`Vocab::from_interned`), and the transform is remap → integer sort
//!   → scale: no string, no hash, no dictionary per document.
//!
//! Both end in the same scoring function, [`Vocab::score`], and produce
//! bit-identical models.
//!
//! Every loop carries analytic [`TaskCost`] annotations derived from the
//! dictionary cost model (`hpa_dict::costmodel`), so the execution
//! simulator reproduces the paper's scalability results; under real
//! threads the annotations are ignored and the genuine Rust structures
//! are measured.

pub mod cost;
pub mod vocab;

pub use vocab::Vocab;

use cost::MatrixStats;
use vocab::PRUNED;

use hpa_arff::{parse_data_line, ArffError, ArffHeader, ArffReader, ArffWriter};
use hpa_colfmt::{encode_chunk, ChunkWindow, ColFmtError, ColReader, ColWriter};
use hpa_corpus::{Corpus, Tokenizer};
use hpa_dict::{pack, AnyDict, ArenaDict, DictKind, Dictionary};
use hpa_exec::sync::Mutex;
use hpa_exec::{Exec, TaskCost};
use hpa_io::{ByteCounter, Sequencer};
use hpa_sparse::SparseVec;
use std::io::{self, BufRead, Read, Write};
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the TF/IDF operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfIdfConfig {
    /// How terms are counted (Figure 4's independent variable): a
    /// dictionary per document of the paper's kinds, or interned runs.
    pub dict_kind: DictKind,
    /// Chunk size for the parallel document loops (0 = automatic).
    pub grain: usize,
    /// Charge the input loop with storage-read costs for each document it
    /// reads: the files of a directory corpus are read in that loop, and
    /// an in-memory corpus models the paper's read-from-disk pipeline.
    pub charge_input_io: bool,
    /// Drop terms that appear in fewer than this many documents (1 keeps
    /// everything). Pruning hapax legomena shrinks the vocabulary — and
    /// therefore every dictionary and the ARFF header — dramatically.
    pub min_df: u32,
    /// Drop terms that appear in more than this fraction of documents
    /// (1.0 keeps everything) — stop-word suppression without a list,
    /// since `df = N` terms carry zero IDF weight anyway.
    pub max_df_fraction: f64,
}

impl Default for TfIdfConfig {
    fn default() -> Self {
        TfIdfConfig {
            dict_kind: DictKind::Arena,
            grain: 0,
            charge_input_io: true,
            min_df: 1,
            max_df_fraction: 1.0,
        }
    }
}

/// Token count of one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocTermCounts {
    /// Total tokens in the document.
    pub total_terms: u64,
}

/// Result of the input + word-count phase.
#[derive(Debug)]
pub struct WordCounts {
    /// Per-document token counts, indexed by document id.
    pub per_doc: Vec<DocTermCounts>,
    /// Bytes of text the count read.
    pub bytes: u64,
    /// Dictionary kind the counts were taken with.
    pub dict_kind: DictKind,
    terms: TermCounts,
}

/// Term and document frequencies, in the representation the kind selects.
#[derive(Debug)]
enum TermCounts {
    /// The paper's arms: word → tf per document, word → df globally.
    PerDoc {
        docs: Vec<AnyDict>,
        df: Box<AnyDict>,
    },
    Interned(InternedCounts),
}

/// The interned arm's counts.
#[derive(Debug)]
struct InternedCounts {
    /// Word → provisional id; the value is the document frequency.
    /// Shared with the vocabulary ranked from it.
    words: Arc<ArenaDict>,
    /// Documents per chunk (the last chunk may hold fewer).
    grain: usize,
    chunks: Vec<ChunkRuns>,
}

/// The term frequencies of one chunk of documents.
#[derive(Debug, Default)]
struct ChunkRuns {
    /// `(chunk-local id, tf)` pairs; each document's are contiguous, in
    /// the order it first used them.
    runs: Vec<(u32, u32)>,
    /// Where each of the chunk's documents' run ends.
    ends: Vec<usize>,
    /// The provisional id of each chunk-local id; `None` for the first
    /// chunk, whose interner the others were folded into.
    to_global: Option<Vec<u32>>,
}

impl ChunkRuns {
    fn heap_bytes(&self) -> u64 {
        let map = self.to_global.as_ref().map_or(0, |m| m.capacity() * 4);
        (self.runs.capacity() * 8 + self.ends.capacity() * 8 + map) as u64
    }
}

impl InternedCounts {
    /// The run of document `doc` and the chunk that holds it.
    fn run(&self, doc: usize) -> (&[(u32, u32)], usize) {
        let (chunk, local) = (doc / self.grain, doc % self.grain);
        let c = &self.chunks[chunk];
        let start = local.checked_sub(1).map_or(0, |prev| c.ends[prev]);
        (&c.runs[start..c.ends[local]], chunk)
    }
}

/// Count the documents `range` of `corpus` on interned runs: their
/// token counts, the chunk's interner (value = document frequency within
/// the chunk), its runs, and the bytes of text it read. Each document's
/// text is read into one recycled buffer and tokenized there, its tokens
/// interned into one recycled id buffer, and its run built from that.
fn count_chunk_interned(
    corpus: &Corpus,
    range: Range<usize>,
) -> io::Result<(Vec<DocTermCounts>, ArenaDict, ChunkRuns, u64)> {
    let docs = range.len();
    let mut words = ArenaDict::new();
    // By id: the last document (1-based) that used the word, and where
    // in that document's run.
    let mut seen: Vec<(u32, u32)> = Vec::new();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut ends = Vec::with_capacity(docs);
    let mut per_doc = Vec::with_capacity(docs);
    let mut tok = Tokenizer::new();
    let mut buf = String::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut bytes = 0u64;
    for (d, i) in range.enumerate() {
        let text = corpus.text(i, &mut buf)?;
        bytes += text.len() as u64;
        // A token takes two bytes at least, so run positions and term
        // frequencies of the document fit the `u32`s that hold them, and
        // the document has at most half as many tokens as bytes.
        assert!(
            text.len() < u32::MAX as usize,
            "document {} exceeds 4 GiB",
            corpus.doc_name(i)
        );
        // Scan, hash and probe in one pass, with nothing else in the
        // loop; the run is built from the ids afterwards.
        ids.clear();
        ids.reserve(text.len().div_ceil(2));
        tok.for_each_prefixed(text, |w, prefix| ids.push(words.intern_prefixed(prefix, w)));
        seen.resize(words.len(), (0, 0));
        // The document adds at most one run entry per token.
        if runs.capacity() - runs.len() < ids.len() {
            // Reserve for this document and, at the mean run length seen
            // so far, the rest of the chunk: one growth, not a doubling
            // series, and the unused tail is cut when the chunk ends.
            let mean = runs.len().div_ceil(d.max(1));
            runs.reserve(ids.len() + mean * (docs - d - 1));
        }
        let mark = u32::try_from(d + 1).expect("fewer than 2^32 documents per chunk");
        let start = runs.len();
        for &id in &ids {
            let (last, at) = &mut seen[id as usize];
            if *last == mark {
                runs[start + *at as usize].1 += 1;
            } else {
                (*last, *at) = (mark, (runs.len() - start) as u32);
                runs.push((id, 1));
                words.add_at(id, 1);
            }
        }
        ends.push(runs.len());
        per_doc.push(DocTermCounts {
            total_terms: ids.len() as u64,
        });
    }
    runs.shrink_to_fit();
    let chunk = ChunkRuns {
        runs,
        ends,
        to_global: None,
    };
    Ok((per_doc, words, chunk, bytes))
}

/// What one chunk of the paper arms' word count folds into.
struct PerDocPartial {
    df: AnyDict,
    docs: Vec<AnyDict>,
    per_doc: Vec<DocTermCounts>,
    /// Bytes of text read.
    bytes: u64,
    /// The chunk's recycled read buffer.
    buf: String,
}

impl WordCounts {
    /// Number of documents counted.
    pub fn num_docs(&self) -> usize {
        self.per_doc.len()
    }

    /// Number of distinct words in the corpus.
    pub fn num_terms(&self) -> usize {
        match &self.terms {
            TermCounts::PerDoc { df, .. } => df.len(),
            TermCounts::Interned(c) => c.words.len(),
        }
    }

    /// Number of documents containing `word`, if any does.
    pub fn df(&self, word: &str) -> Option<u64> {
        match &self.terms {
            TermCounts::PerDoc { df, .. } => df.get(word),
            TermCounts::Interned(c) => c.words.get(word),
        }
    }

    /// Occurrences of `word` in document `doc`, if it has any.
    pub fn tf(&self, doc: usize, word: &str) -> Option<u64> {
        match &self.terms {
            TermCounts::PerDoc { docs, .. } => docs[doc].get(word),
            TermCounts::Interned(c) => {
                let id = c.words.id_of(word)?;
                let (run, chunk) = c.run(doc);
                let to_global = c.chunks[chunk].to_global.as_deref();
                run.iter()
                    .find(|&&(local, _)| to_global.map_or(local, |m| m[local as usize]) == id)
                    .map(|&(_, tf)| tf as u64)
            }
        }
    }

    /// Number of distinct words in document `doc`.
    pub fn distinct_terms(&self, doc: usize) -> usize {
        match &self.terms {
            TermCounts::PerDoc { docs, .. } => docs[doc].len(),
            TermCounts::Interned(c) => c.run(doc).0.len(),
        }
    }

    /// Actual heap footprint of the counts (Rust structures): every
    /// dictionary of the paper's arms; the interner, the run arrays and
    /// the id maps of the interned arm.
    pub fn heap_bytes(&self) -> u64 {
        match &self.terms {
            TermCounts::PerDoc { docs, df } => {
                docs.iter().map(|d| d.heap_bytes()).sum::<u64>() + df.heap_bytes()
            }
            TermCounts::Interned(c) => {
                c.words.heap_bytes() + c.chunks.iter().map(ChunkRuns::heap_bytes).sum::<u64>()
            }
        }
    }

    /// Analytic resident footprint of the *modelled C++* structures —
    /// the number the paper's "420 MB vs 12.8 GB" comparison refers to.
    /// The interned arm is no C++ structure and models as itself.
    pub fn modeled_resident_bytes(&self) -> u64 {
        let (docs, df) = match &self.terms {
            TermCounts::PerDoc { docs, df } => (docs, df),
            TermCounts::Interned(_) => return self.heap_bytes(),
        };
        let mut total = 0u64;
        for d in docs {
            let mut strings = 0u64;
            d.for_each(&mut |w, _| strings += w.len() as u64);
            total += self.dict_kind.resident_bytes(d.len(), strings);
        }
        let mut df_strings = 0u64;
        df.for_each(&mut |w, _| df_strings += w.len() as u64);
        // The global DF dictionary is built once (never pre-sized per
        // document), so charge it as a plain structure of its kind.
        total
            + self
                .dict_kind
                .global_kind()
                .resident_bytes(df.len(), df_strings)
    }
}

/// The TF/IDF matrix: vocabulary plus one normalized sparse vector per
/// document.
#[derive(Debug)]
pub struct TfIdfModel {
    /// Term vocabulary (id ↔ word ↔ document frequency).
    pub vocab: Vocab,
    /// Normalized TF·IDF vector per document, indexed by document id.
    pub vectors: Vec<SparseVec>,
    /// Number of documents (the `N` of the IDF formula).
    pub num_docs: usize,
}

/// The TF/IDF operator.
#[derive(Debug, Clone, Default)]
pub struct TfIdf {
    /// Operator configuration.
    pub config: TfIdfConfig,
}

impl TfIdf {
    /// New operator with the given configuration.
    pub fn new(config: TfIdfConfig) -> Self {
        TfIdf { config }
    }

    /// Phase 1: parallel tokenize + count. ("input+wc" in the figures.)
    ///
    /// # Panics
    ///
    /// When a document of a directory corpus cannot be read; the message
    /// names the file. [`TfIdf::try_count_words`] returns that error
    /// instead.
    pub fn count_words(&self, exec: &Exec, corpus: &Corpus) -> WordCounts {
        self.try_count_words(exec, corpus)
            .unwrap_or_else(|e| panic!("counting words: {e}"))
    }

    /// Phase 1, reading each document where it is counted: a chunk of the
    /// parallel loop reads its documents one by one into a recycled
    /// buffer and keeps only their counts, so the text of a directory
    /// corpus is never resident as a whole.
    ///
    /// # Errors
    ///
    /// The first failed document read, in document order among the
    /// chunks that failed; its message names the file.
    pub fn try_count_words(&self, exec: &Exec, corpus: &Corpus) -> io::Result<WordCounts> {
        let _span = hpa_trace::span!("tfidf", "count-words", corpus.len() as u64);
        let kind = self.config.dict_kind;
        let n = corpus.len();
        // One chunk per ~thread: a chunk owns a document-frequency
        // structure, and what the chunks hold in common is merged
        // afterwards (the serial tail of this phase).
        let grain = if self.config.grain > 0 {
            self.config.grain
        } else {
            n.div_ceil(exec.threads()).max(1)
        };
        let charge_io = self.config.charge_input_io;
        let chunk_cost = |range: Range<usize>| cost::wc_chunk_cost(kind, corpus, range, charge_io);
        let (per_doc, terms, bytes) = if kind == DictKind::Arena {
            self.count_interned(exec, corpus, grain, chunk_cost)?
        } else {
            self.count_per_doc(exec, corpus, grain, chunk_cost)?
        };
        Ok(WordCounts {
            per_doc,
            bytes,
            dict_kind: kind,
            terms,
        })
    }

    /// The paper's arms: a dictionary per document, and per-chunk
    /// document-frequency dictionaries tree-merged like Cilk reducers.
    fn count_per_doc(
        &self,
        exec: &Exec,
        corpus: &Corpus,
        grain: usize,
        chunk_cost: impl Fn(Range<usize>) -> TaskCost + Sync,
    ) -> io::Result<(Vec<DocTermCounts>, TermCounts, u64)> {
        let kind = self.config.dict_kind;
        let n = corpus.len();
        let merge_cost = cost::df_merge_cost(kind, cost::df_partial_entries(n, exec.threads()));
        if hpa_trace::is_enabled() {
            // Price the fold region plus the tree-reduce merge tail with
            // the same cost closures the simulator consumes, so the
            // conformance ledger checks exactly what analytic runs use.
            let fold_ns = exec.predict_region_ns(n, grain, &chunk_cost);
            let merge_ns = exec.predict_tree_reduce_ns(exec.chunks_for(n, grain), merge_cost);
            hpa_trace::predict("tfidf", "count-words", fold_ns + merge_ns);
        }
        let empty = || {
            Ok(PerDocPartial {
                df: kind.new_dict(),
                docs: Vec::new(),
                per_doc: Vec::new(),
                bytes: 0,
                buf: String::new(),
            })
        };
        // A chunk stops at its first failed read; the reduction keeps the
        // leftmost error.
        let counted = exec
            .par_fold_reduce(
                n,
                grain,
                empty,
                |part: io::Result<PerDocPartial>, i| {
                    let mut part = part?;
                    let text = corpus.text(i, &mut part.buf)?;
                    let df = &mut part.df;
                    let mut counts = kind.new_dict();
                    let mut total_terms = 0u64;
                    Tokenizer::new().for_each(text, |w| {
                        total_terms += 1;
                        if counts.add(w, 1) == 1 {
                            df.add(w, 1);
                        }
                    });
                    part.bytes += text.len() as u64;
                    part.docs.push(counts);
                    part.per_doc.push(DocTermCounts { total_terms });
                    Ok(part)
                },
                // Pairs are adjacent chunks, left before right: appending
                // keeps the documents in order.
                |a, b| {
                    let (mut a, b) = (a?, b?);
                    a.df.merge_from(&b.df);
                    a.docs.extend(b.docs);
                    a.per_doc.extend(b.per_doc);
                    a.bytes += b.bytes;
                    Ok(a)
                },
                chunk_cost,
                merge_cost,
            )
            .unwrap_or_else(empty)?;
        let terms = TermCounts::PerDoc {
            docs: counted.docs,
            df: Box::new(counted.df),
        };
        Ok((counted.per_doc, terms, counted.bytes))
    }

    /// The interned arm: one interner and one run array per chunk, then
    /// the later chunks' interners fold into the first one's.
    fn count_interned(
        &self,
        exec: &Exec,
        corpus: &Corpus,
        grain: usize,
        chunk_cost: impl Fn(Range<usize>) -> TaskCost + Sync,
    ) -> io::Result<(Vec<DocTermCounts>, TermCounts, u64)> {
        let n = corpus.len();
        if hpa_trace::is_enabled() {
            // The merge tail prices itself, inside its own span.
            let fold_ns = exec.predict_region_ns(n, grain, &chunk_cost);
            hpa_trace::predict("tfidf", "count-words", fold_ns);
        }
        let parts = exec.par_map_chunks(
            n,
            grain,
            |range| count_chunk_interned(corpus, range),
            chunk_cost,
        );
        let mut parts = parts
            .into_iter()
            .collect::<io::Result<Vec<_>>>()?
            .into_iter();
        // The first chunk's interner becomes the corpus-wide one.
        let (mut per_doc, mut words, first, mut bytes) = parts.next().unwrap_or_default();
        let mut chunks = vec![first];
        if parts.len() > 0 {
            let _span = hpa_trace::span!("tfidf", "merge-terms", parts.len() as u64);
            exec.serial_costed(|| {
                let mut entries = 0usize;
                for (counts, local, mut chunk, read) in parts {
                    entries += local.len();
                    chunk.to_global = Some(words.merge_from(&local));
                    per_doc.extend(counts);
                    chunks.push(chunk);
                    bytes += read;
                }
                let cost = cost::df_merge_cost(DictKind::Arena, entries as f64);
                if hpa_trace::is_enabled() {
                    let ns = exec.predict_serial_ns(&cost);
                    hpa_trace::predict("tfidf", "merge-terms", ns);
                }
                ((), cost)
            });
        }
        let counts = InternedCounts {
            words: Arc::new(words),
            grain,
            chunks,
        };
        Ok((per_doc, TermCounts::Interned(counts), bytes))
    }

    /// Build the vocabulary: term ids by descending document frequency,
    /// ties in ascending word order, terms outside the configured
    /// document-frequency band dropped. Every arm ranks by that one rule
    /// ([`Vocab`]); the paper's arms copy their global dictionary into an
    /// interner to rank it and fill an index of their own kind, the
    /// interned arm ranks its provisional ids.
    pub fn build_vocab(&self, exec: &Exec, counts: &WordCounts) -> Vocab {
        let _span = hpa_trace::span!("tfidf", "build-vocab", counts.num_terms() as u64);
        let n = counts.num_docs();
        let max_df = (self.config.max_df_fraction * n as f64).ceil() as u64;
        let min_df = self.config.min_df.max(1) as u64;
        let cost = cost::vocab_build_cost(self.config.dict_kind, counts.num_terms());
        if hpa_trace::is_enabled() {
            hpa_trace::predict("tfidf", "build-vocab", exec.predict_serial_ns(&cost));
        }
        exec.serial(cost, || match &counts.terms {
            TermCounts::PerDoc { df, .. } => {
                Vocab::from_df_dict_pruned(self.config.dict_kind, df, min_df, max_df, n)
            }
            TermCounts::Interned(c) => {
                Vocab::from_interned(Arc::clone(&c.words), min_df, max_df, n)
            }
        })
    }

    /// Phase 2a ("transform"): parallel conversion of term counts into
    /// normalized TF·IDF sparse vectors.
    pub fn transform(&self, exec: &Exec, counts: &WordCounts, vocab: &Vocab) -> TfIdfModel {
        let n = counts.num_docs();
        let _span = hpa_trace::span!("tfidf", "transform", n as u64);
        let kind = counts.dict_kind;
        let chunk_cost =
            |range: Range<usize>| cost::transform_chunk_cost(kind, counts, vocab.len(), range);
        if hpa_trace::is_enabled() {
            let ns = exec.predict_region_ns(n, self.config.grain, chunk_cost);
            hpa_trace::predict("tfidf", "transform", ns);
        }
        let vectors = match &counts.terms {
            TermCounts::PerDoc { docs, .. } => {
                self.score_docs(exec, n, vocab, chunk_cost, |i, keys| {
                    // Storage-order walk: sorting happens downstream on the
                    // numeric term ids (cheap), not on the words — the hash
                    // dictionary need not pay a string sort here.
                    docs[i].for_each(&mut |word, tf| {
                        if let Some((id, _)) = vocab.lookup(word) {
                            let tf = u32::try_from(tf).expect("a term frequency fits 32 bits");
                            keys.push(pack(id, tf));
                        }
                    });
                })
            }
            TermCounts::Interned(c) => {
                // Chunk-local id → term id, composed once per chunk.
                let rank = vocab.ranks_of(&c.words);
                let remaps: Vec<Vec<u32>> = c
                    .chunks
                    .iter()
                    .map(|chunk| match &chunk.to_global {
                        None => rank.to_vec(),
                        Some(map) => map.iter().map(|&id| rank[id as usize]).collect(),
                    })
                    .collect();
                self.score_docs(exec, n, vocab, chunk_cost, |i, keys| {
                    let (run, chunk) = c.run(i);
                    let remap = &remaps[chunk];
                    keys.extend(run.iter().filter_map(|&(local, tf)| {
                        let id = remap[local as usize];
                        (id != PRUNED).then(|| pack(id, tf))
                    }));
                })
            }
        };
        TfIdfModel {
            vocab: vocab.clone(),
            num_docs: vectors.len(),
            vectors,
        }
    }

    /// The transform's parallel loop over `n` documents: `fill(doc,
    /// keys)` appends the document's `pack(term id, tf)` keys and
    /// [`Vocab::score`] turns them into its vector; vectors are collected
    /// per chunk.
    fn score_docs(
        &self,
        exec: &Exec,
        n: usize,
        vocab: &Vocab,
        chunk_cost: impl Fn(Range<usize>) -> TaskCost + Sync,
        fill: impl Fn(usize, &mut Vec<u64>) + Sync,
    ) -> Vec<SparseVec> {
        let chunks: Vec<Vec<SparseVec>> = exec.par_map_chunks(
            n,
            self.config.grain,
            |range| {
                let mut keys = Vec::new();
                range
                    .map(|i| {
                        keys.clear();
                        fill(i, &mut keys);
                        vocab.score(&mut keys)
                    })
                    .collect()
            },
            chunk_cost,
        );
        chunks.into_iter().flatten().collect()
    }

    /// Convenience: phases 1 + vocabulary + 2a in sequence.
    ///
    /// # Panics
    ///
    /// When a document cannot be read, as [`TfIdf::count_words`].
    pub fn fit(&self, exec: &Exec, corpus: &Corpus) -> TfIdfModel {
        let counts = self.count_words(exec, corpus);
        let vocab = self.build_vocab(exec, &counts);
        self.transform(exec, &counts, &vocab)
    }
}

/// The ARFF header of a model: one numeric attribute per term, in id
/// order.
fn arff_header(model: &TfIdfModel) -> ArffHeader {
    ArffHeader::numeric(
        "tfidf",
        (0..model.vocab.len()).map(|id| model.vocab.word(id as u32).to_string()),
    )
}

/// Shape of a model's matrix, for a writer's up-front prediction.
fn model_stats(model: &TfIdfModel) -> MatrixStats {
    MatrixStats::of(&model.vectors, model.vocab.len())
}

/// Shape of a successful read when tracing is on. Readers learn the
/// matrix only by reading it, so their predictions are emitted post-hoc,
/// inside the span they price.
fn traced_read_stats<E>(result: &Result<(Vec<SparseVec>, usize), E>) -> Option<MatrixStats> {
    match result {
        Ok((rows, dim)) if hpa_trace::is_enabled() => Some(MatrixStats::of(rows, *dim)),
        _ => None,
    }
}

/// Phase 2b ("tfidf-output"): write the model as a sparse ARFF file.
/// Sequential by format design; charged to the simulated storage device.
pub fn write_arff<W: Write>(exec: &Exec, model: &TfIdfModel, out: W) -> Result<W, ArffError> {
    let _span = hpa_trace::span!("tfidf", "write-arff", model.vectors.len() as u64);
    if hpa_trace::is_enabled() {
        let ns = cost::arff_write_ns(&model_stats(model), exec);
        hpa_trace::predict("tfidf", "write-arff", ns);
    }
    exec.serial_costed(|| {
        let mut writer = ArffWriter::new(ByteCounter::new(out));
        let written = (|| {
            writer.write_header(&arff_header(model))?;
            for v in &model.vectors {
                writer.write_sparse_row(v)?;
            }
            Ok(())
        })();
        // Whatever happened, the bytes that reached the counter were
        // formatted and copied: charge the accumulated cost, not zero,
        // so a failed run still advances the simulated clock by the
        // work it performed.
        let cost = writer.inner().cost();
        match written.and_then(|()| writer.finish()) {
            Ok(counter) => (Ok(counter.into_inner()), cost),
            Err(e) => (Err(e), cost),
        }
    })
}

/// A format's ordered sink, as the drain thread of
/// [`write_chunks_overlapped`] sees it.
trait ChunkSink: Send {
    /// What a finished sink hands back (the caller's writer).
    type Out: Send;
    /// The format's error type.
    type Error: Send;
    /// Trace category of the protocol's spans and `queue-depth` counter.
    const CAT: &'static str;
    /// Name of the per-chunk encode span.
    const ENCODE_SPAN: &'static str;
    /// Append one encoded chunk; called in chunk order.
    fn append(&mut self, block: &[u8]) -> Result<(), Self::Error>;
    /// Bytes that reached the sink so far.
    fn bytes(&self) -> u64;
    /// Cost of the ordered drain of `bytes`.
    fn drain_cost(bytes: u64) -> TaskCost;
    /// Flush — and verify, where the format counts chunks — after the
    /// last append. Only called when every append succeeded.
    fn finish(self) -> Result<Self::Out, Self::Error>;
}

/// ARFF data rows are plain text appended behind the header.
impl<W: Write + Send> ChunkSink for ByteCounter<W> {
    type Out = W;
    type Error = ArffError;
    const CAT: &'static str = "arff";
    const ENCODE_SPAN: &'static str = "format";
    fn append(&mut self, block: &[u8]) -> Result<(), ArffError> {
        Ok(self.write_all(block)?)
    }
    fn bytes(&self) -> u64 {
        ByteCounter::bytes(self)
    }
    fn drain_cost(bytes: u64) -> TaskCost {
        cost::arff_drain_cost(bytes)
    }
    fn finish(mut self) -> Result<W, ArffError> {
        self.flush()?;
        Ok(self.into_inner())
    }
}

/// Colfmt chunk blocks are self-contained; the writer checks their order
/// on append and their count on finish.
impl<W: Write + Send> ChunkSink for ColWriter<ByteCounter<W>> {
    type Out = W;
    type Error = ColFmtError;
    const CAT: &'static str = "colfmt";
    const ENCODE_SPAN: &'static str = "write-chunk";
    fn append(&mut self, block: &[u8]) -> Result<(), ColFmtError> {
        self.write_raw_chunk(block).map_err(ColFmtError::Io)?;
        hpa_trace::counter("colfmt", "bytes-written", self.sink().bytes());
        Ok(())
    }
    fn bytes(&self) -> u64 {
        self.sink().bytes()
    }
    fn drain_cost(bytes: u64) -> TaskCost {
        cost::colfmt_drain_cost(bytes)
    }
    fn finish(self) -> Result<W, ColFmtError> {
        // A clean drain of all chunks always satisfies `finish`'s count
        // checks.
        let counter = ColWriter::finish(self).map_err(ColFmtError::Io)?;
        Ok(counter.into_inner())
    }
}

/// The pipelined-write protocol both overlapped writers instantiate.
/// `sink` has already taken the file header (a serial prefix the caller
/// charged). `encode(range, buf)` renders rows `range` into the recycled
/// buffer `buf`, chunk-parallel at `grain` rows per chunk, priced by
/// `encode_cost`; a [`Sequencer`] over a bounded channel restores chunk
/// order in front of one drain thread, which appends each chunk to the
/// sink. Buffers cycle drain → free list → encoder, so allocation is
/// bounded by channel capacity + in-flight chunks, not file size.
///
/// The first sink error ends the drain loop; dropping the receiver
/// unblocks every encoder parked on the full channel, the remaining
/// chunks are discarded, and the error is returned. Either way the drain
/// is charged for the bytes that reached the sink.
fn write_chunks_overlapped<S: ChunkSink>(
    exec: &Exec,
    rows: usize,
    grain: usize,
    sink: S,
    encode: impl Fn(Range<usize>, Vec<u8>) -> Vec<u8> + Sync,
    encode_cost: impl Fn(Range<usize>) -> TaskCost + Sync,
) -> Result<S::Out, S::Error> {
    let header_bytes = sink.bytes();
    let mut outcome = None;
    let (tx, rx) = hpa_io::channel::bounded::<Vec<u8>>(4);
    let seq = Sequencer::new(tx);
    let free: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let (seq, free) = (&seq, &free);
        let drain_handle = s.spawn(move || {
            let mut sink = sink;
            let mut failure = None;
            while let Ok(block) = rx.recv() {
                hpa_trace::counter(S::CAT, "queue-depth", rx.len() as u64);
                let _sp = hpa_trace::span!(S::CAT, "drain", block.len() as u64);
                if let Err(e) = sink.append(&block) {
                    failure = Some(e);
                    break;
                }
                let mut recycled = block;
                recycled.clear();
                free.lock().push(recycled);
            }
            drop(rx);
            let bytes = sink.bytes();
            let result = match failure {
                Some(e) => Err(e),
                None => sink.finish(),
            };
            (bytes, result)
        });

        exec.par_chunks_overlapped(
            rows,
            grain,
            |range| {
                let mut buf = free.lock().pop().unwrap_or_default();
                buf.clear();
                let _sp = hpa_trace::span!(S::CAT, S::ENCODE_SPAN, range.len() as u64);
                let index = (range.start / grain) as u64;
                // A failed drain disconnects the channel; the chunk is
                // simply dropped and the error surfaces below.
                let _ = seq.push(index, encode(range, buf));
            },
            encode_cost,
            || {
                seq.close();
                let (bytes, result) = drain_handle.join().expect("drain thread never panics");
                outcome = Some(result);
                // The header was already charged by the serial prefix.
                S::drain_cost(bytes - header_bytes)
            },
        );
    });
    outcome.expect("drain closure always runs")
}

/// Pipelined variant of [`write_arff`]: row *formatting* (the ftoa-heavy
/// part) runs chunk-parallel into reusable buffers, while a dedicated
/// drain thread copies the buffers to `out` in row order through an
/// order-preserving bounded channel ([`hpa_io::Sequencer`] over
/// [`hpa_io::channel::bounded`]).
///
/// The ARFF *stream* stays sequential — one header, rows in order —
/// so the output bytes are identical to [`write_arff`]'s; only the
/// schedule differs. Under the simulator the phase advances by
/// `max(parallel format schedule, serial drain)`, which is the paper's
/// §3.2 observation turned into a remedy: the format "does not
/// facilitate parallel output", but nothing stops the CPU-bound
/// formatting from being parallelized behind a single ordered drain.
pub fn write_arff_overlapped<W: Write + Send>(
    exec: &Exec,
    model: &TfIdfModel,
    out: W,
) -> Result<W, ArffError> {
    let _span = hpa_trace::span!("tfidf", "write-arff-overlapped", model.vectors.len() as u64);
    if hpa_trace::is_enabled() {
        let ns = cost::arff_write_overlapped_ns(&model_stats(model), exec);
        hpa_trace::predict("tfidf", "write-arff-overlapped", ns);
    }
    // Header: a serial prefix, exactly as in `write_arff`.
    let counter = exec.serial_costed(|| {
        let mut writer = ArffWriter::new(ByteCounter::new(out));
        let written = writer.write_header(&arff_header(model));
        let cost = writer.inner().cost();
        match written.and_then(|()| writer.finish()) {
            Ok(counter) => (Ok(counter), cost),
            Err(e) => (Err(e), cost),
        }
    })?;

    let dim = model.vocab.len();
    let rows = &model.vectors;
    write_chunks_overlapped(
        exec,
        rows.len(),
        cost::arff_format_grain(rows.len(), exec.threads()),
        counter,
        |range, buf| {
            let mut w = ArffWriter::continuation(buf, dim);
            for v in &rows[range] {
                w.write_sparse_row(v).expect("Vec<u8> write is infallible");
            }
            w.finish().expect("Vec<u8> flush is infallible")
        },
        |range| {
            let m = MatrixStats::of(&rows[range], dim);
            cost::arff_format_cost_for(m.rows, m.nnz)
        },
    )
}

/// "kmeans-input": read a sparse matrix back from ARFF. Sequential, like
/// the write. Returns the vectors and the attribute count (dimension).
pub fn read_arff<R: BufRead>(exec: &Exec, input: R) -> Result<(Vec<SparseVec>, usize), ArffError> {
    let _span = hpa_trace::span!("tfidf", "read-arff", 0);
    let result = exec.serial_costed(|| {
        let result = (|| {
            let mut reader = ArffReader::new(input)?;
            let dim = reader.header().dim();
            let rows = reader.read_all()?;
            Ok((rows, dim))
        })();
        let cost = match &result {
            Ok((rows, dim)) => cost::arff_read_cost_stats(&MatrixStats::of(rows, *dim)),
            Err(_) => TaskCost::default(),
        };
        (result, cost)
    });
    if let Some(m) = traced_read_stats(&result) {
        hpa_trace::predict("tfidf", "read-arff", cost::arff_read_ns(&m, exec));
    }
    result
}

/// The chunk-parallel read protocol both parallel readers instantiate:
/// `decode(ci)` decodes chunk `ci` in parallel (priced by `cost`), and
/// the chunks append to `rows` in chunk order. When chunks fail, the
/// earliest chunk's error wins — what a streaming reader, which stops at
/// the first bad chunk, would report.
fn read_chunks_parallel<E: Send>(
    exec: &Exec,
    nchunks: usize,
    rows: &mut Vec<SparseVec>,
    decode: impl Fn(usize) -> Result<Vec<SparseVec>, E> + Sync,
    cost: impl Fn(Range<usize>) -> TaskCost + Sync,
) -> Result<(), E> {
    let decoded = exec.par_map_chunks(nchunks, 1, |chunk| decode(chunk.start), cost);
    for chunk in decoded {
        rows.extend(chunk?);
    }
    Ok(())
}

/// Chunked-parallel variant of [`read_arff`]: the header parses serially,
/// the data section is slurped once and split into line-aligned chunks,
/// and each chunk's rows parse in parallel via
/// [`hpa_arff::parse_data_line`] — value-identical to the streaming
/// reader, in the same order. Parse errors report the same 1-based line
/// numbers the streaming reader would.
pub fn read_arff_parallel<R: BufRead>(
    exec: &Exec,
    input: R,
) -> Result<(Vec<SparseVec>, usize), ArffError> {
    let _span = hpa_trace::span!("tfidf", "read-arff-parallel", 0);
    let result = (|| {
        // Serial prefix 1: the header (tiny, order-dependent).
        let (header, mut input, header_lines) =
            exec.serial_costed(|| match ArffReader::new(input) {
                Ok(reader) => {
                    let cost = cost::arff_header_cost(reader.header().dim());
                    (Ok(reader.into_parts()), cost)
                }
                Err(e) => (Err(e), TaskCost::default()),
            })?;
        let dim = header.dim();

        // Serial prefix 2: slurp the data section (a page-cache-warm copy
        // — the file was written moments earlier by the same workflow).
        let data = exec.serial_costed(|| {
            let mut data = Vec::new();
            let result = match input.read_to_end(&mut data) {
                Ok(_) => Ok(data),
                Err(e) => Err(ArffError::from(e)),
            };
            let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
            (result, cost::arff_slurp_cost(bytes))
        })?;

        // Line-aligned chunk boundaries: each chunk ends just after a
        // '\n' (or at EOF), so every line belongs to exactly one chunk.
        let target = cost::arff_parse_target(data.len(), exec.threads());
        let mut bounds = vec![0usize];
        let mut pos = 0;
        while pos < data.len() {
            let mut end = (pos + target).min(data.len());
            while end < data.len() && data[end - 1] != b'\n' {
                end += 1;
            }
            bounds.push(end);
            pos = end;
        }

        let mut rows = Vec::new();
        read_chunks_parallel(
            exec,
            bounds.len() - 1,
            &mut rows,
            |ci| {
                let bytes = &data[bounds[ci]..bounds[ci + 1]];
                let _sp = hpa_trace::span!("arff", "parse-chunk", bytes.len() as u64);
                parse_data_chunk(bytes, dim).map_err(|(line_in_chunk, message)| {
                    // Absolute line number, computed lazily (only on the
                    // error path): header lines + data lines in earlier
                    // chunks + offset within this chunk.
                    let preceding = data[..bounds[ci]].iter().filter(|&&b| b == b'\n').count();
                    let line = header_lines + preceding + line_in_chunk;
                    ArffError::Parse { line, message }
                })
            },
            |chunks| {
                let bytes: u64 = chunks.map(|ci| (bounds[ci + 1] - bounds[ci]) as u64).sum();
                cost::arff_parse_chunk_cost(bytes)
            },
        )?;
        Ok((rows, dim))
    })();
    if let Some(m) = traced_read_stats(&result) {
        let ns = cost::arff_read_parallel_ns(&m, exec);
        hpa_trace::predict("tfidf", "read-arff-parallel", ns);
    }
    result
}

/// Binary variant of [`write_arff`]: stream the model into the
/// chunk-aligned colfmt intermediate (`hpa_colfmt`), serially. The
/// emitted bytes are deterministic for a fixed model — the chunk grain
/// is [`hpa_colfmt::DEFAULT_CHUNK_ROWS`], never the thread count — and
/// identical to [`write_colfmt_overlapped`]'s.
pub fn write_colfmt<W: Write>(exec: &Exec, model: &TfIdfModel, out: W) -> Result<W, ColFmtError> {
    let _span = hpa_trace::span!("tfidf", "write-colfmt", model.vectors.len() as u64);
    if hpa_trace::is_enabled() {
        let ns = cost::colfmt_write_ns(&model_stats(model), exec);
        hpa_trace::predict("tfidf", "write-colfmt", ns);
    }
    let chunk_rows = hpa_colfmt::DEFAULT_CHUNK_ROWS;
    exec.serial_costed(|| {
        let mut w = match ColWriter::new(
            ByteCounter::new(out),
            model.vectors.len() as u64,
            model.vocab.len() as u64,
            chunk_rows,
        ) {
            Ok(w) => w,
            // The counter died with the writer; the lost charge is the
            // 32-byte header — noise.
            Err(e) => return (Err(ColFmtError::Io(e)), TaskCost::default()),
        };
        for chunk in model.vectors.chunks(chunk_rows) {
            if let Err(e) = w.write_chunk(chunk) {
                // Charge the work that reached the counter before the
                // failure, mirroring `write_arff`.
                let cost = w.sink().cost();
                return (Err(ColFmtError::Io(e)), cost);
            }
        }
        let cost = w.sink().cost();
        match w.finish() {
            Ok(counter) => (Ok(counter.into_inner()), cost),
            Err(e) => (Err(ColFmtError::Io(e)), cost),
        }
    })
}

/// Pipelined variant of [`write_colfmt`], the binary sibling of
/// [`write_arff_overlapped`]: chunk *encoding* (varint packing,
/// checksumming) runs chunk-parallel into reusable blocks, while a
/// dedicated drain thread appends the blocks in document order through
/// the same [`Sequencer`] + bounded-channel protocol. Chunk blocks are
/// self-contained — each carries its own header and checksum — so the
/// only serial work left is the ordered append itself.
pub fn write_colfmt_overlapped<W: Write + Send>(
    exec: &Exec,
    model: &TfIdfModel,
    out: W,
) -> Result<W, ColFmtError> {
    let _span = hpa_trace::span!(
        "tfidf",
        "write-colfmt-overlapped",
        model.vectors.len() as u64
    );
    if hpa_trace::is_enabled() {
        let ns = cost::colfmt_write_overlapped_ns(&model_stats(model), exec);
        hpa_trace::predict("tfidf", "write-colfmt-overlapped", ns);
    }
    let rows = &model.vectors;
    let dim = model.vocab.len();
    // Fixed grain: the chunk layout is part of the byte format, so it
    // must not depend on the executor (serial and pipelined writers
    // produce identical files).
    let chunk_rows = hpa_colfmt::DEFAULT_CHUNK_ROWS;

    // Serial prefix: the 32-byte file header.
    let writer = exec.serial_costed(|| {
        match ColWriter::new(
            ByteCounter::new(out),
            rows.len() as u64,
            dim as u64,
            chunk_rows,
        ) {
            Ok(w) => (Ok(w), cost::colfmt_header_cost()),
            Err(e) => (Err(ColFmtError::Io(e)), TaskCost::default()),
        }
    })?;

    write_chunks_overlapped(
        exec,
        rows.len(),
        chunk_rows,
        writer,
        |range, mut block| {
            encode_chunk(&rows[range.clone()], range.start as u64, &mut block);
            block
        },
        |range| {
            let m = MatrixStats::of(&rows[range], dim);
            cost::colfmt_encode_cost_for(m.rows, m.nnz)
        },
    )
}

/// Binary variant of [`read_arff`]: stream the colfmt intermediate back
/// chunk by chunk, serially. Returns the vectors and the dimension.
pub fn read_colfmt<R: Read>(exec: &Exec, input: R) -> Result<(Vec<SparseVec>, usize), ColFmtError> {
    let _span = hpa_trace::span!("tfidf", "read-colfmt", 0);
    let result = exec.serial_costed(|| {
        let result = (|| {
            let reader = ColReader::new(input)?;
            let dim = colfmt_dim(reader.header().dim)?;
            let rows = reader.read_all()?;
            Ok((rows, dim))
        })();
        let cost = match &result {
            Ok((rows, dim)) => cost::colfmt_read_cost_stats(&MatrixStats::of(rows, *dim)),
            Err(_) => TaskCost::default(),
        };
        (result, cost)
    });
    if let Some(m) = traced_read_stats(&result) {
        hpa_trace::predict("tfidf", "read-colfmt", cost::colfmt_read_ns(&m, exec));
    }
    result
}

/// A colfmt header's dimension as a `usize`.
fn colfmt_dim(dim: u64) -> Result<usize, ColFmtError> {
    usize::try_from(dim)
        .map_err(|_| ColFmtError::corrupt_header(format!("dimension {dim} overflows usize")))
}

/// Chunks the parallel binary reader holds per thread: a window of
/// `threads` × this many whole chunks is read, then decoded in parallel.
const WINDOW_CHUNKS_PER_THREAD: usize = 2;

/// Chunk-parallel variant of [`read_colfmt`], the binary sibling of
/// [`read_arff_parallel`]. It reads a window of whole chunks at a time
/// into one reused buffer (serial: fixed headers and payload bytes,
/// through the streaming reader's checks), then checksums and decodes
/// the window's chunks in parallel — chunk independence makes the split
/// trivial, no line-boundary search required. The window holds two
/// chunks per thread, so the file is never resident whole.
/// Value-identical to the streaming reader, in the same order; a fault
/// reports what the streaming reader reports, since a window's chunks
/// are decoded before the fault that ended its read.
pub fn read_colfmt_parallel<R: Read>(
    exec: &Exec,
    input: R,
) -> Result<(Vec<SparseVec>, usize), ColFmtError> {
    let _span = hpa_trace::span!("tfidf", "read-colfmt-parallel", 0);
    let result = (|| {
        // Serial prefix: the file header.
        let mut reader = exec.serial_costed(|| match ColReader::new(input) {
            Ok(reader) => {
                let bytes = hpa_colfmt::FILE_HEADER_LEN as u64;
                (Ok(reader), cost::colfmt_fill_cost(bytes))
            }
            Err(e) => (Err(e), TaskCost::default()),
        })?;
        let header = reader.header();
        let dim = colfmt_dim(header.dim)?;
        let max_chunks = WINDOW_CHUNKS_PER_THREAD * exec.threads();
        let mut window = ChunkWindow::default();
        let mut rows = Vec::with_capacity(reader.rows_hint());
        for ordinal in 0u64.. {
            let _sp = hpa_trace::span!("colfmt", "read-window", ordinal);
            // Serial: read the next window (chunk headers and payloads).
            let more = exec.serial_costed(|| {
                let more = reader.fill_window(&mut window, max_chunks);
                let cost = cost::colfmt_fill_cost(window.bytes_read())
                    + cost::colfmt_index_cost(window.len() as u64);
                (more, cost)
            });
            read_chunks_parallel(
                exec,
                window.len(),
                &mut rows,
                |ci| {
                    let _sp = hpa_trace::span!("colfmt", "read-chunk", window.block_len(ci));
                    window.decode(ci, header.dim)
                },
                |chunks| {
                    cost::colfmt_decode_chunk_cost(chunks.map(|ci| window.block_len(ci)).sum())
                },
            )?;
            if !more? {
                break;
            }
        }
        Ok((rows, dim))
    })();
    if let Some(m) = traced_read_stats(&result) {
        let ns = cost::colfmt_read_parallel_ns(&m, exec);
        hpa_trace::predict("tfidf", "read-colfmt-parallel", ns);
    }
    result
}

/// Parse one line-aligned chunk; errors carry the 1-based line offset
/// *within the chunk* (converted to an absolute number by the caller).
fn parse_data_chunk(bytes: &[u8], dim: usize) -> Result<Vec<SparseVec>, (usize, String)> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| (1, format!("data section is not valid UTF-8: {e}")))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_data_line(line, dim, i + 1) {
            Ok(Some(row)) => rows.push(row),
            Ok(None) => {}
            Err(ArffError::Parse { line, message }) => return Err((line, message)),
            Err(ArffError::Io(e)) => return Err((i + 1, format!("i/o error: {e}"))),
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_corpus::Document;

    fn corpus() -> Corpus {
        Corpus::from_documents(
            "t",
            vec![
                Document {
                    id: 0,
                    name: "a".into(),
                    text: "apple banana apple".into(),
                },
                Document {
                    id: 1,
                    name: "b".into(),
                    text: "banana cherry".into(),
                },
                Document {
                    id: 2,
                    name: "c".into(),
                    text: "apple cherry cherry dates".into(),
                },
            ],
        )
    }

    fn op(kind: DictKind) -> TfIdf {
        TfIdf::new(TfIdfConfig {
            dict_kind: kind,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        })
    }

    #[test]
    fn word_counts_match_hand_computation() {
        for kind in [DictKind::BTree, DictKind::Hash, DictKind::Arena] {
            let exec = Exec::sequential();
            let counts = op(kind).count_words(&exec, &corpus());
            assert_eq!(counts.num_docs(), 3);
            assert_eq!(counts.tf(0, "apple"), Some(2));
            assert_eq!(counts.tf(0, "banana"), Some(1));
            assert_eq!(counts.tf(0, "cherry"), None);
            assert_eq!(counts.tf(2, "cherry"), Some(2));
            assert_eq!(counts.distinct_terms(2), 3);
            assert_eq!(counts.per_doc[0].total_terms, 3);
            assert_eq!(counts.df("apple"), Some(2));
            assert_eq!(counts.df("banana"), Some(2));
            assert_eq!(counts.df("cherry"), Some(2));
            assert_eq!(counts.df("dates"), Some(1));
            assert_eq!(counts.df("missing"), None);
            assert_eq!(counts.num_terms(), 4);
        }
    }

    /// `corpus` written one file per document into a fresh directory.
    fn on_disk(corpus: &Corpus, tag: &str) -> (std::path::PathBuf, Corpus) {
        let dir = std::env::temp_dir().join(format!("hpa_tfidf_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        hpa_corpus::disk::write_corpus(corpus, &dir).unwrap();
        let loaded = hpa_io::load_corpus_parallel(&Exec::sequential(), "t", &dir).unwrap();
        (dir, loaded)
    }

    #[test]
    fn a_directory_corpus_counts_as_its_text_in_memory() {
        let memory = hpa_corpus::CorpusSpec::mix().scaled(0.002).generate(4);
        let (dir, disk) = on_disk(&memory, "same");
        for kind in [DictKind::BTree, DictKind::Hash, DictKind::Arena] {
            for exec in [Exec::sequential(), Exec::pool(2)] {
                let o = TfIdf::new(TfIdfConfig {
                    dict_kind: kind,
                    grain: 5,
                    ..Default::default()
                });
                let (a, b) = (o.fit(&exec, &memory), o.fit(&exec, &disk));
                assert_eq!(a.vocab.len(), b.vocab.len(), "{kind:?}");
                assert_eq!(a.vectors, b.vectors, "{kind:?} {exec:?}");
                let counts = o.count_words(&exec, &disk);
                assert_eq!(counts.bytes, memory.total_bytes(), "{kind:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_read_fails_the_count_and_names_the_file() {
        let memory = hpa_corpus::CorpusSpec::mix().scaled(0.002).generate(4);
        let (dir, disk) = on_disk(&memory, "fail");
        std::fs::write(dir.join("doc_000007.txt"), b"bad \xff byte").unwrap();
        std::fs::remove_file(dir.join("doc_000030.txt")).unwrap();
        for kind in [DictKind::BTree, DictKind::Arena] {
            for (exec, grain) in [
                (Exec::sequential(), 0),
                (Exec::pool(2), 4),
                (Exec::pool(2), 0),
            ] {
                let o = TfIdf::new(TfIdfConfig {
                    dict_kind: kind,
                    grain,
                    ..Default::default()
                });
                // The earlier of the two failing documents.
                let err = o.try_count_words(&exec, &disk).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{kind:?}");
                assert!(err.to_string().contains("doc_000007.txt"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "doc_000000.txt")]
    fn count_words_panics_with_the_path() {
        let memory = hpa_corpus::CorpusSpec::mix().scaled(0.002).generate(4);
        let (dir, disk) = on_disk(&memory, "panic");
        std::fs::remove_dir_all(&dir).unwrap();
        op(DictKind::Arena).count_words(&Exec::sequential(), &disk);
    }

    #[test]
    fn simulated_load_charges_io_time() {
        // The files of a directory corpus are read by the count, so a
        // simulated count charges their bytes to the storage device.
        let memory = hpa_corpus::CorpusSpec::mix().scaled(0.001).generate(3);
        let (dir, disk) = on_disk(&memory, "sim");
        // A very slow simulated disk: the virtual clock must reflect it.
        let model = hpa_exec::MachineModel {
            io_read_bandwidth: 1.0e6, // 1 MB/s
            ..hpa_exec::MachineModel::frictionless()
        };
        let exec = Exec::simulated(8, model);
        let counts = TfIdf::default().count_words(&exec, &disk);
        let expected_ns = counts.bytes as f64 / 1.0e6 * 1e9;
        let clock = exec.now().as_nanos() as f64;
        assert!(
            clock >= expected_ns * 0.99,
            "clock {clock} vs expected {expected_ns}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vocabulary_ids_rank_by_df_then_word() {
        // df: apple, banana and cherry 2, dates 1.
        let exec = Exec::sequential();
        let o = op(DictKind::Hash);
        let counts = o.count_words(&exec, &corpus());
        let vocab = o.build_vocab(&exec, &counts);
        assert_eq!(vocab.len(), 4);
        assert_eq!(vocab.word(0), "apple");
        assert_eq!(vocab.word(1), "banana");
        assert_eq!(vocab.word(2), "cherry");
        assert_eq!(vocab.word(3), "dates");
        assert_eq!(vocab.lookup("cherry"), Some((2, 2)));
        assert_eq!(vocab.lookup("missing"), None);
    }

    #[test]
    fn tfidf_scores_match_formula() {
        let exec = Exec::sequential();
        let o = op(DictKind::default());
        let model = o.fit(&exec, &corpus());
        assert_eq!(model.vectors.len(), 3);
        // Doc 0: apple tf=2 df=2, banana tf=1 df=2; idf = ln(3/2) both.
        let idf = (3.0f64 / 2.0).ln();
        let raw_apple = 2.0 * idf;
        let raw_banana = 1.0 * idf;
        let norm = (raw_apple * raw_apple + raw_banana * raw_banana).sqrt();
        let v0 = &model.vectors[0];
        assert!((v0.get(0) - raw_apple / norm).abs() < 1e-12);
        assert!((v0.get(1) - raw_banana / norm).abs() < 1e-12);
        // Vectors are unit-normalized.
        for v in &model.vectors {
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn both_dict_kinds_produce_identical_models() {
        let exec = Exec::sequential();
        let a = op(DictKind::BTree).fit(&exec, &corpus());
        let b = op(DictKind::Hash).fit(&exec, &corpus());
        assert_eq!(a.vectors.len(), b.vectors.len());
        for (x, y) in a.vectors.iter().zip(&b.vectors) {
            assert_eq!(x.terms(), y.terms());
            for (wx, wy) in x.weights().iter().zip(y.weights()) {
                assert!((wx - wy).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn every_dict_kind_is_bit_identical_to_the_tree() {
        // Stronger than the tolerance check above: same f64 bits. Term
        // ids come from one rank and each weight is computed from
        // (tf, df, N) in term-id order, so storage layout must not leak
        // into the output at all.
        let exec = Exec::sequential();
        let reference = op(DictKind::BTree).fit(&exec, &corpus());
        for kind in [DictKind::Hash, DictKind::PAPER_PRESIZE, DictKind::Arena] {
            let other = op(kind).fit(&exec, &corpus());
            assert_eq!(reference.vocab.len(), other.vocab.len(), "{kind:?}");
            for id in 0..reference.vocab.len() as u32 {
                assert_eq!(reference.vocab.word(id), other.vocab.word(id), "{kind:?}");
                assert_eq!(reference.vocab.df(id), other.vocab.df(id), "{kind:?}");
            }
            for (x, y) in reference.vectors.iter().zip(&other.vectors) {
                assert_eq!(x.terms(), y.terms(), "{kind:?}");
                assert_eq!(x.weights(), y.weights(), "{kind:?}");
            }
        }
    }

    #[test]
    fn auto_is_a_synonym_for_arena() {
        // Everything the three phases produce, in comparable form.
        let snapshot = |kind: DictKind, exec: &Exec| {
            let o = op(kind);
            let counts = o.count_words(exec, &corpus());
            let vocab = o.build_vocab(exec, &counts);
            let model = o.transform(exec, &counts, &vocab);
            let words: Vec<String> = (0..vocab.len() as u32)
                .map(|id| vocab.word(id).to_string())
                .collect();
            assert_eq!(words.len(), counts.num_terms(), "nothing is pruned");
            let df: Vec<_> = words.iter().map(|w| counts.df(w)).collect();
            let per_doc: Vec<_> = (0..counts.num_docs())
                .map(|doc| {
                    let tf: Vec<_> = words.iter().map(|w| counts.tf(doc, w)).collect();
                    (counts.per_doc[doc].total_terms, tf)
                })
                .collect();
            let terms: Vec<_> = (0..vocab.len() as u32).map(|id| vocab.df(id)).collect();
            let vectors: Vec<_> = model
                .vectors
                .iter()
                .map(|v| {
                    let bits: Vec<u64> = v.weights().iter().map(|w| w.to_bits()).collect();
                    (v.terms().to_vec(), bits)
                })
                .collect();
            (counts.dict_kind, words, df, per_doc, terms, vectors)
        };
        for exec in [Exec::sequential(), Exec::pool(3)] {
            assert_eq!(
                snapshot(DictKind::Auto, &exec),
                snapshot(DictKind::Arena, &exec)
            );
        }
    }

    #[test]
    fn results_identical_across_executors() {
        for kind in [DictKind::BTree, DictKind::Arena] {
            let seq = op(kind).fit(&Exec::sequential(), &corpus());
            for exec in [
                Exec::pool(3),
                Exec::simulated(4, hpa_exec::MachineModel::default()),
            ] {
                let other = op(kind).fit(&exec, &corpus());
                assert_eq!(seq.vectors.len(), other.vectors.len());
                for (x, y) in seq.vectors.iter().zip(&other.vectors) {
                    assert_eq!(x.terms(), y.terms(), "{kind:?} under {exec:?}");
                    assert_eq!(x.weights(), y.weights(), "{kind:?} under {exec:?}");
                }
            }
        }
    }

    #[test]
    fn arff_round_trip_preserves_matrix() {
        let exec = Exec::sequential();
        let model = op(DictKind::default()).fit(&exec, &corpus());
        let bytes = write_arff(&exec, &model, Vec::new()).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.contains("@ATTRIBUTE apple NUMERIC"));
        let (rows, dim) = read_arff(&exec, std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(dim, 4);
        assert_eq!(rows.len(), 3);
        for (orig, got) in model.vectors.iter().zip(&rows) {
            assert_eq!(orig.terms(), got.terms());
            for (a, b) in orig.weights().iter().zip(got.weights()) {
                assert_eq!(a, b, "f64 display round-trips exactly");
            }
        }
    }

    #[test]
    fn overlapped_write_is_byte_identical_to_serial() {
        let model = op(DictKind::default()).fit(&Exec::sequential(), &corpus());
        let serial = write_arff(&Exec::sequential(), &model, Vec::new()).unwrap();
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ] {
            let overlapped = write_arff_overlapped(&exec, &model, Vec::new()).unwrap();
            assert_eq!(serial, overlapped, "bytes must be identical under {exec:?}");
        }
    }

    #[test]
    fn overlapped_write_of_empty_model_is_header_only() {
        let exec = Exec::sequential();
        let model = op(DictKind::default()).fit(&exec, &Corpus::default());
        let serial = write_arff(&exec, &model, Vec::new()).unwrap();
        let overlapped = write_arff_overlapped(&exec, &model, Vec::new()).unwrap();
        assert_eq!(serial, overlapped);
    }

    #[test]
    fn parallel_read_matches_streaming_reader() {
        // Enough rows that the data section splits into several chunks.
        let mut w = hpa_arff::ArffWriter::new(Vec::new());
        let dim = 50usize;
        w.write_header(&ArffHeader::numeric(
            "t",
            (0..dim).map(|i| format!("term{i}")),
        ))
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..3000u32 {
            let v = SparseVec::from_pairs(vec![
                (i % 50, 0.25 + i as f64 * 0.001),
                ((i * 7 + 3) % 50, 1.5),
            ]);
            w.write_sparse_row(&v).unwrap();
            rows.push(v);
        }
        let bytes = w.finish().unwrap();
        assert!(bytes.len() > 32 * 1024, "need a multi-chunk data section");
        let (serial, sdim) =
            read_arff(&Exec::sequential(), std::io::Cursor::new(bytes.clone())).unwrap();
        assert_eq!(sdim, dim);
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ] {
            let (parallel, pdim) =
                read_arff_parallel(&exec, std::io::Cursor::new(bytes.clone())).unwrap();
            assert_eq!(pdim, dim, "under {exec:?}");
            assert_eq!(parallel.len(), serial.len(), "under {exec:?}");
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.terms(), b.terms(), "under {exec:?}");
                assert_eq!(a.weights(), b.weights(), "value-identical under {exec:?}");
            }
        }
    }

    #[test]
    fn parallel_read_reports_the_streaming_line_number() {
        let text = "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE b NUMERIC\n@DATA\n\
                    {0 1.5}\n{1 bad}\n{0 2}\n";
        let serial = read_arff(&Exec::sequential(), std::io::Cursor::new(text.as_bytes()))
            .unwrap_err()
            .to_string();
        let parallel = read_arff_parallel(&Exec::pool(2), std::io::Cursor::new(text.as_bytes()))
            .unwrap_err()
            .to_string();
        assert_eq!(serial, parallel, "same error, same line");
        assert!(parallel.contains("line 6"), "{parallel}");
    }

    /// A writer that accepts only the first `cap` bytes, then fails.
    struct Truncating {
        cap: usize,
        written: usize,
    }
    impl Write for Truncating {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written + buf.len() > self.cap {
                return Err(std::io::Error::other("disk full"));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_write_still_charges_the_work_it_did() {
        let model = op(DictKind::default()).fit(&Exec::sequential(), &corpus());
        let full = write_arff(&Exec::sequential(), &model, Vec::new()).unwrap();
        for overlapped in [false, true] {
            let exec = Exec::simulated(2, hpa_exec::MachineModel::default());
            let out = Truncating {
                cap: full.len() / 2,
                written: 0,
            };
            let before = exec.now();
            let result = if overlapped {
                write_arff_overlapped(&exec, &model, out).map(|_| ())
            } else {
                write_arff(&exec, &model, out).map(|_| ())
            };
            assert!(result.is_err(), "truncated output must fail");
            assert!(
                exec.now() > before,
                "the bytes formatted before the failure cost time (overlapped={overlapped})"
            );
        }
    }

    fn assert_matrix_bits_equal(a: &[SparseVec], b: &[SparseVec], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.terms(), y.terms(), "{ctx}");
            let xb: Vec<u64> = x.weights().iter().map(|w| w.to_bits()).collect();
            let yb: Vec<u64> = y.weights().iter().map(|w| w.to_bits()).collect();
            assert_eq!(xb, yb, "weights must be bit-identical: {ctx}");
        }
    }

    #[test]
    fn colfmt_round_trip_preserves_matrix_bit_exactly() {
        let exec = Exec::sequential();
        let model = op(DictKind::default()).fit(&exec, &corpus());
        let bytes = write_colfmt(&exec, &model, Vec::new()).unwrap();
        let (rows, dim) = read_colfmt(&exec, std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(dim, 4);
        assert_matrix_bits_equal(&model.vectors, &rows, "serial colfmt round trip");
    }

    #[test]
    fn colfmt_overlapped_write_is_byte_identical_to_serial() {
        let model = op(DictKind::default()).fit(&Exec::sequential(), &corpus());
        let serial = write_colfmt(&Exec::sequential(), &model, Vec::new()).unwrap();
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ] {
            let overlapped = write_colfmt_overlapped(&exec, &model, Vec::new()).unwrap();
            assert_eq!(serial, overlapped, "bytes must be identical under {exec:?}");
        }
    }

    #[test]
    fn colfmt_overlapped_write_of_empty_model_is_header_only() {
        let exec = Exec::sequential();
        let model = op(DictKind::default()).fit(&exec, &Corpus::default());
        let serial = write_colfmt(&exec, &model, Vec::new()).unwrap();
        let overlapped = write_colfmt_overlapped(&exec, &model, Vec::new()).unwrap();
        assert_eq!(serial, overlapped);
        assert_eq!(serial.len(), hpa_colfmt::FILE_HEADER_LEN);
    }

    #[test]
    fn colfmt_parallel_read_matches_streaming_reader() {
        // Enough rows for a dozen chunks at the fixed grain.
        let n = 4 * hpa_colfmt::DEFAULT_CHUNK_ROWS + 17;
        let dim = 64u64;
        let rows: Vec<SparseVec> = (0..n as u32)
            .map(|i| {
                SparseVec::from_pairs(vec![
                    (i % 50, 0.25 + i as f64 * 0.001),
                    ((i * 7 + 3) % 64, 1.5),
                ])
            })
            .collect();
        let mut w =
            ColWriter::new(Vec::new(), n as u64, dim, hpa_colfmt::DEFAULT_CHUNK_ROWS).unwrap();
        for chunk in rows.chunks(hpa_colfmt::DEFAULT_CHUNK_ROWS) {
            w.write_chunk(chunk).unwrap();
        }
        let bytes = w.finish().unwrap();
        let (serial, sdim) =
            read_colfmt(&Exec::sequential(), std::io::Cursor::new(bytes.clone())).unwrap();
        assert_eq!(sdim, dim as usize);
        assert_matrix_bits_equal(&rows, &serial, "streaming reader");
        for exec in [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ] {
            let (parallel, pdim) =
                read_colfmt_parallel(&exec, std::io::Cursor::new(bytes.clone())).unwrap();
            assert_eq!(pdim, dim as usize, "under {exec:?}");
            assert_matrix_bits_equal(&serial, &parallel, "parallel reader");
        }
    }

    #[test]
    fn colfmt_matrix_is_bit_identical_to_arff_matrix() {
        // The cross-format equivalence suite: whatever intermediate the
        // planner picks, the k-means operator must see the same bits.
        // Randomized end-to-end arm: several generated corpora, every
        // executor flavor, both schedules of both formats.
        for seed in [1u64, 7, 20160315] {
            let c = hpa_corpus::CorpusSpec::mix().scaled(0.002).generate(seed);
            let model = op(DictKind::default()).fit(&Exec::sequential(), &c);
            let arff_bytes = write_arff(&Exec::sequential(), &model, Vec::new()).unwrap();
            let col_bytes = write_colfmt(&Exec::sequential(), &model, Vec::new()).unwrap();
            assert!(
                col_bytes.len() * 2 < arff_bytes.len(),
                "binary must be much smaller: {} vs {} (seed {seed})",
                col_bytes.len(),
                arff_bytes.len()
            );
            for exec in [Exec::pool(3), Exec::sequential()] {
                let over = write_colfmt_overlapped(&exec, &model, Vec::new()).unwrap();
                assert_eq!(col_bytes, over, "deterministic bytes (seed {seed})");
                let (via_arff, adim) =
                    read_arff_parallel(&exec, std::io::Cursor::new(arff_bytes.clone())).unwrap();
                let (via_col, cdim) =
                    read_colfmt_parallel(&exec, std::io::Cursor::new(col_bytes.clone())).unwrap();
                assert_eq!(adim, cdim, "seed {seed}");
                assert_matrix_bits_equal(
                    &via_arff,
                    &via_col,
                    &format!("arff vs colfmt, seed {seed}, {exec:?}"),
                );
                assert_matrix_bits_equal(
                    &model.vectors,
                    &via_col,
                    &format!("model vs colfmt, seed {seed}, {exec:?}"),
                );
            }
        }
    }

    #[test]
    fn colfmt_failed_write_still_charges_the_work_it_did() {
        let model = op(DictKind::default()).fit(&Exec::sequential(), &corpus());
        let full = write_colfmt(&Exec::sequential(), &model, Vec::new()).unwrap();
        for overlapped in [false, true] {
            let exec = Exec::simulated(2, hpa_exec::MachineModel::default());
            let out = Truncating {
                cap: full.len() / 2,
                written: 0,
            };
            let before = exec.now();
            let result = if overlapped {
                write_colfmt_overlapped(&exec, &model, out).map(|_| ())
            } else {
                write_colfmt(&exec, &model, out).map(|_| ())
            };
            assert!(result.is_err(), "truncated output must fail");
            assert!(
                exec.now() > before,
                "the bytes encoded before the failure cost time (overlapped={overlapped})"
            );
        }
    }

    /// A colfmt file of `chunks` full chunks of one-entry rows, and the
    /// byte range of each chunk's payload in it.
    fn colfmt_file(chunks: usize) -> (Vec<SparseVec>, Vec<u8>, Vec<Range<usize>>) {
        let chunk_rows = hpa_colfmt::DEFAULT_CHUNK_ROWS;
        let n = chunks * chunk_rows;
        let rows: Vec<SparseVec> = (0..n as u32)
            .map(|i| SparseVec::from_pairs(vec![(i % 40, 1.0 + i as f64)]))
            .collect();
        let mut w = ColWriter::new(Vec::new(), n as u64, 40, chunk_rows).unwrap();
        for chunk in rows.chunks(chunk_rows) {
            w.write_chunk(chunk).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut payloads = Vec::new();
        let mut pos = hpa_colfmt::FILE_HEADER_LEN;
        while pos < bytes.len() {
            let at = pos + hpa_colfmt::CHUNK_HEADER_LEN;
            let header = hpa_colfmt::ChunkHeader::decode(bytes[pos..at].try_into().unwrap());
            pos = at + header.payload_len as usize;
            payloads.push(at..pos);
        }
        assert_eq!(payloads.len(), chunks);
        (rows, bytes, payloads)
    }

    /// Flip one bit in the middle of each of `chunks`' payloads.
    fn corrupt_chunks(bytes: &mut [u8], payloads: &[Range<usize>], chunks: &[usize]) {
        for &ci in chunks {
            let range = &payloads[ci];
            bytes[range.start + range.len() / 2] ^= 0x20;
        }
    }

    #[test]
    fn colfmt_readers_agree_on_the_corrupt_chunk() {
        let exec = Exec::sequential();
        let (_, mut bytes, payloads) = colfmt_file(3);
        // Corrupt the middle chunk's payload (and, further on, the last
        // chunk's): the parallel reader must report the *earliest* bad
        // chunk, matching the streaming reader's stop-at-first behavior.
        corrupt_chunks(&mut bytes, &payloads, &[1, 2]);
        let serial = read_colfmt(&exec, std::io::Cursor::new(bytes.clone()))
            .unwrap_err()
            .to_string();
        let parallel = read_colfmt_parallel(&Exec::pool(3), std::io::Cursor::new(bytes))
            .unwrap_err()
            .to_string();
        assert!(serial.contains("chunk 1"), "{serial}");
        assert!(parallel.contains("chunk 1"), "{parallel}");
        assert!(serial.contains("checksum mismatch"), "{serial}");
    }

    /// Executors whose windows (two chunks per thread) hold 2, 4 and 8
    /// chunks: each reads a nine-chunk file in several windows.
    fn windowed_execs() -> [Exec; 3] {
        [
            Exec::sequential(),
            Exec::pool(2),
            Exec::simulated(4, hpa_exec::MachineModel::default()),
        ]
    }

    /// A byte source that counts what it hands out.
    struct Counting<'a> {
        bytes: &'a [u8],
        read: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (&self.bytes[self.read..]).read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn colfmt_parallel_read_spans_several_windows() {
        let (rows, bytes, payloads) = colfmt_file(9);
        let mut bad_first = bytes.clone();
        corrupt_chunks(&mut bad_first, &payloads, &[0]);
        for exec in windowed_execs() {
            let window = WINDOW_CHUNKS_PER_THREAD * exec.threads();
            assert!(9 > window);
            let (read, dim) = read_colfmt_parallel(&exec, std::io::Cursor::new(&bytes)).unwrap();
            assert_eq!(dim, 40);
            assert_matrix_bits_equal(&rows, &read, &format!("windowed read under {exec:?}"));
            // The first window is decoded before the second is read: a
            // corrupt first chunk stops the read at the window's end.
            let mut source = Counting {
                bytes: &bad_first,
                read: 0,
            };
            let err = read_colfmt_parallel(&exec, &mut source).unwrap_err();
            assert!(err.to_string().contains("chunk 0:"), "{err}");
            assert_eq!(source.read, payloads[window - 1].end, "under {exec:?}");
        }
    }

    #[test]
    fn colfmt_corrupt_chunk_in_a_later_window_is_named_on_both_paths() {
        let (_, clean, payloads) = colfmt_file(9);
        for bad in [7usize, 8] {
            let mut bytes = clean.clone();
            corrupt_chunks(&mut bytes, &payloads, &[bad]);
            let serial = read_colfmt(&Exec::sequential(), std::io::Cursor::new(&bytes))
                .unwrap_err()
                .to_string();
            assert!(serial.contains(&format!("chunk {bad}:")), "{serial}");
            assert!(serial.contains("checksum mismatch"), "{serial}");
            for exec in windowed_execs() {
                let parallel = read_colfmt_parallel(&exec, std::io::Cursor::new(&bytes))
                    .unwrap_err()
                    .to_string();
                assert_eq!(parallel, serial, "under {exec:?}");
            }
        }
        // A cut in a later window is reported by its chunk; a corrupt
        // chunk read before the cut, in the same window, wins over it.
        let mut corrupt = clean.clone();
        corrupt_chunks(&mut corrupt, &payloads, &[6]);
        for (bytes, expected) in [
            (&clean[..payloads[8].start + 3], "chunk 8: file truncated"),
            (
                &corrupt[..payloads[7].start + 3],
                "chunk 6: checksum mismatch",
            ),
        ] {
            let serial = read_colfmt(&Exec::sequential(), std::io::Cursor::new(bytes))
                .unwrap_err()
                .to_string();
            assert!(serial.contains(expected), "{serial}");
            for exec in windowed_execs() {
                let parallel = read_colfmt_parallel(&exec, std::io::Cursor::new(bytes))
                    .unwrap_err()
                    .to_string();
                assert_eq!(parallel, serial, "under {exec:?}");
            }
        }
    }

    #[test]
    fn term_appearing_everywhere_gets_zero_weight() {
        let exec = Exec::sequential();
        let c = Corpus::from_documents(
            "t",
            vec![
                Document {
                    id: 0,
                    name: "a".into(),
                    text: "common alpha".into(),
                },
                Document {
                    id: 1,
                    name: "b".into(),
                    text: "common beta".into(),
                },
            ],
        );
        let model = op(DictKind::default()).fit(&exec, &c);
        // "common" has df = N => idf = 0 => zero weight everywhere.
        let common_id = model.vocab.lookup("common").unwrap().0;
        for v in &model.vectors {
            assert_eq!(v.get(common_id), 0.0);
        }
    }

    #[test]
    fn empty_corpus_yields_empty_model() {
        let exec = Exec::sequential();
        let model = op(DictKind::default()).fit(&exec, &Corpus::default());
        assert_eq!(model.vectors.len(), 0);
        assert_eq!(model.vocab.len(), 0);
    }

    #[test]
    fn modeled_memory_contrast_between_kinds() {
        let exec = Exec::sequential();
        let big = CorpusFixture::generate();
        let map = op(DictKind::BTree).count_words(&exec, &big);
        let umap = op(DictKind::PAPER_PRESIZE).count_words(&exec, &big);
        assert!(
            umap.modeled_resident_bytes() > 5 * map.modeled_resident_bytes() / 2,
            "umap {} vs map {}",
            umap.modeled_resident_bytes(),
            map.modeled_resident_bytes()
        );
        assert!(umap.heap_bytes() > map.heap_bytes());
    }

    struct CorpusFixture;
    impl CorpusFixture {
        fn generate() -> Corpus {
            hpa_corpus::CorpusSpec::mix().scaled(0.003).generate(3)
        }
    }
}
