//! Bounded allocation of the interned arm under the counting allocator:
//! the word count allocates per *chunk* — each array a logarithmic number
//! of times as it grows — not per document and not per term, and holds
//! its runs cut to size; the transform allocates the two arrays of each
//! vector plus per-chunk scratch. Doubling the corpus doubles neither
//! count beyond that.
//!
//! Own integration-test binary, one test: the allocator's counters are
//! process-global.

use hpa_corpus::{Corpus, CorpusSpec};
use hpa_dict::DictKind;
use hpa_exec::Exec;
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_tfidf::{TfIdf, TfIdfConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Measured {
    docs: u64,
    count_allocs: u64,
    counts_live: u64,
    transform_allocs: u64,
    /// 8 B per non-zero + key bytes + 40 B per distinct term.
    counts_budget: u64,
}

fn measure(exec: &Exec, corpus: &Corpus) -> Measured {
    let op = TfIdf::new(TfIdfConfig {
        dict_kind: DictKind::Arena,
        charge_input_io: false,
        ..Default::default()
    });
    let gauge = HeapGauge::start();
    let counts = op.count_words(exec, corpus);
    let (count_allocs, counts_live) = (gauge.allocs_in_region(), gauge.live_growth() as u64);
    assert!(
        counts.heap_bytes() <= counts_live && counts_live <= counts.heap_bytes() * 11 / 10,
        "heap_bytes() {} tells what is held ({counts_live} B live)",
        counts.heap_bytes()
    );
    let vocab = op.build_vocab(exec, &counts);
    let gauge = HeapGauge::start();
    let model = op.transform(exec, &counts, &vocab);
    let transform_allocs = gauge.allocs_in_region();

    let nnz: u64 = model.vectors.iter().map(|v| v.nnz() as u64).sum();
    let key_bytes: u64 = (0..vocab.len() as u32)
        .map(|id| vocab.word(id).len() as u64)
        .sum();
    Measured {
        docs: corpus.len() as u64,
        count_allocs,
        counts_live,
        transform_allocs,
        counts_budget: 8 * nnz + key_bytes + 40 * vocab.len() as u64,
    }
}

#[test]
fn word_count_allocates_per_chunk_and_transform_twice_per_document() {
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(2);
    // One chunk per thread for the count, the executor's automatic
    // chunking for the transform; every growing array doubles, so a
    // chunk's allocations are a small multiple of log2(its size).
    let count_chunks = 2;
    let per_chunk_log = 100;
    let small = CorpusSpec::nsf_abstracts().scaled(0.004).generate(17);
    let large = CorpusSpec::nsf_abstracts().scaled(0.008).generate(17);
    assert!(large.len() >= 2 * small.len() - 2 && small.len() > 300);

    let (s, l) = (measure(&exec, &small), measure(&exec, &large));
    for m in [&s, &l] {
        assert!(
            m.count_allocs <= count_chunks * per_chunk_log,
            "{} documents: count_words allocated {} times",
            m.docs,
            m.count_allocs
        );
        assert!(m.count_allocs < m.docs / 2, "not per document");
        assert!(
            m.counts_live <= 2 * m.counts_budget,
            "{} documents: counts hold {} B, budget {} B",
            m.docs,
            m.counts_live,
            m.counts_budget
        );
        let transform_chunks = exec.chunks_for(m.docs as usize, 0) as u64;
        assert!(
            m.transform_allocs <= 2 * m.docs + 16 * transform_chunks + 64,
            "{} documents: transform allocated {} times",
            m.docs,
            m.transform_allocs
        );
    }
    // Twice the documents: the count's allocations grow by a few array
    // doublings, the transform's by two per document and some per chunk.
    assert!(
        l.count_allocs <= s.count_allocs + 40,
        "count_words: {} -> {} allocations",
        s.count_allocs,
        l.count_allocs
    );
    let per_doc = (l.transform_allocs - s.transform_allocs) as f64 / (l.docs - s.docs) as f64;
    assert!(
        per_doc <= 2.3,
        "transform: {per_doc:.2} allocations per added document"
    );
}
