//! Bounded allocation of the transport legs under the counting
//! allocator. Decoding a `.hpac` chunk allocates each row's two arrays
//! plus a few buffers per chunk — never once per term id — so the count
//! is linear in rows, not in non-zeros. An ARFF round trip allocates, in
//! addition, one name per attribute on each side — never a temporary
//! string per header line or per entry.
//!
//! Own integration-test binary: the allocator's counters are
//! process-global, so its tests measure one at a time.

use hpa_corpus::{Corpus, CorpusSpec};
use hpa_exec::Exec;
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_tfidf::{
    read_arff, read_arff_parallel, read_colfmt, read_colfmt_parallel, write_arff, write_colfmt,
    TfIdf, TfIdfConfig,
};
use std::io::Cursor;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held while a test measures, so the other's allocations stay out of
/// its region.
static MEASURING: Mutex<()> = Mutex::new(());

fn corpus() -> Corpus {
    CorpusSpec::nsf_abstracts().scaled(0.01).generate(17)
}

#[test]
fn colfmt_reads_allocate_per_row_and_per_chunk_not_per_entry() {
    let _alone = MEASURING.lock().expect("a measuring test panicked");
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(2);
    let model = TfIdf::new(TfIdfConfig::default()).fit(&exec, &corpus());
    let bytes = write_colfmt(&exec, &model, Vec::new()).expect("in-memory write");

    let rows = model.vectors.len() as u64;
    let nnz: u64 = model.vectors.iter().map(|v| v.nnz() as u64).sum();
    let chunks = rows.div_ceil(hpa_colfmt::DEFAULT_CHUNK_ROWS as u64);
    assert!(rows > 500 && chunks > 2 && nnz > 50 * rows);
    // Two arrays per row; per chunk, its buffers and the pool's task;
    // the parallel read's window of chunks and its growth, once, and per
    // window the pool's slots.
    let bound = 2 * rows + 16 * chunks + 64;

    let gauge = HeapGauge::start();
    let (serial, dim) = read_colfmt(&exec, Cursor::new(&bytes)).expect("serial read");
    let serial_allocs = gauge.allocs_in_region();
    let gauge = HeapGauge::start();
    let (parallel, _) = read_colfmt_parallel(&exec, Cursor::new(&bytes)).expect("parallel read");
    let parallel_allocs = gauge.allocs_in_region();

    assert_eq!(dim, model.vocab.len());
    assert!(serial == model.vectors && parallel == model.vectors);
    for (leg, allocs) in [
        ("read_colfmt", serial_allocs),
        ("read_colfmt_parallel", parallel_allocs),
    ] {
        assert!(
            allocs <= bound,
            "{leg}: {allocs} allocations for {rows} rows, {chunks} chunks and {nnz} \
             non-zeros (bound {bound})"
        );
    }
}

#[test]
fn arff_round_trips_allocate_per_attribute_and_per_row_not_per_entry() {
    let _alone = MEASURING.lock().expect("a measuring test panicked");
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(2);
    let model = TfIdf::new(TfIdfConfig::default()).fit(&exec, &corpus());

    let attrs = model.vocab.len() as u64;
    let rows = model.vectors.len() as u64;
    let nnz: u64 = model.vectors.iter().map(|v| v.nnz() as u64).sum();
    // The parallel reader parses at most four line-aligned chunks per
    // thread (`cost::arff_parse_target`); the serial one reads as one.
    let chunks = 4 * exec.threads() as u64 + 1;
    assert!(attrs > 1000 && rows > 500 && nnz > 50 * rows);
    // One attribute name per side; two arrays per row; per chunk, its
    // row list's doublings and the pool's task; the doublings of the
    // output file, the row buffer, the attribute list and the slurp.
    let bound = 2 * attrs + 2 * rows + 16 * chunks + 64;

    let write = || write_arff(&exec, &model, Vec::new()).expect("in-memory write");
    let gauge = HeapGauge::start();
    let bytes = write();
    let (serial, dim) = read_arff(&exec, Cursor::new(&bytes)).expect("serial read");
    let serial_allocs = gauge.allocs_in_region();
    drop(bytes);
    let gauge = HeapGauge::start();
    let bytes = write();
    let (parallel, _) = read_arff_parallel(&exec, Cursor::new(&bytes)).expect("parallel read");
    let parallel_allocs = gauge.allocs_in_region();

    assert_eq!(dim, model.vocab.len());
    assert!(serial == model.vectors && parallel == model.vectors);
    for (legs, allocs) in [
        ("write_arff + read_arff", serial_allocs),
        ("write_arff + read_arff_parallel", parallel_allocs),
    ] {
        assert!(
            allocs <= bound,
            "{legs}: {allocs} allocations for {attrs} attributes, {rows} rows and {nnz} \
             non-zeros (bound {bound})"
        );
    }
}
