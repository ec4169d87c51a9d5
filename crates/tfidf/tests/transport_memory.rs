//! Bounded allocation of the `.hpac` read legs under the counting
//! allocator: decoding a chunk allocates each row's two arrays plus a
//! few buffers per chunk — never once per term id — so the count is
//! linear in rows, not in non-zeros.
//!
//! Own integration-test binary, one test: the allocator's counters are
//! process-global.

use hpa_corpus::CorpusSpec;
use hpa_exec::Exec;
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_tfidf::{read_colfmt, read_colfmt_parallel, write_colfmt, TfIdf, TfIdfConfig};
use std::io::Cursor;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn colfmt_reads_allocate_per_row_and_per_chunk_not_per_entry() {
    assert!(HeapGauge::is_active(), "counting allocator not installed");
    let exec = Exec::pool(2);
    let corpus = CorpusSpec::nsf_abstracts().scaled(0.01).generate(17);
    let model = TfIdf::new(TfIdfConfig::default()).fit(&exec, &corpus);
    let bytes = write_colfmt(&exec, &model, Vec::new()).expect("in-memory write");

    let rows = model.vectors.len() as u64;
    let nnz: u64 = model.vectors.iter().map(|v| v.nnz() as u64).sum();
    let chunks = rows.div_ceil(hpa_colfmt::DEFAULT_CHUNK_ROWS as u64);
    assert!(rows > 500 && chunks > 2 && nnz > 50 * rows);
    // Two arrays per row; per chunk, its buffers, the pool's task and
    // the doublings of the growing row list; the file slurp's doublings.
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
