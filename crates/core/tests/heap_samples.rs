//! With the counting allocator installed, a traced run samples the live
//! heap at its phase boundaries and every sample is a real reading.
//! (`transport_price.rs` holds the other half: without the allocator no
//! sample is recorded at all.)
//!
//! Own integration-test binary: the allocator and the trace buffers are
//! process-global.

use hpa_core::WorkflowBuilder;
use hpa_corpus::CorpusSpec;
use hpa_exec::Exec;
use hpa_kmeans::KMeansConfig;

#[global_allocator]
static ALLOC: hpa_metrics::alloc::CountingAllocator = hpa_metrics::alloc::CountingAllocator;

#[test]
fn heap_samples_are_nonzero_under_the_counting_allocator() {
    let corpus = CorpusSpec::mix().scaled(0.002).generate(5);
    hpa_trace::enable();
    WorkflowBuilder::new()
        .kmeans(KMeansConfig {
            k: 4,
            max_iters: 2,
            ..Default::default()
        })
        .fused()
        .run(&corpus, &Exec::sequential())
        .unwrap();
    hpa_trace::disable();
    let rec = hpa_trace::take();
    let samples: Vec<u64> = rec
        .counters
        .iter()
        .filter(|c| (c.cat, c.name) == ("mem", "heap-bytes"))
        .map(|c| c.value)
        .collect();
    assert!(!samples.is_empty(), "no heap sample recorded");
    assert!(samples.iter().all(|&v| v > 0), "{samples:?}");
}
