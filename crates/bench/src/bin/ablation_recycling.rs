//! Ablation — K-means buffer recycling (§3.1 optimization ii).
//!
//! The paper: "Recycling data structures throughout the K-means
//! iterations to avoid redundant data copies and memory pressure." This
//! ablation runs the operator with recycling on and off and reports real
//! single-threaded wall time plus allocation counts (when the binary's
//! counting allocator is active — it is, below).

use hpa_bench::BenchConfig;
use hpa_dict::DictKind;
use hpa_kmeans::{KMeans, KMeansConfig};
use hpa_metrics::alloc::{CountingAllocator, HeapGauge};
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_recycling",
        "K-means buffer recycling on/off: wall time and allocation behaviour",
        "real single-threaded execution with counting allocator",
        &cfg.scale_label(),
    );

    let corpus = cfg.mix();
    let exec = hpa_exec::Exec::sequential();
    let model = TfIdf::new(TfIdfConfig {
        dict_kind: DictKind::BTree,
        grain: 0,
        charge_input_io: false,
        ..Default::default()
    })
    .fit(&exec, &corpus);
    let dim = model.vocab.len();

    let mut table = Table::new(
        "K-means, sequential",
        &[
            "recycling",
            "seconds",
            "iterations",
            "allocs/iter",
            "bytes allocated/iter",
        ],
    );
    for recycle in [true, false] {
        let km = KMeans::new(KMeansConfig {
            k: 8,
            max_iters: 15,
            tol: 0.0,
            seed: cfg.seed,
            recycle_buffers: recycle,
            ..Default::default()
        });
        // Warm up once so one-time costs don't pollute the gauge.
        let _ = km.fit(&exec, &model.vectors, dim);
        let gauge = HeapGauge::start();
        let started = Instant::now();
        let fitted = km.fit(&exec, &model.vectors, dim);
        let secs = started.elapsed().as_secs_f64();
        let iters = fitted.iterations.max(1) as u64;
        table.row(&[
            if recycle { "on" } else { "off" }.to_string(),
            format!("{secs:.3}"),
            iters.to_string(),
            (gauge.allocs_in_region() / iters).to_string(),
            hpa_metrics::fmt_bytes(gauge.allocated_in_region() / iters),
        ]);
        eprintln!(
            "recycle={recycle}: {secs:.3}s, {} allocs, inertia {:.2}",
            gauge.allocs_in_region(),
            fitted.inertia
        );
    }
    report.add_table(table);
    report.note("identical clusterings either way; recycling trades allocator traffic for reuse");
    cfg.emit(&report);
}
