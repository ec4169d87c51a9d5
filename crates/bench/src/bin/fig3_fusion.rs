//! Figure 3 — discrete vs merged TF/IDF → K-Means workflow.
//!
//! The discrete workflow materializes the TF/IDF matrix to an ARFF file
//! on disk and reads it back for K-means; the merged workflow hands the
//! matrix over in memory. The paper (NSF Abstracts input): with both I/O
//! legs single-threaded (ARFF), I/O adds 36.9% at one thread and makes
//! the 16-thread run 3.84x slower.
//!
//! Three arms: `discrete` pins `DiscreteIo::Serial` (the paper's
//! configuration), `discrete-pipe` uses the pipelined ARFF round-trip
//! (parallel format + ordered drain on the write, chunked parse on the
//! read), and `merged` fuses. The pipeline narrows the gap but cannot
//! close it — the fused workflow skips the round-trip entirely.

use hpa_bench::BenchConfig;
use hpa_core::{DiscreteIo, WorkflowBuilder};
use hpa_dict::DictKind;
use hpa_kmeans::KMeansConfig;
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::TfIdfConfig;

// Heap accounting so `--trace` runs get a live mem/heap-bytes counter
// track (relaxed-atomic counters; negligible overhead when untraced).
#[global_allocator]
static ALLOC: hpa_metrics::alloc::CountingAllocator = hpa_metrics::alloc::CountingAllocator;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "figure3",
        "TF/IDF–K-Means workflow: discrete (ARFF on disk) vs merged (fused), NSF Abstracts",
        &cfg.mode.describe(),
        &cfg.scale_label(),
    );

    let corpus = cfg.nsf();
    let threads: Vec<usize> = cfg
        .threads
        .iter()
        .copied()
        .filter(|t| [1, 4, 8, 12, 16].contains(t))
        .collect();
    let threads = if threads.is_empty() {
        cfg.threads.clone()
    } else {
        threads
    };

    let builder = || {
        WorkflowBuilder::new()
            .tfidf(TfIdfConfig {
                dict_kind: DictKind::BTree,
                grain: 0,
                charge_input_io: true,
                ..Default::default()
            })
            .kmeans(KMeansConfig {
                k: 8,
                max_iters: 10,
                tol: 0.0,
                seed: cfg.seed,
                ..Default::default()
            })
    };

    // Stacked-bar data: one row per (threads, variant), one column per
    // phase, matching the paper's figure legend.
    let phases = [
        "input+wc",
        "tfidf-output",
        "kmeans-input",
        "transform",
        "kmeans",
        "output",
    ];
    let mut headers = vec!["threads", "variant"];
    headers.extend(phases);
    headers.push("total");
    let mut table = Table::new("Figure 3: execution time by phase (seconds)", &headers);

    // (threads, discrete-serial, discrete-pipelined, merged)
    let mut totals: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &t in &threads {
        let mut row_totals = (0.0, 0.0, 0.0);
        for (variant, io) in [
            ("discrete", Some(DiscreteIo::Serial)),
            ("discrete-pipe", Some(DiscreteIo::Pipelined)),
            ("merged", None),
        ] {
            let exec = cfg.mode.exec(t);
            let wf = match io {
                Some(io) => builder().discrete_io(io).discrete(),
                None => builder().fused(),
            };
            let out = wf.run(&corpus, &exec).expect("workflow runs");
            let mut row = vec![t.to_string(), variant.to_string()];
            for p in phases {
                let secs = out.phases.get(p).map(|d| d.as_secs_f64()).unwrap_or(0.0);
                row.push(format!("{secs:.3}"));
            }
            let total = out.phases.total().as_secs_f64();
            row.push(format!("{total:.3}"));
            table.row(&row);
            match io {
                Some(DiscreteIo::Serial) => row_totals.0 = total,
                Some(DiscreteIo::Pipelined) => row_totals.1 = total,
                None => row_totals.2 = total,
            }
            eprintln!("threads={t} {variant}: {total:.3}s");
        }
        totals.push((t, row_totals.0, row_totals.1, row_totals.2));
    }
    report.add_table(table);

    let mut ratio_table = Table::new(
        "Discrete/merged slowdown (paper: 1.369x at 1 thread, 3.84x at 16)",
        &[
            "threads",
            "discrete (s)",
            "pipelined (s)",
            "merged (s)",
            "slowdown",
            "pipelined slowdown",
        ],
    );
    for (t, d, p, m) in &totals {
        ratio_table.row(&[
            t.to_string(),
            format!("{d:.3}"),
            format!("{p:.3}"),
            format!("{m:.3}"),
            format!("{:.2}x", d / m),
            format!("{:.2}x", p / m),
        ]);
    }
    report.add_table(ratio_table);
    report.note(
        "discrete adds serial tfidf-output + kmeans-input phases that shrink nothing as threads \
         grow; the pipelined round-trip (discrete-pipe) narrows but cannot close the gap",
    );
    cfg.emit(&report);
}
