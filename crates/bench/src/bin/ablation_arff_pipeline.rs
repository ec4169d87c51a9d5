//! Ablation — ARFF round-trip: serial vs overlapped write vs pipelined
//! round-trip.
//!
//! Part 1 proves the pipelined paths are *exact*: the overlapped writer's
//! bytes are identical to the serial writer's, and the chunked parallel
//! reader returns bit-identical vectors to the streaming reader — both
//! asserted in-binary, under real thread pools.
//!
//! Part 2 measures what the pipelining buys: the discrete TF/IDF →
//! K-means workflow runs across the thread grid with the ARFF legs in
//! `DiscreteIo::Serial` (the paper's Figure 3 configuration) and
//! `DiscreteIo::Pipelined` form, on the simulated machine's storage
//! model. The `tfidf-output` and `kmeans-input` phases are compared
//! arm-to-arm per thread count.
//!
//! Emits `BENCH_arff_pipeline.json` into the output directory (the CI
//! bench-smoke artifact) alongside the usual CSV report. The two
//! speedups are also tier-1 tests in `tests/simulation_fidelity.rs`.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_core::{DiscreteIo, WorkflowBuilder};
use hpa_dict::DictKind;
use hpa_exec::Exec;
use hpa_kmeans::KMeansConfig;
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};

/// Phase seconds of one discrete-workflow run.
struct Run {
    threads: usize,
    write_s: f64,
    read_s: f64,
    total_s: f64,
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_arff_pipeline",
        "ARFF round-trip: serial vs pipelined (parallel format + ordered drain; chunked parse)",
        &cfg.mode.describe(),
        &cfg.scale_label(),
    );

    let corpus = cfg.nsf();
    let tfidf_config = TfIdfConfig {
        dict_kind: DictKind::BTree,
        grain: 0,
        charge_input_io: true,
        ..Default::default()
    };

    // ---- Part 1: exactness, under real executors --------------------
    let model = TfIdf::new(tfidf_config).fit(&Exec::sequential(), &corpus);
    let serial_bytes = hpa_tfidf::write_arff(&Exec::sequential(), &model, Vec::new())
        .expect("serial write to memory");
    for threads in [2usize, 4] {
        let exec = Exec::pool(threads);
        let overlapped = hpa_tfidf::write_arff_overlapped(&exec, &model, Vec::new())
            .expect("overlapped write to memory");
        assert_eq!(
            serial_bytes, overlapped,
            "overlapped writer must be byte-identical at {threads} threads"
        );
        let (serial_rows, sdim) = hpa_tfidf::read_arff(
            &Exec::sequential(),
            std::io::Cursor::new(serial_bytes.clone()),
        )
        .expect("serial read");
        let (parallel_rows, pdim) =
            hpa_tfidf::read_arff_parallel(&exec, std::io::Cursor::new(serial_bytes.clone()))
                .expect("parallel read");
        assert_eq!(sdim, pdim);
        assert_eq!(serial_rows.len(), parallel_rows.len());
        for (a, b) in serial_rows.iter().zip(&parallel_rows) {
            assert_eq!(a.terms(), b.terms(), "parallel reader changed structure");
            for (wa, wb) in a.weights().iter().zip(b.weights()) {
                assert_eq!(
                    wa.to_bits(),
                    wb.to_bits(),
                    "parallel reader must be bit-identical"
                );
            }
        }
    }
    eprintln!(
        "exactness: {} bytes, {} rows — overlapped write byte-identical, parallel read bit-identical",
        serial_bytes.len(),
        model.vectors.len()
    );
    drop(serial_bytes);
    drop(model);

    // ---- Part 2: what the pipeline buys, on the simulated machine ---
    let workflow = |io: DiscreteIo| {
        WorkflowBuilder::new()
            .tfidf(tfidf_config)
            .kmeans(KMeansConfig {
                k: 8,
                max_iters: 5,
                tol: 0.0,
                seed: cfg.seed,
                ..Default::default()
            })
            .discrete_io(io)
            .discrete()
    };
    let sweep = |io: DiscreteIo| -> Vec<Run> {
        cfg.threads
            .iter()
            .map(|&threads| {
                let exec = cfg.mode.exec(threads);
                let out = workflow(io)
                    .run(&corpus, &exec)
                    .expect("discrete workflow run");
                Run {
                    threads,
                    write_s: out.phases.get("tfidf-output").unwrap().as_secs_f64(),
                    read_s: out.phases.get("kmeans-input").unwrap().as_secs_f64(),
                    total_s: out.phases.total().as_secs_f64(),
                }
            })
            .collect()
    };
    let serial = sweep(DiscreteIo::Serial);
    let pipelined = sweep(DiscreteIo::Pipelined);

    let mut table = Table::new(
        "discrete workflow ARFF legs, serial vs pipelined round-trip",
        &[
            "threads",
            "write serial s",
            "write pipelined s",
            "write speedup",
            "read serial s",
            "read pipelined s",
            "read speedup",
        ],
    );
    for (s, p) in serial.iter().zip(&pipelined) {
        table.row(&[
            s.threads.to_string(),
            format!("{:.4}", s.write_s),
            format!("{:.4}", p.write_s),
            format!("{:.2}x", s.write_s / p.write_s.max(1e-12)),
            format!("{:.4}", s.read_s),
            format!("{:.4}", p.read_s),
            format!("{:.2}x", s.read_s / p.read_s.max(1e-12)),
        ]);
    }
    report.add_table(table);
    report.note("identical bytes and bit-identical vectors in all arms (asserted in-binary)");

    let json = render_json(&cfg, &corpus.name, &serial, &pipelined);
    let json_path = cfg.out_dir.join("BENCH_arff_pipeline.json");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }
    cfg.emit(&report);
}

/// The speedup reference point: the first swept thread count ≥ 4 (the
/// paper's mid-grid), falling back to the largest.
fn reference_index(runs: &[Run]) -> usize {
    runs.iter()
        .position(|r| r.threads >= 4)
        .unwrap_or(runs.len().saturating_sub(1))
}

fn render_json(cfg: &BenchConfig, corpus: &str, serial: &[Run], pipelined: &[Run]) -> String {
    let i = reference_index(serial);
    let (s4, p4) = (&serial[i], &pipelined[i]);
    JsonWriter::document(|w| {
        w.str_field("bench", "arff_pipeline");
        w.str_field("corpus", corpus);
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_field("reference_threads", s4.threads as u64);
        w.f64_field("kmeans_input_speedup", s4.read_s / p4.read_s.max(1e-12), 4);
        w.f64_field(
            "tfidf_output_speedup",
            s4.write_s / p4.write_s.max(1e-12),
            4,
        );
        w.array_field("arms", |w| {
            for (label, runs) in [("serial", serial), ("pipelined", pipelined)] {
                w.object_elem(|w| {
                    w.str_field("io", label);
                    w.array_field("runs", |w| {
                        for r in runs {
                            w.raw_elem(&format!(
                                "{{\"threads\": {}, \"tfidf_output_s\": {:.6}, \"kmeans_input_s\": {:.6}, \"total_s\": {:.6}}}",
                                r.threads, r.write_s, r.read_s, r.total_s
                            ));
                        }
                    });
                });
            }
        });
    })
}
