//! Ablation — intermediate format: ARFF (text) vs chunk-aligned binary
//! columnar (`hpa_colfmt`), on the discrete TF/IDF → K-means workflow.
//!
//! Part 1 proves the binary format is *exact*: the overlapped colfmt
//! writer's bytes are identical to the serial writer's, both colfmt read
//! paths return the TF/IDF matrix bit-for-bit, and the matrix read back
//! from colfmt is bit-identical to the one read back from ARFF — all
//! asserted in-binary, under real thread pools. It also checks the size
//! claim: the binary intermediate is less than half the ARFF bytes.
//!
//! Part 2 measures what the format buys: the discrete workflow runs
//! across the thread grid in three arms — ARFF serial (the paper's
//! Figure 3 tax), ARFF pipelined (PR 4's mitigation), and Binary
//! pipelined (this PR) — plus a fused arm as the floor. The headline
//! asserts, checked in-binary at the reference thread count: the binary
//! round-trip (write + read) is ≥2× faster than pipelined ARFF, and the
//! binary discrete workflow lands within 1.3× of fused end-to-end.
//!
//! Emits `BENCH_colfmt.json` into the output directory (the CI
//! bench-smoke artifact) alongside the usual CSV report. The two
//! headline bounds are also tier-1 tests in `tests/simulation_fidelity.rs`.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_core::{DiscreteIo, IntermediateFormat, WorkflowBuilder};
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

/// One sweep arm: a workflow variant measured across the thread grid.
struct Arm {
    label: &'static str,
    runs: Vec<Run>,
}

fn assert_bits_equal(a: &[hpa_sparse::SparseVec], b: &[hpa_sparse::SparseVec], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.terms(), y.terms(), "{what}: structure");
        for (wx, wy) in x.weights().iter().zip(y.weights()) {
            assert_eq!(wx.to_bits(), wy.to_bits(), "{what}: weight bits");
        }
    }
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_colfmt",
        "intermediate format: ARFF (text) vs chunk-aligned binary columnar round-trip",
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
    let arff_bytes = hpa_tfidf::write_arff(&Exec::sequential(), &model, Vec::new())
        .expect("serial ARFF write to memory");
    let col_bytes = hpa_tfidf::write_colfmt(&Exec::sequential(), &model, Vec::new())
        .expect("serial colfmt write to memory");
    assert!(
        col_bytes.len() * 2 < arff_bytes.len(),
        "binary intermediate ({} bytes) must be under half the ARFF size ({} bytes)",
        col_bytes.len(),
        arff_bytes.len()
    );
    let (arff_rows, arff_dim) = hpa_tfidf::read_arff(
        &Exec::sequential(),
        std::io::Cursor::new(arff_bytes.clone()),
    )
    .expect("ARFF read");
    for threads in [2usize, 4] {
        let exec = Exec::pool(threads);
        let overlapped = hpa_tfidf::write_colfmt_overlapped(&exec, &model, Vec::new())
            .expect("overlapped colfmt write to memory");
        assert_eq!(
            col_bytes, overlapped,
            "overlapped colfmt writer must be byte-identical at {threads} threads"
        );
        let (serial_rows, sdim) =
            hpa_tfidf::read_colfmt(&Exec::sequential(), std::io::Cursor::new(col_bytes.clone()))
                .expect("streaming colfmt read");
        let (parallel_rows, pdim) =
            hpa_tfidf::read_colfmt_parallel(&exec, std::io::Cursor::new(col_bytes.clone()))
                .expect("parallel colfmt read");
        assert_eq!(sdim, pdim);
        assert_eq!(sdim, arff_dim, "colfmt and ARFF disagree on dim");
        assert_bits_equal(&model.vectors, &serial_rows, "colfmt streaming read");
        assert_bits_equal(&model.vectors, &parallel_rows, "colfmt parallel read");
        assert_bits_equal(&arff_rows, &parallel_rows, "colfmt vs ARFF round-trip");
    }
    eprintln!(
        "exactness: {} rows — colfmt {} bytes vs ARFF {} bytes ({:.1}% of text), \
         bit-identical matrices on every path",
        model.vectors.len(),
        col_bytes.len(),
        arff_bytes.len(),
        100.0 * col_bytes.len() as f64 / arff_bytes.len().max(1) as f64
    );
    drop(arff_rows);
    drop(arff_bytes);
    drop(col_bytes);
    drop(model);

    // ---- Part 2: what the format buys, on the simulated machine -----
    // The paper's Figure 3 workflow configuration.
    let kmeans_config = KMeansConfig {
        k: 8,
        max_iters: 10,
        tol: 0.0,
        seed: cfg.seed,
        ..Default::default()
    };
    let discrete = |fmt: IntermediateFormat, io: DiscreteIo| {
        WorkflowBuilder::new()
            .tfidf(tfidf_config)
            .kmeans(kmeans_config)
            .intermediate_format(fmt)
            .discrete_io(io)
            .discrete()
    };
    let sweep = |wf: hpa_core::Workflow, label: &'static str| -> Arm {
        let runs = cfg
            .threads
            .iter()
            .map(|&threads| {
                let exec = cfg.mode.exec(threads);
                let out = wf.run(&corpus, &exec).expect("workflow run");
                let phase = |name| out.phases.get(name).map(|d| d.as_secs_f64()).unwrap_or(0.0);
                Run {
                    threads,
                    write_s: phase("tfidf-output"),
                    read_s: phase("kmeans-input"),
                    total_s: out.phases.total().as_secs_f64(),
                }
            })
            .collect();
        Arm { label, runs }
    };
    let fused = sweep(
        WorkflowBuilder::new()
            .tfidf(tfidf_config)
            .kmeans(kmeans_config)
            .fused(),
        "fused",
    );
    let arff_serial = sweep(
        discrete(IntermediateFormat::Arff, DiscreteIo::Serial),
        "arff-serial",
    );
    let arff_pipelined = sweep(
        discrete(IntermediateFormat::Arff, DiscreteIo::Pipelined),
        "arff-pipelined",
    );
    let binary = sweep(
        discrete(IntermediateFormat::Binary, DiscreteIo::Pipelined),
        "binary",
    );

    let mut table = Table::new(
        "discrete workflow intermediate legs, ARFF vs binary colfmt",
        &[
            "threads",
            "arff serial w+r s",
            "arff pipelined w+r s",
            "binary w+r s",
            "binary vs arff pipelined",
            "binary discrete / fused",
        ],
    );
    for (((s, p), b), f) in arff_serial
        .runs
        .iter()
        .zip(&arff_pipelined.runs)
        .zip(&binary.runs)
        .zip(&fused.runs)
    {
        let rt = |r: &Run| r.write_s + r.read_s;
        table.row(&[
            s.threads.to_string(),
            format!("{:.4}", rt(s)),
            format!("{:.4}", rt(p)),
            format!("{:.4}", rt(b)),
            format!("{:.2}x", rt(p) / rt(b).max(1e-12)),
            format!("{:.3}", b.total_s / f.total_s.max(1e-12)),
        ]);
    }
    report.add_table(table);
    report.note("bit-identical matrices across formats and schedules (asserted in-binary)");

    // ---- Headline metrics and in-binary acceptance ------------------
    let i = reference_index(&arff_pipelined.runs);
    let (p4, b4, f4) = (&arff_pipelined.runs[i], &binary.runs[i], &fused.runs[i]);
    let write_speedup = p4.write_s / b4.write_s.max(1e-12);
    let read_speedup = p4.read_s / b4.read_s.max(1e-12);
    let roundtrip_speedup = (p4.write_s + p4.read_s) / (b4.write_s + b4.read_s).max(1e-12);
    let discrete_over_fused = b4.total_s / f4.total_s.max(1e-12);
    assert!(
        roundtrip_speedup >= 2.0,
        "binary round-trip must be ≥2× pipelined ARFF at {} threads, got {roundtrip_speedup:.2}x",
        p4.threads
    );
    assert!(
        discrete_over_fused <= 1.3,
        "binary discrete workflow must land within 1.3× of fused at {} threads, \
         got {discrete_over_fused:.3}x",
        p4.threads
    );
    eprintln!(
        "headline at {} threads: write {write_speedup:.2}x, read {read_speedup:.2}x, \
         round-trip {roundtrip_speedup:.2}x vs pipelined ARFF; \
         binary discrete = {discrete_over_fused:.3}x fused",
        p4.threads
    );

    let arms = [&fused, &arff_serial, &arff_pipelined, &binary];
    let json = JsonWriter::document(|w| {
        w.str_field("bench", "colfmt");
        w.str_field("corpus", &corpus.name);
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_field("reference_threads", p4.threads as u64);
        w.f64_field("colfmt_write_speedup", write_speedup, 4);
        w.f64_field("colfmt_read_speedup", read_speedup, 4);
        w.f64_field("colfmt_roundtrip_speedup", roundtrip_speedup, 4);
        w.f64_field("discrete_over_fused", discrete_over_fused, 4);
        w.array_field("arms", |w| {
            for arm in arms {
                w.object_elem(|w| {
                    w.str_field("format", arm.label);
                    w.array_field("runs", |w| {
                        for r in &arm.runs {
                            w.raw_elem(&format!(
                                "{{\"threads\": {}, \"tfidf_output_s\": {:.6}, \
                                 \"kmeans_input_s\": {:.6}, \"total_s\": {:.6}}}",
                                r.threads, r.write_s, r.read_s, r.total_s
                            ));
                        }
                    });
                });
            }
        });
    });
    let json_path = cfg.out_dir.join("BENCH_colfmt.json");
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
