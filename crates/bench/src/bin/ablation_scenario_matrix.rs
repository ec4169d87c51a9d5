//! Ablation — scenario matrix: corpus shape × assignment kernel ×
//! thread count.
//!
//! Sweeps four corpus shapes that stress different parts of the
//! assignment loop (skewed vocabulary, tiny documents, huge documents,
//! many clusters) through the {naive, blocked+pruned} kernel arms at
//! each requested thread count, asserting every arm bit-identical to
//! the naive reference *before* any timing is reported.
//!
//! The headline metric, `best_speedup_vs_naive_p4`, is the largest
//! assignment-phase speedup of the blocked+pruned arm over the naive
//! baseline across scenarios at P=4 (falling back to the highest
//! measured thread count when 4 is not in the grid). It is a wall-clock
//! number: compare it only against a run on the same host.
//!
//! Emits `BENCH_scenario_matrix.json` into the output directory.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_corpus::CorpusSpec;
use hpa_dict::DictKind;
use hpa_exec::Exec;
use hpa_kmeans::{AssignKernel, KMeans, KMeansConfig, KMeansModel};
use hpa_metrics::{ExperimentReport, Stopwatch, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};

/// One corpus shape of the matrix, with the cluster count that makes it
/// stress what its name says.
struct Scenario {
    spec: CorpusSpec,
    label: &'static str,
    k: usize,
}

/// Corpus shapes, pre-scale. Document counts are kept modest: the
/// matrix runs |scenarios| × |threads| × 2 fits.
fn scenarios(scale: f64) -> Vec<Scenario> {
    let spec = |name: &str, docs, vocab, zipf, words, sigma| {
        CorpusSpec {
            name: name.to_string(),
            num_docs: docs,
            vocab_size: vocab,
            zipf_exponent: zipf,
            mean_doc_words: words,
            doc_len_sigma: sigma,
        }
        .scaled(scale)
    };
    vec![
        // Heavy head reuse: a few very hot terms, long centroid rows.
        Scenario {
            spec: spec("skewed-vocab", 6_000, 120_000, 1.5, 150, 0.6),
            label: "skewed-vocab",
            k: 8,
        },
        // Per-document overhead dominates: nnz ~ a dozen.
        Scenario {
            spec: spec("tiny-docs", 20_000, 60_000, 1.1, 25, 0.4),
            label: "tiny-docs",
            k: 8,
        },
        // Long gather chains: per-document nnz in the thousands.
        Scenario {
            spec: spec("huge-docs", 1_200, 90_000, 1.05, 2_500, 0.5),
            label: "huge-docs",
            k: 8,
        },
        // Wide centroid blocks: the k-accumulator sweep does the work.
        Scenario {
            spec: spec("many-cluster", 5_000, 80_000, 1.1, 200, 0.5),
            label: "many-cluster",
            k: 48,
        },
    ]
}

/// The kernel-variant arms. The first is the reference every other arm
/// must match bit-for-bit.
const ARMS: [AssignKernel; 2] = [AssignKernel::Naive, AssignKernel::BlockedPruned];

struct Row {
    scenario: &'static str,
    threads: usize,
    kernel: AssignKernel,
    wall_s: f64,
    assign_s: f64,
    model: KMeansModel,
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_scenario_matrix",
        "corpus shape x assignment kernel x threads",
        "real execution; assignment phase timed from trace spans",
        &cfg.scale_label(),
    );

    // Span recording is the assignment-phase clock even without --trace.
    hpa_trace::enable();
    let mut rows: Vec<Row> = Vec::new();

    for sc in scenarios(cfg.scale) {
        let corpus = sc.spec.generate(cfg.seed);
        let seq = Exec::sequential();
        let model = TfIdf::new(TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        })
        .fit(&seq, &corpus);
        let dim = model.vocab.len();
        let _ = hpa_trace::take(); // discard staging spans

        for &threads in &cfg.threads {
            let exec = Exec::pool(threads);
            for kernel in ARMS {
                // Fixed iteration budget so every arm runs the identical
                // Lloyd sequence (see ablation_assign for the rationale).
                let km = KMeans::new(KMeansConfig {
                    k: sc.k,
                    max_iters: 8,
                    tol: -1.0,
                    seed: cfg.seed,
                    kernel,
                    ..Default::default()
                });
                // Warm-up fit: allocator and cache state must not favour
                // later arms.
                let _ = km.fit(&exec, &model.vectors, dim);
                let _ = hpa_trace::take();

                let sw = Stopwatch::start();
                let fitted = km.fit(&exec, &model.vectors, dim);
                let wall_s = sw.elapsed().as_secs_f64();
                let rec = hpa_trace::take();
                let assign_s = rec
                    .spans_in("kmeans")
                    .filter(|s| s.name == "assign")
                    .map(|s| s.dur_ns)
                    .sum::<u64>() as f64
                    / 1e9;
                rows.push(Row {
                    scenario: sc.label,
                    threads,
                    kernel,
                    wall_s,
                    assign_s,
                    model: fitted,
                });
            }
        }
    }

    // Bit-identity before any timing is reported: every arm must match
    // the naive reference of its (scenario, threads) cell — the
    // numbers below are only comparable because the computations are
    // equal.
    let reference_of = |row: &Row| -> &Row {
        rows.iter()
            .find(|r| {
                r.scenario == row.scenario
                    && r.threads == row.threads
                    && r.kernel == AssignKernel::Naive
            })
            .expect("every cell has a naive reference")
    };
    for row in &rows {
        let reference = reference_of(row);
        assert_eq!(
            reference.model.assignments,
            row.model.assignments,
            "{}@P{} {} diverged from naive",
            row.scenario,
            row.threads,
            row.kernel.label(),
        );
        assert_eq!(
            reference.model.inertia.to_bits(),
            row.model.inertia.to_bits(),
            "{}@P{} {} inertia diverged",
            row.scenario,
            row.threads,
            row.kernel.label(),
        );
    }
    let bit_identical = true; // the asserts above abort otherwise

    // Headline: best blocked+pruned over naive at the headline thread
    // count.
    let headline_threads = if cfg.threads.contains(&4) {
        4
    } else {
        cfg.threads.iter().copied().max().unwrap_or(1)
    };
    let speedup_of = |row: &Row| -> f64 { reference_of(row).assign_s / row.assign_s.max(1e-12) };
    let best = rows
        .iter()
        .filter(|r| r.threads == headline_threads && r.kernel == AssignKernel::BlockedPruned)
        .map(|r| (r.scenario, speedup_of(r)))
        .fold(
            ("none", 0.0_f64),
            |acc, (s, v)| {
                if v > acc.1 {
                    (s, v)
                } else {
                    acc
                }
            },
        );

    let mut table = Table::new(
        "scenario matrix: assignment-phase time by kernel arm",
        &["scenario", "P", "kernel", "wall s", "assign s", "speedup"],
    );
    for row in &rows {
        table.row(&[
            row.scenario.to_string(),
            row.threads.to_string(),
            row.kernel.label().to_string(),
            format!("{:.4}", row.wall_s),
            format!("{:.4}", row.assign_s),
            format!("{:.2}x", speedup_of(row)),
        ]);
    }
    report.add_table(table);
    report.note(&format!(
        "headline: {:.2}x assign speedup (blocked+pruned vs naive) on '{}' at P={}",
        best.1, best.0, headline_threads
    ));
    report.note("identical clusterings in all arms (asserted bit-exact before timing)");

    let json = JsonWriter::document(|w| {
        w.str_field("bench", "scenario_matrix");
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_array_field("threads", cfg.threads.iter().map(|&t| t as u64));
        w.bool_field("bit_identical", bit_identical);
        w.u64_field("headline_threads", headline_threads as u64);
        w.str_field("headline_scenario", best.0);
        w.f64_field("best_speedup_vs_naive_p4", best.1, 4);
        w.array_field("rows", |w| {
            for row in &rows {
                w.object_elem(|w| {
                    w.str_field("scenario", row.scenario);
                    w.u64_field("threads", row.threads as u64);
                    w.str_field("kernel", row.kernel.label());
                    w.f64_field("wall_s", row.wall_s, 6);
                    w.f64_field("assign_s", row.assign_s, 6);
                    w.f64_field("speedup_vs_naive", speedup_of(row), 4);
                    w.u64_field("iterations", row.model.iterations as u64);
                    w.u64_field("docs_pruned", row.model.assign_stats.docs_pruned);
                    w.u64_field("k", row.model.centroids.k() as u64);
                });
            }
        });
    });
    let json_path = cfg.out_dir.join("BENCH_scenario_matrix.json");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }

    cfg.emit(&report);
}
