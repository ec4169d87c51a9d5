//! Ablation — assignment kernel: naive vs blocked vs blocked+pruned.
//!
//! Runs the same K-means fit (k = 8, fixed seed) through each
//! [`AssignKernel`] arm on a seeded corpus and reports real wall time,
//! the assignment-phase time (summed from `kmeans/assign` trace spans),
//! and the pruning work counters. All arms produce bit-identical
//! clusterings — the bin asserts it — so the numbers isolate the kernel.
//!
//! Emits `BENCH_kmeans_assign.json` into the output directory (the CI
//! bench-smoke artifact) alongside the usual CSV report. The speedup is
//! wall clock; the pruning it rests on is a tier-1 test on counted
//! distances in `tests/simulation_fidelity.rs`.

use hpa_bench::json::JsonWriter;
use hpa_bench::BenchConfig;
use hpa_dict::DictKind;
use hpa_exec::Exec;
use hpa_kmeans::{AssignKernel, KMeans, KMeansConfig, KMeansModel};
use hpa_metrics::{ExperimentReport, Stopwatch, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};

struct Arm {
    kernel: AssignKernel,
    wall_s: f64,
    assign_s: f64,
    model: KMeansModel,
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_assign",
        "assignment kernel: naive vs term-major blocked vs blocked + exact pruning",
        "real single-threaded execution; assignment phase timed from trace spans",
        &cfg.scale_label(),
    );

    let corpus = cfg.nsf();
    let exec = Exec::sequential();
    let model = TfIdf::new(TfIdfConfig {
        dict_kind: DictKind::BTree,
        grain: 0,
        charge_input_io: false,
        ..Default::default()
    })
    .fit(&exec, &corpus);
    let dim = model.vocab.len();
    let k = 8;

    // The assignment-phase split needs the span recorder even when no
    // `--trace` path was requested.
    hpa_trace::enable();
    let mut merged = hpa_trace::take(); // discard TF/IDF staging spans
    merged.spans.clear();
    merged.counters.clear();
    merged.events.clear();
    merged.predictions.clear();

    let mut arms: Vec<Arm> = Vec::new();
    for kernel in [
        AssignKernel::Naive,
        AssignKernel::Blocked,
        AssignKernel::BlockedPruned,
    ] {
        // Fixed iteration budget (negative tol disables the convergence
        // break): the synthetic corpora have no topic structure, so the
        // assignments stabilize within 2-3 Lloyd iterations — real
        // corpora spend most of their iterations near-converged, which
        // is exactly the regime bound pruning targets. A fixed budget,
        // like the paper's fixed-iteration figure runs, restores that
        // regime; every arm runs the identical iteration sequence.
        let km = KMeans::new(KMeansConfig {
            k,
            max_iters: 15,
            tol: -1.0,
            seed: cfg.seed,
            kernel,
            ..Default::default()
        });
        // Warm-up fit so allocator/cache effects don't favour later arms.
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
        merged.spans.extend(rec.spans.iter().cloned());
        merged.counters.extend(rec.counters.iter().cloned());
        merged.events.extend(rec.events.iter().cloned());
        merged.predictions.extend(rec.predictions.iter().cloned());
        merged.threads = rec.threads.clone();
        arms.push(Arm {
            kernel,
            wall_s,
            assign_s,
            model: fitted,
        });
    }

    // The kernels are interchangeable only because they are bit-identical;
    // a benchmark comparing diverging arms would be meaningless.
    for arm in &arms[1..] {
        assert_eq!(
            arms[0].model.assignments,
            arm.model.assignments,
            "kernel '{}' diverged from naive",
            arm.kernel.label()
        );
        assert_eq!(
            arms[0].model.inertia.to_bits(),
            arm.model.inertia.to_bits(),
            "kernel '{}' inertia diverged",
            arm.kernel.label()
        );
    }

    let mut table = Table::new(
        "K-means assignment kernels, sequential, k=8",
        &[
            "kernel",
            "wall s",
            "assign s",
            "assign speedup",
            "docs pruned",
            "distances avoided",
        ],
    );
    let naive_assign = arms[0].assign_s;
    for arm in &arms {
        let stats = arm.model.assign_stats;
        table.row(&[
            arm.kernel.label().to_string(),
            format!("{:.4}", arm.wall_s),
            format!("{:.4}", arm.assign_s),
            format!("{:.2}x", naive_assign / arm.assign_s.max(1e-12)),
            format!("{} ({:.0}%)", stats.docs_pruned, 100.0 * stats.prune_rate()),
            stats.distances_pruned.to_string(),
        ]);
        eprintln!(
            "{}: wall {:.4}s, assign {:.4}s, {} iters, inertia {:.3}, stats {:?}",
            arm.kernel.label(),
            arm.wall_s,
            arm.assign_s,
            arm.model.iterations,
            arm.model.inertia,
            stats
        );
    }
    report.add_table(table);
    report.note("identical clusterings in all arms (asserted bit-exact)");

    let json = render_json(&cfg, &corpus.name, k, &arms);
    let json_path = cfg.out_dir.join("BENCH_kmeans_assign.json");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    match std::fs::write(&json_path, json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", json_path.display()),
    }

    cfg.emit(&report);
    // `emit` already flushed (an almost-empty) Chrome trace when
    // `--trace` was given; overwrite it with the merged per-arm
    // recording so the assign spans and pruning counters are visible.
    if let Some(path) = &cfg.trace {
        if let Err(e) = std::fs::write(path, merged.to_chrome_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {} (merged per-arm trace)", path.display());
        }
    }
}

fn render_json(cfg: &BenchConfig, corpus: &str, k: usize, arms: &[Arm]) -> String {
    let naive_assign = arms[0].assign_s;
    let pruned_assign = arms
        .iter()
        .find(|a| a.kernel == AssignKernel::BlockedPruned)
        .map_or(naive_assign, |a| a.assign_s);
    JsonWriter::document(|w| {
        w.str_field("bench", "kmeans_assign");
        w.str_field("corpus", corpus);
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.u64_field("k", k as u64);
        w.u64_field("threads", 1);
        w.f64_field(
            "assign_speedup_pruned_vs_naive",
            naive_assign / pruned_assign.max(1e-12),
            4,
        );
        w.array_field("arms", |w| {
            for arm in arms {
                let s = arm.model.assign_stats;
                w.object_elem(|w| {
                    w.str_field("kernel", arm.kernel.label());
                    w.f64_field("wall_s", arm.wall_s, 6);
                    w.f64_field("assign_s", arm.assign_s, 6);
                    w.u64_field("iterations", arm.model.iterations as u64);
                    w.f64_field("inertia", arm.model.inertia, 6);
                    w.u64_field("docs", s.docs);
                    w.u64_field("docs_pruned", s.docs_pruned);
                    w.u64_field("distances_computed", s.distances_computed);
                    w.u64_field("distances_pruned", s.distances_pruned);
                });
            }
        });
    })
}
