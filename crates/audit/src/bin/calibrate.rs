//! `calibrate` — run the workflow traced, join the ledger, fit the
//! cost-model constants, and flag a model ranking the host contradicts.
//!
//! Flow:
//! 1. Run the fused TF/IDF (`arena` arm) → K-means workflow on the *Mix*
//!    corpus with the trace recorder on; every cost-model call site
//!    emits its prediction next to the measured span.
//! 2. Join the recording into a [`RunLedger`] (per-phase wall time,
//!    percentiles, counters, predicted-vs-measured error ratios).
//! 3. Fit one scale `alpha` per phase by least squares
//!    (`measured ≈ alpha × predicted`) and report drift against the
//!    hard-coded constants.
//! 4. Compare the model's K-means assignment-kernel ranking with the
//!    measured one (per-kernel traced fits) and flag a flip.
//!
//! Emits `LEDGER_calibrate.json` and `LEDGER_calibrate.txt` into the
//! output directory. Accepts the standard bench flags (`--scale`,
//! `--threads`, `--out`, `--seed`, `--mode`); unlike the benches it
//! defaults to `real` execution, because conformance is a property of
//! this host, not of the simulator.

use hpa_audit::calib::{self, FitRow, SelectionCheck};
use hpa_audit::ledger::{RunLedger, CONFORMANCE_TOLERANCE};
use hpa_bench::json::JsonWriter;
use hpa_bench::{BenchConfig, Mode};
use hpa_core::WorkflowBuilder;
use hpa_dict::DictKind;
use hpa_exec::Exec;
use hpa_kmeans::{AssignKernel, KMeans, KMeansConfig};
use hpa_metrics::Table;
use hpa_tfidf::{TfIdf, TfIdfConfig};

fn main() {
    let mut cfg = BenchConfig::from_env();
    let mode_overridden =
        std::env::var("HPA_MODE").is_ok() || std::env::args().any(|a| a == "--mode");
    if !mode_overridden {
        cfg.mode = Mode::Real;
    }
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cfg
        .threads
        .iter()
        .copied()
        .max()
        .unwrap_or(1)
        .clamp(1, avail);

    // ---- 1. traced fused workflow -----------------------------------
    hpa_trace::enable();
    let _ = hpa_trace::take();
    let corpus = cfg.mix();
    let exec = cfg.mode.exec(threads);
    // The arm `benchmark/` and `--dict arena` run, so that its cost
    // closures — and the merge tail's own span — are what gets audited.
    let outcome = WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            dict_kind: DictKind::Auto,
            ..Default::default()
        })
        .fused()
        .run(&corpus, &exec)
        .expect("fused workflow run");
    let rec = hpa_trace::take();
    eprintln!(
        "calibrate: fused workflow over {} docs ({} spans, {} predictions)",
        outcome.assignments.len(),
        rec.spans.len(),
        rec.predictions.len()
    );

    // ---- 2. ledger --------------------------------------------------
    let ledger = RunLedger::from_recording("workflow", threads, &rec, CONFORMANCE_TOLERANCE);

    // ---- 3. calibration fit -----------------------------------------
    let fits = calib::fit_scales(&calib::paired_samples(&rec));

    // ---- 4a. per-kernel assignment runs -----------------------------
    let nsf = cfg.nsf();
    let seq = Exec::sequential();
    let tfidf_model = TfIdf::new(TfIdfConfig {
        dict_kind: DictKind::BTree,
        grain: 0,
        charge_input_io: false,
        ..Default::default()
    })
    .fit(&seq, &nsf);
    let dim = tfidf_model.vocab.len();
    let mut per_kernel: Vec<(String, RunLedger)> = Vec::new();
    for kernel in [
        AssignKernel::Naive,
        AssignKernel::Blocked,
        AssignKernel::BlockedPruned,
    ] {
        let km = KMeans::new(KMeansConfig {
            k: 8,
            max_iters: 10,
            tol: -1.0,
            seed: cfg.seed,
            kernel,
            ..Default::default()
        });
        let _ = km.fit(&seq, &tfidf_model.vectors, dim); // warm-up
        let _ = hpa_trace::take();
        let _ = km.fit(&seq, &tfidf_model.vectors, dim);
        let krec = hpa_trace::take();
        per_kernel.push((
            kernel.label().to_string(),
            RunLedger::from_recording(kernel.label(), 1, &krec, CONFORMANCE_TOLERANCE),
        ));
    }

    // ---- 4b. selection flip checks ----------------------------------
    let checks: Vec<SelectionCheck> = calib::kernel_flip_check(&per_kernel).into_iter().collect();

    // ---- emit -------------------------------------------------------
    let text = render_text(&ledger, &fits, &checks, &per_kernel);
    print!("{text}");
    let json = render_json(&cfg, &ledger, &fits, &checks, &per_kernel);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("warning: could not create {}: {e}", cfg.out_dir.display());
    }
    for (name, payload) in [
        ("LEDGER_calibrate.json", &json),
        ("LEDGER_calibrate.txt", &text),
    ] {
        let path = cfg.out_dir.join(name);
        match std::fs::write(&path, payload) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    let drifted = ledger.drifted().count();
    let flips = checks.iter().filter(|c| c.flipped).count();
    println!(
        "calibrate: {} phases, {drifted} drifted beyond {CONFORMANCE_TOLERANCE}x, {flips} selection flips",
        ledger.rows.len()
    );
}

fn drift_label(alpha: f64) -> &'static str {
    if (1.0 / CONFORMANCE_TOLERANCE..=CONFORMANCE_TOLERANCE).contains(&alpha) {
        "ok"
    } else {
        "drifted"
    }
}

fn render_text(
    ledger: &RunLedger,
    fits: &[FitRow],
    checks: &[SelectionCheck],
    per_kernel: &[(String, RunLedger)],
) -> String {
    let mut out = ledger.to_text();

    let mut fit_table = Table::new(
        "calibration: fitted measured/predicted scale per phase",
        &["cat", "name", "samples", "alpha", "status"],
    );
    for f in fits {
        fit_table.row(&[
            f.cat.clone(),
            f.name.clone(),
            f.samples.to_string(),
            format!("{:.3}", f.alpha),
            drift_label(f.alpha).to_string(),
        ]);
    }
    out.push('\n');
    out.push_str(&fit_table.to_text());

    let mut kernel_table = Table::new(
        "assignment kernels: predicted vs measured (sequential, k=8)",
        &["kernel", "predicted s", "measured s", "ratio"],
    );
    for (kernel, kl) in per_kernel {
        if let Some(row) = kl.row("kmeans", "assign") {
            kernel_table.row(&[
                kernel.clone(),
                format!("{:.6}", row.predicted_ns as f64 / 1e9),
                format!("{:.6}", row.measured_ns as f64 / 1e9),
                row.error_ratio
                    .map_or_else(|| "-".to_string(), |e| format!("{e:.3}")),
            ]);
        }
    }
    out.push('\n');
    out.push_str(&kernel_table.to_text());

    let mut check_table = Table::new(
        "model ranking vs measurement",
        &["domain", "context", "model pick", "audited pick", "flip"],
    );
    for c in checks {
        check_table.row(&[
            c.domain.to_string(),
            c.context.clone(),
            c.model_pick.clone(),
            c.audited_pick.clone(),
            if c.flipped {
                "FLIP".to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    out.push('\n');
    out.push_str(&check_table.to_text());
    out
}

fn render_json(
    cfg: &BenchConfig,
    ledger: &RunLedger,
    fits: &[FitRow],
    checks: &[SelectionCheck],
    per_kernel: &[(String, RunLedger)],
) -> String {
    JsonWriter::document(|w| {
        w.str_field("audit", "calibrate");
        w.f64_field_display("scale", cfg.scale);
        w.u64_field("seed", cfg.seed);
        w.str_field("mode", &cfg.mode.describe());
        ledger.append_json(w);
        w.array_field("calibration", |w| {
            for f in fits {
                w.object_elem(|w| {
                    w.str_field("cat", &f.cat);
                    w.str_field("name", &f.name);
                    w.u64_field("samples", f.samples as u64);
                    w.f64_field("alpha", f.alpha, 4);
                    w.str_field("status", drift_label(f.alpha));
                });
            }
        });
        w.array_field("kernels", |w| {
            for (kernel, kl) in per_kernel {
                if let Some(row) = kl.row("kmeans", "assign") {
                    w.object_elem(|w| {
                        w.str_field("kernel", kernel);
                        w.u64_field("predicted_ns", row.predicted_ns);
                        w.u64_field("measured_ns", row.measured_ns);
                        match row.error_ratio {
                            Some(ratio) => w.f64_field("error_ratio", ratio, 4),
                            None => w.str_field("error_ratio", "n/a"),
                        }
                    });
                }
            }
        });
        w.array_field("selection_checks", |w| {
            for c in checks {
                w.object_elem(|w| {
                    w.str_field("domain", c.domain);
                    w.str_field("context", &c.context);
                    w.str_field("model_pick", &c.model_pick);
                    w.str_field("audited_pick", &c.audited_pick);
                    w.bool_field("flipped", c.flipped);
                });
            }
        });
    })
}
