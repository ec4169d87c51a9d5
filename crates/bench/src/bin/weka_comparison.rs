//! §3.1 in-text comparison — optimized K-means vs WEKA `SimpleKMeans`.
//!
//! The paper: their sequential implementation clusters Mix in 3.3 s and
//! NSF Abstracts in 40.9 s; WEKA 3.6.13's single-threaded `SimpleKMeans`
//! "requires over 2 hours, after which we aborted the execution". This
//! binary runs both implementations sequentially with a wall-clock
//! budget on the baseline and reports completion-or-abort the same way.
//!
//! Both runs here are *real* wall-clock measurements of the Rust code
//! (no simulation): the contrast is algorithmic (sparse + recycled vs
//! dense + allocating), not about thread counts.

use hpa_bench::BenchConfig;
use hpa_dict::DictKind;
use hpa_kmeans::{baseline::SimpleKMeans, KMeans, KMeansConfig};
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};
use std::time::{Duration, Instant};

fn main() {
    let cfg = BenchConfig::from_env();
    // Budget for the baseline: generous relative to the optimized run,
    // tiny relative to the paper's 2 hours. Scaled with corpus scale.
    let budget = Duration::from_secs_f64(60.0_f64.max(240.0 * cfg.scale));

    let mut report = ExperimentReport::new(
        "weka_comparison",
        "Sequential K-means: optimized sparse operator vs WEKA-style SimpleKMeans baseline",
        "real single-threaded execution on this host",
        &cfg.scale_label(),
    );

    let mut table = Table::new(
        "K-means execution time, sequential (K=8)",
        &[
            "input",
            "optimized (s)",
            "baseline SimpleKMeans",
            "paper optimized",
            "paper WEKA",
        ],
    );

    for (name, corpus, paper_fast) in [
        ("Mix", cfg.mix(), "3.3 s"),
        ("NSF Abstracts", cfg.nsf(), "40.9 s"),
    ] {
        let exec = hpa_exec::Exec::sequential();
        let tfidf = TfIdf::new(TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        });
        let model = tfidf.fit(&exec, &corpus);
        let dim = model.vocab.len();
        let km_cfg = KMeansConfig {
            k: 8,
            max_iters: 10,
            tol: 0.0,
            seed: cfg.seed,
            ..Default::default()
        };

        let started = Instant::now();
        let fitted = KMeans::new(km_cfg).fit(&exec, &model.vectors, dim);
        let fast = started.elapsed();
        eprintln!(
            "{name}: optimized {:.2}s ({} iters, inertia {:.1})",
            fast.as_secs_f64(),
            fitted.iterations,
            fitted.inertia
        );

        let outcome = SimpleKMeans::new(km_cfg).fit_with_budget(&model.vectors, dim, budget);
        let baseline_cell = if outcome.aborted {
            format!(
                "> {:.0} s, aborted after {} iters",
                outcome.elapsed.as_secs_f64(),
                outcome.iterations_done
            )
        } else {
            format!("{:.2} s", outcome.elapsed.as_secs_f64())
        };
        eprintln!("{name}: baseline {baseline_cell}");

        table.row(&[
            name.to_string(),
            format!("{:.2}", fast.as_secs_f64()),
            baseline_cell,
            paper_fast.to_string(),
            "> 2 h, aborted".to_string(),
        ]);
    }
    report.add_table(table);
    report.note(&format!(
        "baseline budget: {:.0} s (the paper aborted WEKA after 2 hours)",
        budget.as_secs_f64()
    ));
    report.note("the gap is algorithmic: dense distances cost dim/nnz more work, plus per-iteration allocation");
    cfg.emit(&report);
}
