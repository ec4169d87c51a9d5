//! `perf-gate` — compare fresh `BENCH_*.json` artifacts against the
//! committed baselines and fail CI on regression.
//!
//! ```text
//! cargo run -p hpa-audit --bin perf-gate -- \
//!     --baseline results --fresh results/fresh [--tolerance 1.5]
//! ```
//!
//! Gated metrics (see `hpa_audit::gate` for the full rules):
//! * `kmeans_assign` — pruned-vs-naive assign speedup (one-sided,
//!   `baseline / tolerance` floor) and a non-zero pruning counter;
//! * `arff_pipeline` — the `kmeans_input` and `tfidf_output` pipelining
//!   speedups (same one-sided floor).
//!
//! Exit status 0 on pass (warnings allowed), 1 on any failed check or
//! bad usage. The report always prints, pass or fail.

use hpa_audit::gate::{self, DEFAULT_TOLERANCE};
use std::path::PathBuf;

fn main() {
    let mut baseline = PathBuf::from("results");
    let mut fresh: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_TOLERANCE;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" if i + 1 < args.len() => {
                baseline = PathBuf::from(&args[i + 1]);
                i += 1;
            }
            "--fresh" if i + 1 < args.len() => {
                fresh = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            "--tolerance" if i + 1 < args.len() => {
                match args[i + 1].parse::<f64>() {
                    Ok(t) if t >= 1.0 => tolerance = t,
                    _ => {
                        eprintln!(
                            "perf-gate: --tolerance must be a number >= 1.0, got '{}'",
                            args[i + 1]
                        );
                        std::process::exit(1);
                    }
                }
                i += 1;
            }
            other => {
                eprintln!("perf-gate: unknown argument '{other}'");
                eprintln!("usage: perf-gate --fresh DIR [--baseline DIR] [--tolerance F]");
                std::process::exit(1);
            }
        }
        i += 1;
    }
    let Some(fresh) = fresh else {
        eprintln!("perf-gate: --fresh DIR is required");
        eprintln!("usage: perf-gate --fresh DIR [--baseline DIR] [--tolerance F]");
        std::process::exit(1);
    };

    let report = gate::compare_dirs(&baseline, &fresh, tolerance);
    print!("{}", report.to_text());
    if report.failed() {
        std::process::exit(1);
    }
}
