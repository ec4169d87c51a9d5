#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Shared support for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper or quantifies one of its in-text claims (see DESIGN.md §5 for
//! the experiment index). This library holds
//! the common pieces: CLI/environment configuration, the thread grid,
//! corpus construction at a chosen scale, and report emission.
//!
//! ## Execution modes
//!
//! * `analytic` (default) — the multicore simulator with the calibrated
//!   analytic cost model: deterministic, machine-independent, reproduces
//!   the paper's published shapes. The workloads still *run* for real
//!   (results are computed), only the clock is modelled.
//! * `measured` — the simulator with per-task costs measured on this
//!   host: realistic for the Rust implementations, host-dependent.
//! * `real` — real threads on the work-stealing pool; speedups are only
//!   meaningful on a physical multicore machine.
//!
//! ## Scale
//!
//! `--scale 0.125` (default) generates corpora at 1/8 of the paper's
//! document counts (vocabulary scales by Heaps' law); `--scale full`
//! uses the exact Table 1 sizes. Reports always state the scale.
//!
//! ## Tracing
//!
//! `--trace [path]` (or `HPA_TRACE=path`) enables `hpa-trace` span
//! recording for the whole run and writes a Chrome-trace JSON (loadable
//! in Perfetto / `chrome://tracing`) plus the run ledger as text at exit.
//! The default path is `<out-dir>/trace.json`.
//!
//! ## Calibration
//!
//! [`calib`] fits cost-model scales from a traced run's ledger; the
//! `calibrate` bin writes them with the ledger as
//! `LEDGER_calibrate.{json,txt}`.

pub mod calib;

use hpa_corpus::{Corpus, CorpusSpec};
use hpa_exec::{CostMode, Exec, MachineModel};
use hpa_metrics::ExperimentReport;
use hpa_trace::{RunLedger, CONFORMANCE_TOLERANCE};
use std::path::PathBuf;

/// How virtual/real time is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Simulator + analytic cost model (deterministic).
    #[default]
    Analytic,
    /// Simulator + measured per-task costs.
    Measured,
    /// Real threads (needs a physical multicore host to be meaningful).
    Real,
}

impl Mode {
    /// Build the executor for `threads` under this mode.
    pub fn exec(&self, threads: usize) -> Exec {
        match self {
            Mode::Analytic => {
                Exec::simulated_with(threads, MachineModel::default(), CostMode::Analytic)
            }
            Mode::Measured => Exec::simulated(threads, MachineModel::default()),
            Mode::Real => Exec::pool(threads),
        }
    }

    /// Human-readable mode string for reports.
    pub fn describe(&self) -> String {
        match self {
            Mode::Analytic => "simulated multicore, analytic cost model".to_string(),
            Mode::Measured => "simulated multicore, measured task costs".to_string(),
            Mode::Real => format!(
                "real threads (host has {} cores)",
                std::thread::available_parallelism().map_or(1, |n| n.get())
            ),
        }
    }
}

/// Parsed harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Corpus scale factor (1.0 = the paper's Table 1 sizes).
    pub scale: f64,
    /// Execution mode.
    pub mode: Mode,
    /// Thread counts to sweep (the paper's figures use 1..20).
    pub threads: Vec<usize>,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
    /// Corpus generation seed.
    pub seed: u64,
    /// Chrome-trace output path (`--trace [path]` / `HPA_TRACE`), if any.
    pub trace: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 0.125,
            mode: Mode::Analytic,
            threads: vec![1, 2, 4, 8, 12, 16, 20],
            out_dir: PathBuf::from("results"),
            seed: 20160315, // the workshop date
            trace: None,
        }
    }
}

impl BenchConfig {
    /// Parse from `std::env::args` plus the `HPA_SCALE` / `HPA_MODE`
    /// environment variables (flags win over environment).
    pub fn from_env() -> Self {
        let mut cfg = BenchConfig::default();
        if let Ok(s) = std::env::var("HPA_SCALE") {
            cfg.scale = parse_scale(&s).unwrap_or(cfg.scale);
        }
        if let Ok(m) = std::env::var("HPA_MODE") {
            cfg.mode = parse_mode(&m).unwrap_or(cfg.mode);
        }
        if let Ok(p) = std::env::var("HPA_TRACE") {
            if !p.is_empty() {
                cfg.trace = Some(PathBuf::from(p));
            }
        }
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut trace_default_path = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    cfg.scale = parse_scale(&args[i + 1]).unwrap_or_else(|| {
                        eprintln!(
                            "warning: bad --scale '{}', keeping {}",
                            args[i + 1],
                            cfg.scale
                        );
                        cfg.scale
                    });
                    i += 1;
                }
                "--mode" if i + 1 < args.len() => {
                    cfg.mode = parse_mode(&args[i + 1]).unwrap_or_else(|| {
                        eprintln!("warning: bad --mode '{}'", args[i + 1]);
                        cfg.mode
                    });
                    i += 1;
                }
                "--threads" if i + 1 < args.len() => {
                    cfg.threads = args[i + 1]
                        .split(',')
                        .filter_map(|t| t.trim().parse().ok())
                        .collect();
                    i += 1;
                }
                "--out" if i + 1 < args.len() => {
                    cfg.out_dir = PathBuf::from(&args[i + 1]);
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    cfg.seed = args[i + 1].parse().unwrap_or(cfg.seed);
                    i += 1;
                }
                "--trace" => {
                    // Optional path operand; defaults to trace.json next
                    // to the CSVs (resolved after all flags, so a later
                    // `--out` still applies).
                    if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                        cfg.trace = Some(PathBuf::from(&args[i + 1]));
                        trace_default_path = false;
                        i += 1;
                    } else {
                        trace_default_path = true;
                    }
                }
                other => {
                    eprintln!("warning: ignoring unknown argument '{other}'");
                }
            }
            i += 1;
        }
        if cfg.threads.is_empty() {
            cfg.threads = vec![1];
        }
        if trace_default_path {
            cfg.trace = Some(cfg.out_dir.join("trace.json"));
        }
        if let Some(path) = &cfg.trace {
            hpa_trace::enable_with_path(path.clone());
        }
        cfg
    }

    /// Scale description for reports.
    pub fn scale_label(&self) -> String {
        if (self.scale - 1.0).abs() < 1e-9 {
            "full paper scale (Table 1 sizes)".to_string()
        } else {
            format!("{} of paper scale", self.scale)
        }
    }

    /// Generate the *Mix* corpus at the configured scale.
    pub fn mix(&self) -> Corpus {
        CorpusSpec::mix().scaled(self.scale).generate(self.seed)
    }

    /// Generate the *NSF Abstracts* corpus at the configured scale.
    pub fn nsf(&self) -> Corpus {
        CorpusSpec::nsf_abstracts()
            .scaled(self.scale)
            .generate(self.seed)
    }

    /// Print the report and write its CSVs to the output directory.
    /// When tracing is on (`--trace` / `HPA_TRACE`), also flushes the
    /// Chrome-trace JSON and prints the run's ledger.
    pub fn emit(&self, report: &ExperimentReport) {
        print!("{report}");
        match report.write_csvs(&self.out_dir) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("warning: could not write CSVs: {e}"),
        }
        if let Some((path, result)) = hpa_trace::finish() {
            match result {
                Ok(recording) => {
                    // The sweep's largest thread count (a bin may run a
                    // filtered subset of the grid).
                    let threads = self.threads.iter().copied().max().unwrap_or(1);
                    let ledger = RunLedger::from_recording(
                        &report.id,
                        threads,
                        &recording,
                        CONFORMANCE_TOLERANCE,
                    );
                    print!("{}", ledger.to_text());
                    println!(
                        "wrote {} (load in https://ui.perfetto.dev or chrome://tracing)",
                        path.display()
                    );
                }
                Err(e) => eprintln!("warning: could not write trace: {e}"),
            }
        }
    }
}

fn parse_scale(s: &str) -> Option<f64> {
    if s.eq_ignore_ascii_case("full") {
        return Some(1.0);
    }
    s.parse::<f64>().ok().filter(|v| *v > 0.0 && *v <= 1.0)
}

fn parse_mode(s: &str) -> Option<Mode> {
    match s.to_ascii_lowercase().as_str() {
        "analytic" => Some(Mode::Analytic),
        "measured" => Some(Mode::Measured),
        "real" => Some(Mode::Real),
        _ => None,
    }
}

/// Self-relative speedups: `times[0]` is the 1-thread baseline.
pub fn speedups(times: &[f64]) -> Vec<f64> {
    if times.is_empty() || times[0] <= 0.0 {
        return vec![];
    }
    times.iter().map(|t| times[0] / t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_full_and_fractions() {
        assert_eq!(parse_scale("full"), Some(1.0));
        assert_eq!(parse_scale("0.25"), Some(0.25));
        assert_eq!(parse_scale("0"), None);
        assert_eq!(parse_scale("2.0"), None);
        assert_eq!(parse_scale("nope"), None);
    }

    #[test]
    fn parse_mode_accepts_all_three() {
        assert_eq!(parse_mode("analytic"), Some(Mode::Analytic));
        assert_eq!(parse_mode("MEASURED"), Some(Mode::Measured));
        assert_eq!(parse_mode("real"), Some(Mode::Real));
        assert_eq!(parse_mode("x"), None);
    }

    #[test]
    fn speedups_are_self_relative() {
        let s = speedups(&[10.0, 5.0, 2.5]);
        assert_eq!(s, vec![1.0, 2.0, 4.0]);
        assert!(speedups(&[]).is_empty());
    }

    #[test]
    fn default_thread_grid_matches_paper_axis() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.threads, vec![1, 2, 4, 8, 12, 16, 20]);
        assert!(cfg.scale > 0.0);
    }

    #[test]
    fn mode_builds_working_executors() {
        for mode in [Mode::Analytic, Mode::Measured, Mode::Real] {
            let exec = mode.exec(2);
            let mut hits = 0;
            exec.par_chunks(4, 1, |_| {}, |_| hpa_exec::TaskCost::default());
            exec.serial(hpa_exec::TaskCost::cpu(10), || hits += 1);
            assert_eq!(hits, 1);
            assert!(!mode.describe().is_empty());
        }
    }
}
