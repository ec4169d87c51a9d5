//! `bench` — the end-to-end benchmark of the `hpa` workflow: a corpus
//! directory on disk in, a cluster-assignment file on disk out, on real
//! threads, with a per-layer waterfall. See `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root.

mod alloc;
mod harness;
mod json;
mod metrics;
mod rep;
mod report;
mod stats;
mod trace;
mod workload;

use harness::{Config, Stop, E2E_REPS, TRACED_REPS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::FlagCountingAllocator = alloc::FlagCountingAllocator;

const USAGE: &str = "\
bench — corpus on disk -> cluster file, on real threads, layer by layer

USAGE:
  bench run    [--seed N] [--quick] [--threads N]
      every workload: set-up, 21 + 9 end-to-end repetitions, 5 + 5 traced ones,
      all checks; prints every metric and writes results/latest.json and
      results/trace_<workload>.json (work/quick-results/ with --quick).
      Exit code 1 if any check failed.
  bench repeat [--seed N] [--quick] [--threads N]
      the end-to-end set of every workload twice; fails unless each metric
      agrees between the two within its bound.
  bench --workload NAME --seed N --seconds S --trace 0|1
      one workload for S seconds, as the benchmark driver runs it; the last
      line of output is the result as one JSON object.
  bench manifest
      prints BENCHMARK.json as this code defines it.

--seed drives corpus generation only (default 42). --quick divides the corpus
scales by 10 and runs 3 repetitions. --threads defaults to min(cores, 4) and
may not exceed the host's cores.";

struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match (self.has(name), self.get(name)) {
            (false, _) => Ok(None),
            (true, None) => Err(format!("{name} needs a value")),
            (true, Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parse(name)?
            .ok_or_else(|| format!("{name} is required"))
    }
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn config(flags: &Flags) -> Result<Config, String> {
    let host_cores = harness::host_cores();
    let threads = flags
        .parse("--threads")?
        .unwrap_or(host_cores.min(harness::MAX_THREADS));
    if threads == 0 || threads > host_cores {
        return Err(format!(
            "--threads {threads} refused: this host has {host_cores} core(s), and a thread \
             count above that measures oversubscription, not scaling"
        ));
    }
    Ok(Config {
        seed: flags.parse("--seed")?.unwrap_or(42),
        quick: flags.has("--quick"),
        threads,
        host_cores,
        work_root: benchmark_dir().join("work"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags(args.clone());
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&flags),
        Some("repeat") => cmd_repeat(&flags),
        Some("child") => cmd_child(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) if flags.has("--workload") => cmd_driver(&flags),
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `bench child <workload> --mode M --threads N --corpus DIR
/// --intermediates DIR --clusters FILE`: one repetition; the report goes
/// to standard output.
fn cmd_child(args: &[String]) -> Result<bool, String> {
    let flags = Flags(args.to_vec());
    let name = args.first().ok_or("child needs a workload name")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mode: String = flags.required("--mode")?;
    let mode = rep::Mode::parse(&mode).ok_or_else(|| format!("unknown mode '{mode}'"))?;
    let threads: usize = flags.required("--threads")?;
    if threads == 0 || threads > harness::host_cores() {
        return Err(format!(
            "--threads {threads} is not within this host's cores"
        ));
    }
    let path = |name: &str| flags.required::<PathBuf>(name);
    let paths = rep::Paths {
        corpus: path("--corpus")?,
        intermediates: path("--intermediates")?,
        clusters: path("--clusters")?,
    };
    let report = rep::run(workload, mode, threads, &paths)?;
    print!("{}", report.to_text());
    Ok(true)
}

/// Repetitions of the two sets: the full counts, or three in quick mode.
fn rep_counts(cfg: &Config) -> (Stop, Stop) {
    if cfg.quick {
        (Stop::Reps(3), Stop::Reps(3))
    } else {
        (Stop::Reps(E2E_REPS), Stop::Reps(TRACED_REPS))
    }
}

/// The committed baseline lives in `results/`; a quick run is a smoke
/// test and must not overwrite it.
fn write_result_file(cfg: &Config, name: &str, json: &json::Json) -> Result<(), String> {
    let dir = if cfg.quick {
        cfg.work_root.join("quick-results")
    } else {
        benchmark_dir().join("results")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let path = dir.join(name);
    std::fs::write(&path, json.render_pretty()).map_err(|e| format!("writing {path:?}: {e}"))
}

fn cmd_run(flags: &Flags) -> Result<bool, String> {
    let cfg = config(flags)?;
    let (e2e, traced) = rep_counts(&cfg);
    let mut results = Vec::new();
    for workload in &workload::WORKLOADS {
        let result = harness::run_workload(&cfg, workload, Some(e2e), Some(traced))?;
        report::print_workload(&cfg, &result);
        if let Some(trace) = report::trace_file(&cfg, &result) {
            write_result_file(&cfg, &format!("trace_{}.json", workload.name), &trace)?;
        }
        results.push(result);
    }
    write_result_file(&cfg, "latest.json", &report::latest(&cfg, &results))?;
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    println!("\n{failed} of {attempted} repetitions failed a check");
    Ok(failed == 0)
}

fn cmd_repeat(flags: &Flags) -> Result<bool, String> {
    let cfg = config(flags)?;
    let (stop, _) = rep_counts(&cfg);
    println!(
        "bench repeat: the end-to-end set twice on the same build, seed {}, {} of {} cores{}",
        cfg.seed,
        cfg.threads,
        cfg.host_cores,
        if cfg.quick { ", quick" } else { "" }
    );
    // A workload's two sets run back to back, as two driver runs would.
    let mut sets = [Vec::new(), Vec::new()];
    for workload in &workload::WORKLOADS {
        for set in &mut sets {
            set.push(harness::run_workload(&cfg, workload, Some(stop), None)?);
        }
    }
    Ok(report::print_repeat(&sets[0], &sets[1]))
}

fn cmd_driver(flags: &Flags) -> Result<bool, String> {
    let cfg = config(flags)?;
    let name: String = flags.required("--workload")?;
    let workload = workload::find(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is not within 0..=60"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let stop = Some(Stop::Seconds(seconds));
    let result = if trace {
        harness::run_workload(&cfg, workload, None, stop)?
    } else {
        harness::run_workload(&cfg, workload, stop, None)?
    };
    for failure in &result.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", report::driver_line(&result, trace).render());
    Ok(result.failed == 0)
}
