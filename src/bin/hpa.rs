//! `hpa` — command-line front end for the workflow.
//!
//! ```sh
//! hpa generate --preset mix --scale 0.01 --seed 42 --out ./corpus
//! hpa cluster  --input ./corpus --k 8 --strategy fused
//! hpa tfidf    --input ./corpus --out scores.arff
//! ```
//!
//! `cluster` and `tfidf` run on the work-stealing pool with one worker
//! per available core and the `arena` dictionary — the configuration the
//! benchmark measures. `--threads N` sets the worker count; `--simulate`
//! runs the same work on N simulated cores instead, so thread counts
//! beyond the host's still give a modelled schedule.

use hpa::corpus::{disk, CorpusSpec};
use hpa::dict::DictKind;
use hpa::exec::MachineModel;
use hpa::io::load_corpus_parallel;
use hpa::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("tfidf") => cmd_tfidf(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "hpa — high-performance analytics workflow (TF/IDF -> K-means)

USAGE:
  hpa generate --preset mix|nsf --scale F --seed N --out DIR
  hpa cluster  --input DIR [--k N] [--threads N] [--strategy fused|discrete]
               [--dict map|u-map|u-map-presized|arena] [--simulate]
               [--out FILE]
  hpa tfidf    --input DIR [--dict ...] [--threads N] --out FILE.arff

  --threads defaults to the host's available parallelism and --dict to
  arena; every command but generate runs on real threads unless
  --simulate asks for the multicore simulator.
"
    );
}

struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }

    /// A count flag (`--k`, `--threads`): zero is rejected here so it
    /// never reaches the library's positivity asserts.
    fn parse_count(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.parse(name, default)? {
            0 => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }
}

fn make_exec(flags: &Flags) -> Result<Exec, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = flags.parse_count("--threads", cores)?;
    Ok(if flags.has("--simulate") {
        Exec::simulated(threads, MachineModel::default())
    } else {
        Exec::pool(threads)
    })
}

fn load_input(flags: &Flags, exec: &Exec) -> Result<Corpus, String> {
    let input = flags
        .get("--input")
        .ok_or_else(|| "--input DIR is required".to_string())?;
    load_corpus_parallel(exec, "input", &PathBuf::from(input))
        .map_err(|e| format!("loading corpus from {input}: {e}"))
}

fn dict_kind(flags: &Flags) -> Result<DictKind, String> {
    match flags.get("--dict") {
        None => Ok(DictKind::Arena),
        Some(s) => s.parse(),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let preset = flags.get("--preset").unwrap_or("mix");
    let spec = match preset {
        "mix" => CorpusSpec::mix(),
        "nsf" | "nsf-abstracts" => CorpusSpec::nsf_abstracts(),
        other => return Err(format!("unknown preset '{other}' (mix|nsf)")),
    };
    let scale: f64 = flags.parse("--scale", 0.01)?;
    let seed: u64 = flags.parse("--seed", 42)?;
    let out = flags
        .get("--out")
        .ok_or_else(|| "--out DIR is required".to_string())?;
    let corpus = spec.scaled(scale).generate(seed);
    let n = disk::write_corpus(&corpus, &PathBuf::from(out))
        .map_err(|e| format!("writing corpus: {e}"))?;
    let stats = corpus.stats().map_err(|e| format!("reading corpus: {e}"))?;
    println!(
        "wrote {n} documents ({:.1} MB, {} distinct words) to {out}",
        stats.megabytes(),
        stats.distinct_words
    );
    Ok(())
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let k = flags.parse_count("--k", 8)?;
    let exec = make_exec(&flags)?;
    let corpus = load_input(&flags, &exec)?;
    let builder = WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            dict_kind: dict_kind(&flags)?,
            grain: 0,
            charge_input_io: true,
            ..Default::default()
        })
        .kmeans(KMeansConfig {
            k,
            ..Default::default()
        });
    let workflow = match flags.get("--strategy").unwrap_or("fused") {
        "fused" | "merged" => builder.fused(),
        "discrete" => builder.discrete(),
        other => return Err(format!("unknown strategy '{other}' (fused|discrete)")),
    };
    let outcome = workflow
        .run(&corpus, &exec)
        .map_err(|e| format!("workflow failed: {e}"))?;
    eprintln!(
        "clustered {} documents into {k} clusters ({} iterations, inertia {:.3})",
        outcome.assignments.len(),
        outcome.iterations,
        outcome.inertia
    );
    eprint!("{}", outcome.phases);
    match flags.get("--out") {
        Some(path) => {
            std::fs::write(path, &outcome.output).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("assignments written to {path}");
        }
        None => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&outcome.output)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_tfidf(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let exec = make_exec(&flags)?;
    let corpus = load_input(&flags, &exec)?;
    let out = flags
        .get("--out")
        .ok_or_else(|| "--out FILE.arff is required".to_string())?;
    let op = hpa::tfidf::TfIdf::new(TfIdfConfig {
        dict_kind: dict_kind(&flags)?,
        grain: 0,
        charge_input_io: true,
        ..Default::default()
    });
    let model = op.fit(&exec, &corpus);
    let file = std::io::BufWriter::new(
        std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?,
    );
    hpa::tfidf::write_arff(&exec, &model, file).map_err(|e| format!("writing ARFF: {e}"))?;
    eprintln!(
        "wrote {} x {} TF/IDF matrix to {out}",
        model.vectors.len(),
        model.vocab.len()
    );
    Ok(())
}
