//! One repetition, run in a child process of the harness: what the
//! child does, and the report it prints for its parent.
//!
//! A fresh process per repetition is what a CLI user pays, and it keeps
//! one repetition's heap and page state out of the next one's timing.

use crate::alloc;
use crate::trace::{Recorder, Span};
use crate::workload::{MatrixPath, Workload};
use hpa::exec::Exec;
use hpa::io::load_corpus_parallel;
use hpa::kmeans::KMeans;
use hpa::sparse::SparseVec;
use hpa::tfidf::{self, TfIdf, TfIdfModel};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// What `hpa cluster` does, through `Workflow::run`, timed as one
    /// interval with nothing else switched on.
    E2e,
    /// The same workflow composed by hand from the layers' public
    /// functions, a span around each call.
    Layers,
    /// `Layers` with the counting allocator on and the layers' work
    /// counts collected. Its times are not used.
    Counted,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Layers => "layers",
            Mode::Counted => "counted",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::E2e, Mode::Layers, Mode::Counted]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// Where a repetition reads and writes.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The corpus directory, one `.txt` file per document.
    pub corpus: PathBuf,
    /// Directory for the discrete workloads' intermediate file.
    pub intermediates: PathBuf,
    /// The cluster-assignment file the repetition writes.
    pub clusters: PathBuf,
}

/// What a repetition tells the harness: named whole numbers and, from a
/// traced repetition, its spans. Printed as text lines on the child's
/// standard output and parsed back by the parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub values: BTreeMap<String, u64>,
    pub spans: Vec<Span>,
}

impl Report {
    fn set(&mut self, key: &str, value: u64) {
        self.values.insert(key.to_string(), value);
    }

    pub fn get(&self, key: &str) -> Result<u64, String> {
        self.values
            .get(key)
            .copied()
            .ok_or_else(|| format!("repetition reported no '{key}'"))
    }

    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.values {
            out.push_str(&format!("value {key} {value}\n"));
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "span {} {} {} {parent} {}\n",
                s.name, s.start_ns, s.end_ns, s.allocs
            ));
        }
        out
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let bad = || format!("unreadable report line '{line}'");
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["value", key, value] => report.set(key, num(value)?),
                ["span", name, start, end, parent, allocs] => report.spans.push(Span {
                    name: name.to_string(),
                    start_ns: num(start)?,
                    end_ns: num(end)?,
                    parent: match *parent {
                        "-" => None,
                        p => Some(num(p)? as usize),
                    },
                    allocs: num(allocs)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

fn own_vm_hwm_kb() -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one repetition of `workload` on `threads` real threads
/// (`Exec::sequential()` for one) and returns its report.
pub fn run(
    workload: &Workload,
    mode: Mode,
    threads: usize,
    paths: &Paths,
) -> Result<Report, String> {
    let exec = Exec::pool(threads);
    let mut report = match mode {
        Mode::E2e => e2e(workload, &exec, paths)?,
        Mode::Layers => layers(workload, &exec, paths, false)?,
        Mode::Counted => layers(workload, &exec, paths, true)?,
    };
    report.set("vm_hwm_kb", own_vm_hwm_kb()?);
    Ok(report)
}

fn e2e(workload: &Workload, exec: &Exec, paths: &Paths) -> Result<Report, String> {
    let start = Instant::now();
    let corpus = load_corpus_parallel(exec, workload.name, &paths.corpus)
        .map_err(|e| format!("loading corpus: {e}"))?;
    let outcome = workload
        .workflow(&paths.intermediates)
        .run(&corpus, exec)
        .map_err(|e| format!("workflow: {e}"))?;
    fs::write(&paths.clusters, &outcome.output).map_err(|e| format!("writing clusters: {e}"))?;
    let wall = start.elapsed();

    let mut report = Report::default();
    report.set("wall_ns", wall.as_nanos() as u64);
    report.set("iterations", outcome.iterations as u64);
    Ok(report)
}

/// Writes the matrix to `path` and reads it back, a span around each
/// leg, through the same `BufWriter`/`BufReader` over a file that
/// `Workflow::run` uses; removes the file. Returns the matrix and the
/// file's size.
fn roundtrip<E: std::fmt::Display>(
    rec: &mut Recorder,
    layer: &str,
    path: &Path,
    model: TfIdfModel,
    write: impl FnOnce(&TfIdfModel, BufWriter<File>) -> Result<BufWriter<File>, E>,
    read: impl FnOnce(BufReader<File>) -> Result<(Vec<SparseVec>, usize), E>,
) -> Result<(Vec<SparseVec>, usize, u64), String> {
    rec.layer(&format!("{layer}.write"), || {
        let file = File::create(path).map_err(|e| e.to_string())?;
        let mut file = write(&model, BufWriter::new(file)).map_err(|e| e.to_string())?;
        file.flush().map_err(|e| e.to_string())
    })
    .map_err(|e| format!("{layer}.write: {e}"))?;
    drop(model);
    let (vectors, dim) = rec
        .layer(&format!("{layer}.read"), || {
            let file = File::open(path).map_err(|e| e.to_string())?;
            read(BufReader::new(file)).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("{layer}.read: {e}"))?;
    let bytes = fs::metadata(path).map_err(|e| e.to_string())?.len();
    fs::remove_file(path).map_err(|e| e.to_string())?;
    Ok((vectors, dim, bytes))
}

fn layers(
    workload: &Workload,
    exec: &Exec,
    paths: &Paths,
    counted: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    if counted {
        alloc::start_counting();
    }
    let mut rec = Recorder::start();

    let corpus = rec
        .layer("io.load", || {
            load_corpus_parallel(exec, workload.name, &paths.corpus)
        })
        .map_err(|e| format!("loading corpus: {e}"))?;
    let docs = corpus.len();

    let op = TfIdf::new(workload.tfidf_config());
    let counts = rec.layer("tfidf.count_words", || op.count_words(exec, &corpus));
    let vocab = rec.layer("tfidf.build_vocab", || op.build_vocab(exec, &counts));
    let model = rec.layer("tfidf.transform", || op.transform(exec, &counts, &vocab));
    if counted {
        // Walks over every document: kept out of the timed repetitions.
        report.set("io.files", docs as u64);
        report.set("io.bytes", corpus.total_bytes());
        report.set(
            "tfidf.tokens",
            counts.per_doc.iter().map(|d| d.total_terms).sum(),
        );
        report.set("tfidf.vocab_terms", vocab.len() as u64);
        report.set(
            "tfidf.nnz",
            model.vectors.iter().map(|v| v.nnz() as u64).sum(),
        );
        report.set("dict.counts_heap_bytes", counts.heap_bytes());
        report.set("dict.vocab_heap_bytes", vocab.heap_bytes());
    }
    rec.layer("tfidf.free", || {
        drop(vocab);
        drop(counts);
        drop(corpus);
    });

    let (vectors, dim) = match workload.path {
        MatrixPath::Fused => {
            let dim = model.vocab.len();
            (model.vectors, dim)
        }
        MatrixPath::ArffSerial => {
            let (vectors, dim, bytes) = roundtrip(
                &mut rec,
                "arff",
                &paths.intermediates.join("tfidf_layers.arff"),
                model,
                |model, file| tfidf::write_arff(exec, model, file),
                |file| tfidf::read_arff(exec, file),
            )?;
            report.set("arff.bytes", bytes);
            (vectors, dim)
        }
        MatrixPath::HpacPipelined => {
            let (vectors, dim, bytes) = roundtrip(
                &mut rec,
                "colfmt",
                &paths.intermediates.join("tfidf_layers.hpac"),
                model,
                |model, file| tfidf::write_colfmt_overlapped(exec, model, file),
                |file| tfidf::read_colfmt_parallel(exec, file),
            )?;
            report.set("colfmt.bytes", bytes);
            (vectors, dim)
        }
    };

    let clustering = rec.layer("kmeans.fit", || {
        KMeans::new(workload.kmeans_config()).fit(exec, &vectors, dim)
    });

    let output_bytes = rec
        .layer("output.write", || {
            let mut out = Vec::with_capacity(docs * 12);
            for (i, a) in clustering.assignments.iter().enumerate() {
                let _ = writeln!(out, "{i},{a}");
            }
            fs::write(&paths.clusters, &out).map(|()| out.len())
        })
        .map_err(|e| format!("writing clusters: {e}"))?;
    drop(vectors);
    report.spans = rec.finish();

    report.set("wall_ns", report.spans[0].duration_ns());
    report.set("iterations", clustering.iterations as u64);
    let non_increasing = clustering.trace.windows(2).all(|w| w[1] <= w[0]);
    report.set("inertia_non_increasing", non_increasing as u64);
    if counted {
        report.set("output.bytes", output_bytes as u64);
        report.set(
            "kmeans.distances_computed",
            clustering.assign_stats.distances_computed,
        );
        report.set(
            "kmeans.distances_pruned",
            clustering.assign_stats.distances_pruned,
        );
        report.set("mem.peak_heap_bytes", alloc::peak_bytes());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_file() {
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn own_status_has_a_peak() {
        assert!(own_vm_hwm_kb().unwrap() > 0);
    }

    #[test]
    fn report_survives_the_pipe() {
        let mut report = Report::default();
        report.set("wall_ns", 1_234_567_890);
        report.set("tfidf.tokens", 42);
        report.spans = vec![
            Span {
                name: "run".to_string(),
                start_ns: 0,
                end_ns: 900,
                parent: None,
                allocs: 12,
            },
            Span {
                name: "io.load".to_string(),
                start_ns: 5,
                end_ns: 300,
                parent: Some(0),
                allocs: 7,
            },
        ];
        assert_eq!(Report::parse(&report.to_text()), Ok(report.clone()));
        assert_eq!(report.get("wall_ns"), Ok(1_234_567_890));
        assert!(report.get("absent").is_err());
        assert!(Report::parse("value x notanumber\n").is_err());
        assert!(Report::parse("panicked at somewhere\n").is_err());
    }

    #[test]
    fn modes_round_trip_through_their_names() {
        for mode in [Mode::E2e, Mode::Layers, Mode::Counted] {
            assert_eq!(Mode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(Mode::parse("sim"), None);
    }
}
