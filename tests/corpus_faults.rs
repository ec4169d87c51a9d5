//! Corpus-load fault cases: a corpus directory with one bad entry, run
//! through `Workflow::run` on the benchmark's three transports and through
//! `hpa cluster`.
//!
//! The loader only lists the directory; each document is read where the
//! word count tokenizes it. So a file that cannot be read fails the run,
//! not the load, and the failure must be a typed `WorkflowError::Io` whose
//! message names the file. An entry that reads cleanly — an empty file,
//! an empty directory, documents of punctuation only (a vocabulary of no
//! term) — must give the same result as the same text held in memory. Either way no intermediate may be left behind and nothing
//! may panic.

use hpa::corpus::{disk, Document};
use hpa::prelude::*;
use hpa::workflow::WorkflowError;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The document every faulty case spoils.
const BAD: &str = "doc_000003.txt";

/// What a case must end in.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// `WorkflowError::Io` of this kind, naming [`BAD`].
    Fails(ErrorKind),
    /// The result of the same text in memory.
    Runs,
}

/// One case: how it spoils a written corpus directory before the load
/// (`before`) and after it (`after`), and what it ends in.
struct Case {
    tag: &'static str,
    before: fn(&Path),
    after: fn(&Path),
    expect: Expect,
}

fn nothing(_: &Path) {}

fn cases() -> [Case; 6] {
    [
        Case {
            tag: "removed_after_listing",
            before: nothing,
            after: |dir| std::fs::remove_file(dir.join(BAD)).unwrap(),
            expect: Expect::Fails(ErrorKind::NotFound),
        },
        Case {
            tag: "not_utf8",
            before: |dir| std::fs::write(dir.join(BAD), b"caf\xe9 au lait").unwrap(),
            after: nothing,
            expect: Expect::Fails(ErrorKind::InvalidData),
        },
        Case {
            tag: "directory_named_txt",
            before: |dir| {
                std::fs::remove_file(dir.join(BAD)).unwrap();
                std::fs::create_dir(dir.join(BAD)).unwrap();
            },
            after: nothing,
            expect: Expect::Fails(ErrorKind::IsADirectory),
        },
        Case {
            tag: "empty_file",
            before: |dir| std::fs::write(dir.join(BAD), "").unwrap(),
            after: nothing,
            expect: Expect::Runs,
        },
        Case {
            tag: "empty_directory",
            before: |dir| {
                std::fs::remove_dir_all(dir).unwrap();
                std::fs::create_dir(dir).unwrap();
            },
            after: nothing,
            expect: Expect::Runs,
        },
        Case {
            tag: "no_token",
            before: |dir| {
                for path in disk::list_documents(dir).unwrap() {
                    std::fs::write(path, "!!! ... ,,, ---").unwrap();
                }
            },
            after: nothing,
            expect: Expect::Runs,
        },
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpa_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus() -> Corpus {
    CorpusSpec::mix().scaled(0.001).generate(11)
}

/// What a clean directory read as, in memory: each listed `.txt` file's
/// text, in listing order.
fn in_memory(dir: &Path) -> Corpus {
    let paths = disk::list_documents(dir).unwrap();
    let docs = paths
        .iter()
        .enumerate()
        .map(|(i, path)| Document {
            id: i as u32,
            name: path.file_name().unwrap().to_string_lossy().into_owned(),
            text: std::fs::read_to_string(path).unwrap(),
        })
        .collect();
    Corpus::from_documents("memory", docs)
}

fn builder() -> WorkflowBuilder {
    WorkflowBuilder::new().kmeans(KMeansConfig {
        k: 3,
        max_iters: 5,
        ..Default::default()
    })
}

/// Fused, a serial ARFF file and a pipelined `.hpac` file in `dir`.
fn workflows(dir: &Path) -> [(&'static str, Workflow); 3] {
    [
        ("fused", builder().fused()),
        (
            "arff",
            builder()
                .discrete_io(DiscreteIo::Serial)
                .intermediate_format(IntermediateFormat::Arff)
                .discrete_in(dir.to_path_buf()),
        ),
        (
            "hpac",
            builder()
                .discrete_io(DiscreteIo::Pipelined)
                .intermediate_format(IntermediateFormat::Binary)
                .discrete_in(dir.to_path_buf()),
        ),
    ]
}

fn assert_names_bad_file(message: &str, case: &str) {
    assert!(
        message.contains(BAD),
        "{case}: error names no file: {message}"
    );
}

#[test]
fn every_case_fails_typed_or_runs_correctly_through_the_workflow() {
    let exec = Exec::pool(2);
    for case in cases() {
        let root = scratch(case.tag);
        let (docs, intermediates) = (root.join("corpus"), root.join("intermediates"));
        disk::write_corpus(&corpus(), &docs).unwrap();
        (case.before)(&docs);
        let expected = matches!(case.expect, Expect::Runs).then(|| in_memory(&docs));
        let loaded = hpa::io::load_corpus_parallel(&exec, case.tag, &docs).unwrap();
        (case.after)(&docs);
        for (label, workflow) in workflows(&intermediates) {
            let result = workflow.run(&loaded, &exec);
            match (case.expect, result) {
                (Expect::Fails(kind), Err(WorkflowError::Io(e))) => {
                    assert_eq!(e.kind(), kind, "{} {label}: {e}", case.tag);
                    assert_names_bad_file(&e.to_string(), case.tag);
                }
                (Expect::Runs, Ok(outcome)) => {
                    let memory = expected.as_ref().unwrap();
                    let reference = workflow.run(memory, &exec).unwrap();
                    assert_eq!(outcome.output, reference.output, "{} {label}", case.tag);
                    assert_eq!(outcome.assignments.len(), memory.len());
                }
                (expect, result) => {
                    panic!("{} {label}: expected {expect:?}, got {result:?}", case.tag)
                }
            }
            let left: Vec<_> = std::fs::read_dir(&intermediates)
                .map(|d| d.collect())
                .unwrap_or_default();
            assert!(left.is_empty(), "{} {label}: left {left:?}", case.tag);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Temporary workflow directories a process with `pid` left behind.
fn leftover_workflow_dirs(pid: u32) -> Vec<PathBuf> {
    let prefix = format!("hpa_workflow_{pid}_");
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

#[test]
fn every_case_fails_typed_or_runs_correctly_through_the_cli() {
    for case in cases() {
        let root = scratch(&format!("cli_{}", case.tag));
        let docs = root.join("corpus");
        disk::write_corpus(&corpus(), &docs).unwrap();
        (case.before)(&docs);
        if case.tag == "removed_after_listing" {
            // One process lists and reads: a link to nowhere is listed
            // and then fails to open, as a file removed in between does.
            std::fs::remove_file(docs.join(BAD)).unwrap();
            std::os::unix::fs::symlink(root.join("nowhere"), docs.join(BAD)).unwrap();
        }
        for strategy in ["fused", "discrete"] {
            let out = root.join(format!("clusters_{strategy}.csv"));
            let child = Command::new(env!("CARGO_BIN_EXE_hpa"))
                .args([
                    "cluster",
                    "--k",
                    "3",
                    "--threads",
                    "2",
                    "--strategy",
                    strategy,
                ])
                .arg("--input")
                .arg(&docs)
                .arg("--out")
                .arg(&out)
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap();
            let pid = child.id();
            let run = child.wait_with_output().unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            let what = format!("{} {strategy}", case.tag);
            assert!(!stderr.contains("panicked"), "{what}: {stderr}");
            assert!(
                leftover_workflow_dirs(pid).is_empty(),
                "{what}: intermediates left"
            );
            match case.expect {
                Expect::Fails(_) => {
                    assert_eq!(run.status.code(), Some(1), "{what}: {stderr}");
                    assert!(
                        stderr.contains("error: workflow failed"),
                        "{what}: {stderr}"
                    );
                    assert_names_bad_file(&stderr, &what);
                    assert!(!out.exists(), "{what}: wrote a cluster file");
                }
                Expect::Runs => {
                    assert!(run.status.success(), "{what}: {stderr}");
                    let lines = std::fs::read_to_string(&out).unwrap().lines().count();
                    assert_eq!(lines, disk::list_documents(&docs).unwrap().len(), "{what}");
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
