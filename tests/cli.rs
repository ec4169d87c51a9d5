//! End-to-end tests of the `hpa` command-line binary: generate a corpus,
//! cluster it and export TF/IDF — all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn hpa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpa"))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpa_cli_test_{tag}_{}", std::process::id()))
}

#[test]
fn full_cli_round_trip() {
    let corpus_dir = tmp("corpus");
    let clusters_path = tmp("clusters.csv");
    let arff_path = tmp("scores.arff");

    // generate
    let out = hpa()
        .args([
            "generate", "--preset", "mix", "--scale", "0.002", "--seed", "9",
        ])
        .arg("--out")
        .arg(&corpus_dir)
        .output()
        .expect("run hpa generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let n_files = std::fs::read_dir(&corpus_dir).unwrap().count();
    assert!(n_files > 10, "corpus has {n_files} files");

    // cluster
    let out = hpa()
        .args(["cluster", "--k", "3", "--threads", "4"])
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--out")
        .arg(&clusters_path)
        .output()
        .expect("run hpa cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let clusters = std::fs::read_to_string(&clusters_path).unwrap();
    assert_eq!(clusters.lines().count(), n_files);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("input+wc"),
        "phase report on stderr: {stderr}"
    );

    // tfidf export
    let out = hpa()
        .arg("tfidf")
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--out")
        .arg(&arff_path)
        .output()
        .expect("run hpa tfidf");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let arff = std::fs::read_to_string(&arff_path).unwrap();
    assert!(arff.starts_with("@RELATION"));
    assert!(arff.contains("@DATA"));

    std::fs::remove_dir_all(&corpus_dir).ok();
    for p in [&clusters_path, &arff_path] {
        std::fs::remove_file(p).ok();
    }
}

/// Generate a small corpus through the CLI; returns its directory and
/// document count.
fn generate_corpus(tag: &str) -> (PathBuf, usize) {
    let dir = tmp(tag);
    let out = hpa()
        .args([
            "generate", "--preset", "mix", "--scale", "0.0005", "--seed", "3",
        ])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run hpa generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let n = std::fs::read_dir(&dir).unwrap().count();
    (dir, n)
}

#[test]
fn zero_counts_fail_cleanly_instead_of_panicking() {
    let (corpus_dir, _) = generate_corpus("zero_counts");
    let cases: [&[&str]; 3] = [
        &["cluster", "--k", "0"],
        &["cluster", "--threads", "0"],
        &["cluster", "--threads", "0", "--simulate"],
    ];
    for args in cases {
        let out = hpa()
            .args(args)
            .arg("--input")
            .arg(&corpus_dir)
            .output()
            .expect("run hpa");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("must be at least 1"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&corpus_dir).ok();
}

#[test]
fn k_larger_than_document_count_still_clusters_every_document() {
    let (corpus_dir, n_files) = generate_corpus("big_k");
    let k = n_files + 5;
    let out = hpa()
        .args(["cluster", "--threads", "2", "--k", &k.to_string()])
        .arg("--input")
        .arg(&corpus_dir)
        .output()
        .expect("run hpa cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let assignments = String::from_utf8_lossy(&out.stdout);
    assert_eq!(assignments.lines().count(), n_files);
    for line in assignments.lines() {
        let (_, cluster) = line.rsplit_once(',').expect("doc,cluster");
        let c: usize = cluster.parse().expect("numeric cluster id");
        assert!(c < n_files, "k is clamped to the document count: {line}");
    }
    std::fs::remove_dir_all(&corpus_dir).ok();
}

#[test]
fn unknown_command_fails_with_message() {
    for command in ["frobnicate", "train", "predict"] {
        let out = hpa().arg(command).output().expect("run hpa");
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let out = hpa().arg("cluster").output().expect("run hpa");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn help_prints_usage() {
    let out = hpa().arg("--help").output().expect("run hpa");
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("USAGE"));
    let commands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  hpa "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(commands, ["generate", "cluster", "tfidf"]);
}
