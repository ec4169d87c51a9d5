//! Table 1 — data set description.
//!
//! Regenerates the paper's Table 1 (documents / bytes / distinct words)
//! from the synthetic corpora and prints the paper's published values
//! alongside, so calibration drift is visible at a glance.

use hpa_bench::BenchConfig;
use hpa_metrics::{ExperimentReport, Table};

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "table1",
        "Data set description (documents, bytes, distinct words)",
        "corpus generation (no execution model involved)",
        &cfg.scale_label(),
    );

    let mut table = Table::new(
        "Table 1: Data set description",
        &[
            "Input",
            "Documents",
            "MB",
            "Distinct words",
            "paper docs",
            "paper MB",
            "paper distinct",
        ],
    );

    let paper = [
        ("Mix", 23_432usize, 62.8f64, 184_743usize),
        ("NSF Abstracts", 101_483, 310.9, 267_914),
    ];
    let corpora = [cfg.mix(), cfg.nsf()];
    for (corpus, (name, p_docs, p_mb, p_words)) in corpora.iter().zip(paper) {
        let stats = corpus.stats().expect("a generated corpus is in memory");
        table.row(&[
            name.to_string(),
            stats.documents.to_string(),
            format!("{:.1}", stats.megabytes()),
            stats.distinct_words.to_string(),
            scaled(p_docs, cfg.scale).to_string(),
            format!("{:.1}", p_mb * cfg.scale),
            format!("~{}", scaled(p_words, cfg.scale.sqrt())),
        ]);
    }
    report.add_table(table);
    report.note("paper columns are Table 1 values scaled to this run's corpus scale (vocabulary by Heaps' law)");
    cfg.emit(&report);
}

fn scaled(x: usize, f: f64) -> usize {
    (x as f64 * f).round() as usize
}
