//! Ablation — parallel-loop grain size.
//!
//! Chunk granularity trades scheduling overhead (many small tasks)
//! against load imbalance (few large tasks). This sweep runs the
//! TF/IDF word-count loop at several grains on a simulated 16-core
//! machine and reports virtual time, plus the work/span parallelism the
//! executor observed.

use hpa_bench::BenchConfig;
use hpa_dict::DictKind;
use hpa_metrics::{ExperimentReport, Table};
use hpa_tfidf::{TfIdf, TfIdfConfig};

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "ablation_grain",
        "Grain-size sweep for the parallel word-count loop (16 simulated cores, Mix)",
        &cfg.mode.describe(),
        &cfg.scale_label(),
    );
    let corpus = cfg.mix();
    let n = corpus.len();

    let mut table = Table::new(
        "input+wc at 16 cores",
        &[
            "grain (docs/chunk)",
            "chunks",
            "virtual time (s)",
            "work/span parallelism",
        ],
    );
    let mut grains: Vec<usize> = vec![1, 4, 16, 64, 256];
    grains.push(n.div_ceil(16)); // one chunk per core
    grains.sort_unstable();
    grains.dedup();

    for grain in grains {
        let exec = cfg.mode.exec(16);
        let op = TfIdf::new(TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain,
            charge_input_io: true,
            ..Default::default()
        });
        let t0 = exec.now();
        let counts = op.count_words(&exec, &corpus);
        let secs = (exec.now() - t0).as_secs_f64();
        let parallelism = exec
            .sim_state()
            .map(|s| format!("{:.1}", s.parallelism()))
            .unwrap_or_else(|| "n/a (real threads)".into());
        table.row(&[
            grain.to_string(),
            n.div_ceil(grain).to_string(),
            format!("{secs:.3}"),
            parallelism,
        ]);
        eprintln!("grain {grain}: {secs:.3}s ({} words)", counts.num_terms());
    }
    report.add_table(table);
    report.note("too-fine grains pay spawn overhead; too-coarse grains lose load balance and stretch the reduction tree");
    cfg.emit(&report);
}
