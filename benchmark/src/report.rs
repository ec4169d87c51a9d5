//! What the benchmark prints and the files it writes.

use crate::harness::{Config, E2eValue, LayerValue, WorkloadResult, E2E_REPS, TRACED_REPS};
use crate::json::Json;
use crate::trace;
use crate::workload::{MIX_SCALE, NSF_SCALE, QUICK_DIVISOR};
use std::process::Command;

/// Layers of the waterfall, by span-name prefix.
const LAYERS: [&str; 6] = ["io", "tfidf", "arff", "colfmt", "kmeans", "output"];

fn e2e_json(v: &E2eValue) -> Json {
    let mut fields = vec![
        ("value", Json::Num(v.value)),
        ("unit", Json::str(v.def.unit)),
    ];
    if let Some(s) = v.summary {
        fields.push(("q1", Json::Num(s.q1)));
        fields.push(("q3", Json::Num(s.q3)));
        fields.push(("n", Json::Int(s.n as u64)));
    }
    Json::obj(fields)
}

fn quartiles(v: &E2eValue) -> String {
    v.summary.map_or(String::new(), |s| {
        format!("[{:.4} .. {:.4}] n={}", s.q1, s.q3, s.n)
    })
}

/// Prints every metric of one workload by name, with its unit.
pub fn print_workload(cfg: &Config, result: &WorkloadResult) {
    let w = result.workload;
    println!(
        "\n== {} — {} files, {:.1} MB, k = {}, {} of {} cores, seed {} ==",
        w.name,
        result.docs,
        result.corpus_bytes as f64 / 1e6,
        w.k,
        cfg.threads,
        cfg.host_cores,
        cfg.seed
    );
    println!("   {}", w.why);
    println!("  end-to-end (median [q1 .. q3] of n repetitions)");
    for v in result.end_to_end() {
        println!(
            "    {:<30} {:>14.4} {:<6} {}",
            v.def.name,
            v.value,
            v.def.unit,
            quartiles(&v)
        );
    }
    if let Some(traced) = &result.traced {
        println!(
            "  per-layer (median of {} traced repetitions at {} threads, {} at 1; - = layer not used)",
            traced.at_threads.len(),
            cfg.threads,
            traced.at_one.len()
        );
        for LayerValue { name, unit, value } in traced.values(w) {
            match value {
                Some(v) if unit == "count" || unit == "bytes" => {
                    println!("    {name:<30} {v:>14.0} {unit}")
                }
                Some(v) => println!("    {name:<30} {v:>14.6} {unit}"),
                None => println!("    {name:<30} {:>14} {unit}", "-"),
            }
        }
        let shares: Vec<String> = LAYERS
            .iter()
            .map(|l| format!("{l} {:.1} %", traced.share_of_wall(l) * 100.0))
            .collect();
        println!("  share of the traced wall: {}", shares.join(", "));
    }
    for failure in &result.failures {
        println!("  FAILED: {failure}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What two result files must share before their numbers can be
/// compared.
fn stamp(cfg: &Config) -> Json {
    let divisor = if cfg.quick { QUICK_DIVISOR } else { 1.0 };
    Json::obj([
        ("host_cores", Json::Int(cfg.host_cores as u64)),
        ("threads", Json::Int(cfg.threads as u64)),
        ("seed", Json::Int(cfg.seed)),
        ("quick", Json::Bool(cfg.quick)),
        ("nsf_scale", Json::Num(NSF_SCALE / divisor)),
        ("mix_scale", Json::Num(MIX_SCALE / divisor)),
        ("e2e_reps", Json::Int(E2E_REPS as u64)),
        ("traced_reps", Json::Int(TRACED_REPS as u64)),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
    ])
}

/// `latest.json`: the stamp, then every workload's metrics.
pub fn latest(cfg: &Config, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let per_layer = r.traced.as_ref().map_or(Json::Null, |t| {
                Json::metrics(t.values(r.workload).into_iter().map(|v| {
                    let value = v.value.map_or(Json::Null, Json::Num);
                    let metric = Json::obj([("value", value), ("unit", Json::str(v.unit))]);
                    (v.name, metric)
                }))
            });
            let layer_share = r.traced.as_ref().map_or(Json::Null, |t| {
                Json::obj(LAYERS.map(|l| (l, Json::Num(t.share_of_wall(l)))))
            });
            let entry = Json::obj([
                ("why", Json::str(r.workload.why)),
                ("k", Json::Int(r.workload.k as u64)),
                ("corpus_files", Json::Int(r.docs as u64)),
                ("corpus_bytes", Json::Int(r.corpus_bytes)),
                (
                    "cluster_file_fnv1a",
                    r.digest
                        .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
                ),
                ("attempted", Json::Int(r.attempted)),
                ("failed", Json::Int(r.failed)),
                (
                    "failures",
                    Json::Arr(r.failures.iter().map(|f| Json::str(f)).collect()),
                ),
                (
                    "end_to_end",
                    Json::metrics(r.end_to_end().iter().map(|v| (v.def.name, e2e_json(v)))),
                ),
                ("per_layer", per_layer),
                ("layer_share_of_traced_wall", layer_share),
            ]);
            (r.workload.name.to_string(), entry)
        })
        .collect();
    Json::obj([("stamp", stamp(cfg)), ("workloads", Json::Obj(workloads))])
}

/// `trace_<workload>.json`: the spans of every traced repetition.
pub fn trace_file(cfg: &Config, result: &WorkloadResult) -> Option<Json> {
    let traced = result.traced.as_ref()?;
    let runs = traced
        .at_threads
        .iter()
        .map(|r| (cfg.threads, r))
        .chain(traced.at_one.iter().map(|r| (1, r)));
    let spans = runs
        .enumerate()
        .flat_map(|(run_id, (threads, report))| trace::to_json(run_id, threads, &report.spans))
        .collect();
    Some(Json::obj([
        ("workload", Json::str(result.workload.name)),
        ("seed", Json::Int(cfg.seed)),
        ("spans", Json::Arr(spans)),
    ]))
}

/// The one line the driver reads: with `trace` the per-layer metrics,
/// without it the end-to-end ones.
pub fn driver_line(result: &WorkloadResult, trace: bool) -> Json {
    let metrics: Vec<(&'static str, Json)> = if trace {
        let traced = result
            .traced
            .as_ref()
            .expect("a traced run has traced samples");
        traced
            .values(result.workload)
            .into_iter()
            // The driver wants a number for every metric: a layer the
            // workload does not use reads 0.
            .map(|v| (v.name, Json::metric(v.value.unwrap_or(0.0), v.unit)))
            .collect()
    } else {
        let e2e = result
            .e2e
            .as_ref()
            .expect("an untraced run has end-to-end samples");
        e2e.values(result.corpus_bytes)
            .into_iter()
            .map(|v| (v.def.name, Json::metric(v.value, v.def.unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Int(result.attempted)),
        ("failed", Json::Int(result.failed)),
        ("metrics", Json::metrics(metrics)),
    ])
}

/// Prints the two sets of `bench repeat` side by side and says whether
/// every end-to-end metric of every workload agrees between them within
/// its bound.
pub fn print_repeat(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    let mut agree = true;
    for (a, b) in first.iter().zip(second) {
        println!(
            "\n== {} — {} files, {:.1} MB ==",
            a.workload.name,
            a.docs,
            a.corpus_bytes as f64 / 1e6
        );
        println!(
            "    {:<12} {:>10} {:<30} {:>10} {:<30} {:>8} {:>6}",
            "metric", "first", "[q1 .. q3] n", "second", "[q1 .. q3] n", "gap", "bound"
        );
        for (x, y) in a.end_to_end().iter().zip(b.end_to_end()) {
            // `failed_share` has no relative gap: both sets must read 0.
            let (gap, ok) = if x.def.bound == 0.0 {
                (y.value - x.value, x.value == 0.0 && y.value == 0.0)
            } else {
                let gap = x.def.worsening(x.value, y.value);
                (gap, gap.abs() <= x.def.bound)
            };
            agree &= ok;
            println!(
                "    {:<12} {:>10.4} {:<30} {:>10.4} {:<30} {:>+7.1}% {:>5.0}% {}",
                x.def.name,
                x.value,
                quartiles(x),
                y.value,
                quartiles(&y),
                gap * 100.0,
                x.def.bound * 100.0,
                if ok { "ok" } else { "DISAGREES" }
            );
        }
        for failure in a.failures.iter().chain(&b.failures) {
            println!("  FAILED: {failure}");
        }
    }
    println!(
        "\n{}",
        if agree {
            "the two sets agree within every bound"
        } else {
            "the two sets DISAGREE: a metric cannot hold its bound on this host"
        }
    );
    agree
}
