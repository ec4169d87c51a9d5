//! CI perf-regression gate over the committed `BENCH_*.json` baselines.
//!
//! Each gated bench artifact carries one or two headline metrics whose
//! regression would mean the optimization under test stopped paying
//! off: the pruned-assignment speedup and the two ARFF pipelining
//! speedups, among others. The gate compares a freshly
//! generated artifact against the committed baseline with an explicit
//! one-sided noise tolerance: a fresh speedup may fall to
//! `baseline / tolerance` before the gate fails, and may improve
//! without bound. Structural problems — missing files, mismatched
//! bench names, mismatched `schema_version` — always fail; a baseline
//! predating the `schema_version` field only warns (regenerate it).

use crate::json::JsonValue;
use hpa_metrics::Table;
use std::path::Path;

/// One-sided noise tolerance: fresh speedups may sag to
/// `baseline / DEFAULT_TOLERANCE` before failing. Sized for the smoke
/// scales CI runs at (small corpora, shared runners); see DESIGN.md §12.
pub const DEFAULT_TOLERANCE: f64 = 1.5;

/// The artifacts the gate knows how to compare.
pub const GATED_FILES: [&str; 5] = [
    "BENCH_kmeans_assign.json",
    "BENCH_arff_pipeline.json",
    "BENCH_colfmt.json",
    "BENCH_planner.json",
    "BENCH_scenario_matrix.json",
];

/// Outcome of one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance.
    Pass,
    /// Not comparable but not a regression (e.g. unversioned baseline).
    Warn,
    /// Regression or structural mismatch: CI should go red.
    Fail,
}

impl GateStatus {
    fn label(&self) -> &'static str {
        match self {
            GateStatus::Pass => "pass",
            GateStatus::Warn => "WARN",
            GateStatus::Fail => "FAIL",
        }
    }
}

/// One comparison line of the gate report.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Artifact file name.
    pub file: String,
    /// What was compared.
    pub what: String,
    /// Outcome.
    pub status: GateStatus,
    /// Baseline-vs-fresh details.
    pub detail: String,
}

/// The full gate run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Every check performed, in order.
    pub checks: Vec<GateCheck>,
}

impl GateReport {
    /// True when any check failed.
    pub fn failed(&self) -> bool {
        self.checks.iter().any(|c| c.status == GateStatus::Fail)
    }

    /// Render the report as an aligned table plus a one-line verdict.
    pub fn to_text(&self) -> String {
        let mut table = Table::new(
            "perf-gate: fresh bench artifacts vs committed baselines",
            &["file", "check", "status", "detail"],
        );
        for c in &self.checks {
            table.row(&[
                c.file.clone(),
                c.what.clone(),
                c.status.label().to_string(),
                c.detail.clone(),
            ]);
        }
        let verdict = if self.failed() {
            "perf-gate: FAIL — at least one gated metric regressed"
        } else {
            "perf-gate: pass"
        };
        format!("{}\n{verdict}\n", table.to_text())
    }

    fn push(&mut self, file: &str, what: &str, status: GateStatus, detail: String) {
        self.checks.push(GateCheck {
            file: file.to_string(),
            what: what.to_string(),
            status,
            detail,
        });
    }
}

/// Compare every gated artifact found under `baseline_dir` against
/// `fresh_dir`. A baseline without a fresh counterpart fails (the bench
/// did not run); a fresh artifact without a baseline warns (commit it).
pub fn compare_dirs(baseline_dir: &Path, fresh_dir: &Path, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for file in GATED_FILES {
        let base_path = baseline_dir.join(file);
        let fresh_path = fresh_dir.join(file);
        match (
            std::fs::read_to_string(&base_path),
            std::fs::read_to_string(&fresh_path),
        ) {
            (Err(_), Err(_)) => {
                report.push(
                    file,
                    "presence",
                    GateStatus::Warn,
                    "absent on both sides".into(),
                );
            }
            (Ok(_), Err(e)) => {
                report.push(
                    file,
                    "presence",
                    GateStatus::Fail,
                    format!("baseline committed but no fresh artifact: {e}"),
                );
            }
            (Err(_), Ok(_)) => {
                report.push(
                    file,
                    "presence",
                    GateStatus::Warn,
                    "fresh artifact has no committed baseline".into(),
                );
            }
            (Ok(base_text), Ok(fresh_text)) => {
                match (JsonValue::parse(&base_text), JsonValue::parse(&fresh_text)) {
                    (Ok(base), Ok(fresh)) => {
                        compare_artifact(&mut report, file, &base, &fresh, tolerance);
                    }
                    (base, fresh) => {
                        let which = if base.is_err() { "baseline" } else { "fresh" };
                        let err = base.err().or(fresh.err()).unwrap_or_default();
                        report.push(
                            file,
                            "parse",
                            GateStatus::Fail,
                            format!("{which} artifact is not valid JSON: {err}"),
                        );
                    }
                }
            }
        }
    }
    report
}

/// Compare one parsed baseline/fresh pair.
pub fn compare_artifact(
    report: &mut GateReport,
    file: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    tolerance: f64,
) {
    // Structural checks first: bench identity and schema version.
    let base_bench = base.get("bench").and_then(JsonValue::as_str).unwrap_or("?");
    let fresh_bench = fresh
        .get("bench")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    if base_bench != fresh_bench {
        report.push(
            file,
            "bench",
            GateStatus::Fail,
            format!("baseline '{base_bench}' vs fresh '{fresh_bench}'"),
        );
        return;
    }
    match (
        base.get("schema_version").and_then(JsonValue::as_u64),
        fresh.get("schema_version").and_then(JsonValue::as_u64),
    ) {
        (Some(b), Some(f)) if b != f => {
            report.push(
                file,
                "schema_version",
                GateStatus::Fail,
                format!("baseline v{b} vs fresh v{f}: regenerate the baseline"),
            );
            return;
        }
        (None, _) => {
            report.push(
                file,
                "schema_version",
                GateStatus::Warn,
                "baseline predates schema_version; regenerate it".into(),
            );
        }
        (_, None) => {
            report.push(
                file,
                "schema_version",
                GateStatus::Fail,
                "fresh artifact lacks schema_version".into(),
            );
            return;
        }
        _ => {}
    }

    // Timing metrics are only comparable between hosts with the same
    // core budget (schema v2 stamps it). A mismatch is the main source
    // of false CI perf failures — downgrade timing regressions to
    // warnings, but keep structural and deterministic-pick checks hard.
    let demote = match (
        base.get("host_cores").and_then(JsonValue::as_u64),
        fresh.get("host_cores").and_then(JsonValue::as_u64),
    ) {
        (Some(b), Some(f)) if b != f => {
            report.push(
                file,
                "host_cores",
                GateStatus::Warn,
                format!(
                    "baseline ran on {b} cores, fresh on {f}: timing gates downgraded to warnings"
                ),
            );
            true
        }
        _ => false,
    };

    match base_bench {
        "kmeans_assign" => {
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "assign_speedup_pruned_vs_naive",
                tolerance,
                demote,
            );
            gate_pruning_counters(report, file, fresh);
        }
        "arff_pipeline" => {
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "kmeans_input_speedup",
                tolerance,
                demote,
            );
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "tfidf_output_speedup",
                tolerance,
                demote,
            );
        }
        "colfmt" => {
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "colfmt_write_speedup",
                tolerance,
                demote,
            );
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "colfmt_read_speedup",
                tolerance,
                demote,
            );
            gate_ceiling(
                report,
                file,
                base,
                fresh,
                "discrete_over_fused",
                tolerance,
                demote,
            );
        }
        "planner" => {
            gate_ceiling(
                report,
                file,
                base,
                fresh,
                "pick_over_best_full",
                tolerance,
                demote,
            );
            gate_ceiling(
                report,
                file,
                base,
                fresh,
                "pick_over_best_discrete",
                tolerance,
                demote,
            );
            gate_planner_picks(report, file, base, fresh);
        }
        "scenario_matrix" => {
            gate_speedup(
                report,
                file,
                base,
                fresh,
                "best_speedup_vs_naive_p4",
                tolerance,
                demote,
            );
            gate_bit_identity(report, file, fresh);
        }
        other => {
            report.push(
                file,
                "bench",
                GateStatus::Warn,
                format!("unknown bench '{other}': nothing gated"),
            );
        }
    }
}

/// One-sided speedup gate: fresh may sag to `baseline / tolerance`.
/// With `demote`, a sag becomes a warning (different host core count —
/// the timing is not comparable, only suspicious).
fn gate_speedup(
    report: &mut GateReport,
    file: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    key: &str,
    tolerance: f64,
    demote: bool,
) {
    let (Some(b), Some(f)) = (
        base.get(key).and_then(JsonValue::as_f64),
        fresh.get(key).and_then(JsonValue::as_f64),
    ) else {
        report.push(
            file,
            key,
            GateStatus::Fail,
            "metric missing on one side".into(),
        );
        return;
    };
    let floor = b / tolerance;
    let status = if f >= floor {
        GateStatus::Pass
    } else if demote {
        GateStatus::Warn
    } else {
        GateStatus::Fail
    };
    report.push(
        file,
        key,
        status,
        format!("baseline {b:.4}x, fresh {f:.4}x, floor {floor:.4}x (tolerance {tolerance}x)"),
    );
}

/// One-sided slowdown-ratio gate (lower is better): fresh may rise to
/// `baseline * tolerance` before failing. Used for ratios like the
/// binary discrete workflow's overhead over fused, where a *growing*
/// value means the optimization stopped paying off.
fn gate_ceiling(
    report: &mut GateReport,
    file: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    key: &str,
    tolerance: f64,
    demote: bool,
) {
    let (Some(b), Some(f)) = (
        base.get(key).and_then(JsonValue::as_f64),
        fresh.get(key).and_then(JsonValue::as_f64),
    ) else {
        report.push(
            file,
            key,
            GateStatus::Fail,
            "metric missing on one side".into(),
        );
        return;
    };
    let ceiling = b * tolerance;
    let status = if f <= ceiling {
        GateStatus::Pass
    } else if demote {
        GateStatus::Warn
    } else {
        GateStatus::Fail
    };
    report.push(
        file,
        key,
        status,
        format!("baseline {b:.4}, fresh {f:.4}, ceiling {ceiling:.4} (tolerance {tolerance}x)"),
    );
}

/// The scenario-matrix bin asserts every kernel arm bit-identical to
/// naive before timing and records the fact; a missing or false flag
/// means the timings compare diverging computations — meaningless.
fn gate_bit_identity(report: &mut GateReport, file: &str, fresh: &JsonValue) {
    let ok = fresh
        .get("bit_identical")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let status = if ok {
        GateStatus::Pass
    } else {
        GateStatus::Fail
    };
    report.push(
        file,
        "bit_identical",
        status,
        if ok {
            "all kernel arms asserted bit-identical to naive".into()
        } else {
            "fresh artifact does not assert kernel bit-identity".into()
        },
    );
}

/// The pruned arm must actually prune: a zero counter means the bound
/// machinery silently stopped working even if timings look plausible.
fn gate_pruning_counters(report: &mut GateReport, file: &str, fresh: &JsonValue) {
    let pruned_arm = fresh
        .get("arms")
        .and_then(JsonValue::as_array)
        .and_then(|arms| {
            arms.iter()
                .find(|a| a.get("kernel").and_then(JsonValue::as_str) == Some("blocked+pruned"))
        });
    let Some(arm) = pruned_arm else {
        report.push(
            file,
            "pruned arm",
            GateStatus::Fail,
            "fresh artifact has no blocked+pruned arm".into(),
        );
        return;
    };
    let pruned = arm
        .get("distances_pruned")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let status = if pruned > 0 {
        GateStatus::Pass
    } else {
        GateStatus::Fail
    };
    report.push(
        file,
        "distances_pruned",
        status,
        format!("{pruned} distances avoided by the triangle-inequality bound"),
    );
}

/// The planner must keep choosing the same transport wherever the
/// baseline and fresh artifacts measured the same (scenario, threads)
/// cell — a flipped pick is a cost-model or pricing change, never
/// runner noise (the bench runs on the analytic simulator clock).
fn gate_planner_picks(report: &mut GateReport, file: &str, base: &JsonValue, fresh: &JsonValue) {
    let empty = Vec::new();
    let base_rows = base
        .get("picks")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let fresh_rows = fresh
        .get("picks")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let cell = |row: &JsonValue| {
        Some((
            row.get("scenario")?.as_str()?.to_string(),
            row.get("threads")?.as_u64()?,
        ))
    };
    let mut compared = 0usize;
    for brow in base_rows {
        let Some(key) = cell(brow) else { continue };
        let Some(frow) = fresh_rows.iter().find(|r| cell(r).as_ref() == Some(&key)) else {
            continue;
        };
        compared += 1;
        let bpick = brow.get("pick").and_then(JsonValue::as_str).unwrap_or("?");
        let fpick = frow.get("pick").and_then(JsonValue::as_str).unwrap_or("?");
        let status = if bpick == fpick {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        };
        report.push(
            file,
            &format!("pick {}@{}", key.0, key.1),
            status,
            format!("baseline '{bpick}', fresh '{fpick}'"),
        );
    }
    if compared == 0 {
        report.push(
            file,
            "pick",
            GateStatus::Warn,
            "no overlapping (scenario, threads) cells to compare".into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kmeans_doc(speedup: f64, pruned: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 1, "bench": "kmeans_assign",
                 "assign_speedup_pruned_vs_naive": {speedup},
                 "arms": [{{"kernel": "naive", "distances_pruned": 0}},
                          {{"kernel": "blocked+pruned", "distances_pruned": {pruned}}}]}}"#
        ))
        .unwrap()
    }

    fn arff_doc(read: f64, write: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 1, "bench": "arff_pipeline",
                 "kmeans_input_speedup": {read}, "tfidf_output_speedup": {write}}}"#
        ))
        .unwrap()
    }

    fn colfmt_doc(write: f64, read: f64, over_fused: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 1, "bench": "colfmt",
                 "colfmt_write_speedup": {write}, "colfmt_read_speedup": {read},
                 "discrete_over_fused": {over_fused}}}"#
        ))
        .unwrap()
    }

    fn planner_doc(full: f64, discrete: f64, pick: &str) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 1, "bench": "planner",
                 "pick_over_best_full": {full},
                 "pick_over_best_discrete": {discrete},
                 "picks": [
                   {{"scenario": "full", "threads": 4, "pick": "fused"}},
                   {{"scenario": "discrete", "threads": 4, "pick": "{pick}"}}
                 ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_artifacts_pass() {
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc(2.3, 100),
            &kmeans_doc(2.3, 100),
            1.5,
        );
        compare_artifact(
            &mut report,
            "a.json",
            &arff_doc(2.9, 4.5),
            &arff_doc(2.9, 4.5),
            1.5,
        );
        compare_artifact(
            &mut report,
            "c.json",
            &colfmt_doc(3.9, 10.7, 1.04),
            &colfmt_doc(3.9, 10.7, 1.04),
            1.5,
        );
        assert!(!report.failed(), "{}", report.to_text());
    }

    #[test]
    fn colfmt_speedup_regression_fails() {
        // Halving both speedups is past the 1.5× floor on each.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "c.json",
            &colfmt_doc(3.9, 10.7, 1.04),
            &colfmt_doc(1.95, 5.35, 1.04),
            1.5,
        );
        assert_eq!(
            report
                .checks
                .iter()
                .filter(|c| c.status == GateStatus::Fail)
                .count(),
            2
        );
    }

    #[test]
    fn colfmt_overhead_growth_fails_the_ceiling() {
        // discrete_over_fused is a ratio where *up* is bad: the binary
        // discrete workflow drifting from 1.04× to 2× of fused means the
        // format stopped hiding the I/O, even if the speedups held.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "c.json",
            &colfmt_doc(3.9, 10.7, 1.04),
            &colfmt_doc(3.9, 10.7, 2.0),
            1.5,
        );
        assert!(report.failed());
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].what, "discrete_over_fused");
        assert!(failing[0].detail.contains("ceiling"));
        // Shrinking overhead (an improvement) passes.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "c.json",
            &colfmt_doc(3.9, 10.7, 1.04),
            &colfmt_doc(3.9, 10.7, 1.0),
            1.5,
        );
        assert!(!report.failed(), "{}", report.to_text());
    }

    #[test]
    fn planner_regret_growth_and_pick_flips_fail() {
        let base = planner_doc(1.0, 1.0, "binary-pipelined");
        // Identical artifacts pass all four checks.
        let mut report = GateReport::default();
        compare_artifact(&mut report, "p.json", &base, &base.clone(), 1.5);
        assert!(!report.failed(), "{}", report.to_text());
        // Regret growing past baseline*tolerance fails the ceiling.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "p.json",
            &base,
            &planner_doc(1.0, 1.8, "binary-pipelined"),
            1.5,
        );
        assert!(report.failed());
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].what, "pick_over_best_discrete");
        // A flipped pick in an overlapping cell fails exactly that cell.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "p.json",
            &base,
            &planner_doc(1.0, 1.0, "arff-serial"),
            1.5,
        );
        assert!(report.failed());
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].what, "pick discrete@4");
    }

    #[test]
    fn injected_2x_regression_fails_the_gate() {
        // A 2× slowdown of the pruned assign kernel halves the headline
        // speedup — well past the 1.5× noise floor, so the gate must go
        // red. This is the acceptance scenario for the CI job.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc(2.3, 100),
            &kmeans_doc(1.15, 100),
            1.5,
        );
        assert!(report.failed());
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].what, "assign_speedup_pruned_vs_naive");
        assert!(failing[0].detail.contains("floor"));
        // Same injected regression on both arff speedups.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "a.json",
            &arff_doc(2.9, 4.5),
            &arff_doc(1.45, 2.25),
            1.5,
        );
        assert_eq!(
            report
                .checks
                .iter()
                .filter(|c| c.status == GateStatus::Fail)
                .count(),
            2
        );
    }

    #[test]
    fn improvements_and_in_tolerance_noise_pass() {
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc(2.3, 100),
            &kmeans_doc(3.1, 100),
            1.5,
        );
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc(2.3, 100),
            &kmeans_doc(1.6, 100),
            1.5,
        );
        assert!(!report.failed(), "{}", report.to_text());
    }

    #[test]
    fn zero_pruning_fails_even_with_good_speedup() {
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc(2.3, 100),
            &kmeans_doc(2.3, 0),
            1.5,
        );
        assert!(report.failed());
    }

    fn kmeans_doc_on_cores(speedup: f64, pruned: u64, cores: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 2, "host_cores": {cores}, "bench": "kmeans_assign",
                 "assign_speedup_pruned_vs_naive": {speedup},
                 "arms": [{{"kernel": "naive", "distances_pruned": 0}},
                          {{"kernel": "blocked+pruned", "distances_pruned": {pruned}}}]}}"#
        ))
        .unwrap()
    }

    fn scenario_doc(speedup: f64, bit_identical: bool, cores: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema_version": 2, "host_cores": {cores}, "bench": "scenario_matrix",
                 "best_speedup_vs_naive_p4": {speedup},
                 "bit_identical": {bit_identical}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn core_count_mismatch_downgrades_timing_regressions_to_warnings() {
        // The same 2x regression that fails on an identical host only
        // warns when the fresh run had a different core budget.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc_on_cores(2.3, 100, 20),
            &kmeans_doc_on_cores(1.15, 100, 4),
            1.5,
        );
        assert!(!report.failed(), "{}", report.to_text());
        assert!(report
            .checks
            .iter()
            .any(|c| c.status == GateStatus::Warn && c.what == "host_cores"));
        assert!(report
            .checks
            .iter()
            .any(|c| c.status == GateStatus::Warn && c.what == "assign_speedup_pruned_vs_naive"));
        // Same cores: the regression stays a hard failure.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc_on_cores(2.3, 100, 20),
            &kmeans_doc_on_cores(1.15, 100, 20),
            1.5,
        );
        assert!(report.failed());
    }

    #[test]
    fn core_count_mismatch_keeps_structural_checks_hard() {
        // Zero pruning is a broken bound, not timing noise — it must
        // fail even across different hosts.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "k.json",
            &kmeans_doc_on_cores(2.3, 100, 20),
            &kmeans_doc_on_cores(2.3, 0, 4),
            1.5,
        );
        assert!(report.failed());
    }

    #[test]
    fn scenario_matrix_gates_headline_speedup_and_bit_identity() {
        // Identical artifacts pass.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "s.json",
            &scenario_doc(2.4, true, 8),
            &scenario_doc(2.4, true, 8),
            1.5,
        );
        assert!(!report.failed(), "{}", report.to_text());
        // A halved headline speedup fails on the same host...
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "s.json",
            &scenario_doc(2.4, true, 8),
            &scenario_doc(1.2, true, 8),
            1.5,
        );
        assert!(report.failed());
        // ...and a missing bit-identity assertion fails regardless of
        // the numbers.
        let mut report = GateReport::default();
        compare_artifact(
            &mut report,
            "s.json",
            &scenario_doc(2.4, true, 8),
            &scenario_doc(3.0, false, 8),
            1.5,
        );
        assert!(report.failed());
        let failing: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.status == GateStatus::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].what, "bit_identical");
    }

    #[test]
    fn unversioned_baseline_warns_but_does_not_fail() {
        let base = JsonValue::parse(
            r#"{"bench": "arff_pipeline", "kmeans_input_speedup": 2.9, "tfidf_output_speedup": 4.5}"#,
        )
        .unwrap();
        let mut report = GateReport::default();
        compare_artifact(&mut report, "a.json", &base, &arff_doc(2.9, 4.5), 1.5);
        assert!(!report.failed(), "{}", report.to_text());
        assert!(report
            .checks
            .iter()
            .any(|c| c.status == GateStatus::Warn && c.what == "schema_version"));
    }

    #[test]
    fn schema_version_mismatch_fails() {
        let v2 = JsonValue::parse(r#"{"schema_version": 2, "bench": "arff_pipeline"}"#).unwrap();
        let mut report = GateReport::default();
        compare_artifact(&mut report, "a.json", &arff_doc(2.9, 4.5), &v2, 1.5);
        assert!(report.failed());
    }
}
