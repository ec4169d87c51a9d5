//! The run ledger: measured spans joined with cost-model predictions.
//!
//! Every analytic estimate in the workspace now lands in the trace
//! stream as a [`hpa_trace::PredictRec`] alongside the measured span it
//! prices (same `(cat, name)` pair — see the pairing rule in
//! DESIGN.md §12). [`RunLedger::from_recording`] folds one
//! [`Recording`] into per-phase rows: wall time with percentiles,
//! prediction totals, and the predicted-vs-measured error ratio, each
//! row classified against an explicit conformance tolerance. Counters
//! (bytes, allocations, probe steps, queue depths) are aggregated into
//! a companion table so the ledger is a one-stop record of a run.

use hpa_bench::json::JsonWriter;
use hpa_metrics::Table;
use hpa_trace::{Histogram, Recording};
use std::collections::BTreeMap;

/// Conformance band for predicted-vs-measured ratios: a row is `Ok`
/// when `predicted / measured` lies within `[1/TOL, TOL]`. The analytic
/// model targets *shape* fidelity (which arm wins, how phases compare),
/// not host cycle-accuracy, so the band is deliberately wide; see
/// DESIGN.md §12.
pub const CONFORMANCE_TOLERANCE: f64 = 4.0;

/// Absolute floor below which predicted-vs-measured ratios are noise: a
/// paired row whose prediction and measurement differ by less than this
/// is `Ok` regardless of the ratio. Ratio tests on sub-millisecond
/// phases (an empty merge round, the tiny output write) would otherwise
/// flag drift that no decision could ever hinge on.
pub const NEGLIGIBLE_NS: u64 = 1_000_000;

/// How one ledger row relates its prediction to its measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conformance {
    /// Paired, and the error ratio is inside the tolerance band.
    Ok,
    /// Paired, but the error ratio falls outside the band.
    Drifted,
    /// Predictions exist with no matching measured span (informational
    /// emissions).
    Unmeasured,
    /// Spans exist that no cost-model call site prices.
    Unpredicted,
}

impl Conformance {
    /// Stable lower-case label used in both text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Conformance::Ok => "ok",
            Conformance::Drifted => "drifted",
            Conformance::Unmeasured => "unmeasured",
            Conformance::Unpredicted => "unpredicted",
        }
    }
}

/// One `(cat, name)` row of the ledger.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Span/prediction category.
    pub cat: String,
    /// Span/prediction name.
    pub name: String,
    /// Measured spans folded into this row.
    pub span_count: u64,
    /// Total measured wall time, ns.
    pub measured_ns: u64,
    /// Median span duration, ns.
    pub p50_ns: u64,
    /// 95th-percentile span duration, ns.
    pub p95_ns: u64,
    /// 99th-percentile span duration, ns.
    pub p99_ns: u64,
    /// Longest span, ns.
    pub max_ns: u64,
    /// Predictions folded into this row.
    pub predict_count: u64,
    /// Total predicted time, ns.
    pub predicted_ns: u64,
    /// `predicted_ns / measured_ns` when both sides exist.
    pub error_ratio: Option<f64>,
    /// Conformance classification under the ledger's tolerance.
    pub status: Conformance,
}

/// Aggregated counter stream (bytes, allocations, probe steps, queue
/// depths, ...) for one `(cat, name)`.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Counter category.
    pub cat: String,
    /// Counter name.
    pub name: String,
    /// Number of samples.
    pub samples: u64,
    /// Sum of sampled values.
    pub total: u64,
    /// Largest sampled value (the interesting statistic for gauges like
    /// queue depth).
    pub max: u64,
}

/// A joined per-run record: measured phases, their predictions, and the
/// run's counter totals.
#[derive(Debug, Clone)]
pub struct RunLedger {
    /// What this ledger records (e.g. `"workflow"` or a kernel label).
    pub label: String,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Conformance tolerance the rows were classified against.
    pub tolerance: f64,
    /// Phase rows, sorted by `(cat, name)`.
    pub rows: Vec<PhaseRow>,
    /// Counter rows, sorted by `(cat, name)`.
    pub counters: Vec<CounterRow>,
}

impl RunLedger {
    /// Join `rec`'s spans and predictions into per-phase rows. Rows are
    /// keyed by `(cat, name)` — the union of both streams — so a
    /// prediction without a span and a span without a prediction each
    /// still produce a (flagged) row.
    pub fn from_recording(label: &str, threads: usize, rec: &Recording, tolerance: f64) -> Self {
        let mut spans: BTreeMap<(&str, &str), Histogram> = BTreeMap::new();
        for s in &rec.spans {
            spans.entry((s.cat, s.name)).or_default().record(s.dur_ns);
        }
        let mut predictions: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
        for p in &rec.predictions {
            let e = predictions.entry((p.cat, p.name)).or_insert((0, 0));
            e.0 += 1;
            e.1 += p.predicted_ns;
        }

        let mut keys: Vec<(&str, &str)> = spans.keys().chain(predictions.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();

        let rows = keys
            .into_iter()
            .map(|key| {
                let hist = spans.get(&key);
                let (predict_count, predicted_ns) =
                    predictions.get(&key).copied().unwrap_or((0, 0));
                let measured_ns = hist.map_or(0, Histogram::sum);
                let span_count = hist.map_or(0, Histogram::count);
                let (error_ratio, status) = match (span_count > 0, predict_count > 0) {
                    (true, true) => {
                        let ratio = predicted_ns as f64 / (measured_ns as f64).max(1.0);
                        let negligible = predicted_ns.abs_diff(measured_ns) < NEGLIGIBLE_NS;
                        let ok = negligible || (ratio >= 1.0 / tolerance && ratio <= tolerance);
                        (
                            Some(ratio),
                            if ok {
                                Conformance::Ok
                            } else {
                                Conformance::Drifted
                            },
                        )
                    }
                    (true, false) => (None, Conformance::Unpredicted),
                    (false, _) => (None, Conformance::Unmeasured),
                };
                PhaseRow {
                    cat: key.0.to_string(),
                    name: key.1.to_string(),
                    span_count,
                    measured_ns,
                    p50_ns: hist.map_or(0, Histogram::p50),
                    p95_ns: hist.map_or(0, Histogram::p95),
                    p99_ns: hist.map_or(0, Histogram::p99),
                    max_ns: hist.map_or(0, Histogram::max),
                    predict_count,
                    predicted_ns,
                    error_ratio,
                    status,
                }
            })
            .collect();

        let mut counters: BTreeMap<(&str, &str), CounterRow> = BTreeMap::new();
        for c in &rec.counters {
            let row = counters
                .entry((c.cat, c.name))
                .or_insert_with(|| CounterRow {
                    cat: c.cat.to_string(),
                    name: c.name.to_string(),
                    samples: 0,
                    total: 0,
                    max: 0,
                });
            row.samples += 1;
            row.total += c.value;
            row.max = row.max.max(c.value);
        }

        RunLedger {
            label: label.to_string(),
            threads,
            tolerance,
            rows,
            counters: counters.into_values().collect(),
        }
    }

    /// Look up one phase row.
    pub fn row(&self, cat: &str, name: &str) -> Option<&PhaseRow> {
        self.rows.iter().find(|r| r.cat == cat && r.name == name)
    }

    /// Paired rows (a measurement and at least one prediction) that
    /// fell outside the tolerance band.
    pub fn drifted(&self) -> impl Iterator<Item = &PhaseRow> {
        self.rows
            .iter()
            .filter(|r| r.status == Conformance::Drifted)
    }

    /// Append this ledger's fields to an in-progress JSON document.
    pub fn append_json(&self, w: &mut JsonWriter) {
        w.str_field("ledger", &self.label);
        w.u64_field("threads", self.threads as u64);
        w.f64_field_display("tolerance", self.tolerance);
        w.array_field("phases", |w| {
            for r in &self.rows {
                w.object_elem(|w| {
                    w.str_field("cat", &r.cat);
                    w.str_field("name", &r.name);
                    w.u64_field("span_count", r.span_count);
                    w.u64_field("measured_ns", r.measured_ns);
                    w.u64_field("p50_ns", r.p50_ns);
                    w.u64_field("p95_ns", r.p95_ns);
                    w.u64_field("p99_ns", r.p99_ns);
                    w.u64_field("max_ns", r.max_ns);
                    w.u64_field("predict_count", r.predict_count);
                    w.u64_field("predicted_ns", r.predicted_ns);
                    match r.error_ratio {
                        Some(ratio) => w.f64_field("error_ratio", ratio, 4),
                        None => w.str_field("error_ratio", "n/a"),
                    }
                    w.str_field("status", r.status.label());
                });
            }
        });
        w.array_field("counters", |w| {
            for c in &self.counters {
                w.object_elem(|w| {
                    w.str_field("cat", &c.cat);
                    w.str_field("name", &c.name);
                    w.u64_field("samples", c.samples);
                    w.u64_field("total", c.total);
                    w.u64_field("max", c.max);
                });
            }
        });
    }

    /// Self-contained JSON document for this ledger alone.
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| self.append_json(w))
    }

    /// Human-readable rendering: the phase table plus, when any
    /// counters were recorded, the counter table.
    pub fn to_text(&self) -> String {
        let secs = |ns: u64| format!("{:.6}", ns as f64 / 1e9);
        let mut phases = Table::new(
            &format!(
                "run ledger '{}' ({} threads, tolerance {}x)",
                self.label, self.threads, self.tolerance
            ),
            &[
                "cat",
                "name",
                "spans",
                "measured s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "predicted s",
                "ratio",
                "status",
            ],
        );
        for r in &self.rows {
            let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
            phases.row(&[
                r.cat.clone(),
                r.name.clone(),
                r.span_count.to_string(),
                secs(r.measured_ns),
                ms(r.p50_ns),
                ms(r.p95_ns),
                ms(r.p99_ns),
                secs(r.predicted_ns),
                r.error_ratio
                    .map_or_else(|| "-".to_string(), |e| format!("{e:.3}")),
                r.status.label().to_string(),
            ]);
        }
        let mut out = phases.to_text();
        if !self.counters.is_empty() {
            let mut counters = Table::new("counters", &["cat", "name", "samples", "total", "max"]);
            for c in &self.counters {
                counters.row(&[
                    c.cat.clone(),
                    c.name.clone(),
                    c.samples.to_string(),
                    c.total.to_string(),
                    c.max.to_string(),
                ]);
            }
            out.push('\n');
            out.push_str(&counters.to_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_trace::{PredictRec, SpanRec};

    fn span(cat: &'static str, name: &'static str, start: u64, dur: u64, tid: u32) -> SpanRec {
        SpanRec {
            cat,
            name,
            start_ns: start,
            dur_ns: dur,
            arg: None,
            tid,
        }
    }

    fn predict(cat: &'static str, name: &'static str, ts: u64, ns: u64, tid: u32) -> PredictRec {
        PredictRec {
            cat,
            name,
            ts_ns: ts,
            predicted_ns: ns,
            tid,
        }
    }

    fn recording(spans: Vec<SpanRec>, predictions: Vec<PredictRec>) -> Recording {
        Recording {
            spans,
            counters: Vec::new(),
            events: Vec::new(),
            predictions,
            threads: vec![(1, "main".to_string())],
        }
    }

    #[test]
    fn paired_rows_compute_the_error_ratio() {
        let rec = recording(
            vec![span("tfidf", "transform", 0, 2_000, 1)],
            vec![predict("tfidf", "transform", 0, 1_000, 1)],
        );
        let ledger = RunLedger::from_recording("t", 1, &rec, 4.0);
        let row = ledger.row("tfidf", "transform").unwrap();
        assert_eq!(row.status, Conformance::Ok);
        assert!((row.error_ratio.unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(row.measured_ns, 2_000);
        assert_eq!(row.predicted_ns, 1_000);
    }

    #[test]
    fn a_span_with_no_prediction_is_flagged_unpredicted() {
        let rec = recording(vec![span("pool", "task", 0, 500, 1)], vec![]);
        let ledger = RunLedger::from_recording("t", 1, &rec, 4.0);
        let row = ledger.row("pool", "task").unwrap();
        assert_eq!(row.status, Conformance::Unpredicted);
        assert_eq!(row.error_ratio, None);
        assert_eq!(row.predict_count, 0);
    }

    #[test]
    fn a_prediction_with_no_span_is_flagged_unmeasured() {
        let rec = recording(vec![], vec![predict("plan", "estimate", 0, 9_000, 1)]);
        let ledger = RunLedger::from_recording("t", 1, &rec, 4.0);
        let row = ledger.row("plan", "estimate").unwrap();
        assert_eq!(row.status, Conformance::Unmeasured);
        assert_eq!(row.span_count, 0);
        assert_eq!(row.predicted_ns, 9_000);
    }

    #[test]
    fn out_of_band_ratio_is_drifted() {
        let rec = recording(
            vec![span("kmeans", "assign", 0, 100_000_000, 1)],
            vec![predict("kmeans", "assign", 0, 10_000_000, 1)],
        );
        let ledger = RunLedger::from_recording("t", 1, &rec, 4.0);
        let row = ledger.row("kmeans", "assign").unwrap();
        assert_eq!(row.status, Conformance::Drifted);
        assert_eq!(ledger.drifted().count(), 1);
    }

    #[test]
    fn sub_millisecond_disagreements_are_negligible_not_drifted() {
        // 55 µs measured vs 9 µs predicted is a 6x ratio, but both
        // sides are noise — the absolute floor keeps the row Ok.
        let rec = recording(
            vec![span("phase", "output", 0, 55_000, 1)],
            vec![predict("phase", "output", 0, 9_000, 1)],
        );
        let ledger = RunLedger::from_recording("t", 1, &rec, 4.0);
        assert_eq!(
            ledger.row("phase", "output").unwrap().status,
            Conformance::Ok
        );
    }

    #[test]
    fn interleaved_multi_thread_records_conserve_counts_and_totals() {
        // Two worker threads emit predictions and spans for the same
        // phase, interleaved in time; the join must fold all of them
        // into one row without losing or double-counting any.
        let rec = recording(
            vec![
                span("kmeans", "assign", 0, 100, 1),
                span("kmeans", "assign", 10, 200, 2),
                span("kmeans", "assign", 20, 300, 1),
                span("kmeans", "update", 30, 50, 2),
            ],
            vec![
                predict("kmeans", "assign", 0, 90, 2),
                predict("kmeans", "assign", 5, 180, 1),
                predict("kmeans", "assign", 15, 310, 2),
                predict("kmeans", "update", 25, 60, 1),
            ],
        );
        let ledger = RunLedger::from_recording("t", 2, &rec, 4.0);
        let assign = ledger.row("kmeans", "assign").unwrap();
        assert_eq!(assign.span_count, 3);
        assert_eq!(assign.predict_count, 3);
        assert_eq!(assign.measured_ns, 600);
        assert_eq!(assign.predicted_ns, 580);
        assert_eq!(assign.status, Conformance::Ok);
        let update = ledger.row("kmeans", "update").unwrap();
        assert_eq!(update.span_count, 1);
        assert_eq!(update.predict_count, 1);
        // Row totals across the ledger conserve every record.
        let spans: u64 = ledger.rows.iter().map(|r| r.span_count).sum();
        let predicts: u64 = ledger.rows.iter().map(|r| r.predict_count).sum();
        assert_eq!(spans, 4);
        assert_eq!(predicts, 4);
    }

    #[test]
    fn counters_aggregate_samples_totals_and_max() {
        let mut rec = recording(vec![], vec![]);
        rec.counters = vec![
            hpa_trace::CounterRec {
                cat: "dict",
                name: "arena-bytes",
                ts_ns: 0,
                value: 100,
                tid: 1,
            },
            hpa_trace::CounterRec {
                cat: "dict",
                name: "arena-bytes",
                ts_ns: 5,
                value: 300,
                tid: 2,
            },
        ];
        let ledger = RunLedger::from_recording("t", 2, &rec, 4.0);
        assert_eq!(ledger.counters.len(), 1);
        let c = &ledger.counters[0];
        assert_eq!((c.samples, c.total, c.max), (2, 400, 300));
    }

    #[test]
    fn json_and_text_render_every_row() {
        let rec = recording(
            vec![span("phase", "output", 0, 1_000, 1)],
            vec![predict("phase", "output", 0, 800, 1)],
        );
        let ledger = RunLedger::from_recording("workflow", 4, &rec, 4.0);
        let json = ledger.to_json();
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            hpa_bench::json::SCHEMA_VERSION
        )));
        assert!(json.contains("\"ledger\": \"workflow\""));
        assert!(json.contains("\"error_ratio\": 0.8000"));
        assert!(json.contains("\"status\": \"ok\""));
        let text = ledger.to_text();
        assert!(text.contains("run ledger 'workflow'"));
        assert!(text.contains("output"));
    }
}
