//! Calibration audit: fit cost-model scale factors from measured
//! ledgers and check whether the drift would flip a model-ranked choice.
//!
//! The analytic model predicts `predicted_ns` for every phase it
//! prices; a traced run measures what actually happened. Per phase the
//! audit fits the single scale `alpha` minimising the squared error of
//! `measured ≈ alpha × predicted` over the paired samples:
//! `alpha = Σ(measured·predicted) / Σ(predicted²)` — ordinary least
//! squares through the origin. `alpha ≈ 1` means the hard-coded
//! constants describe this host; `alpha` far from 1 quantifies drift.
//!
//! Drift only *matters* where the model ranks alternatives: the
//! K-means assignment kernels. [`kernel_flip_check`] compares the
//! model's ranking with the measured one and flags a disagreement.
//! The `calibrate` bin runs the loop: traced run → ledger → fits →
//! flip checks (DESIGN.md §12).

use hpa_trace::{Recording, RunLedger};
use std::collections::BTreeMap;

/// Fitted scale for one `(cat, name)` phase.
#[derive(Debug, Clone)]
pub struct FitRow {
    /// Phase category.
    pub cat: String,
    /// Phase name.
    pub name: String,
    /// Paired (prediction, span) samples behind the fit.
    pub samples: usize,
    /// Least-squares scale: `measured ≈ alpha × predicted`.
    pub alpha: f64,
}

/// Pair the k-th prediction of each `(cat, name)` with its k-th span,
/// both in time order (the order [`hpa_trace::take`] already sorted
/// them into). Returns `(predicted_ns, measured_ns)` sample lists.
pub fn paired_samples(rec: &Recording) -> BTreeMap<(String, String), Vec<(u64, u64)>> {
    let mut spans: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for s in &rec.spans {
        spans.entry((s.cat, s.name)).or_default().push(s.dur_ns);
    }
    let mut out: BTreeMap<(String, String), Vec<(u64, u64)>> = BTreeMap::new();
    let mut taken: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for p in &rec.predictions {
        let key = (p.cat, p.name);
        let k = taken.entry(key).or_insert(0);
        if let Some(&dur) = spans.get(&key).and_then(|durs| durs.get(*k)) {
            out.entry((p.cat.to_string(), p.name.to_string()))
                .or_default()
                .push((p.predicted_ns, dur));
        }
        *k += 1;
    }
    out
}

/// Least-squares-through-origin fit per phase. Phases with no pairs (or
/// all-zero predictions) are skipped.
pub fn fit_scales(pairs: &BTreeMap<(String, String), Vec<(u64, u64)>>) -> Vec<FitRow> {
    pairs
        .iter()
        .filter_map(|((cat, name), samples)| {
            let sum_pm: f64 = samples.iter().map(|&(p, m)| p as f64 * m as f64).sum();
            let sum_pp: f64 = samples.iter().map(|&(p, _)| (p as f64).powi(2)).sum();
            if sum_pp <= 0.0 {
                return None;
            }
            Some(FitRow {
                cat: cat.clone(),
                name: name.clone(),
                samples: samples.len(),
                alpha: sum_pm / sum_pp,
            })
        })
        .collect()
}

/// Look up the fitted alpha for a phase, defaulting to 1.0 (no
/// evidence, no adjustment).
pub fn alpha_for(fits: &[FitRow], cat: &str, name: &str) -> f64 {
    fits.iter()
        .find(|f| f.cat == cat && f.name == name)
        .map_or(1.0, |f| f.alpha)
}

/// A model ranking re-checked against measurements.
#[derive(Debug, Clone)]
pub struct SelectionCheck {
    /// Which selection: `"kmeans-assign"`.
    pub domain: &'static str,
    /// Human context, e.g. `"3 kernel arms"`.
    pub context: String,
    /// What the hard-coded model picks.
    pub model_pick: String,
    /// What the recalibrated (or measured) ranking picks.
    pub audited_pick: String,
    /// True when the two picks differ — drift that changes behaviour.
    pub flipped: bool,
}

/// Compare the model's assignment-kernel ranking with the measured one.
/// `per_kernel` holds one traced ledger per kernel arm; the check reads
/// each arm's `kmeans/assign` row and asks whether the kernel the model
/// ranks fastest is also the measured fastest.
pub fn kernel_flip_check(per_kernel: &[(String, RunLedger)]) -> Option<SelectionCheck> {
    let mut ranked: Vec<(&str, u64, u64)> = Vec::new();
    for (kernel, ledger) in per_kernel {
        let row = ledger.row("kmeans", "assign")?;
        if row.predict_count == 0 || row.span_count == 0 {
            return None;
        }
        ranked.push((kernel, row.predicted_ns, row.measured_ns));
    }
    if ranked.len() < 2 {
        return None;
    }
    let predicted_best = ranked.iter().min_by_key(|r| r.1)?.0;
    let measured_best = ranked.iter().min_by_key(|r| r.2)?.0;
    Some(SelectionCheck {
        domain: "kmeans-assign",
        context: format!("{} kernel arms", ranked.len()),
        model_pick: predicted_best.to_string(),
        audited_pick: measured_best.to_string(),
        flipped: predicted_best != measured_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_trace::{PredictRec, SpanRec};

    fn recording(spans: Vec<SpanRec>, predictions: Vec<PredictRec>) -> Recording {
        Recording {
            spans,
            counters: Vec::new(),
            events: Vec::new(),
            predictions,
            threads: vec![(1, "main".to_string())],
        }
    }

    fn span(name: &'static str, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            cat: "tfidf",
            name,
            start_ns: start,
            dur_ns: dur,
            arg: None,
            tid: 1,
        }
    }

    fn predict(name: &'static str, ts: u64, ns: u64) -> PredictRec {
        PredictRec {
            cat: "tfidf",
            name,
            ts_ns: ts,
            predicted_ns: ns,
            tid: 1,
        }
    }

    #[test]
    fn least_squares_recovers_an_exact_scale() {
        // measured = 2 × predicted, exactly, across three samples.
        let rec = recording(
            vec![
                span("transform", 0, 200),
                span("transform", 10, 600),
                span("transform", 20, 1_000),
            ],
            vec![
                predict("transform", 0, 100),
                predict("transform", 10, 300),
                predict("transform", 20, 500),
            ],
        );
        let fits = fit_scales(&paired_samples(&rec));
        assert_eq!(fits.len(), 1);
        assert_eq!(fits[0].samples, 3);
        assert!((fits[0].alpha - 2.0).abs() < 1e-9);
        assert!((alpha_for(&fits, "tfidf", "transform") - 2.0).abs() < 1e-9);
        assert!((alpha_for(&fits, "tfidf", "absent") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pairing_is_positional_and_ignores_unmatched_tails() {
        // Two predictions but only one span: the second prediction has
        // no partner and must not fabricate a sample.
        let rec = recording(
            vec![span("count-words", 0, 500)],
            vec![
                predict("count-words", 0, 400),
                predict("count-words", 10, 999),
            ],
        );
        let pairs = paired_samples(&rec);
        let samples = &pairs[&("tfidf".to_string(), "count-words".to_string())];
        assert_eq!(samples, &vec![(400, 500)]);
    }

    #[test]
    fn kernel_check_flags_a_model_measurement_disagreement() {
        let fast_predicted_slow_measured = recording(
            vec![SpanRec {
                cat: "kmeans",
                name: "assign",
                start_ns: 0,
                dur_ns: 9_000,
                arg: None,
                tid: 1,
            }],
            vec![PredictRec {
                cat: "kmeans",
                name: "assign",
                ts_ns: 0,
                predicted_ns: 1_000,
                tid: 1,
            }],
        );
        let slow_predicted_fast_measured = recording(
            vec![SpanRec {
                cat: "kmeans",
                name: "assign",
                start_ns: 0,
                dur_ns: 2_000,
                arg: None,
                tid: 1,
            }],
            vec![PredictRec {
                cat: "kmeans",
                name: "assign",
                ts_ns: 0,
                predicted_ns: 5_000,
                tid: 1,
            }],
        );
        let arms = vec![
            (
                "naive".to_string(),
                RunLedger::from_recording("naive", 1, &fast_predicted_slow_measured, 4.0),
            ),
            (
                "blocked".to_string(),
                RunLedger::from_recording("blocked", 1, &slow_predicted_fast_measured, 4.0),
            ),
        ];
        let check = kernel_flip_check(&arms).unwrap();
        assert_eq!(check.model_pick, "naive");
        assert_eq!(check.audited_pick, "blocked");
        assert!(check.flipped);
    }
}
