//! What a traced run of each file transport records.
//!
//! Planner price ≡ ledger prediction: the predictions a transport's two
//! legs emit when it runs sum to the price `hpa_plan::choose` decided
//! on, to the nanosecond — so the audit ledger checks the number the
//! planner actually used. And the `phase/*` spans are the phase report:
//! every phase is opened by the one `OperatorCtx::timed`, so the spans
//! in start order name exactly the phases the outcome lists.
//!
//! Own integration-test binary: the trace buffers are process-global,
//! and [`traced_run`] serializes the tests inside it.

use hpa_core::{IntermediateFormat, PlanSpace, Transport, WorkflowBuilder, WorkflowOutcome};
use hpa_corpus::{Corpus, CorpusSpec};
use hpa_exec::Exec;
use hpa_kmeans::KMeansConfig;
use hpa_plan::MatrixStats;
use hpa_tfidf::{TfIdf, TfIdfConfig};
use hpa_trace::Recording;
use std::sync::Mutex;

/// The `tfidf/*` span names of a file transport's write and read legs.
fn legs(t: Transport) -> [&'static str; 2] {
    match t {
        Transport::Fused => unreachable!("fused has no legs"),
        Transport::Materialized(IntermediateFormat::Arff) => ["write-arff", "read-arff"],
        Transport::Pipelined(IntermediateFormat::Arff) => {
            ["write-arff-overlapped", "read-arff-parallel"]
        }
        Transport::Materialized(IntermediateFormat::Binary) => ["write-colfmt", "read-colfmt"],
        Transport::Pipelined(IntermediateFormat::Binary) => {
            ["write-colfmt-overlapped", "read-colfmt-parallel"]
        }
    }
}

fn file_transports() -> impl Iterator<Item = Transport> {
    Transport::ALL
        .into_iter()
        .filter(|t| *t != Transport::Fused)
}

/// Run `corpus` through transport `t` with tracing on and return what
/// the run recorded, holding the process-global trace for its duration.
fn traced_run(t: Transport, corpus: &Corpus, exec: &Exec) -> (WorkflowOutcome, Recording) {
    static TRACE: Mutex<()> = Mutex::new(());
    let _owner = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    hpa_trace::enable();
    let out = WorkflowBuilder::new()
        .tfidf(TfIdfConfig::default())
        .kmeans(KMeansConfig {
            k: 4,
            max_iters: 2,
            ..Default::default()
        })
        .plan_space(PlanSpace::only([t]))
        .planned()
        .run(corpus, exec)
        .unwrap();
    hpa_trace::disable();
    let rec = hpa_trace::take();
    assert_eq!(out.transport, t);
    (out, rec)
}

#[test]
fn leg_predictions_sum_to_the_planned_edge_price() {
    // Several colfmt chunks and several ARFF parse chunks, with uneven
    // rows, so an exact-chunk prediction and the planner's even spread
    // would differ.
    let corpus = CorpusSpec::nsf_abstracts().scaled(0.006).generate(7);
    let model = TfIdf::new(TfIdfConfig::default()).fit(&Exec::sequential(), &corpus);
    let stats = MatrixStats::of(&model.vectors, model.vocab.len());
    assert!(stats.rows as usize > 2 * hpa_colfmt::DEFAULT_CHUNK_ROWS);

    for exec in [Exec::sequential(), Exec::pool(2)] {
        for t in file_transports() {
            let label = t.label();
            let (_, rec) = traced_run(t, &corpus, &exec);

            let mut predicted = 0u64;
            for leg in legs(t) {
                let spans = rec.spans_in("tfidf").filter(|s| s.name == leg).count();
                assert_eq!(spans, 1, "{label}: {leg} spans under {exec:?}");
                let predictions: Vec<u64> = rec
                    .predictions_in("tfidf")
                    .filter(|p| p.name == leg)
                    .map(|p| p.predicted_ns)
                    .collect();
                assert_eq!(
                    predictions.len(),
                    1,
                    "{label}: {leg} predictions under {exec:?}"
                );
                predicted += predictions[0];
            }
            let planned = hpa_plan::choose(&PlanSpace::only([t]), &stats, &exec).unwrap();
            assert_eq!(planned.transport, t);
            assert_eq!(
                predicted, planned.price_ns,
                "{label}: write + read predictions vs the planner's price under {exec:?}"
            );
        }
    }
}

#[test]
fn phase_spans_are_the_phase_report_and_the_choice_is_traced_once() {
    let corpus = CorpusSpec::mix().scaled(0.002).generate(5);
    for exec in [Exec::sequential(), Exec::pool(2)] {
        for t in file_transports() {
            let label = t.label();
            let (out, rec) = traced_run(t, &corpus, &exec);

            // `take` sorts spans by start time.
            let spans: Vec<&str> = rec.spans_in("phase").map(|s| s.name).collect();
            assert_eq!(spans, out.phases.labels(), "{label} under {exec:?}");

            let choices: Vec<&str> = rec
                .events
                .iter()
                .filter(|e| e.cat == "plan/choose")
                .map(|e| e.name)
                .collect();
            assert_eq!(choices, [label], "under {exec:?}");

            // This binary does not install the counting allocator, so a
            // heap sample could only be a misleading zero.
            assert!(
                rec.counters.iter().all(|c| c.cat != "mem"),
                "{label}: heap sampled without an allocator under {exec:?}"
            );
        }
    }
}
