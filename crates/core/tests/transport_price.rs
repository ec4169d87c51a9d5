//! Planner price ≡ ledger prediction: for every file transport, the
//! predictions its two legs emit when it runs sum to the `edge_ns` the
//! planner decided on, to the nanosecond — so the audit ledger checks
//! the number `hpa_plan::choose` actually used.
//!
//! Own integration-test binary: the trace buffers are process-global.

use hpa_core::{IntermediateFormat, PlanSpace, Transport, WorkflowBuilder};
use hpa_corpus::CorpusSpec;
use hpa_exec::Exec;
use hpa_kmeans::KMeansConfig;
use hpa_plan::{Dag, EdgeSpec, MatrixStats, OperatorSpec, PortType};
use hpa_tfidf::{TfIdf, TfIdfConfig};

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

/// What `hpa_plan::choose` prices a matrix edge shaped like `m` at when
/// `t` is the only transport on the table.
fn planned_edge_ns(t: Transport, m: MatrixStats, exec: &Exec) -> u64 {
    let mut dag = Dag::new();
    let tfidf = dag.add_node(OperatorSpec::new("tfidf").output(PortType::SparseMatrix));
    let kmeans = dag.add_node(OperatorSpec::new("kmeans").input(PortType::SparseMatrix));
    let edge = dag
        .connect((tfidf, 0), (kmeans, 0), EdgeSpec::open(m))
        .unwrap();
    let plan = hpa_plan::choose(&dag, &PlanSpace::only([t]), exec).unwrap();
    assert_eq!(plan.transport(edge), Some(t));
    plan.edges_ns()
}

#[test]
fn leg_predictions_sum_to_the_planned_edge_price() {
    // Several colfmt chunks and several ARFF parse chunks, with uneven
    // rows, so an exact-chunk prediction and the planner's even spread
    // would differ.
    let corpus = CorpusSpec::nsf_abstracts().scaled(0.006).generate(7);
    let tfidf = TfIdfConfig::default();
    let kmeans = KMeansConfig {
        k: 4,
        max_iters: 2,
        ..Default::default()
    };
    let model = TfIdf::new(tfidf).fit(&Exec::sequential(), &corpus);
    let stats = MatrixStats::of(&model.vectors, model.vocab.len());
    assert!(stats.rows as usize > 2 * hpa_colfmt::DEFAULT_CHUNK_ROWS);

    for exec in [Exec::sequential(), Exec::pool(2)] {
        for t in Transport::ALL
            .into_iter()
            .filter(|t| *t != Transport::Fused)
        {
            let label = t.label();
            hpa_trace::enable();
            let out = WorkflowBuilder::new()
                .tfidf(tfidf)
                .kmeans(kmeans)
                .plan_space(PlanSpace::only([t]))
                .planned()
                .run(&corpus, &exec)
                .unwrap();
            hpa_trace::disable();
            let rec = hpa_trace::take();
            assert_eq!(out.plan[1], label);

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
            assert_eq!(
                predicted,
                planned_edge_ns(t, stats, &exec),
                "{label}: write + read predictions vs the planner's edge_ns under {exec:?}"
            );
        }
    }
}
