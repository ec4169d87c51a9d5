//! Builder lowering ↔ plan space equivalence: the builder's one `match`
//! from `(DiscreteIo, IntermediateFormat)` to a `Transport` must name
//! the transport it says it names.
//!
//! A workflow stores its hand-off as a `PlanSpace` and every run goes
//! through the planner, so `fused()` / `discrete()` with the format and
//! schedule knobs are plan spaces of one. For each of the five
//! transports, the knob-built workflow and a `planned()` workflow whose
//! space is exactly that transport must agree — reported transport,
//! assignments, dimensionality, inertia bits, output bytes and phase
//! labels — on every executor.

use hpa_core::{DiscreteIo, PlanSpace, Transport, Workflow, WorkflowBuilder};
use hpa_corpus::{Corpus, CorpusSpec};
use hpa_exec::Exec;
use hpa_kmeans::KMeansConfig;
use hpa_tfidf::TfIdfConfig;

fn corpus() -> Corpus {
    CorpusSpec::mix().scaled(0.002).generate(11)
}

fn builder() -> WorkflowBuilder {
    WorkflowBuilder::new()
        .tfidf(TfIdfConfig {
            grain: 0,
            charge_input_io: true,
            ..Default::default()
        })
        .kmeans(KMeansConfig {
            k: 4,
            max_iters: 10,
            seed: 3,
            grain: 16,
            ..Default::default()
        })
}

/// The classic forced workflow equivalent to transport `t`.
fn forced(t: Transport) -> Workflow {
    match t {
        Transport::Fused => builder().fused(),
        Transport::Pipelined(format) => builder()
            .intermediate_format(format)
            .discrete_io(DiscreteIo::Pipelined)
            .discrete(),
        Transport::Materialized(format) => builder()
            .intermediate_format(format)
            .discrete_io(DiscreteIo::Serial)
            .discrete(),
    }
}

fn execs() -> Vec<Exec> {
    vec![
        Exec::sequential(),
        Exec::pool(3),
        Exec::simulated(4, hpa_exec::MachineModel::default()),
    ]
}

#[test]
fn every_plannable_transport_matches_its_forced_strategy() {
    let corpus = corpus();
    for exec in execs() {
        for t in Transport::ALL {
            let reference = forced(t).run(&corpus, &exec).unwrap();
            let planned = builder()
                .plan_space(PlanSpace::only([t]))
                .planned()
                .run(&corpus, &exec)
                .unwrap();
            let label = t.label();
            assert_eq!(planned.transport, t, "{label}");
            assert_eq!(reference.transport, t, "{label}");
            assert_eq!(planned.assignments, reference.assignments, "{label}");
            assert_eq!(planned.dim, reference.dim, "{label}");
            assert_eq!(
                planned.inertia.to_bits(),
                reference.inertia.to_bits(),
                "{label}"
            );
            assert_eq!(planned.iterations, reference.iterations, "{label}");
            assert_eq!(planned.output, reference.output, "{label}");
            assert_eq!(
                planned.phases.labels(),
                reference.phases.labels(),
                "{label}"
            );
        }
    }
}

#[test]
fn unrestricted_planner_reproduces_one_of_the_forced_outcomes() {
    // Whatever the full-space planner picks, the result must be
    // identical to the forced strategy for that pick — the planner
    // changes the schedule, never the numbers.
    let corpus = corpus();
    for exec in execs() {
        let planned = builder().planned().run(&corpus, &exec).unwrap();
        let reference = forced(planned.transport).run(&corpus, &exec).unwrap();
        assert_eq!(planned.assignments, reference.assignments);
        assert_eq!(planned.dim, reference.dim);
        assert_eq!(planned.inertia.to_bits(), reference.inertia.to_bits());
    }
}
