//! Plan enumeration and selection.
//!
//! A *plan* assigns one [`Transport`] to every edge of a [`Dag`]. The
//! planner enumerates the cartesian product of each edge's allowed
//! transports (optionally filtered through a [`PlanSpace`]), prices
//! every combination with [`price::transport_cost_ns`] at the run's
//! thread count, and returns the cheapest. Enumeration order is
//! deterministic — edges in insertion order, transports in
//! [`Transport::ALL`] order — and ties resolve to the earliest
//! candidate, so the same DAG on the same executor always yields the
//! same plan.

use crate::dag::{Dag, DagError, EdgeId};
use crate::{price, Transport};
use hpa_exec::Exec;

/// A global restriction on the transports the planner may consider —
/// intersected with each edge's own allowed set. Used to express
/// scenarios ("discrete only": how would the planner lay out the
/// workflow if fusion were off the table?); a space of one transport
/// forces it, which is how the paper's fixed configurations (Figure 3's
/// fused and serial-ARFF discrete workflows) are expressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpace {
    allowed: Vec<Transport>,
}

impl Default for PlanSpace {
    fn default() -> Self {
        Self::full()
    }
}

impl PlanSpace {
    /// No restriction: every transport an edge allows is considered.
    pub fn full() -> Self {
        Self {
            allowed: Transport::ALL.to_vec(),
        }
    }

    /// Only the given transports are considered.
    pub fn only(transports: impl IntoIterator<Item = Transport>) -> Self {
        Self {
            allowed: transports.into_iter().collect(),
        }
    }

    /// Every transport except [`Transport::Fused`] — the "operators
    /// stay separate programs" scenario of the paper's discrete
    /// workflows.
    pub fn discrete() -> Self {
        Self::only(
            Transport::ALL
                .into_iter()
                .filter(|t| *t != Transport::Fused),
        )
    }

    /// Whether `t` is inside this space.
    pub fn allows(&self, t: Transport) -> bool {
        self.allowed.contains(&t)
    }
}

/// The transport picked for one edge, with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeChoice {
    /// The edge decided.
    pub edge: EdgeId,
    /// The transport chosen for it.
    pub transport: Transport,
    /// Predicted wall time of the edge under that transport (ns).
    pub edge_ns: u64,
}

/// A fully decided workflow: one transport per edge, plus the cost
/// breakdown the decision was made on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Per-edge choices, in edge order.
    pub choices: Vec<EdgeChoice>,
    /// Predicted node (operator phase) time, constant across plans.
    pub node_ns: u64,
    /// Predicted end-to-end time: node work plus every edge.
    pub total_ns: u64,
}

impl Plan {
    /// The transport assigned to `edge`, if the plan covers it.
    pub fn transport(&self, edge: EdgeId) -> Option<Transport> {
        self.choices
            .iter()
            .find(|c| c.edge == edge)
            .map(|c| c.transport)
    }

    /// Predicted time spent on edges alone (the composition tax).
    pub fn edges_ns(&self) -> u64 {
        self.choices.iter().map(|c| c.edge_ns).sum()
    }

    /// Per-edge transport labels, in edge order — for traces, logs and
    /// bench artifacts.
    pub fn labels(&self) -> Vec<&'static str> {
        self.choices.iter().map(|c| c.transport.label()).collect()
    }
}

fn edge_cost(dag: &Dag, id: EdgeId, t: Transport, exec: &Exec) -> u64 {
    match dag.edge(id).stats() {
        Some(m) => price::transport_cost_ns(t, m, exec),
        // `Dag::connect` guarantees stats exist whenever any non-fused
        // transport is allowed, so a stats-less edge is fused-only.
        None => 0,
    }
}

/// Enumerate every transport assignment the DAG and `space` allow —
/// the cartesian product over edges, in deterministic order. The space
/// only restricts *decision* edges (those declaring more than one
/// transport); a single-transport edge was pre-decided by the DAG
/// author and keeps its transport under any restriction. Errors if the
/// DAG does not validate or the restriction empties a decision edge's
/// choice set.
pub fn enumerate(dag: &Dag, space: &PlanSpace) -> Result<Vec<Vec<Transport>>, DagError> {
    dag.validate()?;
    let mut per_edge: Vec<Vec<Transport>> = Vec::with_capacity(dag.edge_count());
    for (id, edge) in dag.edges() {
        // Iterate `Transport::ALL` (not the edge's declaration order)
        // so enumeration order — and therefore tie-breaking — is
        // independent of how the DAG was wired.
        let allowed: Vec<Transport> = if edge.allowed().len() == 1 {
            edge.allowed().to_vec()
        } else {
            Transport::ALL
                .into_iter()
                .filter(|t| edge.allowed().contains(t) && space.allows(*t))
                .collect()
        };
        if allowed.is_empty() {
            return Err(DagError::EmptyTransportSet(
                dag.node(dag.edge(id).from().0).name(),
            ));
        }
        per_edge.push(allowed);
    }
    let mut plans: Vec<Vec<Transport>> = vec![Vec::new()];
    for options in &per_edge {
        let mut next = Vec::with_capacity(plans.len() * options.len());
        for prefix in &plans {
            for &t in options {
                let mut p = prefix.clone();
                p.push(t);
                next.push(p);
            }
        }
        plans = next;
    }
    Ok(plans)
}

/// Enumerate, price, and pick the cheapest plan for `dag` on `exec`.
/// Ties resolve to the earliest candidate in enumeration order
/// (which puts [`Transport::Fused`] first), so selection is
/// deterministic.
pub fn choose(dag: &Dag, space: &PlanSpace, exec: &Exec) -> Result<Plan, DagError> {
    let node_ns = dag.nodes_cost_ns(exec);
    let mut best: Option<Plan> = None;
    for assignment in enumerate(dag, space)? {
        let choices: Vec<EdgeChoice> = dag
            .edges()
            .zip(&assignment)
            .map(|((id, _), &t)| EdgeChoice {
                edge: id,
                transport: t,
                edge_ns: edge_cost(dag, id, t, exec),
            })
            .collect();
        let edge_ns: u64 = choices.iter().map(|c| c.edge_ns).sum();
        let plan = Plan {
            choices,
            node_ns,
            total_ns: node_ns + edge_ns,
        };
        let better = match &best {
            None => true,
            Some(b) => plan.total_ns < b.total_ns,
        };
        if better {
            best = Some(plan);
        }
    }
    // `enumerate` errors on an empty choice set, so the product is
    // never empty.
    Ok(best.expect("at least one plan enumerated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{EdgeSpec, OperatorSpec, PortType};
    use crate::IntermediateFormat;
    use hpa_tfidf::cost::MatrixStats;

    fn stats() -> MatrixStats {
        MatrixStats {
            rows: 4000,
            nnz: 400_000,
            dim: 30_000,
        }
    }

    /// source → tfidf → kmeans → output, with the matrix edge open to
    /// every transport and the others fused-only (no file encoding
    /// exists for a corpus or a clustering here).
    fn workflow_dag() -> (Dag, EdgeId) {
        let mut dag = Dag::new();
        let src = dag.add_node(OperatorSpec::new("source").output(PortType::Corpus));
        let tfidf = dag.add_node(
            OperatorSpec::new("tfidf")
                .input(PortType::Corpus)
                .output(PortType::SparseMatrix)
                .phase("transform", |_| 5_000),
        );
        let kmeans = dag.add_node(
            OperatorSpec::new("kmeans")
                .input(PortType::SparseMatrix)
                .output(PortType::Clustering)
                .phase("kmeans", |_| 20_000),
        );
        let out = dag.add_node(OperatorSpec::new("output").input(PortType::Clustering));
        dag.connect((src, 0), (tfidf, 0), EdgeSpec::fused_only())
            .unwrap();
        let matrix_edge = dag
            .connect((tfidf, 0), (kmeans, 0), EdgeSpec::open(stats()))
            .unwrap();
        dag.connect((kmeans, 0), (out, 0), EdgeSpec::fused_only())
            .unwrap();
        (dag, matrix_edge)
    }

    #[test]
    fn enumeration_covers_the_product_of_open_edges() {
        let (dag, _) = workflow_dag();
        let plans = enumerate(&dag, &PlanSpace::full()).unwrap();
        // Two fused-only edges × one open edge with 5 transports.
        assert_eq!(plans.len(), 5);
        let plans = enumerate(&dag, &PlanSpace::discrete()).unwrap();
        assert_eq!(plans.len(), 4);
    }

    #[test]
    fn full_space_picks_fused() {
        let (dag, matrix_edge) = workflow_dag();
        let exec = hpa_exec::Exec::sequential();
        let plan = choose(&dag, &PlanSpace::full(), &exec).unwrap();
        assert_eq!(plan.transport(matrix_edge), Some(Transport::Fused));
        assert_eq!(plan.edges_ns(), 0);
        assert_eq!(plan.total_ns, plan.node_ns);
    }

    #[test]
    fn discrete_space_picks_the_pipelined_binary_roundtrip() {
        let (dag, matrix_edge) = workflow_dag();
        let exec = hpa_exec::Exec::simulated(4, hpa_exec::MachineModel::default());
        let plan = choose(&dag, &PlanSpace::discrete(), &exec).unwrap();
        assert_eq!(
            plan.transport(matrix_edge),
            Some(Transport::Pipelined(IntermediateFormat::Binary)),
            "plan picked {:?}",
            plan.labels()
        );
        assert!(plan.edges_ns() > 0);
    }

    #[test]
    fn restricting_to_one_transport_forces_it_through_choice() {
        let (dag, matrix_edge) = workflow_dag();
        let exec = hpa_exec::Exec::sequential();
        for t in Transport::ALL {
            let plan = choose(&dag, &PlanSpace::only([t]), &exec).unwrap();
            assert_eq!(plan.transport(matrix_edge), Some(t));
        }
    }

    #[test]
    fn restriction_only_touches_decision_edges() {
        // The corpus and clustering edges declare exactly one
        // transport — the DAG author already decided them — so a
        // space excluding Fused must not invalidate them, only steer
        // the open matrix edge.
        let (dag, matrix_edge) = workflow_dag();
        let exec = hpa_exec::Exec::sequential();
        let t = Transport::Materialized(IntermediateFormat::Arff);
        let plan = choose(&dag, &PlanSpace::only([t]), &exec).unwrap();
        assert_eq!(plan.transport(matrix_edge), Some(t));
        assert_eq!(plan.labels(), vec!["fused", "arff-serial", "fused"]);
    }

    #[test]
    fn emptying_a_decision_edge_is_an_error() {
        // A decision edge whose declared transports all fall outside
        // the space has no valid assignment: surface it, don't guess.
        let mut dag = Dag::new();
        let a = dag.add_node(OperatorSpec::new("a").output(PortType::SparseMatrix));
        let b = dag.add_node(OperatorSpec::new("b").input(PortType::SparseMatrix));
        dag.connect(
            (a, 0),
            (b, 0),
            EdgeSpec {
                allowed: vec![
                    Transport::Fused,
                    Transport::Pipelined(IntermediateFormat::Binary),
                ],
                stats: Some(stats()),
            },
        )
        .unwrap();
        let exec = hpa_exec::Exec::sequential();
        let space = PlanSpace::only([Transport::Materialized(IntermediateFormat::Arff)]);
        assert_eq!(
            choose(&dag, &space, &exec).unwrap_err(),
            DagError::EmptyTransportSet("a")
        );
    }

    #[test]
    fn cheaper_transport_wins_when_fusion_is_unavailable() {
        // Sanity on the ordering of the four file transports: the
        // chosen one must price at the minimum of the enumerated set.
        let (dag, matrix_edge) = workflow_dag();
        let exec = hpa_exec::Exec::simulated(4, hpa_exec::MachineModel::default());
        let chosen = choose(&dag, &PlanSpace::discrete(), &exec).unwrap();
        let m = *dag.edge(matrix_edge).stats().unwrap();
        let min = Transport::ALL
            .into_iter()
            .filter(|t| *t != Transport::Fused)
            .map(|t| price::transport_cost_ns(t, &m, &exec))
            .min()
            .unwrap();
        assert_eq!(chosen.edges_ns(), min);
    }
}
