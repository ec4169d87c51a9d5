//! Operator DAG: typed ports, per-phase cost closures, and edges
//! annotated with the transports the planner may choose from.

use crate::Transport;
use hpa_exec::Exec;
use hpa_tfidf::cost::MatrixStats;

/// The type of data flowing through an operator port. Connecting ports
/// of different types is a construction-time error — the planner never
/// sees an ill-typed DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortType {
    /// A document corpus (workflow input).
    Corpus,
    /// A sparse TF/IDF matrix plus its dimensionality.
    SparseMatrix,
    /// A clustering (assignments, centroids, inertia).
    Clustering,
    /// Serialized output bytes (workflow product).
    Bytes,
}

/// One phase of an operator: a label (the paper's phase names) and a
/// closure predicting the phase's wall time on a given executor. The
/// closures capture workload statistics at DAG-construction time and
/// reuse the analytic cost models (`hpa_tfidf::cost`,
/// `hpa_kmeans::cost`, `hpa_dict::costmodel`) that the execution
/// simulator charges.
pub struct PhaseCost {
    label: &'static str,
    cost: Box<dyn Fn(&Exec) -> u64 + Send + Sync>,
}

impl PhaseCost {
    /// A phase with label `label` priced by `cost` (predicted ns on the
    /// given executor).
    pub fn new(label: &'static str, cost: impl Fn(&Exec) -> u64 + Send + Sync + 'static) -> Self {
        Self {
            label,
            cost: Box::new(cost),
        }
    }

    /// The phase label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Predicted wall time of this phase on `exec`, in nanoseconds.
    pub fn predict_ns(&self, exec: &Exec) -> u64 {
        (self.cost)(exec)
    }
}

impl std::fmt::Debug for PhaseCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseCost")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// An operator node: name, typed ports, and per-phase cost closures.
#[derive(Debug, Default)]
pub struct OperatorSpec {
    name: &'static str,
    inputs: Vec<PortType>,
    outputs: Vec<PortType>,
    phases: Vec<PhaseCost>,
}

impl OperatorSpec {
    /// A new operator with no ports or phases yet.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            ..Default::default()
        }
    }

    /// Declare the next input port.
    pub fn input(mut self, port: PortType) -> Self {
        self.inputs.push(port);
        self
    }

    /// Declare the next output port.
    pub fn output(mut self, port: PortType) -> Self {
        self.outputs.push(port);
        self
    }

    /// Declare the next execution phase with its cost closure.
    pub fn phase(
        mut self,
        label: &'static str,
        cost: impl Fn(&Exec) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.phases.push(PhaseCost::new(label, cost));
        self
    }

    /// The operator name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Declared input port types, in port order.
    pub fn inputs(&self) -> &[PortType] {
        &self.inputs
    }

    /// Declared output port types, in port order.
    pub fn outputs(&self) -> &[PortType] {
        &self.outputs
    }

    /// The declared phases, in execution order.
    pub fn phases(&self) -> &[PhaseCost] {
        &self.phases
    }

    /// Predicted wall time of all phases of this operator on `exec`.
    pub fn cost_ns(&self, exec: &Exec) -> u64 {
        self.phases.iter().map(|p| p.predict_ns(exec)).sum()
    }
}

/// Identifies a node in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Position in the DAG's node list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an edge in a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(usize);

/// What the planner may do with one edge: the transports it can choose
/// from, and the shape statistics of the data crossing it (required to
/// price any file transport).
#[derive(Debug, Clone)]
pub struct EdgeSpec {
    /// Transports the planner may choose for this edge.
    pub allowed: Vec<Transport>,
    /// Shape of the matrix crossing the edge; `None` only for edges
    /// restricted to [`Transport::Fused`].
    pub stats: Option<MatrixStats>,
}

impl EdgeSpec {
    /// An edge that can only be fused (in-memory hand-off) — e.g. a
    /// hand-off for which no file encoding exists.
    pub fn fused_only() -> Self {
        Self {
            allowed: vec![Transport::Fused],
            stats: None,
        }
    }

    /// An edge open to every transport, pricing file round-trips from
    /// `stats`.
    pub fn open(stats: MatrixStats) -> Self {
        Self {
            allowed: Transport::ALL.to_vec(),
            stats: Some(stats),
        }
    }
}

/// One wired connection: producer output port → consumer input port.
#[derive(Debug)]
pub struct Edge {
    from: (NodeId, usize),
    to: (NodeId, usize),
    allowed: Vec<Transport>,
    stats: Option<MatrixStats>,
}

impl Edge {
    /// Producer (node, output-port) pair.
    pub fn from(&self) -> (NodeId, usize) {
        self.from
    }

    /// Consumer (node, input-port) pair.
    pub fn to(&self) -> (NodeId, usize) {
        self.to
    }

    /// Transports the planner may choose for this edge.
    pub fn allowed(&self) -> &[Transport] {
        &self.allowed
    }

    /// Shape of the data crossing the edge (present whenever any file
    /// transport is allowed).
    pub fn stats(&self) -> Option<&MatrixStats> {
        self.stats.as_ref()
    }
}

/// Errors surfaced while wiring or validating a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// A referenced node does not exist.
    UnknownNode(usize),
    /// A referenced edge does not exist.
    UnknownEdge(usize),
    /// A referenced port index is out of range for its node.
    PortOutOfRange {
        /// Operator name.
        node: &'static str,
        /// The port index asked for.
        port: usize,
        /// How many ports of that direction the node declares.
        available: usize,
    },
    /// Producer output type and consumer input type differ.
    TypeMismatch {
        /// Producer operator name.
        from: &'static str,
        /// Producer output type.
        out: PortType,
        /// Consumer operator name.
        to: &'static str,
        /// Consumer input type.
        inp: PortType,
    },
    /// Two edges feed the same input port.
    InputRebound {
        /// Consumer operator name.
        node: &'static str,
        /// The doubly-bound input port.
        port: usize,
    },
    /// An input port has no incoming edge.
    UnboundInput {
        /// Consumer operator name.
        node: &'static str,
        /// The unbound input port.
        port: usize,
    },
    /// The graph has a cycle (node named is on it).
    Cycle(&'static str),
    /// An edge allows no transport at all (empty spec, or a planner
    /// restriction filtered every allowed transport out).
    EmptyTransportSet(&'static str),
    /// An edge allows a file transport but carries no [`MatrixStats`]
    /// to price it with.
    Unpriceable(&'static str),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::UnknownNode(i) => write!(f, "unknown node #{i}"),
            DagError::UnknownEdge(i) => write!(f, "unknown edge #{i}"),
            DagError::PortOutOfRange {
                node,
                port,
                available,
            } => write!(
                f,
                "{node} has {available} port(s), index {port} out of range"
            ),
            DagError::TypeMismatch { from, out, to, inp } => write!(
                f,
                "type mismatch: {from} produces {out:?} but {to} consumes {inp:?}"
            ),
            DagError::InputRebound { node, port } => {
                write!(f, "input port {port} of {node} bound twice")
            }
            DagError::UnboundInput { node, port } => {
                write!(f, "input port {port} of {node} has no incoming edge")
            }
            DagError::Cycle(node) => write!(f, "cycle through {node}"),
            DagError::EmptyTransportSet(node) => {
                write!(f, "edge out of {node} allows no transport")
            }
            DagError::Unpriceable(node) => write!(
                f,
                "edge out of {node} allows a file transport but has no matrix stats"
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// A workflow DAG: operator nodes plus transport-annotated edges.
#[derive(Debug, Default)]
pub struct Dag {
    nodes: Vec<OperatorSpec>,
    edges: Vec<Edge>,
}

impl Dag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an operator node.
    pub fn add_node(&mut self, op: OperatorSpec) -> NodeId {
        self.nodes.push(op);
        NodeId(self.nodes.len() - 1)
    }

    /// Wire producer output port `from` to consumer input port `to`.
    /// Rejects dangling ids, out-of-range ports, type mismatches,
    /// doubly-bound inputs, empty transport sets, and file transports
    /// without stats — so every edge the planner sees is priceable.
    pub fn connect(
        &mut self,
        from: (NodeId, usize),
        to: (NodeId, usize),
        spec: EdgeSpec,
    ) -> Result<EdgeId, DagError> {
        let out_ty = {
            let node = self
                .nodes
                .get(from.0 .0)
                .ok_or(DagError::UnknownNode(from.0 .0))?;
            *node.outputs().get(from.1).ok_or(DagError::PortOutOfRange {
                node: node.name(),
                port: from.1,
                available: node.outputs().len(),
            })?
        };
        let in_ty = {
            let node = self
                .nodes
                .get(to.0 .0)
                .ok_or(DagError::UnknownNode(to.0 .0))?;
            *node.inputs().get(to.1).ok_or(DagError::PortOutOfRange {
                node: node.name(),
                port: to.1,
                available: node.inputs().len(),
            })?
        };
        let from_name = self.nodes[from.0 .0].name();
        let to_name = self.nodes[to.0 .0].name();
        if out_ty != in_ty {
            return Err(DagError::TypeMismatch {
                from: from_name,
                out: out_ty,
                to: to_name,
                inp: in_ty,
            });
        }
        if self.edges.iter().any(|e| e.to == to) {
            return Err(DagError::InputRebound {
                node: to_name,
                port: to.1,
            });
        }
        if spec.allowed.is_empty() {
            return Err(DagError::EmptyTransportSet(from_name));
        }
        if spec.stats.is_none() && spec.allowed.iter().any(|t| *t != Transport::Fused) {
            return Err(DagError::Unpriceable(from_name));
        }
        self.edges.push(Edge {
            from,
            to,
            allowed: spec.allowed,
            stats: spec.stats,
        });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &OperatorSpec {
        &self.nodes[id.0]
    }

    /// The edge behind `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All nodes, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &OperatorSpec)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Number of edges (the planner's decision vector length).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Check the DAG is executable — every input bound, no cycles — and
    /// return a topological order of its nodes.
    pub fn validate(&self) -> Result<Vec<NodeId>, DagError> {
        for (i, node) in self.nodes.iter().enumerate() {
            for port in 0..node.inputs().len() {
                if !self.edges.iter().any(|e| e.to == (NodeId(i), port)) {
                    return Err(DagError::UnboundInput {
                        node: node.name(),
                        port,
                    });
                }
            }
        }
        // Kahn's algorithm; ties resolve by node id, so the order is
        // deterministic.
        let mut indegree = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            indegree[e.to.0 .0] += 1;
        }
        let mut ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = ready.pop() {
            order.push(NodeId(i));
            for e in &self.edges {
                if e.from.0 .0 == i {
                    indegree[e.to.0 .0] -= 1;
                    if indegree[e.to.0 .0] == 0 {
                        ready.push(e.to.0 .0);
                    }
                }
            }
        }
        if order.len() != self.nodes.len() {
            let stuck = indegree
                .iter()
                .position(|&d| d > 0)
                .map(|i| self.nodes[i].name())
                .unwrap_or("?");
            return Err(DagError::Cycle(stuck));
        }
        Ok(order)
    }

    /// Predicted wall time of every node's phases on `exec` — constant
    /// across plans (transport choice changes edges, not node work),
    /// included so a plan's total is an end-to-end estimate.
    pub fn nodes_cost_ns(&self, exec: &Exec) -> u64 {
        self.nodes.iter().map(|n| n.cost_ns(exec)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> MatrixStats {
        MatrixStats {
            rows: 100,
            nnz: 2000,
            dim: 500,
        }
    }

    fn two_node_dag() -> (Dag, NodeId, NodeId) {
        let mut dag = Dag::new();
        let a = dag.add_node(
            OperatorSpec::new("tfidf")
                .input(PortType::Corpus)
                .output(PortType::SparseMatrix)
                .phase("transform", |_| 100),
        );
        let b = dag.add_node(
            OperatorSpec::new("kmeans")
                .input(PortType::SparseMatrix)
                .output(PortType::Clustering)
                .phase("kmeans", |_| 200),
        );
        (dag, a, b)
    }

    #[test]
    fn well_typed_edge_connects_and_validates() {
        let (mut dag, a, b) = two_node_dag();
        let e = dag
            .connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap();
        assert_eq!(dag.edge(e).allowed().len(), Transport::ALL.len());
        // `a` has an unbound Corpus input — a source node in the real
        // workflow feeds it; here leave it unbound and expect an error.
        assert_eq!(
            dag.validate(),
            Err(DagError::UnboundInput {
                node: "tfidf",
                port: 0
            })
        );
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (mut dag, a, _) = two_node_dag();
        let c = dag.add_node(
            OperatorSpec::new("output")
                .input(PortType::Clustering)
                .output(PortType::Bytes),
        );
        let err = dag
            .connect((a, 0), (c, 0), EdgeSpec::open(stats()))
            .unwrap_err();
        assert!(matches!(err, DagError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn double_binding_an_input_is_rejected() {
        let (mut dag, a, b) = two_node_dag();
        dag.connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap();
        let err = dag
            .connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap_err();
        assert_eq!(
            err,
            DagError::InputRebound {
                node: "kmeans",
                port: 0
            }
        );
    }

    #[test]
    fn out_of_range_port_is_rejected() {
        let (mut dag, a, b) = two_node_dag();
        let err = dag
            .connect((a, 3), (b, 0), EdgeSpec::open(stats()))
            .unwrap_err();
        assert_eq!(
            err,
            DagError::PortOutOfRange {
                node: "tfidf",
                port: 3,
                available: 1
            }
        );
    }

    #[test]
    fn file_transport_without_stats_is_unpriceable() {
        let (mut dag, a, b) = two_node_dag();
        let spec = EdgeSpec {
            allowed: vec![Transport::Materialized(crate::IntermediateFormat::Arff)],
            stats: None,
        };
        assert_eq!(
            dag.connect((a, 0), (b, 0), spec).unwrap_err(),
            DagError::Unpriceable("tfidf")
        );
        assert_eq!(
            dag.connect(
                (a, 0),
                (b, 0),
                EdgeSpec {
                    allowed: vec![],
                    stats: None
                }
            )
            .unwrap_err(),
            DagError::EmptyTransportSet("tfidf")
        );
    }

    #[test]
    fn cycle_is_detected() {
        let mut dag = Dag::new();
        let a = dag.add_node(
            OperatorSpec::new("a")
                .input(PortType::SparseMatrix)
                .output(PortType::SparseMatrix),
        );
        let b = dag.add_node(
            OperatorSpec::new("b")
                .input(PortType::SparseMatrix)
                .output(PortType::SparseMatrix),
        );
        dag.connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap();
        dag.connect((b, 0), (a, 0), EdgeSpec::open(stats()))
            .unwrap();
        assert!(matches!(dag.validate(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut dag = Dag::new();
        let src = dag.add_node(OperatorSpec::new("source").output(PortType::Corpus));
        let a = dag.add_node(
            OperatorSpec::new("tfidf")
                .input(PortType::Corpus)
                .output(PortType::SparseMatrix),
        );
        let b = dag.add_node(OperatorSpec::new("kmeans").input(PortType::SparseMatrix));
        dag.connect((src, 0), (a, 0), EdgeSpec::fused_only())
            .unwrap();
        dag.connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap();
        let order = dag.validate().unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(src) < pos(a));
        assert!(pos(a) < pos(b));
    }

    #[test]
    fn node_costs_sum_over_phases() {
        let (mut dag, a, b) = two_node_dag();
        dag.connect((a, 0), (b, 0), EdgeSpec::open(stats()))
            .unwrap();
        let exec = Exec::sequential();
        assert_eq!(dag.node(a).cost_ns(&exec), 100);
        assert_eq!(dag.nodes_cost_ns(&exec), 300);
        assert_eq!(dag.node(b).phases()[0].label(), "kmeans");
    }
}
