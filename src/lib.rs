#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # hpa — High-Performance Analytics
//!
//! Facade crate for the HPA workspace, a from-scratch Rust reproduction of
//!
//! > H. Vandierendonck, K. L. Murphy, M. Arif, J. Sun, D. S. Nikolopoulos.
//! > *Operator and Workflow Optimization for High-Performance Analytics.*
//! > MEDAL Workshop, EDBT/ICDT Joint Conference, 2016.
//!
//! The paper studies four intra-node optimizations for analytics
//! workflows — parallel computation inside operators, parallel input,
//! workflow fusion, and internal data-structure selection — on a
//! TF/IDF → K-means pipeline. This facade re-exports the workspace crates:
//!
//! * [`exec`] — work-stealing task pool and deterministic multicore simulator
//! * [`corpus`] — synthetic corpora calibrated to the paper's data sets
//! * [`dict`] — ordered-tree vs hash-table term dictionaries
//! * [`sparse`] — sparse vector algebra and dense centroids
//! * [`io`] — parallel input and the simulated storage device
//! * [`arff`] — ARFF reader/writer (the discrete workflow's default wire format)
//! * [`colfmt`] — chunk-aligned binary columnar intermediate (the fast wire format)
//! * [`tfidf`] — the parallel TF/IDF operator
//! * [`kmeans`] — the parallel sparse K-means operator and WEKA-style baseline
//! * [`plan`] — cost-based choice of the TF/IDF → K-means transport
//! * [`workflow`] — the TF/IDF → K-means workflow (discrete, fused, or planned)
//! * [`metrics`] — phase timing, heap accounting, result tables
//! * [`rng`] — small deterministic PRNG (SplitMix64), no external deps
//! * [`trace`] — opt-in span tracing with Chrome-trace (Perfetto) export
//!
//! ## Quickstart
//!
//! ```
//! use hpa::prelude::*;
//!
//! // Generate a tiny synthetic corpus, run the fused TF/IDF -> K-means
//! // workflow on 4 (virtual) cores, and inspect per-phase times.
//! let corpus = CorpusSpec::mix().scaled(0.002).generate(42);
//! let exec = Exec::simulated(4, MachineModel::default());
//! let outcome = WorkflowBuilder::new()
//!     .tfidf(TfIdfConfig::default())
//!     .kmeans(KMeansConfig { k: 4, max_iters: 5, ..Default::default() })
//!     .fused()
//!     .run(&corpus, &exec)
//!     .expect("workflow runs");
//! assert_eq!(outcome.assignments.len(), corpus.len());
//! assert!(outcome.phases.total() > std::time::Duration::ZERO);
//! ```

pub use hpa_arff as arff;
pub use hpa_colfmt as colfmt;
pub use hpa_core as workflow;
pub use hpa_corpus as corpus;
pub use hpa_dict as dict;
pub use hpa_exec as exec;
pub use hpa_io as io;
pub use hpa_kmeans as kmeans;
pub use hpa_metrics as metrics;
pub use hpa_plan as plan;
pub use hpa_rng as rng;
pub use hpa_sparse as sparse;
pub use hpa_tfidf as tfidf;
pub use hpa_trace as trace;

/// Commonly used items, for `use hpa::prelude::*`.
pub mod prelude {
    pub use hpa_core::{
        DiscreteIo, IntermediateFormat, PlanSpace, Transport, Workflow, WorkflowBuilder,
        WorkflowOutcome,
    };
    pub use hpa_corpus::{Corpus, CorpusSpec};
    pub use hpa_dict::{BTreeDict, DictKind, Dictionary, HashDict};
    pub use hpa_exec::{Exec, MachineModel};
    pub use hpa_kmeans::{AssignKernel, AssignStats, KMeansConfig, KMeansModel};
    pub use hpa_metrics::{PhaseReport, PhaseTimer};
    pub use hpa_sparse::SparseVec;
    pub use hpa_tfidf::{TfIdfConfig, TfIdfModel};
}
