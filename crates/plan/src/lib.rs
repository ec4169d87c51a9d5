#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Cost-based transport choice.
//!
//! The paper's §3.3 finding is that *composition strategy* — fused
//! vs. discrete — matters as much as the operators themselves. The
//! TF/IDF → K-means workflow has exactly one composition decision: how
//! the matrix crosses from one operator to the other, a [`Transport`].
//! [`choose`] prices every transport a [`PlanSpace`] allows with the
//! same analytic cost model the execution simulator charges
//! (`hpa_tfidf::cost`, via [`price::transport_cost_ns`]) at the run's
//! thread count, and picks the cheapest.
//!
//! Paper fidelity needs no second path: a [`PlanSpace`] of one
//! transport forces it, so Figure 3's fused and serial-ARFF discrete
//! workflows are plan spaces of one — still expressible, and still
//! measured, unchanged.

pub mod planner;
pub mod price;

pub use hpa_tfidf::cost::MatrixStats;
pub use planner::{choose, Choice, EmptyPlanSpace, PlanSpace};

/// On-disk encoding of a materialized intermediate — the planner's
/// format knob, orthogonal to the schedule choice a [`Transport`]
/// makes. (Moved here from `hpa-core`, which re-exports it.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntermediateFormat {
    /// Text ARFF (WEKA's format), as the paper measured it — the
    /// paper-fidelity default. Every weight round-trips through decimal
    /// formatting and byte-by-byte parsing.
    #[default]
    Arff,
    /// Chunk-aligned binary sparse columnar format (`hpa_colfmt`):
    /// delta+varint term ids, raw little-endian `f64` weights,
    /// checksummed self-contained chunks. Same matrix bits, a fraction
    /// of the bytes and the CPU.
    Binary,
}

impl IntermediateFormat {
    /// File extension of the intermediate this format writes.
    pub fn extension(self) -> &'static str {
        match self {
            IntermediateFormat::Arff => "arff",
            IntermediateFormat::Binary => "hpac",
        }
    }
}

/// How the TF/IDF matrix moves from its producer to K-means — the
/// planner's one decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Transport {
    /// In-memory hand-off inside one binary ("merged" in the paper):
    /// the producer's output structure is passed by reference, no
    /// serialization at all.
    #[default]
    Fused,
    /// File round-trip with the *pipelined* schedule: encoding runs
    /// chunk-parallel behind a single ordered drain thread on the write
    /// side, and decoding parses chunks in parallel on the read side
    /// (`write_*_overlapped` / `read_*_parallel`). Bytes and values are
    /// identical to [`Materialized`](Transport::Materialized) — only
    /// the schedule differs.
    Pipelined(IntermediateFormat),
    /// Fully serial file round-trip, as the paper's Figure 3 measured
    /// it: one thread encodes, one thread decodes, everyone else waits.
    Materialized(IntermediateFormat),
}

impl Transport {
    /// Every transport, in the planner's candidate order. Tie-breaks
    /// resolve toward the earlier entry, so `Fused` wins a dead heat.
    pub const ALL: [Transport; 5] = [
        Transport::Fused,
        Transport::Pipelined(IntermediateFormat::Binary),
        Transport::Pipelined(IntermediateFormat::Arff),
        Transport::Materialized(IntermediateFormat::Binary),
        Transport::Materialized(IntermediateFormat::Arff),
    ];

    /// Stable label, matching the bench arm names
    /// (`fused`, `arff-serial`, `arff-pipelined`, `binary-serial`,
    /// `binary-pipelined`).
    pub fn label(self) -> &'static str {
        match self {
            Transport::Fused => "fused",
            Transport::Pipelined(IntermediateFormat::Arff) => "arff-pipelined",
            Transport::Pipelined(IntermediateFormat::Binary) => "binary-pipelined",
            Transport::Materialized(IntermediateFormat::Arff) => "arff-serial",
            Transport::Materialized(IntermediateFormat::Binary) => "binary-serial",
        }
    }

    /// The on-disk format of a file transport (`None` for fused).
    pub fn format(self) -> Option<IntermediateFormat> {
        match self {
            Transport::Fused => None,
            Transport::Pipelined(f) | Transport::Materialized(f) => Some(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<_> = Transport::ALL.iter().map(|t| t.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), Transport::ALL.len());
        assert_eq!(Transport::Fused.label(), "fused");
        assert_eq!(
            Transport::Materialized(IntermediateFormat::Arff).label(),
            "arff-serial"
        );
        assert_eq!(
            Transport::Pipelined(IntermediateFormat::Binary).label(),
            "binary-pipelined"
        );
    }

    #[test]
    fn formats_and_extensions() {
        assert_eq!(Transport::Fused.format(), None);
        assert_eq!(
            Transport::Pipelined(IntermediateFormat::Arff)
                .format()
                .unwrap()
                .extension(),
            "arff"
        );
        assert_eq!(
            Transport::Materialized(IntermediateFormat::Binary)
                .format()
                .unwrap()
                .extension(),
            "hpac"
        );
    }
}
