//! Transport pricing: what the matrix hand-off costs under each
//! [`Transport`], from matrix shape statistics alone.
//!
//! A file transport is a write leg plus a read leg, and each leg is
//! priced by exactly one function in `hpa_tfidf::cost` — the function
//! the leg's own `trace::predict` site calls when it runs. A
//! transport's price is therefore the same number the audit ledger sees
//! predicted if that transport runs — the planner and the conformance
//! machinery cannot disagree by construction
//! (`crates/core/tests/transport_price.rs` checks it to the nanosecond).

use crate::{IntermediateFormat, Transport};
use hpa_exec::Exec;
use hpa_tfidf::cost::{self, MatrixStats};

/// Predicted wall time (ns) of moving a matrix shaped like `m` from
/// TF/IDF to K-means via `transport`, on `exec`. Fused hand-offs are
/// free — the consumer reads the producer's structure in place.
pub fn transport_cost_ns(transport: Transport, m: &MatrixStats, exec: &Exec) -> u64 {
    use IntermediateFormat::{Arff, Binary};
    match transport {
        Transport::Fused => 0,
        Transport::Materialized(Arff) => cost::arff_write_ns(m, exec) + cost::arff_read_ns(m, exec),
        Transport::Pipelined(Arff) => {
            cost::arff_write_overlapped_ns(m, exec) + cost::arff_read_parallel_ns(m, exec)
        }
        Transport::Materialized(Binary) => {
            cost::colfmt_write_ns(m, exec) + cost::colfmt_read_ns(m, exec)
        }
        Transport::Pipelined(Binary) => {
            cost::colfmt_write_overlapped_ns(m, exec) + cost::colfmt_read_parallel_ns(m, exec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> MatrixStats {
        MatrixStats {
            rows: 4000,
            nnz: 400_000,
            dim: 30_000,
        }
    }

    #[test]
    fn fused_is_free_and_files_are_not() {
        let exec = Exec::sequential();
        let m = stats();
        assert_eq!(transport_cost_ns(Transport::Fused, &m, &exec), 0);
        for t in Transport::ALL.into_iter().skip(1) {
            assert!(
                transport_cost_ns(t, &m, &exec) > 0,
                "{} priced at zero",
                t.label()
            );
        }
    }

    #[test]
    fn binary_is_cheaper_than_arff_under_both_schedules() {
        let exec = Exec::sequential();
        let m = stats();
        let price = |t| transport_cost_ns(t, &m, &exec);
        assert!(
            price(Transport::Materialized(IntermediateFormat::Binary))
                < price(Transport::Materialized(IntermediateFormat::Arff))
        );
        assert!(
            price(Transport::Pipelined(IntermediateFormat::Binary))
                < price(Transport::Pipelined(IntermediateFormat::Arff))
        );
    }

    #[test]
    fn pipelining_helps_once_threads_exist() {
        let m = stats();
        let seq = Exec::sequential();
        let par = Exec::simulated(8, hpa_exec::MachineModel::default());
        for fmt in [IntermediateFormat::Arff, IntermediateFormat::Binary] {
            let serial = transport_cost_ns(Transport::Materialized(fmt), &m, &par);
            let pipelined = transport_cost_ns(Transport::Pipelined(fmt), &m, &par);
            assert!(
                pipelined < serial,
                "{fmt:?}: pipelined {pipelined} not under serial {serial} at 8 threads"
            );
            // At one thread the schedules converge to within the
            // overlap rule's rounding.
            let s1 = transport_cost_ns(Transport::Materialized(fmt), &m, &seq) as f64;
            let p1 = transport_cost_ns(Transport::Pipelined(fmt), &m, &seq) as f64;
            assert!((p1 / s1) < 1.2, "{fmt:?}: serial-thread ratio {}", p1 / s1);
        }
    }

    #[test]
    fn empty_matrix_prices_finite_and_small() {
        let exec = Exec::sequential();
        let m = MatrixStats::default();
        for t in Transport::ALL {
            let ns = transport_cost_ns(t, &m, &exec);
            assert!(
                ns < 1_000_000,
                "{}: empty matrix priced at {ns}ns",
                t.label()
            );
        }
    }
}
