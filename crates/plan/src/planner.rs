//! Transport choice.
//!
//! The workflow has one composition decision: how the TF/IDF matrix
//! crosses to K-means. [`choose`] prices every [`Transport`] a
//! [`PlanSpace`] allows with [`price::transport_cost_ns`] at the run's
//! thread count and returns the cheapest.

use crate::{price, Transport};
use hpa_exec::Exec;
use hpa_tfidf::cost::MatrixStats;

/// The transports the planner may consider. Used to express scenarios
/// ("discrete only": how would the planner lay out the workflow if
/// fusion were off the table?); a space of one transport forces it,
/// which is how the paper's fixed configurations (Figure 3's fused and
/// serial-ARFF discrete workflows) are expressed.
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
    /// No restriction: every transport is considered.
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

/// The planner's decision: the transport the matrix crosses by, and the
/// price that won it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The cheapest transport the space allows.
    pub transport: Transport,
    /// Its predicted wall time ([`price::transport_cost_ns`]).
    pub price_ns: u64,
}

/// The [`PlanSpace`] allows no transport, so there is nothing to choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyPlanSpace;

impl std::fmt::Display for EmptyPlanSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the plan space allows no transport")
    }
}

impl std::error::Error for EmptyPlanSpace {}

/// Price every transport `space` allows for a matrix shaped like `m` on
/// `exec` and pick the cheapest. Candidates are visited in
/// [`Transport::ALL`] order — not the order the space was written in —
/// and a tie keeps the earlier one, so [`Transport::Fused`] wins a dead
/// heat and the pick is deterministic.
pub fn choose(space: &PlanSpace, m: &MatrixStats, exec: &Exec) -> Result<Choice, EmptyPlanSpace> {
    Transport::ALL
        .into_iter()
        .filter(|t| space.allows(*t))
        .map(|transport| Choice {
            transport,
            price_ns: price::transport_cost_ns(transport, m, exec),
        })
        // `min_by_key` returns the first of several equal minima.
        .min_by_key(|c| c.price_ns)
        .ok_or(EmptyPlanSpace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntermediateFormat;
    use hpa_exec::MachineModel;

    fn stats() -> MatrixStats {
        MatrixStats {
            rows: 4000,
            nnz: 400_000,
            dim: 30_000,
        }
    }

    fn execs() -> [Exec; 3] {
        [
            Exec::sequential(),
            Exec::pool(3),
            Exec::simulated(4, MachineModel::default()),
        ]
    }

    #[test]
    fn full_space_picks_fused() {
        let exec = Exec::sequential();
        let choice = choose(&PlanSpace::full(), &stats(), &exec).unwrap();
        assert_eq!(choice.transport, Transport::Fused);
        assert_eq!(choice.price_ns, 0);
    }

    #[test]
    fn discrete_space_picks_the_pipelined_binary_roundtrip() {
        let exec = Exec::simulated(4, MachineModel::default());
        let choice = choose(&PlanSpace::discrete(), &stats(), &exec).unwrap();
        assert_eq!(
            choice.transport,
            Transport::Pipelined(IntermediateFormat::Binary),
            "picked {}",
            choice.transport.label()
        );
        assert!(choice.price_ns > 0);
    }

    #[test]
    fn restricting_to_one_transport_forces_it_through_choice() {
        let exec = Exec::sequential();
        for t in Transport::ALL {
            let choice = choose(&PlanSpace::only([t]), &stats(), &exec).unwrap();
            assert_eq!(choice.transport, t);
            assert_eq!(
                choice.price_ns,
                price::transport_cost_ns(t, &stats(), &exec)
            );
        }
    }

    #[test]
    fn emptying_a_decision_edge_is_an_error() {
        // A space that leaves the hand-off no transport has no valid
        // choice: surface it, don't guess.
        let space = PlanSpace::only(std::iter::empty::<Transport>());
        for exec in execs() {
            assert_eq!(choose(&space, &stats(), &exec), Err(EmptyPlanSpace));
        }
    }

    #[test]
    fn cheaper_transport_wins_when_fusion_is_unavailable() {
        // Sanity on the ordering of the four file transports: the
        // chosen one must price at the minimum of the candidate set.
        let exec = Exec::simulated(4, MachineModel::default());
        let m = stats();
        let chosen = choose(&PlanSpace::discrete(), &m, &exec).unwrap();
        let min = Transport::ALL
            .into_iter()
            .filter(|t| *t != Transport::Fused)
            .map(|t| price::transport_cost_ns(t, &m, &exec))
            .min()
            .unwrap();
        assert_eq!(chosen.price_ns, min);
    }

    #[test]
    fn the_pick_is_the_argmin_whatever_order_the_space_was_written_in() {
        let m = stats();
        for exec in execs() {
            for a in Transport::ALL {
                for b in Transport::ALL {
                    let ab = choose(&PlanSpace::only([a, b]), &m, &exec).unwrap();
                    let ba = choose(&PlanSpace::only([b, a]), &m, &exec).unwrap();
                    assert_eq!(ab, ba, "{} / {} under {exec:?}", a.label(), b.label());
                    let (pa, pb) = (
                        price::transport_cost_ns(a, &m, &exec),
                        price::transport_cost_ns(b, &m, &exec),
                    );
                    assert_eq!(ab.price_ns, pa.min(pb));
                    assert!(ab.transport == a || ab.transport == b);
                    assert_eq!(
                        price::transport_cost_ns(ab.transport, &m, &exec),
                        ab.price_ns
                    );
                }
            }
        }
    }
}
