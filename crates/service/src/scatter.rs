//! Scatter-gather: label-pair fan-out for multi-label `msearch`.
//!
//! Pair (k,s)-BCCs do **not** compose into the multi-label mBCC — the
//! cross-group connectivity constraint couples the label pairs, and a pair
//! that is infeasible in isolation can still participate in a feasible
//! mBCC through an intermediary group — so the scatter plan keeps one
//! *assembly* job (the full multi-label engine run) and submits the C(m,2)
//! label-pair sub-queries to the same worker pool as concurrent
//! annotations: each pair result lands in the response's `pairs` section
//! (partial failure stays structured and per-pair, never a whole-request
//! failure) and warms exactly the cache slot a direct two-vertex `msearch`
//! of that pair would use.
//!
//! Determinism across worker counts is structural, not incidental: the
//! plan derives from the normalized (sorted, deduped) vertex list; cache
//! probes happen in plan order on the session thread at submit; gather
//! collects the assembly first, then the pairs in plan order; and sub-jobs
//! never insert into the cache from worker threads — all inserts replay in
//! plan order at gather. Response bytes, hit/miss counts, and LRU recency
//! are therefore identical whether one worker or many executed the work.

use std::sync::Arc;
use std::time::Instant;

use bcc_graph::VertexId;

use crate::pool::Ticket;
use crate::registry::GraphEntry;
use crate::request::{CacheKey, ErrorKind, Method, RequestError};
use crate::response::QueryOutcome;

/// A scattered msearch in flight: the assembly ticket plus one
/// `PairJob` per label pair, gathered by `BccService::wait`.
pub struct ScatterWait {
    pub(crate) seq: u64,
    pub(crate) graph: String,
    pub(crate) method: Method,
    /// The snapshot the scatter was planned against — gather-side retries
    /// re-execute against *this* entry, never a registry re-fetch, so a
    /// mid-flight commit can't mix generations into one response.
    pub(crate) entry: Arc<GraphEntry>,
    /// The parent request's absolute deadline — inherited by every
    /// sub-query wait.
    pub(crate) deadline: Option<Instant>,
    pub(crate) started: Instant,
    /// The full multi-vertex cache key (the gather-side insert target).
    pub(crate) key: CacheKey,
    /// The monolithic mBCC run; its outcome is the response body.
    pub(crate) assembly: Ticket<Result<QueryOutcome, RequestError>>,
    /// Label-pair sub-queries in plan order.
    pub(crate) pairs: Vec<PairJob>,
}

/// One label-pair sub-query of a scattered msearch.
pub(crate) struct PairJob {
    /// Left query vertex id (`ql < qr`, normalized order).
    pub(crate) ql: u32,
    /// Right query vertex id.
    pub(crate) qr: u32,
    /// The pair's own cache key — identical to a direct two-vertex
    /// `msearch`'s key, so scatter and direct queries share slots.
    pub(crate) key: CacheKey,
    pub(crate) source: PairSource,
}

/// Where a pair sub-result comes from: the cache (probed at submit, on the
/// session thread, in plan order) or a worker ticket.
pub(crate) enum PairSource {
    Cached(Result<QueryOutcome, RequestError>),
    Miss(Ticket<Result<QueryOutcome, RequestError>>),
}

/// The deterministic scatter plan: every `i < j` pair of the normalized
/// (sorted by vertex id) query list, with each vertex's effective `k`
/// carried along.
pub(crate) fn pair_plan(
    vertices: &[VertexId],
    ks: &[u32],
) -> Vec<((VertexId, u32), (VertexId, u32))> {
    debug_assert_eq!(vertices.len(), ks.len());
    let mut plan = Vec::with_capacity(vertices.len() * (vertices.len() - 1) / 2);
    for i in 0..vertices.len() {
        for j in (i + 1)..vertices.len() {
            plan.push(((vertices[i], ks[i]), (vertices[j], ks[j])));
        }
    }
    plan
}

/// Whether an outcome may enter the result cache: successes and
/// *deterministic* search errors, never transient failures (timeouts,
/// lost workers) — retrying those must re-execute.
pub(crate) fn cacheable(outcome: &Result<QueryOutcome, RequestError>) -> bool {
    match outcome {
        Ok(_) => true,
        Err(err) => err.kind == ErrorKind::Search,
    }
}

/// A cache entry's weight for the size-aware eviction budget: the member
/// count it pins in memory (community plus any retained pair communities),
/// never zero so errors and empty results still occupy one unit.
pub(crate) fn outcome_weight(outcome: &Result<QueryOutcome, RequestError>) -> usize {
    match outcome {
        Ok(o) => {
            let pair_members: usize = o
                .pairs
                .iter()
                .map(|p| p.result.as_ref().map_or(0, Vec::len))
                .sum();
            (o.community.len() + pair_members).max(1)
        }
        Err(_) => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(community: Vec<u32>) -> QueryOutcome {
        QueryOutcome {
            community,
            query_distance: 1,
            iterations: 1,
            leaders: vec![0],
            ks: vec![2, 2],
            b: 1,
            pairs: Vec::new(),
        }
    }

    #[test]
    fn plan_enumerates_sorted_pairs_in_order() {
        let vs = [VertexId(1), VertexId(4), VertexId(9)];
        let ks = [2, 3, 5];
        let plan = pair_plan(&vs, &ks);
        assert_eq!(
            plan,
            vec![
                ((VertexId(1), 2), (VertexId(4), 3)),
                ((VertexId(1), 2), (VertexId(9), 5)),
                ((VertexId(4), 3), (VertexId(9), 5)),
            ]
        );
        assert_eq!(pair_plan(&vs[..2], &ks[..2]).len(), 1);
    }

    #[test]
    fn only_search_outcomes_are_cacheable() {
        assert!(cacheable(&Ok(outcome(vec![1, 2]))));
        assert!(cacheable(&Err(RequestError {
            kind: ErrorKind::Search,
            message: "no candidate".into(),
        })));
        for kind in [ErrorKind::Timeout, ErrorKind::Internal, ErrorKind::Resolve] {
            assert!(!cacheable(&Err(RequestError { kind, message: "x".into() })));
        }
    }

    #[test]
    fn weight_counts_community_and_pair_members() {
        assert_eq!(outcome_weight(&Ok(outcome(vec![1, 2, 3]))), 3);
        let mut with_pairs = outcome(vec![1, 2, 3]);
        with_pairs.pairs = vec![
            crate::response::PairOutcome { ql: 1, qr: 2, result: Ok(vec![7, 8]) },
            crate::response::PairOutcome {
                ql: 1,
                qr: 3,
                result: Err(RequestError { kind: ErrorKind::Search, message: "x".into() }),
            },
        ];
        assert_eq!(outcome_weight(&Ok(with_pairs)), 5);
        // Never zero: errors and empty communities still cost one unit.
        assert_eq!(outcome_weight(&Ok(outcome(Vec::new()))), 1);
        assert_eq!(
            outcome_weight(&Err(RequestError {
                kind: ErrorKind::Search,
                message: "x".into()
            })),
            1
        );
    }
}
