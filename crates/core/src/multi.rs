//! Multi-labeled BCC search (Section 7, Algorithm 9).
//!
//! An mBCC (Definition 8) has `m ≥ 2` label groups, each a `k_i`-core, such
//! that the groups — linked by pairwise cross-group interactions (leader
//! pairs with χ ≥ b) — form one connected block (Definition 7's cross-group
//! connectivity, checked with union-find). The search framework is the same
//! greedy peel as Algorithm 1; all of Section 6's fast strategies carry
//! over, which is exactly how the paper builds its mBCC variants of
//! Online-BCC, LP-BCC, and L2P-BCC.

use bcc_graph::{GraphView, LabeledGraph, VertexId};

use crate::candidate::Candidate;
use crate::engine::{run_peel, EngineConfig};
use crate::index::BccIndex;
use crate::local::{butterfly_core_path, expand_candidate, PathWeights};
use crate::model::{BccResult, MbccParams, MbccQuery, SearchError};
use crate::stats::SearchStats;

/// Which engine strategy an mBCC search uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MultiStrategy {
    /// Algorithm 9 verbatim: recount butterflies per pair per iteration.
    Online,
    /// Algorithm 9 with fast distances + leader pairs per label pair.
    LeaderPair,
    /// Leader pairs + index-based local exploration seeded by
    /// butterfly-core weighted paths from `q_1` to every other query.
    Local {
        /// Candidate size threshold η.
        eta: usize,
        /// Path weight γ's of Definition 6.
        weights: PathWeights,
    },
}

/// The multi-labeled BCC searcher.
#[derive(Clone, Copy, Debug)]
pub struct MultiLabelBcc {
    /// Engine strategy (Online / LeaderPair / Local).
    pub strategy: MultiStrategy,
    /// Leader search radius ρ (used by LeaderPair and Local).
    pub rho: u32,
}

impl Default for MultiLabelBcc {
    fn default() -> Self {
        MultiLabelBcc {
            strategy: MultiStrategy::LeaderPair,
            rho: 3,
        }
    }
}

impl MultiLabelBcc {
    /// Convenience constructor for a given strategy.
    pub fn with_strategy(strategy: MultiStrategy) -> Self {
        MultiLabelBcc {
            strategy,
            rho: 3,
        }
    }

    /// Searches for a connected mBCC containing all queries with a small
    /// diameter. For `MultiStrategy::Local`, `index` must be provided.
    pub fn search(
        &self,
        graph: &LabeledGraph,
        index: Option<&BccIndex>,
        query: &MbccQuery,
        params: &MbccParams,
    ) -> Result<BccResult, SearchError> {
        let started = std::time::Instant::now();
        let mut stats = SearchStats::default();

        let (candidate, counts) = match self.strategy {
            MultiStrategy::Online | MultiStrategy::LeaderPair => {
                Candidate::find_g0(graph, query, params, &mut stats)?
            }
            MultiStrategy::Local { eta, weights } => {
                let index = index.expect("MultiStrategy::Local requires a BccIndex");
                let view = self.local_candidate(graph, index, query, params, eta, weights)?;
                Candidate::find_g0_in(view, query, params, &mut stats)?
            }
        };

        let config = match self.strategy {
            MultiStrategy::Online => EngineConfig::online(),
            MultiStrategy::LeaderPair | MultiStrategy::Local { .. } => {
                let mut c = EngineConfig::leader_pair();
                c.leader_rho = self.rho;
                c
            }
        };
        let outcome = run_peel(candidate, counts, config, &mut stats)?;
        stats.time_total = started.elapsed();
        Ok(BccResult {
            community: outcome.community,
            query_distance: outcome.query_distance,
            iterations: outcome.iterations,
            leaders: outcome.leaders,
            stats,
        })
    }

    /// Local exploration for m labels: weighted paths from `q_1` to every
    /// other query seed the expansion; each label's coreness floor is the
    /// minimum over its seed vertices (raised to the requested `k_i`).
    fn local_candidate<'g>(
        &self,
        graph: &'g LabeledGraph,
        index: &BccIndex,
        query: &MbccQuery,
        params: &MbccParams,
        eta: usize,
        weights: PathWeights,
    ) -> Result<GraphView<'g>, SearchError> {
        let m = query.queries.len();
        if m < 2 {
            return Err(SearchError::TooFewQueries);
        }
        for &q in &query.queries {
            if q.index() >= graph.vertex_count() {
                return Err(SearchError::QueryOutOfRange(q));
            }
        }
        let labels: Vec<_> = query.queries.iter().map(|&q| graph.label(q)).collect();
        let mut seeds: Vec<VertexId> = Vec::new();
        for &q in &query.queries[1..] {
            let path = butterfly_core_path(graph, index, weights, query.queries[0], q, &labels)
                .ok_or(SearchError::Disconnected)?;
            seeds.extend(path);
        }
        seeds.sort_unstable();
        seeds.dedup();

        let mut floors = Vec::with_capacity(m);
        for (i, &label) in labels.iter().enumerate() {
            let floor = seeds
                .iter()
                .filter(|&&v| graph.label(v) == label)
                .map(|&v| index.coreness(v))
                .min()
                .unwrap_or(0);
            floors.push((label, floor.max(params.ks[i])));
        }
        let selected = expand_candidate(graph, index, &seeds, &floors, eta);
        Ok(GraphView::from_vertices(graph, selected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::GraphBuilder;

    /// Three label groups A, B, C: A–B and B–C have butterflies, A–C has no
    /// direct cross edges — connectivity must flow through B (the Def. 7
    /// cross-group path).
    fn three_group_graph() -> (LabeledGraph, MbccQuery, MbccParams) {
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
        let bb: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("C")).collect();
        for grp in [&a, &bb, &c] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(grp[i], grp[j]);
                }
            }
        }
        for &x in &a[..2] {
            for &y in &bb[..2] {
                b.add_edge(x, y);
            }
        }
        for &x in &bb[..2] {
            for &y in &c[..2] {
                b.add_edge(x, y);
            }
        }
        let g = b.build();
        let query = MbccQuery::new(vec![a[0], bb[0], c[0]]);
        let params = MbccParams::new(vec![3, 3, 3], 1);
        (g, query, params)
    }

    #[test]
    fn three_labels_connected_through_middle() {
        let (g, query, params) = three_group_graph();
        for strategy in [MultiStrategy::Online, MultiStrategy::LeaderPair] {
            let searcher = MultiLabelBcc::with_strategy(strategy);
            let result = searcher.search(&g, None, &query, &params).unwrap();
            assert_eq!(result.community.len(), 12, "{strategy:?}: all three 4-cliques");
        }
    }

    #[test]
    fn local_strategy_matches() {
        let (g, query, params) = three_group_graph();
        let index = BccIndex::build(&g);
        let searcher = MultiLabelBcc::with_strategy(MultiStrategy::Local {
            eta: 64,
            weights: PathWeights::default(),
        });
        let result = searcher.search(&g, Some(&index), &query, &params).unwrap();
        assert!(query.queries.iter().all(|q| result.contains(q)));
        assert_eq!(result.community.len(), 12);
    }

    #[test]
    fn m2_reduces_to_two_label_bcc() {
        let (g, query, params) = three_group_graph();
        let two = MbccQuery::new(query.queries[..2].to_vec());
        let two_params = MbccParams::new(params.ks[..2].to_vec(), params.b);
        let result = MultiLabelBcc::default().search(&g, None, &two, &two_params).unwrap();
        // Only the A and B groups qualify; the C group carries a third label.
        assert_eq!(result.community.len(), 8);
    }

    #[test]
    fn broken_cross_connectivity_fails() {
        // A and C share no interaction, and without B in the query there is
        // no cross-group path between them.
        let (g, query, _params) = three_group_graph();
        let ac = MbccQuery::new(vec![query.queries[0], query.queries[2]]);
        let params = MbccParams::new(vec![3, 3], 1);
        let err = MultiLabelBcc::default().search(&g, None, &ac, &params).unwrap_err();
        assert!(
            err == SearchError::NoCandidate || err == SearchError::Disconnected,
            "{err:?}"
        );
    }

    #[test]
    fn rejects_duplicate_label_queries() {
        let (g, query, params) = three_group_graph();
        let dup = MbccQuery::new(vec![query.queries[0], VertexId(1), query.queries[1]]);
        let params = MbccParams::new(vec![3, 3, 3], params.b);
        let err = MultiLabelBcc::default().search(&g, None, &dup, &params).unwrap_err();
        assert_eq!(err, SearchError::DuplicateLabels);
    }

    use bcc_graph::{LabeledGraph, VertexId};
}
