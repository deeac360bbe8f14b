//! Public two-label search APIs: Online-BCC, LP-BCC, and L2P-BCC.
//!
//! * [`OnlineBcc`] — Algorithm 1 with the bulk-deletion optimization:
//!   full query-distance recomputation and a full butterfly recount per
//!   iteration. 2-approximates the optimal (smallest-diameter) BCC
//!   (Theorem 3).
//! * [`LpBcc`] — Online-BCC plus the fast query-distance computation
//!   (Algorithm 5) and the leader-pair strategy (Algorithms 6–7).
//! * [`L2pBcc`] — LP-BCC plus index-based local exploration (Algorithm 8):
//!   the search runs inside a small candidate expanded around a
//!   butterfly-core weighted path between the queries. Fast in practice but
//!   without the 2-approximation guarantee.

use bcc_graph::{GraphView, LabeledGraph};

use crate::candidate::Candidate;
use crate::engine::{run_peel, EngineConfig};
use crate::index::BccIndex;
use crate::local::{butterfly_core_path, expand_candidate, PathWeights};
use crate::model::{BccParams, BccQuery, BccResult, MbccParams, MbccQuery, SearchError};
use crate::stats::SearchStats;

fn to_multi(query: &BccQuery, params: &BccParams) -> (MbccQuery, MbccParams) {
    (
        MbccQuery::new(query.as_vec()),
        MbccParams::new(vec![params.k1, params.k2], params.b),
    )
}

fn finish(
    outcome: crate::engine::PeelOutcome,
    mut stats: SearchStats,
    started: std::time::Instant,
) -> BccResult {
    stats.time_total = started.elapsed();
    BccResult {
        community: outcome.community,
        query_distance: outcome.query_distance,
        iterations: outcome.iterations,
        leaders: outcome.leaders,
        stats,
    }
}

/// Algorithm 1: the online greedy search (with bulk deletion, as all of the
/// paper's evaluated methods use).
#[derive(Clone, Copy, Debug)]
pub struct OnlineBcc {
    /// Delete all farthest vertices per iteration (`true`, the paper's
    /// setting) or a single one (`false`, the literal Algorithm 1).
    pub bulk: bool,
    /// Worker threads for the per-query stages (`1` = sequential reference,
    /// `0` = all cores). Bit-identical results at any value.
    pub query_threads: usize,
}

impl Default for OnlineBcc {
    fn default() -> Self {
        OnlineBcc {
            bulk: true,
            query_threads: 1,
        }
    }
}

impl OnlineBcc {
    /// Sets the query-thread knob (builder style).
    pub fn with_query_threads(mut self, threads: usize) -> Self {
        self.query_threads = threads;
        self
    }

    /// Searches for a `(k1, k2, b)`-BCC containing the query pair.
    pub fn search(
        &self,
        graph: &LabeledGraph,
        query: &BccQuery,
        params: &BccParams,
    ) -> Result<BccResult, SearchError> {
        let started = std::time::Instant::now();
        let mut stats = SearchStats::default();
        let (mquery, mparams) = to_multi(query, params);
        let (candidate, counts) =
            Candidate::find_g0_threaded(graph, &mquery, &mparams, self.query_threads, &mut stats)?;
        let mut config = EngineConfig::online().with_query_threads(self.query_threads);
        config.bulk = self.bulk;
        let outcome = run_peel(candidate, counts, config, &mut stats)?;
        Ok(finish(outcome, stats, started))
    }
}

/// LP-BCC: Online-BCC accelerated with Algorithm 5 (fast query distances)
/// and Algorithms 6–7 (leader-pair butterfly maintenance).
#[derive(Clone, Copy, Debug)]
pub struct LpBcc {
    /// Bulk deletion (paper default: on).
    pub bulk: bool,
    /// Leader search radius ρ of Algorithm 6.
    pub rho: u32,
    /// Worker threads for the per-query stages (`1` = sequential reference,
    /// `0` = all cores). Bit-identical results at any value.
    pub query_threads: usize,
}

impl Default for LpBcc {
    fn default() -> Self {
        LpBcc {
            bulk: true,
            rho: 3,
            query_threads: 1,
        }
    }
}

impl LpBcc {
    /// Sets the query-thread knob (builder style).
    pub fn with_query_threads(mut self, threads: usize) -> Self {
        self.query_threads = threads;
        self
    }

    /// Searches for a `(k1, k2, b)`-BCC containing the query pair.
    pub fn search(
        &self,
        graph: &LabeledGraph,
        query: &BccQuery,
        params: &BccParams,
    ) -> Result<BccResult, SearchError> {
        let started = std::time::Instant::now();
        let mut stats = SearchStats::default();
        let (mquery, mparams) = to_multi(query, params);
        let (candidate, counts) =
            Candidate::find_g0_threaded(graph, &mquery, &mparams, self.query_threads, &mut stats)?;
        let mut config = EngineConfig::leader_pair().with_query_threads(self.query_threads);
        config.bulk = self.bulk;
        config.leader_rho = self.rho;
        let outcome = run_peel(candidate, counts, config, &mut stats)?;
        Ok(finish(outcome, stats, started))
    }
}

/// L2P-BCC: leader-pair local search (Algorithm 8) over the offline
/// [`BccIndex`].
#[derive(Clone, Copy, Debug)]
pub struct L2pBcc {
    /// Candidate size threshold η of Algorithm 8 line 3.
    pub eta: usize,
    /// Butterfly-core path weights (Definition 6); the paper uses 0.5/0.5.
    pub weights: PathWeights,
    /// Leader search radius ρ.
    pub rho: u32,
    /// Worker threads for the per-query stages (`1` = sequential reference,
    /// `0` = all cores). Bit-identical results at any value.
    pub query_threads: usize,
}

impl Default for L2pBcc {
    fn default() -> Self {
        L2pBcc {
            eta: 2048,
            weights: PathWeights::default(),
            rho: 3,
            query_threads: 1,
        }
    }
}

impl L2pBcc {
    /// Sets the query-thread knob (builder style).
    pub fn with_query_threads(mut self, threads: usize) -> Self {
        self.query_threads = threads;
        self
    }

    /// Searches for a `(k1, k2, b)`-BCC containing the query pair, using
    /// `index` (built once with [`BccIndex::build`]) for the path weight and
    /// the expansion floors.
    pub fn search(
        &self,
        graph: &LabeledGraph,
        index: &BccIndex,
        query: &BccQuery,
        params: &BccParams,
    ) -> Result<BccResult, SearchError> {
        let started = std::time::Instant::now();
        let mut stats = SearchStats::default();
        let (mquery, mparams) = to_multi(query, params);
        for &q in &mquery.queries {
            if q.index() >= graph.vertex_count() {
                return Err(SearchError::QueryOutOfRange(q));
            }
        }

        // Algorithm 8 line 1: butterfly-core weighted path between queries.
        let (ll, lr) = (graph.label(query.ql), graph.label(query.qr));
        if ll == lr {
            return Err(SearchError::DuplicateLabels);
        }
        let path = butterfly_core_path(graph, index, self.weights, query.ql, query.qr, &[ll, lr])
            .ok_or(SearchError::Disconnected)?;

        // Line 2: per-label coreness floors along the path.
        let kl = path
            .iter()
            .filter(|&&v| graph.label(v) == ll)
            .map(|&v| index.coreness(v))
            .min()
            .unwrap_or(0);
        let kr = path
            .iter()
            .filter(|&&v| graph.label(v) == lr)
            .map(|&v| index.coreness(v))
            .min()
            .unwrap_or(0);
        // The candidate can never certify more than the requested cores, so
        // raise the floors to the requested k's when those are higher.
        let floors = vec![(ll, kl.max(mparams.ks[0])), (lr, kr.max(mparams.ks[1]))];

        // Line 3: expand into a candidate of ≈ η vertices.
        let selected = expand_candidate(graph, index, &path, &floors, self.eta);
        let local_view = GraphView::from_vertices(graph, selected);

        // Lines 4–5: extract the BCC inside the candidate and bulk-peel it
        // with the LP strategies.
        let (candidate, counts) = Candidate::find_g0_in_threaded(
            local_view,
            &mquery,
            &mparams,
            self.query_threads,
            &mut stats,
        )?;
        let mut config = EngineConfig::leader_pair().with_query_threads(self.query_threads);
        config.leader_rho = self.rho;
        let outcome = run_peel(candidate, counts, config, &mut stats)?;
        Ok(finish(outcome, stats, started))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::is_valid_bcc;
    use bcc_graph::{GraphBuilder, GraphView, VertexId};

    /// A Figure 1-like professional network: an SE 4-core (6 vertices), a UI
    /// 3-core (5 vertices), one butterfly between them, an SE appendage that
    /// inflates distances, and a PM vertex that must never appear.
    fn figure1_like() -> (bcc_graph::LabeledGraph, BccQuery) {
        let mut b = GraphBuilder::new();
        let se: Vec<_> = (0..6).map(|i| b.add_named_vertex(&format!("se{i}"), "SE")).collect();
        let ui: Vec<_> = (0..5).map(|i| b.add_named_vertex(&format!("ui{i}"), "UI")).collect();
        // SE side: 6 vertices, each pair connected except one missing edge →
        // still a 4-core.
        for i in 0..6 {
            for j in (i + 1)..6 {
                if !(i == 4 && j == 5) {
                    b.add_edge(se[i], se[j]);
                }
            }
        }
        // UI side: 5-clique minus nothing → 4-core; keep it a 3-core by
        // removing two edges.
        for i in 0..5 {
            for j in (i + 1)..5 {
                if !((i == 0 && j == 4) || (i == 1 && j == 3)) {
                    b.add_edge(ui[i], ui[j]);
                }
            }
        }
        // Butterfly: se0, se1 × ui0, ui1.
        for &s in &se[..2] {
            for &u in &ui[..2] {
                b.add_edge(s, u);
            }
        }
        // PM vertex touching both sides.
        let pm = b.add_named_vertex("pm0", "PM");
        b.add_edge(pm, se[0]);
        b.add_edge(pm, ui[0]);
        // Distant SE blob hanging off se5: a 5-clique connected by 4 edges.
        let blob: Vec<_> = (0..5).map(|i| b.add_named_vertex(&format!("blob{i}"), "SE")).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(blob[i], blob[j]);
            }
        }
        for &x in &blob[..4] {
            b.add_edge(se[5], x);
        }
        let g = b.build();
        (g, BccQuery::pair(se[0], ui[0]))
    }

    #[test]
    fn online_finds_valid_community() {
        let (g, q) = figure1_like();
        let params = BccParams::new(4, 3, 1);
        let result = OnlineBcc::default().search(&g, &q, &params).unwrap();
        let view = GraphView::from_vertices(&g, result.community.iter().copied());
        assert!(is_valid_bcc(&view, &q, &params), "community: {:?}", result.community);
        assert!(result.contains(&q.ql) && result.contains(&q.qr));
        // The PM vertex is excluded by the label restriction.
        let pm = g.vertex_by_name("pm0").unwrap();
        assert!(!result.contains(&pm));
    }

    #[test]
    fn all_three_methods_agree_on_validity() {
        let (g, q) = figure1_like();
        let params = BccParams::new(4, 3, 1);
        let online = OnlineBcc::default().search(&g, &q, &params).unwrap();
        let lp = LpBcc::default().search(&g, &q, &params).unwrap();
        let index = BccIndex::build(&g);
        let l2p = L2pBcc::default().search(&g, &index, &q, &params).unwrap();
        for (name, result) in [("online", &online), ("lp", &lp), ("l2p", &l2p)] {
            let view = GraphView::from_vertices(&g, result.community.iter().copied());
            assert!(is_valid_bcc(&view, &q, &params), "{name}: {:?}", result.community);
        }
        // Online and LP run the identical peel order, so identical answers.
        assert_eq!(online.community, lp.community);
        assert_eq!(online.query_distance, lp.query_distance);
    }

    #[test]
    fn blob_is_peeled_from_answer() {
        let (g, q) = figure1_like();
        let params = BccParams::new(4, 3, 1);
        let result = LpBcc::default().search(&g, &q, &params).unwrap();
        for i in 0..5 {
            let blob = g.vertex_by_name(&format!("blob{i}")).unwrap();
            assert!(!result.contains(&blob), "blob{i} should be peeled");
        }
    }

    #[test]
    fn errors_surface() {
        let (g, q) = figure1_like();
        let index = BccIndex::build(&g);
        // Same-label queries.
        let err = OnlineBcc::default()
            .search(&g, &BccQuery::pair(q.ql, q.ql), &BccParams::new(1, 1, 1))
            .unwrap_err();
        assert_eq!(err, SearchError::DuplicateLabels);
        let err = L2pBcc::default()
            .search(
                &g,
                &index,
                &BccQuery::pair(q.ql, q.ql),
                &BccParams::new(1, 1, 1),
            )
            .unwrap_err();
        assert_eq!(err, SearchError::DuplicateLabels);
        // Out of range, on either side.
        let far = VertexId(10_000);
        let err = OnlineBcc::default()
            .search(&g, &BccQuery::pair(q.ql, far), &BccParams::new(1, 1, 1))
            .unwrap_err();
        assert!(matches!(err, SearchError::QueryOutOfRange(_)));
        for query in [BccQuery::pair(far, q.qr), BccQuery::pair(q.ql, far)] {
            let err = L2pBcc::default()
                .search(&g, &index, &query, &BccParams::new(1, 1, 1))
                .unwrap_err();
            assert_eq!(err, SearchError::QueryOutOfRange(far));
        }
        // Impossible butterfly threshold.
        let err = OnlineBcc::default()
            .search(&g, &q, &BccParams::new(4, 3, 100))
            .unwrap_err();
        assert_eq!(err, SearchError::NoCandidate);
    }

    #[test]
    fn lp_stats_record_fast_strategies() {
        let (g, q) = figure1_like();
        let params = BccParams::new(4, 3, 1);
        let lp = LpBcc::default().search(&g, &q, &params).unwrap();
        assert!(lp.stats.incremental_dist_updates > 0 || lp.iterations == 0);
        let online = OnlineBcc::default().search(&g, &q, &params).unwrap();
        assert!(
            lp.stats.butterfly_countings <= online.stats.butterfly_countings,
            "LP must not count butterflies more often than Online"
        );
    }

    #[test]
    fn query_threads_do_not_change_any_result() {
        let (g, q) = figure1_like();
        let params = BccParams::new(4, 3, 1);
        let index = BccIndex::build(&g);
        let online_ref = OnlineBcc::default().search(&g, &q, &params).unwrap();
        let lp_ref = LpBcc::default().search(&g, &q, &params).unwrap();
        let l2p_ref = L2pBcc::default().search(&g, &index, &q, &params).unwrap();
        for threads in [2usize, 3, 7, 0] {
            let online = OnlineBcc::default()
                .with_query_threads(threads)
                .search(&g, &q, &params)
                .unwrap();
            assert_eq!(online.community, online_ref.community, "threads={threads}");
            assert_eq!(online.query_distance, online_ref.query_distance);
            assert_eq!(online.leaders, online_ref.leaders, "threads={threads}");
            let lp = LpBcc::default()
                .with_query_threads(threads)
                .search(&g, &q, &params)
                .unwrap();
            assert_eq!(lp.community, lp_ref.community, "threads={threads}");
            assert_eq!(lp.leaders, lp_ref.leaders, "threads={threads}");
            let l2p = L2pBcc::default()
                .with_query_threads(threads)
                .search(&g, &index, &q, &params)
                .unwrap();
            assert_eq!(l2p.community, l2p_ref.community, "threads={threads}");
            assert_eq!(l2p.leaders, l2p_ref.leaders, "threads={threads}");
        }
    }

    #[test]
    fn auto_params_run() {
        let (g, q) = figure1_like();
        let params = BccParams::auto(&g, &q);
        assert!(params.k1 >= 4, "se0 sits in a 4-core");
        let result = OnlineBcc::default().search(&g, &q, &params);
        assert!(result.is_ok(), "{result:?}");
    }
}
