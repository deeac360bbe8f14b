//! The greedy peeling engine behind Algorithms 1 and 9.
//!
//! One loop serves every search variant:
//!
//! * **Online** — full BFS re-computation and a full butterfly recount per
//!   iteration (Algorithm 1 verbatim, with the bulk-deletion optimization of
//!   Section 6 that all of the paper's methods use).
//! * **Leader-pair (LP)** — Algorithm 5 incremental distances plus the
//!   Algorithm 6/7 leader strategy: after each deletion batch only the two
//!   leaders' butterfly degrees are refreshed, and a full recount happens
//!   only when a leader dies or sinks below `b`.
//!
//! The loop records, per iteration, the candidate's query distance and the
//! batch of vertices it deleted; the answer is reconstructed by replaying
//! deletions up to the best snapshot (Theorem 3's 2-approximation argument
//! needs exactly the minimum-query-distance intermediate graph).

use bcc_butterfly::{butterfly_degree_of, identify_leader, ButterflyCounts, LeaderConfig};
use bcc_graph::{GraphView, VertexId};

use crate::candidate::Candidate;
use crate::fast_dist::IncrementalDistances;
use crate::model::SearchError;
use crate::stats::{timed, SearchStats};

/// Which optimizations of Section 6 the engine applies.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Delete every farthest vertex per iteration instead of one.
    pub bulk: bool,
    /// Maintain query distances with Algorithm 5 instead of full BFS.
    pub fast_dist: bool,
    /// Maintain butterfly degrees through leader pairs (Algorithms 6–7)
    /// instead of recounting each iteration.
    pub leader_pairs: bool,
    /// Leader search radius ρ of Algorithm 6.
    pub leader_rho: u32,
}

impl EngineConfig {
    /// Online-BCC: bulk deletion only.
    pub fn online() -> Self {
        EngineConfig {
            bulk: true,
            fast_dist: false,
            leader_pairs: false,
            leader_rho: 3,
        }
    }

    /// LP-BCC: bulk deletion + fast distances + leader pairs.
    pub fn leader_pair() -> Self {
        EngineConfig {
            bulk: true,
            fast_dist: true,
            leader_pairs: true,
            leader_rho: 3,
        }
    }
}

/// The leader pair of one label pair.
#[derive(Clone, Copy, Debug)]
struct PairLeaders {
    left: VertexId,
    right: VertexId,
}

/// Output of the peel loop before it is packaged into a
/// [`crate::BccResult`].
pub struct PeelOutcome {
    /// Sorted community members.
    pub community: Vec<VertexId>,
    /// Query distance of the returned community.
    pub query_distance: u32,
    /// Iterations executed.
    pub iterations: usize,
    /// Certified leader per query label (maximum-butterfly member of each
    /// group within the final community), in query order.
    pub leaders: Vec<VertexId>,
}

/// Runs the greedy peel of Algorithm 1/9 on a prepared candidate.
pub fn run_peel(
    mut candidate: Candidate<'_>,
    pair_counts: Vec<ButterflyCounts>,
    config: EngineConfig,
    stats: &mut SearchStats,
) -> Result<PeelOutcome, SearchError> {
    let graph = candidate.view.graph();
    let queries = candidate.queries.clone();
    let b = candidate.b;

    // Seed the leader pairs from the G0 counts (Algorithm 6).
    let mut leaders: Vec<Option<PairLeaders>> = vec![None; candidate.pairs.len()];
    if config.leader_pairs {
        let start = std::time::Instant::now();
        for (idx, counts) in pair_counts.iter().enumerate() {
            if candidate.pair_alive[idx] {
                leaders[idx] = Some(pick_leaders(&candidate, idx, counts, config.leader_rho));
            }
        }
        stats.time_leader_update += start.elapsed();
    }

    let mut dists = IncrementalDistances::compute(&candidate.view, &queries, stats);
    let mut batches: Vec<Vec<VertexId>> = Vec::new();
    let mut snapshots: Vec<u32> = Vec::new();

    loop {
        // Loop guard (Algorithm 1 line 3): all queries alive and mutually
        // connected.
        if !candidate.queries_alive() {
            break;
        }
        if !config.fast_dist && !batches.is_empty() {
            dists = IncrementalDistances::compute(&candidate.view, &queries, stats);
        }
        if !dists.queries_connected() {
            break;
        }

        // Snapshot the (valid) candidate's query distance (line 6).
        let start = std::time::Instant::now();
        let (farthest, max_qd) = dists.farthest_vertices(&candidate.view);
        stats.time_query_distance += start.elapsed();
        snapshots.push(max_qd);
        if max_qd == 0 {
            break; // nothing farther than the queries themselves
        }

        // Delete the farthest vertex/vertices (line 7 + bulk deletion).
        let batch: Vec<VertexId> = if config.bulk {
            farthest
        } else {
            vec![farthest[0]]
        };
        let removed = candidate.remove_batch(&batch);
        stats.vertices_deleted += removed.len() as u64;
        stats.iterations += 1;
        if config.fast_dist {
            dists.update_after_removal(&candidate.view, &removed, stats);
        }
        batches.push(removed);

        // Butterfly-core maintenance (Algorithm 4 line 4).
        #[allow(clippy::needless_range_loop)] // leaders[idx] and candidate.pair_alive[idx] are co-indexed
        for idx in 0..candidate.pairs.len() {
            if !candidate.pair_alive[idx] {
                continue;
            }
            if config.leader_pairs {
                let view = &candidate.view;
                let needs_recount = match leaders[idx] {
                    Some(pl) if view.is_alive(pl.left) && view.is_alive(pl.right) => {
                        // Algorithm 7, once per batch: each butterfly through
                        // a leader that the batch destroyed dies exactly
                        // once, so the per-deletion decrements sum to the
                        // drop in the leader's χ — which one count on the
                        // post-batch view gives directly.
                        let cross = candidate.cross_of(idx);
                        let (chi_left, chi_right) = timed(&mut stats.time_leader_update, || {
                            (
                                butterfly_degree_of(view, cross, pl.left),
                                butterfly_degree_of(view, cross, pl.right),
                            )
                        });
                        stats.leader_updates += 2;
                        chi_left < b || chi_right < b
                    }
                    _ => true,
                };
                if needs_recount {
                    let counts = candidate.recount_pair(idx, stats);
                    leaders[idx] = if candidate.pair_alive[idx] {
                        let t = std::time::Instant::now();
                        let picked = pick_leaders(&candidate, idx, &counts, config.leader_rho);
                        stats.time_leader_update += t.elapsed();
                        Some(picked)
                    } else {
                        None
                    };
                }
            } else {
                candidate.recount_pair(idx, stats);
            }
        }
        if !candidate.cross_group_connected() {
            break;
        }
    }

    if snapshots.is_empty() {
        // find_g0 guarantees a connected first snapshot; defensive only.
        return Err(SearchError::Disconnected);
    }

    // Best snapshot: the *last* index attaining the minimum query distance
    // (same distance, fewer vertices — the most concise community).
    let min_qd = *snapshots.iter().min().expect("non-empty");
    let best = snapshots
        .iter()
        .rposition(|&qd| qd == min_qd)
        .expect("minimum exists");

    // Replay deletions 0..best over the saved G0 alive set.
    let mut alive = candidate.g0_alive.clone();
    for batch in &batches[..best] {
        for v in batch {
            alive.remove(v.index());
        }
    }
    let final_view = GraphView::from_alive(graph, alive);
    let comp = final_view.component_of(queries[0]);
    let community: Vec<VertexId> = comp.iter().map(|i| VertexId(i as u32)).collect();
    debug_assert!(
        queries.iter().all(|q| comp.contains(q.index())),
        "the best snapshot must contain all queries"
    );

    // Certify the leader pair(s) of the returned community (Section 3.3):
    // per label group, its maximum-butterfly member across the group's
    // cross-graphs.
    let community_view = GraphView::from_alive(graph, comp);
    let mut leader_of: Vec<VertexId> = queries.clone();
    let mut best_chi: Vec<u64> = vec![0; candidate.labels.len()];
    for idx in 0..candidate.pairs.len() {
        let (i, j) = candidate.pairs[idx];
        let counts = ButterflyCounts::compute(&community_view, candidate.cross_of(idx));
        for (side, label) in [(i, candidate.labels[i]), (j, candidate.labels[j])] {
            if let Some(v) = counts.side_argmax(&community_view, label) {
                if counts.chi(v) > best_chi[side] {
                    best_chi[side] = counts.chi(v);
                    leader_of[side] = v;
                }
            }
        }
    }

    Ok(PeelOutcome {
        community,
        query_distance: min_qd,
        iterations: batches.len(),
        leaders: leader_of,
    })
}

/// Algorithm 6 for both sides of pair `idx`.
fn pick_leaders(
    candidate: &Candidate<'_>,
    idx: usize,
    counts: &ButterflyCounts,
    rho: u32,
) -> PairLeaders {
    let (i, j) = candidate.pairs[idx];
    let config = LeaderConfig {
        rho,
        b: candidate.b,
    };
    let left = identify_leader(
        &candidate.view,
        candidate.labels[i],
        candidate.queries[i],
        &counts.chi,
        config,
    );
    let right = identify_leader(
        &candidate.view,
        candidate.labels[j],
        candidate.queries[j],
        &counts.chi,
        config,
    );
    PairLeaders { left, right }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MbccParams, MbccQuery};
    use bcc_graph::{GraphBuilder, LabeledGraph};

    /// Figure 2-style BCC plus a long tail on the left side that inflates
    /// the query distance and must be peeled away.
    fn tailed_bcc() -> (LabeledGraph, MbccQuery, MbccParams) {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..5).map(|_| b.add_vertex("L")).collect();
        let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(l[i], l[j]);
            }
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(r[i], r[j]);
            }
        }
        for &x in &l[..2] {
            for &y in &r[..2] {
                b.add_edge(x, y);
            }
        }
        // Tail: a chain of triangles hanging off l4, each vertex with
        // intra-degree >= 2 so a 2-core would keep them; with k1 = 3 they
        // are peeled immediately, so use a second dense blob instead: a
        // 4-clique attached to l4 by 3 edges (so its members survive k=3).
        let t: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(t[i], t[j]);
            }
        }
        for &x in &t[..3] {
            b.add_edge(l[4], x);
        }
        let g = b.build();
        let query = MbccQuery::new(vec![l[0], r[0]]);
        let params = MbccParams::new(vec![3, 3], 1);
        (g, query, params)
    }

    fn run(
        g: &LabeledGraph,
        query: &MbccQuery,
        params: &MbccParams,
        config: EngineConfig,
    ) -> (PeelOutcome, SearchStats) {
        let mut stats = SearchStats::default();
        let (candidate, counts) = Candidate::find_g0(g, query, params, &mut stats).unwrap();
        let outcome = run_peel(candidate, counts, config, &mut stats).unwrap();
        (outcome, stats)
    }

    #[test]
    fn online_peels_the_tail() {
        let (g, query, params) = tailed_bcc();
        let (outcome, stats) = run(&g, &query, &params, EngineConfig::online());
        // The tail blob is farther from the queries than the core community
        // and must be gone.
        for tail in 9..13u32 {
            assert!(
                !outcome.community.contains(&VertexId(tail)),
                "tail vertex v{tail} should be peeled"
            );
        }
        assert!(outcome.community.contains(&VertexId(0)));
        assert!(outcome.community.contains(&VertexId(5)));
        assert!(stats.butterfly_countings >= 1);
        assert!(outcome.query_distance <= 2);
    }

    #[test]
    fn lp_matches_online_community() {
        let (g, query, params) = tailed_bcc();
        let (online, _) = run(&g, &query, &params, EngineConfig::online());
        let (lp, lp_stats) = run(&g, &query, &params, EngineConfig::leader_pair());
        assert_eq!(online.community, lp.community);
        assert_eq!(online.query_distance, lp.query_distance);
        // The leader strategy should not recount more often than online did.
        assert!(lp_stats.incremental_dist_updates > 0);
    }

    #[test]
    fn single_deletion_mode_also_terminates() {
        let (g, query, params) = tailed_bcc();
        let mut config = EngineConfig::online();
        config.bulk = false;
        let (outcome, _) = run(&g, &query, &params, config);
        assert!(outcome.community.contains(&VertexId(0)));
        assert!(outcome.community.contains(&VertexId(5)));
    }

    /// Pins the Definition 4(4) semantics at the leader-certification call
    /// site below (`counts.side_argmax` in `run_peel`): a label pair whose
    /// cross-graph holds **no** butterflies nominates no leader at all
    /// (`side_argmax` returns `None`, never an arbitrary χ = 0 vertex), so
    /// every certified leader comes from a pair that does have butterflies.
    #[test]
    fn certified_leaders_come_only_from_butterfly_pairs() {
        // Three 4-cliques A, B, C; butterflies A×B ({a0,a1}×{b0,b1}) and
        // B×C ({b2,b3}×{c0,c1}); no A–C cross edge at all, so the (A, C)
        // pair counts zero butterflies on both sides while staying part of
        // a connected (Definition 7) candidate through B.
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
        let mid: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("C")).collect();
        for grp in [&a, &mid, &c] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(grp[i], grp[j]);
                }
            }
        }
        for &x in &a[..2] {
            for &y in &mid[..2] {
                b.add_edge(x, y);
            }
        }
        for &x in &mid[2..] {
            for &y in &c[..2] {
                b.add_edge(x, y);
            }
        }
        let g = b.build();
        let query = MbccQuery::new(vec![a[0], mid[0], c[0]]);
        let params = MbccParams::new(vec![3, 3, 3], 1);
        let (outcome, _) = run(&g, &query, &params, EngineConfig::online());
        assert_eq!(outcome.community.len(), 12, "nothing needs peeling");
        // Side A certifies through the A×B butterflies, side C through
        // B×C; the butterfly-less (A, C) pair contributes nothing.
        assert!(a[..2].contains(&outcome.leaders[0]), "A leader {:?}", outcome.leaders);
        assert!(mid[..2].contains(&outcome.leaders[1]), "B leader {:?}", outcome.leaders);
        assert!(c[..2].contains(&outcome.leaders[2]), "C leader {:?}", outcome.leaders);
    }

    #[test]
    fn result_is_valid_bcc() {
        let (g, query, params) = tailed_bcc();
        let (outcome, _) = run(&g, &query, &params, EngineConfig::leader_pair());
        let view = GraphView::from_vertices(&g, outcome.community.iter().copied());
        let bcc_query = crate::model::BccQuery::pair(query.queries[0], query.queries[1]);
        let bcc_params = crate::model::BccParams::new(3, 3, 1);
        assert!(crate::model::is_valid_bcc(&view, &bcc_query, &bcc_params));
    }
}
