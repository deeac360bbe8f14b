//! Differential pins for the LP peel's two incremental halves.
//!
//! * Query distances: after every deletion batch — a random multi-vertex
//!   batch plus the label-core cascade `Candidate::remove_batch` adds to
//!   it — each query's incrementally updated distance array must equal a
//!   fresh BFS on the same view.
//! * Whole searches: Online-BCC re-runs BFS and recounts every butterfly in
//!   every iteration, so it is an independent oracle for LP-BCC's
//!   decremental distances and its per-batch leader χ refresh. Both must
//!   return the same community, query distance, iteration count and
//!   leaders, for pairs and for m = 3 queries.

use bcc_core::candidate::Candidate;
use bcc_core::{
    BccParams, BccQuery, BccResult, IncrementalDistances, LpBcc, MbccParams, MbccQuery,
    MultiLabelBcc, MultiStrategy, OnlineBcc, SearchError, SearchStats,
};
use bcc_datasets::{PlantedConfig, PlantedNetwork, QueryConstraints};
use bcc_graph::{GraphView, LabeledGraph, VertexId};
use rand::{Rng, SeedableRng};

fn planted(seed: u64, communities: usize, size: (usize, usize), groups: usize) -> PlantedNetwork {
    PlantedNetwork::generate(PlantedConfig {
        communities,
        community_size: size,
        groups_per_community: groups,
        label_pool: groups,
        seed,
        ..Default::default()
    })
}

/// Per-label coreness of every vertex: the paper's default `k` of a query.
fn coreness(graph: &LabeledGraph) -> Vec<u32> {
    bcc_cohesion::label_core_decomposition(&GraphView::new(graph))
}

fn assert_matches_fresh(view: &GraphView<'_>, inc: &IncrementalDistances, context: &str) {
    for (qi, &q) in inc.queries.iter().enumerate() {
        let fresh = bcc_graph::bfs_distances(view, q);
        if let Some(v) = (0..fresh.len()).find(|&v| inc.dist[qi][v] != fresh[v]) {
            panic!(
                "{context}: query {q}, vertex v{v}: incremental {} vs fresh {}",
                inc.dist[qi][v], fresh[v]
            );
        }
    }
}

/// Peels one candidate with random batches and checks the distances after
/// every batch. Returns (batches, vertices deleted, vertices in batches).
fn peel_randomly(
    graph: &LabeledGraph,
    query: &MbccQuery,
    params: &MbccParams,
    rng: &mut impl Rng,
    context: &str,
) -> Option<(usize, usize, usize)> {
    let mut stats = SearchStats::default();
    let (mut candidate, _) = Candidate::find_g0(graph, query, params, &mut stats).ok()?;
    let mut dists = IncrementalDistances::compute(&candidate.view, &query.queries, &mut stats);
    let (mut batches, mut deleted, mut picked) = (0, 0, 0);
    while candidate.queries_alive() && batches < 40 {
        let alive: Vec<VertexId> = candidate
            .view
            .alive_vertices()
            .filter(|v| !query.queries.contains(v))
            .collect();
        if alive.is_empty() {
            break;
        }
        // Half the batches are the LP peel's own: the farthest shell.
        let batch: Vec<VertexId> = if rng.gen_bool(0.5) {
            let (farthest, _) = dists.farthest_vertices(&candidate.view);
            farthest
                .into_iter()
                .filter(|v| !query.queries.contains(v))
                .collect()
        } else {
            let size = rng.gen_range(1..=alive.len().min(12));
            (0..size)
                .map(|_| alive[rng.gen_range(0..alive.len())])
                .collect()
        };
        let removed = candidate.remove_batch(&batch);
        dists.update_after_removal(&candidate.view, &removed, &mut stats);
        assert_matches_fresh(
            &candidate.view,
            &dists,
            &format!("{context}, batch {batches}"),
        );
        batches += 1;
        deleted += removed.len();
        picked += batch.iter().filter(|v| removed.contains(v)).count();
    }
    Some((batches, deleted, picked))
}

#[test]
fn decremental_distances_match_fresh_bfs_under_cascading_batches() {
    let (mut batches, mut deleted, mut picked) = (0, 0, 0);
    for (seed, communities, size, groups) in [
        (1u64, 12, (12, 30), 2),
        (2, 30, (20, 60), 2),
        (3, 20, (15, 40), 3),
        (4, 6, (40, 80), 2),
    ] {
        let net = planted(seed, communities, size, groups);
        let core = coreness(&net.graph);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let queries = bcc_datasets::mbcc_queries(&net, groups, 8, seed);
        for (i, q) in queries.iter().enumerate() {
            let query = MbccQuery::new(q.vertices.clone());
            // Alternate the paper's default k (coreness) with a loose k = 2,
            // which keeps more of the graph and deepens the cascades.
            let ks = if i % 2 == 0 {
                q.vertices.iter().map(|v| core[v.index()]).collect()
            } else {
                vec![2; groups]
            };
            let params = MbccParams::new(ks, 1);
            let context = format!("seed {seed}, query {i}");
            if let Some((b, d, p)) = peel_randomly(&net.graph, &query, &params, &mut rng, &context)
            {
                batches += b;
                deleted += d;
                picked += p;
            }
        }
    }
    assert!(batches >= 100, "only {batches} batches exercised");
    assert!(
        deleted > picked,
        "no batch cascaded: {deleted} deleted, {picked} picked"
    );
}

/// The parts of a search answer that must not depend on the strategy.
fn answer(
    result: Result<BccResult, SearchError>,
) -> Result<(Vec<VertexId>, u32, usize, Vec<VertexId>), SearchError> {
    result.map(|r| (r.community, r.query_distance, r.iterations, r.leaders))
}

#[test]
fn lp_matches_online_on_planted_pairs() {
    let mut found = 0;
    for seed in [11u64, 12, 13] {
        let net = planted(seed, 25, (20, 50), 2);
        let core = coreness(&net.graph);
        let constraints = QueryConstraints {
            degree_rank: 0,
            inter_distance: None,
        };
        let queries = bcc_datasets::random_community_queries(&net, 20, constraints, seed);
        for (i, q) in queries.iter().enumerate() {
            let (ql, qr) = (q.vertices[0], q.vertices[1]);
            let query = BccQuery::pair(ql, qr);
            let params = if i % 2 == 0 {
                BccParams::new(core[ql.index()], core[qr.index()], 1)
            } else {
                BccParams::new(2, 2, 1 + i as u64 % 3)
            };
            let lp = answer(LpBcc::default().search(&net.graph, &query, &params));
            let online = answer(OnlineBcc::default().search(&net.graph, &query, &params));
            assert_eq!(
                lp, online,
                "seed {seed}, query {i} ({ql}, {qr}), {params:?}"
            );
            found += usize::from(lp.is_ok());
        }
    }
    assert!(found >= 30, "only {found} pair queries found a community");
}

#[test]
fn leader_pair_matches_online_for_three_labels() {
    let mut found = 0;
    for seed in [21u64, 22, 23] {
        let net = planted(seed, 20, (24, 60), 3);
        let core = coreness(&net.graph);
        for (i, q) in bcc_datasets::mbcc_queries(&net, 3, 15, seed)
            .iter()
            .enumerate()
        {
            let query = MbccQuery::new(q.vertices.clone());
            let params = if i % 2 == 0 {
                MbccParams::new(q.vertices.iter().map(|v| core[v.index()]).collect(), 1)
            } else {
                MbccParams::uniform(3, 2, 1)
            };
            let search = |strategy| {
                answer(
                    MultiLabelBcc::with_strategy(strategy)
                        .search(&net.graph, None, &query, &params),
                )
            };
            let lp = search(MultiStrategy::LeaderPair);
            let online = search(MultiStrategy::Online);
            assert_eq!(
                lp, online,
                "seed {seed}, query {i} {:?}, {params:?}",
                q.vertices
            );
            found += usize::from(lp.is_ok());
        }
    }
    assert!(found >= 20, "only {found} m = 3 queries found a community");
}
