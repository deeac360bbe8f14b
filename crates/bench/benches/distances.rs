//! Criterion micro-benchmarks for query-distance maintenance: full BFS
//! recomputation versus the Algorithm 5 incremental update (the ablation
//! behind Section 6.1 and the first row of Table 4), for a single far
//! deletion and for one real LP deletion batch.

use criterion::{criterion_group, criterion_main, Criterion};

use bcc_core::candidate::Candidate;
use bcc_core::{IncrementalDistances, MbccParams, MbccQuery, SearchStats};
use bcc_datasets::{PlantedConfig, PlantedNetwork, QueryConstraints};
use bcc_graph::{GraphView, VertexId};

fn fixture() -> PlantedNetwork {
    PlantedNetwork::generate(PlantedConfig {
        communities: 60,
        community_size: (30, 50),
        ..Default::default()
    })
}

fn bench_distance_maintenance(c: &mut Criterion) {
    let net = fixture();
    let graph = &net.graph;
    let queries = [VertexId(0), VertexId(20)];

    let mut group = c.benchmark_group("query_distance");
    group.bench_function("full_bfs_recompute", |b| {
        let view = GraphView::new(graph);
        let mut stats = SearchStats::default();
        b.iter(|| IncrementalDistances::compute(&view, &queries, &mut stats))
    });
    group.bench_function("alg5_incremental_update", |b| {
        // One far vertex is removed; Algorithm 5 refreshes the arrays.
        let mut view = GraphView::new(graph);
        let mut stats = SearchStats::default();
        let base = IncrementalDistances::compute(&view, &queries, &mut stats);
        let victim = view
            .alive_vertices()
            .filter(|v| !queries.contains(v))
            .max_by_key(|&v| {
                let d = base.vertex_query_distance(v);
                if d == u32::MAX {
                    0
                } else {
                    d
                }
            })
            .expect("non-trivial graph");
        view.remove_vertex(victim);
        b.iter(|| {
            let mut inc = base.clone();
            inc.update_after_removal(&view, &[victim], &mut stats)
        })
    });
    group.bench_function("alg5_lp_batch_update", |b| {
        // One real LP batch: the candidate's farthest shell plus the
        // label-core cascade it triggers, on the G0 of a planted query.
        let mut stats = SearchStats::default();
        let (query, params) = planted_query(&net);
        let (mut candidate, _) =
            Candidate::find_g0(graph, &query, &params, &mut stats).expect("planted candidate");
        let base = IncrementalDistances::compute(&candidate.view, &query.queries, &mut stats);
        let (farthest, _) = base.farthest_vertices(&candidate.view);
        let removed = candidate.remove_batch(&farthest);
        b.iter(|| {
            let mut inc = base.clone();
            inc.update_after_removal(&candidate.view, &removed, &mut stats)
        })
    });
    group.finish();
}

/// The first community query of the fixture, at the paper's default
/// parameters (each query's coreness inside its label group, b = 1).
fn planted_query(net: &PlantedNetwork) -> (MbccQuery, MbccParams) {
    let constraints = QueryConstraints { degree_rank: 0, inter_distance: None };
    let q = &bcc_datasets::random_community_queries(net, 1, constraints, 7)[0];
    let coreness = bcc_cohesion::label_core_decomposition(&GraphView::new(&net.graph));
    let ks = q.vertices.iter().map(|v| coreness[v.index()]).collect();
    (MbccQuery::new(q.vertices.clone()), MbccParams::new(ks, 1))
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_distance_maintenance
}
criterion_main!(benches);
