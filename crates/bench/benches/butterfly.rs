//! Criterion micro-benchmarks for butterfly counting strategies.
//!
//! Supports the Section 3.5 claim that butterfly enumeration is efficient
//! and the Table 4 claim that the Algorithm 7 per-leader update is far
//! cheaper than recounting (Algorithm 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bcc_butterfly::{
    butterfly_degrees, butterfly_degrees_hash, leader_decrement, total_butterflies, BipartiteCross,
    ButterflyCounts,
};
use bcc_datasets::{PlantedConfig, PlantedNetwork};
use bcc_graph::{GraphView, Label};

fn bipartite_fixture(communities: usize) -> PlantedNetwork {
    PlantedNetwork::generate(PlantedConfig {
        communities,
        community_size: (30, 50),
        label_pool: 2,
        intra_prob: 0.3,
        cross_fraction: 0.2,
        ..Default::default()
    })
}

fn bench_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("butterfly_counting");
    for communities in [10usize, 40] {
        let net = bipartite_fixture(communities);
        let view = GraphView::new(&net.graph);
        let cross = BipartiteCross::new(Label(0), Label(1));
        group.bench_with_input(
            BenchmarkId::new("alg3_per_vertex_flat", communities),
            &communities,
            |b, _| b.iter(|| butterfly_degrees(&view, cross)),
        );
        group.bench_with_input(
            BenchmarkId::new("alg3_per_vertex_hash", communities),
            &communities,
            |b, _| b.iter(|| butterfly_degrees_hash(&view, cross)),
        );
        group.bench_with_input(
            BenchmarkId::new("side_sum_total", communities),
            &communities,
            |b, _| b.iter(|| total_butterflies(&view, cross)),
        );
    }
    group.finish();
}

fn bench_leader_update_vs_recount(c: &mut Criterion) {
    let net = bipartite_fixture(30);
    let view = GraphView::new(&net.graph);
    let cross = BipartiteCross::new(Label(0), Label(1));
    let counts = ButterflyCounts::compute(&view, cross);
    let leader = counts
        .side_argmax(&view, Label(0))
        .expect("left side non-empty");
    let victim = counts
        .side_argmax(&view, Label(1))
        .expect("right side non-empty");

    let mut group = c.benchmark_group("leader_maintenance");
    group.bench_function("alg7_single_update", |b| {
        b.iter(|| leader_decrement(&view, cross, leader, victim))
    });
    group.bench_function("alg3_full_recount", |b| {
        b.iter(|| butterfly_degrees(&view, cross))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_counting, bench_leader_update_vs_recount
}
criterion_main!(benches);
