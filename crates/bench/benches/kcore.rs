//! Criterion micro-benchmarks for the k-core substrate: full decomposition
//! versus incremental maintenance (the ablation behind Algorithm 4's
//! cascade-don't-recompute design), and one 16-flip commit of the live
//! index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bcc_cohesion::{
    core_decomposition, label_core_decomposition, reduce_to_label_core, LabelCoreThresholds,
};
use bcc_core::{patch_index_batch, BccIndex};
use bcc_datasets::{PlantedConfig, PlantedNetwork};
use bcc_graph::{GraphDelta, GraphView, VertexId};
use rand::{Rng, SeedableRng};

fn fixture(communities: usize) -> PlantedNetwork {
    PlantedNetwork::generate(PlantedConfig {
        communities,
        community_size: (30, 50),
        ..Default::default()
    })
}

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_decomposition");
    for communities in [20usize, 80] {
        let net = fixture(communities);
        let view = GraphView::new(&net.graph);
        group.bench_with_input(
            BenchmarkId::new("full_graph", communities),
            &communities,
            |b, _| b.iter(|| core_decomposition(&view)),
        );
        group.bench_with_input(
            BenchmarkId::new("label_induced", communities),
            &communities,
            |b, _| b.iter(|| label_core_decomposition(&view)),
        );
    }
    group.finish();
}

fn bench_maintenance_vs_recompute(c: &mut Criterion) {
    let net = fixture(40);
    let graph = &net.graph;
    // Thresholds for the two labels of one community pair.
    let la = graph.label(VertexId(0));
    let lb = net.communities[0]
        .iter()
        .map(|&v| graph.label(v))
        .find(|&l| l != la)
        .expect("two labels per community");
    let mut thresholds = LabelCoreThresholds::new(graph.label_count());
    thresholds.require(la, 3);
    thresholds.require(lb, 3);

    let mut group = c.benchmark_group("core_maintenance");
    group.bench_function("reduce_to_label_core_from_scratch", |b| {
        b.iter(|| {
            let mut view = GraphView::new(graph);
            reduce_to_label_core(&mut view, &thresholds)
        })
    });
    group.bench_function("cascade_after_one_deletion", |b| {
        // Prepare the reduced view once; measure only the incremental
        // cascade after removing a single vertex.
        let mut base = GraphView::new(graph);
        reduce_to_label_core(&mut base, &thresholds);
        let victim = base.alive_vertices().next().expect("non-empty core");
        b.iter(|| {
            let mut view = base.clone();
            view.remove_vertex(victim);
            bcc_cohesion::cascade_label_core(&mut view, &thresholds, &[victim])
        })
    });
    group.finish();
}

/// One writer batch as the service benchmark draws it: 16 distinct edges,
/// each between two members of a random planted community, inserted when
/// absent and removed when present.
fn writer_batch(net: &PlantedNetwork, rng: &mut rand_chacha::ChaCha8Rng) -> GraphDelta {
    let graph = &net.graph;
    let mut delta = GraphDelta::new();
    while delta.len() < 16 {
        let members = &net.communities[rng.gen_range(0..net.communities.len())];
        let u = members[rng.gen_range(0..members.len())];
        let v = members[rng.gen_range(0..members.len())];
        // Staging rejects self-pairs and edges already in the batch, which
        // are then redrawn.
        let _ = if graph.has_edge(u, v) {
            delta.stage_remove(graph, u, v)
        } else {
            delta.stage_insert(graph, u, v)
        };
    }
    delta
}

fn bench_commit(c: &mut Criterion) {
    // A commit's index work plus its one CSR splice, on planted DBLP x1;
    // the index clone a commit starts from is part of each iteration.
    let net = bcc_datasets::dblp(1.0).build();
    let graph = &net.graph;
    let index = BccIndex::build(graph);
    let delta = writer_batch(&net, &mut rand_chacha::ChaCha8Rng::seed_from_u64(0x0123_4567));
    c.bench_function("commit/16_intra_community_flips", |b| {
        b.iter(|| {
            let mut patched = index.clone();
            let report = patch_index_batch(&mut patched, graph, delta.changes());
            (patched, report, delta.apply(graph))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_decomposition, bench_maintenance_vs_recompute, bench_commit
}
criterion_main!(benches);
