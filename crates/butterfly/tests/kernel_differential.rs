//! Differential equivalence of the butterfly wedge kernels.
//!
//! The flat scratch kernel ([`butterfly_degrees`]) must agree, per vertex,
//! with two independent oracles on arbitrary inputs:
//!
//! * the O(n⁴) brute-force enumerator, and
//! * the retained seed hash kernel ([`butterfly_degrees_hash`]);
//!
//! over every [`GraphRead`] host the serving stack feeds them: bare CSR
//! snapshots, peeling [`GraphView`]s with dead vertices, and mid-batch
//! [`OverlayGraph`] states — multi-label graphs included (vertices outside
//! the two sides are wedge noise the kernels must ignore).

use bcc_butterfly::{
    brute_force_butterfly_degrees, butterfly_degree_of, butterfly_degree_of_with,
    butterfly_degrees, butterfly_degrees_hash, total_butterflies, BipartiteCross,
};
use bcc_graph::{
    EdgeChange, EdgeOp, GraphBuilder, GraphView, Label, LabeledGraph, OverlayGraph, VertexId,
    WedgeScratch,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random graph over `labels` groups (side labels 0 and 1 plus noise
/// groups), with homogeneous and off-side edges present as noise.
fn random_labeled(rng: &mut impl Rng, n: usize, labels: usize, p: f64) -> LabeledGraph {
    let names: Vec<String> = (0..labels).map(|i| format!("G{i}")).collect();
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> =
        (0..n).map(|i| b.add_vertex(&names[i % labels])).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }
    b.build()
}

/// Asserts all kernels agree on `host` against the hash oracle (computed on
/// the same host), plus single-vertex and global-count consistency.
fn assert_kernels_agree<G: bcc_graph::GraphRead>(host: &G, cross: BipartiteCross, context: &str) {
    let oracle = butterfly_degrees_hash(host, cross);
    let flat = butterfly_degrees(host, cross);
    assert_eq!(flat, oracle, "flat vs hash {context}");
    let total: u64 = oracle.iter().sum::<u64>() / 4;
    assert_eq!(total_butterflies(host, cross), total, "total {context}");
    let mut scratch = WedgeScratch::new(host.vertex_count());
    for v in host.vertices() {
        assert_eq!(
            butterfly_degree_of_with(host, cross, v, &mut scratch),
            oracle[v.index()],
            "χ({v}) {context}"
        );
    }
}

#[test]
fn kernels_agree_on_random_multi_label_snapshots() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1A7);
    let cross = BipartiteCross::new(Label(0), Label(1));
    for trial in 0..12 {
        let labels = 2 + trial % 3; // 2, 3, 4 — noise labels from the 3rd on
        let g = random_labeled(&mut rng, 18, labels, 0.3);
        // The hash oracle itself is pinned to brute force on the full view.
        let view = GraphView::new(&g);
        assert_eq!(
            butterfly_degrees_hash(&view, cross),
            brute_force_butterfly_degrees(&view, cross),
            "hash oracle vs brute force (trial {trial})"
        );
        assert_kernels_agree(&g, cross, &format!("(snapshot, trial {trial})"));
    }
}

#[test]
fn kernels_agree_on_views_with_dead_vertices() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xDEAD);
    let cross = BipartiteCross::new(Label(0), Label(1));
    for trial in 0..10 {
        let g = random_labeled(&mut rng, 16, 3, 0.35);
        let mut view = GraphView::new(&g);
        for _ in 0..rng.gen_range(1..6) {
            let v = VertexId(rng.gen_range(0..16));
            if view.is_alive(v) {
                view.remove_vertex(v);
            }
        }
        assert_eq!(
            butterfly_degrees_hash(&view, cross),
            brute_force_butterfly_degrees(&view, cross),
            "hash oracle vs brute force (trial {trial})"
        );
        assert_kernels_agree(&view, cross, &format!("(view, trial {trial})"));
    }
}

#[test]
fn kernels_agree_on_overlay_mid_batch_states() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0E4);
    let cross = BipartiteCross::new(Label(0), Label(1));
    for trial in 0..8 {
        let g = random_labeled(&mut rng, 14, 2 + trial % 2, 0.3);
        let mut overlay = OverlayGraph::new(&g);
        for step in 0..20 {
            let u = VertexId(rng.gen_range(0..14));
            let v = VertexId(rng.gen_range(0..14));
            if u == v {
                continue;
            }
            let op = if bcc_graph::GraphRead::has_edge(&overlay, u, v) {
                EdgeOp::Remove
            } else {
                EdgeOp::Insert
            };
            overlay.flip(&EdgeChange { u, v, op });
            // Every mid-batch state: overlay reads ≡ materialized snapshot
            // reads, for every kernel.
            let snapshot = overlay.materialize();
            let expected = butterfly_degrees_hash(&snapshot, cross);
            assert_eq!(
                butterfly_degrees(&overlay, cross),
                expected,
                "flat on overlay (trial {trial}, step {step})"
            );
            assert_eq!(
                total_butterflies(&overlay, cross),
                expected.iter().sum::<u64>() / 4,
                "total on overlay (trial {trial}, step {step})"
            );
        }
        assert_kernels_agree(&overlay, cross, &format!("(overlay end state, trial {trial})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat kernel equals the brute-force oracle and the seed hash
    /// kernel on arbitrary 3-labeled edge soups.
    #[test]
    fn flat_kernel_matches_oracles(
        n in 4usize..14,
        labels in 2usize..4,
        edges in proptest::collection::vec((0u8..14, 0u8..14), 0..60),
    ) {
        let names = ["G0", "G1", "G2"];
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = (0..n).map(|i| b.add_vertex(names[i % labels])).collect();
        for &(x, y) in &edges {
            let (x, y) = (x as usize % n, y as usize % n);
            if x != y {
                b.add_edge(vs[x], vs[y]);
            }
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let cross = BipartiteCross::new(Label(0), Label(1));
        let brute = brute_force_butterfly_degrees(&view, cross);
        prop_assert_eq!(&butterfly_degrees(&g, cross), &brute);
        prop_assert_eq!(&butterfly_degrees_hash(&g, cross), &brute);
        let total = brute.iter().sum::<u64>() / 4;
        prop_assert_eq!(total_butterflies(&g, cross), total);
        for v in g.vertices() {
            prop_assert_eq!(butterfly_degree_of(&g, cross, v), brute[v.index()]);
        }
    }
}
