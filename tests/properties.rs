//! Property-based tests over random labeled graphs: the core invariants of
//! every substrate, checked against brute-force oracles.

use bcc::prelude::*;
use proptest::prelude::*;

/// Strategy: a random 2-labeled graph as (left size, right size, edges).
fn random_bipartiteish() -> impl Strategy<Value = (usize, usize, Vec<(u8, u8)>)> {
    (2usize..8, 2usize..8).prop_flat_map(|(l, r)| {
        let edges = proptest::collection::vec(
            (0u8..(l + r) as u8, 0u8..(l + r) as u8),
            0..40,
        );
        (Just(l), Just(r), edges)
    })
}

fn build_two_label(l: usize, r: usize, edges: &[(u8, u8)]) -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..l + r)
        .map(|i| b.add_vertex(if i < l { "L" } else { "R" }))
        .collect();
    for &(x, y) in edges {
        let (x, y) = (x as usize % (l + r), y as usize % (l + r));
        if x != y {
            b.add_edge(vs[x], vs[y]);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 3 butterfly degrees match the O(n⁴) brute-force oracle on
    /// arbitrary labeled graphs (with homogeneous edges present as noise).
    #[test]
    fn butterfly_counts_match_brute_force((l, r, edges) in random_bipartiteish()) {
        let g = build_two_label(l, r, &edges);
        let view = GraphView::new(&g);
        let cross = BipartiteCross::new(Label(0), Label(1));
        let fast = bcc::butterfly::counting::butterfly_degrees(&view, cross);
        let oracle = bcc::butterfly::counting::brute_force_butterfly_degrees(&view, cross);
        prop_assert_eq!(fast, oracle);
    }

    /// The two global counters agree, and each equals Σχ/4.
    #[test]
    fn global_butterfly_counters_agree((l, r, edges) in random_bipartiteish()) {
        let g = build_two_label(l, r, &edges);
        let view = GraphView::new(&g);
        let cross = BipartiteCross::new(Label(0), Label(1));
        let counts = ButterflyCounts::compute(&view, cross);
        let total = counts.total();
        prop_assert_eq!(bcc::butterfly::counting::total_butterflies(&view, cross), total);
    }

    /// Algorithm 7's leader update equals the recount difference for every
    /// (leader, victim) pair.
    #[test]
    fn leader_update_equals_recount_diff(
        (l, r, edges) in random_bipartiteish(),
        leader_pick in 0usize..16,
        victim_pick in 0usize..16,
    ) {
        let g = build_two_label(l, r, &edges);
        let n = g.vertex_count();
        let leader = VertexId((leader_pick % n) as u32);
        let victim = VertexId((victim_pick % n) as u32);
        prop_assume!(leader != victim);
        let mut view = GraphView::new(&g);
        let cross = BipartiteCross::new(Label(0), Label(1));
        let before = bcc::butterfly::counting::butterfly_degrees(&view, cross);
        let dec = bcc::butterfly::update::leader_decrement(&view, cross, leader, victim);
        view.remove_vertex(victim);
        let after = bcc::butterfly::counting::butterfly_degrees(&view, cross);
        prop_assert_eq!(before[leader.index()] - dec, after[leader.index()]);
    }

    /// k-core peeling agrees with the bucket decomposition for every k.
    #[test]
    fn kcore_peeling_matches_decomposition((l, r, edges) in random_bipartiteish()) {
        let g = build_two_label(l, r, &edges);
        let coreness = bcc::cohesion::core_decomposition(&GraphView::new(&g));
        for k in 0..=5u32 {
            let mut view = GraphView::new(&g);
            bcc::cohesion::reduce_to_k_core(&mut view, k);
            for v in g.vertices() {
                prop_assert_eq!(view.is_alive(v), coreness[v.index()] >= k,
                    "k={} v={}", k, v);
            }
        }
    }

    /// Incremental distances equal fresh BFS after arbitrary deletions.
    #[test]
    fn incremental_distances_match_bfs(
        (l, r, edges) in random_bipartiteish(),
        deletions in proptest::collection::vec(0u8..16, 1..6),
    ) {
        let g = build_two_label(l, r, &edges);
        let n = g.vertex_count();
        let q = VertexId(0);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let mut inc = bcc::core::IncrementalDistances::compute(&view, &[q], &mut stats);
        for d in deletions {
            let v = VertexId((d as usize % n) as u32);
            if !view.is_alive(v) {
                continue;
            }
            view.remove_vertex(v);
            inc.update_after_removal(&view, &[v], &mut stats);
            let fresh = bcc::graph::bfs_distances(&view, q);
            prop_assert_eq!(&inc.dist[0], &fresh);
        }
    }

    /// Graph I/O round-trips arbitrary labeled graphs.
    #[test]
    fn io_roundtrip((l, r, edges) in random_bipartiteish()) {
        let g = build_two_label(l, r, &edges);
        let mut buf = Vec::new();
        bcc::graph::io::write_graph(&g, &mut buf).unwrap();
        let g2 = bcc::graph::io::read_graph(&buf[..]).unwrap();
        prop_assert_eq!(g.vertex_count(), g2.vertex_count());
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        for v in g.vertices() {
            prop_assert_eq!(g.label(v), g2.label(v));
        }
    }

    /// Truss maintenance keeps the k-truss invariant under random vertex
    /// batches.
    #[test]
    fn truss_invariant_under_deletions(
        (l, r, edges) in random_bipartiteish(),
        batch in proptest::collection::vec(0u8..16, 1..5),
        k in 3u32..5,
    ) {
        let g = build_two_label(l, r, &edges);
        let n = g.vertex_count();
        let mut state = bcc::cohesion::TrussState::k_truss(&g, k);
        let victims: Vec<VertexId> = batch
            .iter()
            .map(|&d| VertexId((d as usize % n) as u32))
            .collect();
        state.remove_vertices(&victims);
        prop_assert!(state.check_invariant());
        for v in victims {
            prop_assert!(!state.is_alive(v));
        }
    }

    /// Whatever any BCC search returns is a valid connected BCC.
    #[test]
    fn search_answers_are_always_valid(
        (l, r, edges) in random_bipartiteish(),
        k1 in 1u32..3,
        k2 in 1u32..3,
        b in 1u64..3,
    ) {
        let g = build_two_label(l, r, &edges);
        prop_assume!(l >= 1 && r >= 1);
        let pair = BccQuery::pair(VertexId(0), VertexId(l as u32));
        let params = BccParams::new(k1, k2, b);
        if let Ok(result) = OnlineBcc::default().search(&g, &pair, &params) {
            let view = GraphView::from_vertices(&g, result.community.iter().copied());
            prop_assert!(bcc::core::is_valid_bcc(&view, &pair, &params),
                "invalid community {:?} for k1={} k2={} b={}", result.community, k1, k2, b);
        }
    }
}
