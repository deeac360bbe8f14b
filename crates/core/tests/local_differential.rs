//! Differential pin for the local exploration of Algorithm 8.
//! `butterfly_core_path` and `expand_candidate` read their graph only
//! through `GraphRead`, so L2P and m-label `Local` searches hand them the
//! bare snapshot. On it they must return exactly what they return through
//! a whole-graph `GraphView` (every vertex live, neighbors in the same
//! sorted order). On a view with deleted vertices they must never return a
//! dead one.

use bcc_core::{butterfly_core_path, expand_candidate, BccIndex, PathWeights};
use bcc_graph::{GraphBuilder, GraphView, Label, LabeledGraph, VertexId};
use rand::{Rng, SeedableRng};

/// A random labeled graph: `n` vertices over `labels` groups, each pair an
/// edge with probability `p`.
fn random_graph(rng: &mut impl Rng, n: usize, labels: usize, p: f64) -> LabeledGraph {
    let names: Vec<String> = (0..labels).map(|i| format!("G{i}")).collect();
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|_| b.add_vertex(&names[rng.gen_range(0..labels)]))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }
    b.build()
}

/// Runs `queries` random path + expansion queries on one random graph and
/// returns how many of them found a path on the bare snapshot.
fn run(seed: u64, n: usize, labels: usize, p: f64, queries: usize) -> usize {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let g = random_graph(&mut rng, n, labels, p);
    let index = BccIndex::build(&g);
    let full = GraphView::new(&g);
    let mut holed = GraphView::new(&g);
    for v in g.vertices() {
        if rng.gen_bool(0.25) {
            holed.remove_vertex(v);
        }
    }
    let mut found = 0;
    for query in 0..queries {
        let context = format!("seed {seed}, query {query}");
        let s = VertexId(rng.gen_range(0..n as u32));
        let t = VertexId(rng.gen_range(0..n as u32));
        // The queries' labels, sometimes widened by one more label.
        let mut allowed: Vec<Label> = vec![g.label(s), g.label(t)];
        if rng.gen_bool(0.3) {
            allowed.push(g.label(VertexId(rng.gen_range(0..n as u32))));
        }
        let weights = PathWeights {
            gamma1: rng.gen_range(0.0..2.0),
            gamma2: rng.gen_range(0.0..2.0),
        };

        let bare = butterfly_core_path(&g, &index, weights, s, t, &allowed);
        let viewed = butterfly_core_path(&full, &index, weights, s, t, &allowed);
        assert_eq!(bare, viewed, "path diverged ({context})");
        if let Some(path) = &bare {
            found += 1;
            assert_eq!((path[0], path[path.len() - 1]), (s, t), "({context})");
        }
        if let Some(path) = butterfly_core_path(&holed, &index, weights, s, t, &allowed) {
            assert!(
                path.iter().all(|&v| holed.is_alive(v)),
                "path through a dead vertex ({context}): {path:?}"
            );
        }

        let floors: Vec<(Label, u32)> = allowed
            .iter()
            .map(|&l| (l, rng.gen_range(0..=4u32)))
            .collect();
        let eta = rng.gen_range(0..n + 2);
        let mut seeds = bare.unwrap_or_else(|| vec![s, t]);
        if rng.gen_bool(0.5) {
            seeds.push(VertexId(rng.gen_range(0..n as u32)));
        }
        let grown = expand_candidate(&g, &index, &seeds, &floors, eta);
        assert_eq!(
            grown,
            expand_candidate(&full, &index, &seeds, &floors, eta),
            "expansion diverged ({context})"
        );
        let holed_grown = expand_candidate(&holed, &index, &seeds, &floors, eta);
        assert!(
            holed_grown.iter().all(|&v| holed.is_alive(v)),
            "expansion admitted a dead vertex ({context}): {holed_grown:?}"
        );
    }
    found
}

/// [`run`] over every seed in `seeds`; at least one query must find a
/// path, or the differential compared only misses.
fn run_seeds(seeds: std::ops::Range<u64>, n: usize, labels: usize, p: f64) {
    let found: usize = seeds.map(|seed| run(seed, n, labels, p, 24)).sum();
    assert!(found > 0, "no query found a path");
}

#[test]
fn two_label_graphs() {
    run_seeds(0..16, 30, 2, 0.15);
}

#[test]
fn multi_label_graphs() {
    run_seeds(100..116, 40, 4, 0.12);
}

#[test]
fn dense_graphs_with_deep_cores() {
    // High coreness and many butterflies: big Pareto sets, floors that bite.
    run_seeds(200..208, 24, 3, 0.45);
}
