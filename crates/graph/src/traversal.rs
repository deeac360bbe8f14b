//! BFS-based traversal primitives: distances, query distance (Definition 5),
//! connected components, and diameter computation.

use std::collections::VecDeque;

use crate::graph::{LabeledGraph, VertexId};
use crate::overlay::GraphRead;
use crate::view::GraphView;

/// Sentinel distance for unreachable vertices. Per Section 3.1,
/// `dist_H(u, v) = ∞` when `u` and `v` are disconnected.
pub const INF_DIST: u32 = u32::MAX;

/// Single-source BFS over a view. Returns per-vertex hop distances, with
/// [`INF_DIST`] for dead or unreachable vertices.
pub fn bfs_distances<G: GraphRead>(view: &GraphView<'_, G>, source: VertexId) -> Vec<u32> {
    let n = view.graph().vertex_count();
    let mut dist = vec![INF_DIST; n];
    if !view.is_alive(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let next = dist[v.index()] + 1;
        for u in view.neighbors(v) {
            if dist[u.index()] == INF_DIST {
                dist[u.index()] = next;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Per-query BFS distances for a query set, plus the combined per-vertex
/// query distance of Definition 5:
/// `dist(v, Q) = max_{q ∈ Q} dist(v, q)`.
#[derive(Clone, Debug)]
pub struct QueryDistances {
    /// `per_query[i][v]` = hop distance from query `i` to vertex `v`.
    pub per_query: Vec<Vec<u32>>,
    /// The query vertices, in the same order as `per_query`.
    pub queries: Vec<VertexId>,
}

impl QueryDistances {
    /// Runs one BFS per query vertex over `view`.
    pub fn compute<G: GraphRead>(view: &GraphView<'_, G>, queries: &[VertexId]) -> Self {
        QueryDistances {
            per_query: queries.iter().map(|&q| bfs_distances(view, q)).collect(),
            queries: queries.to_vec(),
        }
    }

    /// `dist(v, Q)` — the maximum distance from `v` to any query vertex
    /// (Definition 5); [`INF_DIST`] if any query cannot reach `v`.
    #[inline]
    pub fn vertex_query_distance(&self, v: VertexId) -> u32 {
        self.per_query
            .iter()
            .map(|d| d[v.index()])
            .max()
            .unwrap_or(INF_DIST)
    }

    /// `dist(X, Q)` for the whole alive set of `view`: the maximum vertex
    /// query distance (Definition 5 applied to `X = V(view)`).
    pub fn graph_query_distance<G: GraphRead>(&self, view: &GraphView<'_, G>) -> u32 {
        view.alive_vertices()
            .map(|v| self.vertex_query_distance(v))
            .max()
            .unwrap_or(0)
    }

    /// All alive vertices attaining the maximum query distance, together
    /// with that distance. Vertices unreachable from some query vertex
    /// (distance ∞) always dominate.
    pub fn farthest_vertices<G: GraphRead>(&self, view: &GraphView<'_, G>) -> (Vec<VertexId>, u32) {
        let mut best = 0u32;
        let mut out = Vec::new();
        for v in view.alive_vertices() {
            let d = self.vertex_query_distance(v);
            match d.cmp(&best) {
                std::cmp::Ordering::Greater => {
                    best = d;
                    out.clear();
                    out.push(v);
                }
                std::cmp::Ordering::Equal => out.push(v),
                std::cmp::Ordering::Less => {}
            }
        }
        (out, best)
    }
}

/// `dist(v, Q)` computed from scratch (convenience wrapper).
pub fn query_distance<G: GraphRead>(view: &GraphView<'_, G>, queries: &[VertexId], v: VertexId) -> u32 {
    QueryDistances::compute(view, queries).vertex_query_distance(v)
}

/// Connected components of the alive subgraph; returns per-vertex component
/// id (`u32::MAX` for dead vertices) and the component count.
pub fn connected_components<G: GraphRead>(view: &GraphView<'_, G>) -> (Vec<u32>, usize) {
    let n = view.graph().vertex_count();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in view.alive_vertices() {
        if comp[start.index()] != u32::MAX {
            continue;
        }
        comp[start.index()] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for u in view.neighbors(v) {
                if comp[u.index()] == u32::MAX {
                    comp[u.index()] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// Exact diameter of the alive subgraph by running BFS from every alive
/// vertex. Disconnected views return the maximum eccentricity *within*
/// components (∞ distances are skipped), matching how the paper reports
/// diameters of discovered communities. O(|V|·|E|) — fine for communities
/// and test graphs; use [`diameter_double_sweep`] for large graphs.
pub fn diameter_exact<G: GraphRead>(view: &GraphView<'_, G>) -> u32 {
    let mut diameter = 0;
    for v in view.alive_vertices() {
        let dist = bfs_distances(view, v);
        for u in view.alive_vertices() {
            let d = dist[u.index()];
            if d != INF_DIST && d > diameter {
                diameter = d;
            }
        }
    }
    diameter
}

/// Double-sweep lower bound on the diameter: BFS from `seed` to find the
/// farthest vertex `a`, then BFS from `a`; the largest finite distance found
/// is a lower bound that is exact on trees and very tight in practice.
/// Used for the `d_max` column of Table 3 on the larger networks.
pub fn diameter_double_sweep<G: GraphRead>(view: &GraphView<'_, G>, seed: VertexId) -> u32 {
    if !view.is_alive(seed) {
        return 0;
    }
    let first = bfs_distances(view, seed);
    let a = view
        .alive_vertices()
        .filter(|v| first[v.index()] != INF_DIST)
        .max_by_key(|v| first[v.index()])
        .unwrap_or(seed);
    let second = bfs_distances(view, a);
    view.alive_vertices()
        .map(|v| second[v.index()])
        .filter(|&d| d != INF_DIST)
        .max()
        .unwrap_or(0)
}

/// Exact diameter via the iFUB (iterative Fringe Upper Bound) strategy:
/// run BFS from a central root, then probe vertices from the outermost BFS
/// level inward, maintaining a lower bound `lb` (max eccentricity seen) and
/// the upper bound `2·level`; stop as soon as `lb ≥ 2·(level − 1)`. Exact,
/// and on small-world graphs it typically probes a handful of vertices
/// instead of all `|V|` (used for the case-study diameter reports).
pub fn diameter_ifub<G: GraphRead>(view: &GraphView<'_, G>, seed: VertexId) -> u32 {
    if !view.is_alive(seed) {
        return 0;
    }
    // Double sweep to land on a reasonably central root: farthest vertex
    // from the seed, then the midpoint of that far path is approximated by
    // the far vertex itself (a common simplification; correctness does not
    // depend on root quality, only speed does).
    let first = bfs_distances(view, seed);
    let far = view
        .alive_vertices()
        .filter(|v| first[v.index()] != INF_DIST)
        .max_by_key(|v| first[v.index()])
        .unwrap_or(seed);
    let root_dist = bfs_distances(view, far);
    // Group vertices by BFS level from the root.
    let max_level = view
        .alive_vertices()
        .map(|v| root_dist[v.index()])
        .filter(|&d| d != INF_DIST)
        .max()
        .unwrap_or(0);
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); max_level as usize + 1];
    for v in view.alive_vertices() {
        let d = root_dist[v.index()];
        if d != INF_DIST {
            levels[d as usize].push(v);
        }
    }
    let mut lower_bound = max_level; // ecc(root) itself
    for level in (1..=max_level).rev() {
        if lower_bound >= 2 * level {
            break; // no deeper vertex can improve the bound
        }
        for &v in &levels[level as usize] {
            lower_bound = lower_bound.max(eccentricity(view, v));
        }
    }
    lower_bound
}

/// Exact eccentricity of `v` within its component (largest finite BFS
/// distance).
pub fn eccentricity<G: GraphRead>(view: &GraphView<'_, G>, v: VertexId) -> u32 {
    let dist = bfs_distances(view, v);
    view.alive_vertices()
        .map(|u| dist[u.index()])
        .filter(|&d| d != INF_DIST)
        .max()
        .unwrap_or(0)
}

/// Hop distance between two vertices in the *full* graph (fresh view).
pub fn graph_distance(graph: &LabeledGraph, u: VertexId, v: VertexId) -> u32 {
    let view = GraphView::new(graph);
    bfs_distances(&view, u)[v.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn cycle(n: usize) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|_| b.add_vertex("A")).collect();
        for i in 0..n {
            b.add_edge(vs[i], vs[(i + 1) % n]);
        }
        b.build()
    }

    #[test]
    fn bfs_on_cycle() {
        let g = cycle(6);
        let view = GraphView::new(&g);
        let dist = bfs_distances(&view, VertexId(0));
        assert_eq!(dist, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn bfs_from_dead_source_is_all_inf() {
        let g = cycle(4);
        let mut view = GraphView::new(&g);
        view.remove_vertex(VertexId(0));
        let dist = bfs_distances(&view, VertexId(0));
        assert!(dist.iter().all(|&d| d == INF_DIST));
    }

    #[test]
    fn query_distance_is_max_over_queries() {
        let g = cycle(6);
        let view = GraphView::new(&g);
        let qd = QueryDistances::compute(&view, &[VertexId(0), VertexId(3)]);
        // v1: dist to q0 = 1, to q3 = 2 → query distance 2.
        assert_eq!(qd.vertex_query_distance(VertexId(1)), 2);
        assert_eq!(qd.graph_query_distance(&view), 3, "each query is 3 away from the other");
        let (far, d) = qd.farthest_vertices(&view);
        assert_eq!(d, 3);
        // The queries themselves are the farthest (dist 3 to the opposite query).
        assert_eq!(far, vec![VertexId(0), VertexId(3)]);
    }

    #[test]
    fn unreachable_dominates_farthest() {
        let g = cycle(6);
        let mut view = GraphView::new(&g);
        // Cut vertex 2 and 4: vertex 3 becomes unreachable from 0.
        view.remove_vertex(VertexId(2));
        view.remove_vertex(VertexId(4));
        let qd = QueryDistances::compute(&view, &[VertexId(0)]);
        let (far, d) = qd.farthest_vertices(&view);
        assert_eq!(d, INF_DIST);
        assert_eq!(far, vec![VertexId(3)]);
    }

    #[test]
    fn components_and_diameter() {
        let g = cycle(8);
        let mut view = GraphView::new(&g);
        assert_eq!(diameter_exact(&view), 4);
        assert_eq!(connected_components(&view).1, 1);
        view.remove_vertex(VertexId(0));
        view.remove_vertex(VertexId(4));
        let (comp, count) = connected_components(&view);
        assert_eq!(count, 2);
        assert_eq!(comp[1], comp[3]);
        assert_ne!(comp[1], comp[5]);
        // Each side is a path of 3 vertices → diameter 2 within components.
        assert_eq!(diameter_exact(&view), 2);
    }

    #[test]
    fn double_sweep_exact_on_path() {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..10).map(|_| b.add_vertex("A")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        assert_eq!(diameter_double_sweep(&view, VertexId(5)), 9);
        assert_eq!(eccentricity(&view, VertexId(0)), 9);
        assert_eq!(eccentricity(&view, VertexId(5)), 5);
    }

    #[test]
    fn graph_distance_helper() {
        let g = cycle(10);
        assert_eq!(graph_distance(&g, VertexId(0), VertexId(5)), 5);
    }

    #[test]
    fn ifub_matches_exact_on_fixtures() {
        for n in [4usize, 7, 12, 15] {
            let g = cycle(n);
            let view = GraphView::new(&g);
            assert_eq!(
                diameter_ifub(&view, VertexId(0)),
                diameter_exact(&view),
                "cycle of {n}"
            );
        }
        // Path graph.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..9).map(|_| b.add_vertex("A")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        assert_eq!(diameter_ifub(&view, VertexId(4)), 8);
    }

    #[test]
    fn ifub_matches_exact_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        for trial in 0..10 {
            let n = rng.gen_range(8..30usize);
            let mut b = GraphBuilder::new();
            let vs: Vec<_> = (0..n).map(|_| b.add_vertex("A")).collect();
            // Spanning path keeps it connected; random chords vary shape.
            for w in vs.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            for _ in 0..n {
                let u = vs[rng.gen_range(0..n)];
                let v = vs[rng.gen_range(0..n)];
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let g = b.build();
            let view = GraphView::new(&g);
            assert_eq!(
                diameter_ifub(&view, VertexId(0)),
                diameter_exact(&view),
                "trial {trial}"
            );
        }
    }
}
