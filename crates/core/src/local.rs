//! Index-based local exploration (Algorithm 8, Section 6.3).
//!
//! Instead of peeling the whole graph, L2P-BCC seeds a small candidate
//! around the queries:
//!
//! 1. find a path connecting the queries that prefers high-coreness,
//!    high-butterfly vertices — minimizing the *butterfly-core path weight*
//!    of Definition 6:
//!    `w(P) = len(P) + γ1·(δ_max − min_{v∈P} δ(v)) + γ2·(χ_max − min_{v∈P} χ(v))`;
//! 2. expand the path in BFS order, admitting only vertices whose indexed
//!    coreness reaches the path's per-label floor, until the candidate
//!    exceeds η vertices;
//! 3. extract the connected `(k1, k2, b)`-BCC inside that candidate and
//!    bulk-peel it with the LP strategies.
//!
//! The path weight is monotone under path extension but not
//! vertex-separable, so we run a multi-criteria Dijkstra over states
//! `(len, min δ, min χ)` with Pareto-dominance pruning and a small
//! per-vertex label cap — exact on small graphs, a high-quality heuristic on
//! large ones (the paper does not specify its own path algorithm).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bcc_graph::{GraphRead, Label, VertexId};
use rustc_hash::FxHashMap;

use crate::index::BccIndex;

/// Weights of Definition 6; the paper's experiments use γ1 = γ2 = 0.5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathWeights {
    /// Penalty factor for the coreness shortfall.
    pub gamma1: f64,
    /// Penalty factor for the butterfly-degree shortfall.
    pub gamma2: f64,
}

impl Default for PathWeights {
    fn default() -> Self {
        PathWeights {
            gamma1: 0.5,
            gamma2: 0.5,
        }
    }
}

/// Maximum Pareto labels kept per vertex; small caps keep the search linear
/// in practice while rarely discarding the optimum.
const LABEL_CAP: usize = 8;

#[derive(Clone, Copy, Debug)]
struct PathState {
    weight: f64,
    vertex: VertexId,
    len: u32,
    min_delta: u32,
    min_chi: u64,
    /// This state's arena slot; the arena stores the predecessor chain for
    /// path reconstruction.
    slot: usize,
}

impl PartialEq for PathState {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight
    }
}
impl Eq for PathState {}
impl PartialOrd for PathState {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PathState {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on weight; tie-break on length.
        other
            .weight
            .partial_cmp(&self.weight)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.len.cmp(&self.len))
    }
}

/// Definition 6 evaluated for a state.
fn state_weight(index: &BccIndex, weights: PathWeights, len: u32, min_delta: u32, min_chi: u64) -> f64 {
    len as f64
        + weights.gamma1 * (index.delta_max - min_delta) as f64
        + weights.gamma2 * (index.chi_max - min_chi) as f64
}

/// Minimum butterfly-core-weight path from `s` to `t` over the live
/// vertices of `graph` whose labels appear in `allowed`. Returns the path's
/// vertices (s first, t last), or `None` if no such path exists.
///
/// Reads only the vertices the search visits, so it runs on the bare
/// snapshot as readily as on a [`bcc_graph::GraphView`] with deletions.
pub fn butterfly_core_path<G: GraphRead>(
    graph: &G,
    index: &BccIndex,
    weights: PathWeights,
    s: VertexId,
    t: VertexId,
    allowed: &[Label],
) -> Option<Vec<VertexId>> {
    let admissible = |v: VertexId| graph.is_alive(v) && allowed.contains(&graph.label(v));
    if !admissible(s) || !admissible(t) {
        return None;
    }
    // Pareto label sets of the visited vertices: (len, min_delta, min_chi).
    let mut labels: FxHashMap<VertexId, Vec<(u32, u32, u64)>> = FxHashMap::default();
    let mut arena: Vec<(VertexId, usize)> = Vec::new();
    let mut heap: BinaryHeap<PathState> = BinaryHeap::new();

    let push = |heap: &mut BinaryHeap<PathState>,
                arena: &mut Vec<(VertexId, usize)>,
                labels: &mut FxHashMap<VertexId, Vec<(u32, u32, u64)>>,
                vertex: VertexId,
                len: u32,
                min_delta: u32,
                min_chi: u64,
                parent: usize|
     -> bool {
        let entry = (len, min_delta, min_chi);
        let set = labels.entry(vertex).or_default();
        // Dominated by an existing label? (shorter-or-equal, stronger-or-equal)
        if set
            .iter()
            .any(|&(l, d, c)| l <= len && d >= min_delta && c >= min_chi)
        {
            return false;
        }
        set.retain(|&(l, d, c)| !(len <= l && min_delta >= d && min_chi >= c));
        if set.len() >= LABEL_CAP {
            return false;
        }
        set.push(entry);
        let slot = arena.len();
        arena.push((vertex, parent));
        heap.push(PathState {
            weight: state_weight(index, weights, len, min_delta, min_chi),
            vertex,
            len,
            min_delta,
            min_chi,
            slot,
        });
        true
    };

    push(
        &mut heap,
        &mut arena,
        &mut labels,
        s,
        0,
        index.coreness(s),
        index.chi(s),
        usize::MAX,
    );

    while let Some(state) = heap.pop() {
        if state.vertex == t {
            // Reconstruct via the arena.
            let mut path = Vec::new();
            let mut slot = state.slot;
            while slot != usize::MAX {
                let (v, parent) = arena[slot];
                path.push(v);
                slot = parent;
            }
            path.reverse();
            return Some(path);
        }
        for u in graph.neighbors_iter(state.vertex) {
            if !allowed.contains(&graph.label(u)) {
                continue;
            }
            push(
                &mut heap,
                &mut arena,
                &mut labels,
                u,
                state.len + 1,
                state.min_delta.min(index.coreness(u)),
                state.min_chi.min(index.chi(u)),
                state.slot,
            );
        }
    }
    None
}

/// Algorithm 8 lines 2–3: expands seed vertices into a candidate of at most
/// ~η vertices, admitting a vertex only when its indexed coreness reaches
/// its label's floor (the minimum coreness seen on the seed path for that
/// label). Returns the selected vertices; dead seeds and dead neighbors of
/// `graph` are never selected.
pub fn expand_candidate<G: GraphRead>(
    graph: &G,
    index: &BccIndex,
    seeds: &[VertexId],
    floors: &[(Label, u32)],
    eta: usize,
) -> Vec<VertexId> {
    let floor_of = |v: VertexId| -> Option<u32> {
        floors
            .iter()
            .find(|(l, _)| *l == graph.label(v))
            .map(|&(_, k)| k)
    };
    let mut selected = bcc_graph::BitSet::new(graph.vertex_count());
    let mut queue = std::collections::VecDeque::new();
    let mut out = Vec::new();
    for &s in seeds {
        if graph.is_alive(s) && selected.insert(s.index()) {
            queue.push_back(s);
            out.push(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        if out.len() > eta {
            break;
        }
        for u in graph.neighbors_iter(v) {
            if selected.contains(u.index()) {
                continue;
            }
            let Some(floor) = floor_of(u) else { continue };
            if index.coreness(u) >= floor {
                selected.insert(u.index());
                out.push(u);
                queue.push_back(u);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, GraphView, LabeledGraph};

    /// Two equal-length routes from s to t: one through a low-coreness
    /// bridge vertex w, one through a dense clique member. The weight of
    /// Definition 6 must prefer the dense route once γ1 > 0 (path-minimum
    /// penalties from the shared endpoints are identical for both routes, so
    /// only the intermediates differentiate).
    fn two_route_graph() -> (LabeledGraph, VertexId, VertexId, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let s = b.add_vertex("L");
        let t = b.add_vertex("R");
        // Weak route: s - w - t (w has coreness 1).
        let w = b.add_vertex("L");
        b.add_edge(s, w);
        b.add_edge(w, t);
        // Dense route: s - c0 - t through an L 4-clique; s joins the clique
        // so δ(s) = 3.
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(c[i], c[j]);
            }
        }
        for &x in &c[..3] {
            b.add_edge(s, x);
        }
        // R side: a triangle so δ(t) = 2.
        let r1 = b.add_vertex("R");
        let r2 = b.add_vertex("R");
        b.add_edge(t, r1);
        b.add_edge(t, r2);
        b.add_edge(r1, r2);
        // Butterfly c0, c1 × t, r1 (also provides the c0–t route edge).
        for &x in &c[..2] {
            b.add_edge(x, t);
            b.add_edge(x, r1);
        }
        let g = b.build();
        (g, s, t, c)
    }

    #[test]
    fn hop_count_wins_with_zero_gammas() {
        let (g, s, t, _) = two_route_graph();
        let view = GraphView::new(&g);
        let index = BccIndex::build(&g);
        let path = butterfly_core_path(
            &view,
            &index,
            PathWeights { gamma1: 0.0, gamma2: 0.0 },
            s,
            t,
            &[g.label(s), g.label(t)],
        )
        .unwrap();
        assert_eq!(path.len(), 3, "pure shortest path s-w-t: {path:?}");
    }

    #[test]
    fn dense_route_wins_with_penalties() {
        let (g, s, t, c) = two_route_graph();
        let view = GraphView::new(&g);
        let index = BccIndex::build(&g);
        let path = butterfly_core_path(
            &view,
            &index,
            PathWeights { gamma1: 1.0, gamma2: 1.0 },
            s,
            t,
            &[g.label(s), g.label(t)],
        )
        .unwrap();
        // The weak route passes w with coreness 0 and χ 0; the dense route
        // keeps min coreness higher, so the penalty terms favor it.
        assert!(path.contains(&c[0]) || path.contains(&c[1]), "{path:?}");
    }

    #[test]
    fn path_respects_allowed_labels() {
        let mut b = GraphBuilder::new();
        let s = b.add_vertex("L");
        let z = b.add_vertex("Z");
        let t = b.add_vertex("R");
        b.add_edge(s, z);
        b.add_edge(z, t);
        let g = b.build();
        let view = GraphView::new(&g);
        let index = BccIndex::build(&g);
        let path = butterfly_core_path(
            &view,
            &index,
            PathWeights::default(),
            s,
            t,
            &[g.label(s), g.label(t)],
        );
        assert!(path.is_none(), "the only route runs through a forbidden label");
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        let s = b.add_vertex("L");
        let t = b.add_vertex("R");
        let g = b.build();
        let view = GraphView::new(&g);
        let index = BccIndex::build(&g);
        assert!(butterfly_core_path(&view, &index, PathWeights::default(), s, t, &[g.label(s), g.label(t)]).is_none());
    }

    #[test]
    fn expansion_respects_floors_and_eta() {
        let (g, s, t, c) = two_route_graph();
        let view = GraphView::new(&g);
        let index = BccIndex::build(&g);
        // Floor L at coreness 3 (the clique), R at 0.
        let floors = vec![(g.label(s), 3u32), (g.label(t), 0u32)];
        let grown = expand_candidate(&view, &index, &[c[0], t], &floors, 100);
        assert!(grown.contains(&c[2]), "clique members pass the floor");
        assert!(grown.contains(&s), "s joined the clique, so δ(s) = 3");
        let w = VertexId(2);
        assert!(!grown.contains(&w), "the bridge vertex has coreness 1 < 3");
        // Tiny η stops growth early.
        let small = expand_candidate(&view, &index, &[c[0]], &floors, 1);
        assert!(small.len() <= 1 + view.degree(c[0]) + 1);
    }
}
