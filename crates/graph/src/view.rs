//! Mutable subgraph views with O(1) vertex deletion.
//!
//! Every search algorithm in the paper (Algorithms 1, 4, 8, 9 and both
//! baselines) repeatedly deletes vertices from a candidate subgraph. Copying
//! the graph per deletion would be quadratic, so we overlay the immutable CSR
//! with:
//!
//! * an *alive* bitset,
//! * per-vertex live degree counters, and
//! * per-vertex live *intra-label* degree counters (the k-core conditions of
//!   Definition 4 constrain the label-induced subgraphs, not the full graph).
//!
//! Deleting a vertex is O(deg) (to decrement its neighbors' counters);
//! neighbor iteration filters dead endpoints on the fly.
//!
//! The view is generic over any [`GraphRead`] source, defaulting to
//! [`LabeledGraph`]: the incremental-maintenance cascades run the same
//! peeling code over an [`crate::OverlayGraph`] mid-batch without ever
//! materializing the intermediate snapshots.

use crate::bitset::BitSet;
use crate::graph::{LabeledGraph, VertexId};
use crate::labels::Label;
use crate::overlay::GraphRead;

/// A deletable overlay over any [`GraphRead`] source (a [`LabeledGraph`]
/// CSR by default, or an [`crate::OverlayGraph`] mid-commit).
#[derive(Debug)]
pub struct GraphView<'g, G: GraphRead = LabeledGraph> {
    graph: &'g G,
    alive: BitSet,
    degree: Vec<u32>,
    intra_degree: Vec<u32>,
    alive_count: usize,
}

// Manual impl: `&'g G` is always cloneable, no `G: Clone` bound needed.
impl<G: GraphRead> Clone for GraphView<'_, G> {
    fn clone(&self) -> Self {
        GraphView {
            graph: self.graph,
            alive: self.alive.clone(),
            degree: self.degree.clone(),
            intra_degree: self.intra_degree.clone(),
            alive_count: self.alive_count,
        }
    }
}

impl<'g, G: GraphRead> GraphView<'g, G> {
    /// A view containing every vertex of `graph`.
    pub fn new(graph: &'g G) -> Self {
        let n = graph.vertex_count();
        let mut degree = vec![0u32; n];
        let mut intra_degree = vec![0u32; n];
        for v in graph.vertices() {
            degree[v.index()] = graph.degree(v) as u32;
            intra_degree[v.index()] = graph.same_label_neighbors_iter(v).count() as u32;
        }
        GraphView {
            graph,
            alive: BitSet::full(n),
            degree,
            intra_degree,
            alive_count: n,
        }
    }

    /// A view containing exactly the vertices in `members`.
    pub fn from_vertices(graph: &'g G, members: impl IntoIterator<Item = VertexId>) -> Self {
        let n = graph.vertex_count();
        let mut alive = BitSet::new(n);
        for v in members {
            alive.insert(v.index());
        }
        Self::from_alive(graph, alive)
    }

    /// A view from a pre-built alive set.
    pub fn from_alive(graph: &'g G, alive: BitSet) -> Self {
        assert_eq!(alive.capacity(), graph.vertex_count(), "alive set capacity mismatch");
        let n = graph.vertex_count();
        let mut degree = vec![0u32; n];
        let mut intra_degree = vec![0u32; n];
        let mut alive_count = 0;
        for vi in alive.iter() {
            alive_count += 1;
            let v = VertexId(vi as u32);
            let label = graph.label(v);
            let mut deg = 0;
            let mut intra = 0;
            for u in graph.neighbors_iter(v) {
                if alive.contains(u.index()) {
                    deg += 1;
                    if graph.label(u) == label {
                        intra += 1;
                    }
                }
            }
            degree[vi] = deg;
            intra_degree[vi] = intra;
        }
        GraphView {
            graph,
            alive,
            degree,
            intra_degree,
            alive_count,
        }
    }

    /// The underlying immutable graph.
    #[inline]
    pub fn graph(&self) -> &'g G {
        self.graph
    }

    /// Returns `true` if `v` is still in the view.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive.contains(v.index())
    }

    /// Number of alive vertices.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// The alive set as a bitset (e.g. for snapshotting).
    pub fn alive_set(&self) -> &BitSet {
        &self.alive
    }

    /// Live degree of `v` (count of alive neighbors). Zero if `v` is dead.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.degree[v.index()] as usize
    }

    /// Live same-label degree of `v` — its degree in the induced subgraph of
    /// its own label group (the quantity the k-core conditions of Def. 4
    /// constrain).
    #[inline]
    pub fn intra_degree(&self, v: VertexId) -> usize {
        self.intra_degree[v.index()] as usize
    }

    /// Live cross-label degree of `v`.
    #[inline]
    pub fn cross_degree(&self, v: VertexId) -> usize {
        (self.degree[v.index()] - self.intra_degree[v.index()]) as usize
    }

    /// Iterates the alive vertices in ascending id order.
    pub fn alive_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive.iter().map(|i| VertexId(i as u32))
    }

    /// Iterates the alive neighbors of `v`. (Callers guard aliveness of `v`
    /// itself; use [`GraphRead::neighbors_iter`] for the dead-safe variant.)
    pub fn neighbors<'a>(&'a self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        self.graph
            .neighbors_iter(v)
            .filter(move |&u| self.alive.contains(u.index()))
    }

    /// Iterates the alive neighbors of `v` sharing `v`'s label.
    pub fn same_label_neighbors<'a>(&'a self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        let label = self.graph.label(v);
        self.neighbors(v).filter(move |&u| self.graph.label(u) == label)
    }

    /// Iterates the alive neighbors of `v` with a different label.
    pub fn cross_label_neighbors<'a>(&'a self, v: VertexId) -> impl Iterator<Item = VertexId> + 'a {
        let label = self.graph.label(v);
        self.neighbors(v).filter(move |&u| self.graph.label(u) != label)
    }

    /// Removes `v` from the view, updating neighbor degree counters.
    /// Returns `false` if `v` was already dead.
    pub fn remove_vertex(&mut self, v: VertexId) -> bool {
        if !self.alive.remove(v.index()) {
            return false;
        }
        self.alive_count -= 1;
        let label = self.graph.label(v);
        for u in self.graph.neighbors_iter(v) {
            if self.alive.contains(u.index()) {
                self.degree[u.index()] -= 1;
                if self.graph.label(u) == label {
                    self.intra_degree[u.index()] -= 1;
                }
            }
        }
        self.degree[v.index()] = 0;
        self.intra_degree[v.index()] = 0;
        true
    }

    /// Number of alive edges (both endpoints alive). O(alive degrees).
    pub fn edge_count(&self) -> usize {
        let total: usize = self.alive.iter().map(|i| self.degree[i] as usize).sum();
        total / 2
    }

    /// Collects the alive vertices into a `Vec`.
    pub fn collect_vertices(&self) -> Vec<VertexId> {
        self.alive_vertices().collect()
    }

    /// The connected component of `start` within the view (empty if dead).
    pub fn component_of(&self, start: VertexId) -> BitSet {
        let mut comp = BitSet::new(self.graph.vertex_count());
        if !self.is_alive(start) {
            return comp;
        }
        let mut queue = std::collections::VecDeque::new();
        comp.insert(start.index());
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for u in self.neighbors(v) {
                if comp.insert(u.index()) {
                    queue.push_back(u);
                }
            }
        }
        comp
    }

    /// Restricts the view to the vertices in `keep` (intersection), fixing
    /// up all counters.
    pub fn restrict_to(&mut self, keep: &BitSet) {
        let to_remove: Vec<VertexId> = self
            .alive_vertices()
            .filter(|v| !keep.contains(v.index()))
            .collect();
        for v in to_remove {
            self.remove_vertex(v);
        }
    }

    /// Returns `true` if `u` and `v` are both alive and connected in the view.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        if !self.is_alive(u) || !self.is_alive(v) {
            return false;
        }
        if u == v {
            return true;
        }
        self.component_of(u).contains(v.index())
    }
}

/// A view is itself a readable graph: the live subgraph it represents.
/// `vertex_count` still sizes the full id space (dead ids included) so
/// per-vertex arrays stay index-compatible with the base graph.
impl<G: GraphRead> GraphRead for GraphView<'_, G> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn edge_count(&self) -> usize {
        GraphView::edge_count(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        self.graph.label(v)
    }

    #[inline]
    fn label_count(&self) -> usize {
        self.graph.label_count()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive_vertices()
    }

    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        GraphView::is_alive(self, v)
    }

    fn neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        // Dead-safe: a dead vertex has no live neighbors (and its base
        // adjacency is never scanned).
        let take = if self.is_alive(v) { usize::MAX } else { 0 };
        self.neighbors(v).take(take)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        GraphView::degree(self, v)
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.is_alive(u) && self.is_alive(v) && self.graph.has_edge(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::OverlayGraph;
    use crate::{EdgeChange, EdgeOp, GraphBuilder};

    fn path_graph(n: usize) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(if i % 2 == 0 { "A" } else { "B" }))
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build()
    }

    #[test]
    fn full_view_mirrors_graph() {
        let g = path_graph(5);
        let view = GraphView::new(&g);
        assert_eq!(view.alive_count(), 5);
        assert_eq!(view.edge_count(), 4);
        assert_eq!(view.degree(VertexId(2)), 2);
        // Path alternates labels, so no same-label neighbors exist.
        assert_eq!(view.intra_degree(VertexId(2)), 0);
        assert_eq!(view.cross_degree(VertexId(2)), 2);
    }

    #[test]
    fn removal_updates_counters() {
        let g = path_graph(5);
        let mut view = GraphView::new(&g);
        assert!(view.remove_vertex(VertexId(2)));
        assert!(!view.remove_vertex(VertexId(2)));
        assert_eq!(view.alive_count(), 4);
        assert_eq!(view.degree(VertexId(1)), 1);
        assert_eq!(view.degree(VertexId(3)), 1);
        assert_eq!(view.edge_count(), 2);
        assert!(!view.connected(VertexId(0), VertexId(4)));
        assert!(view.connected(VertexId(0), VertexId(1)));
    }

    #[test]
    fn from_vertices_restricts() {
        let g = path_graph(6);
        let view = GraphView::from_vertices(&g, (0..3).map(VertexId));
        assert_eq!(view.alive_count(), 3);
        assert_eq!(view.degree(VertexId(2)), 1, "edge to dead v3 not counted");
        assert_eq!(view.neighbors(VertexId(2)).count(), 1);
    }

    #[test]
    fn component_and_restrict() {
        let g = path_graph(6);
        let mut view = GraphView::new(&g);
        view.remove_vertex(VertexId(3));
        let comp = view.component_of(VertexId(0));
        assert_eq!(comp.count(), 3);
        view.restrict_to(&comp);
        assert_eq!(view.alive_count(), 3);
        assert!(!view.is_alive(VertexId(5)));
    }

    #[test]
    fn intra_degree_tracks_same_label_only() {
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let b0 = b.add_vertex("B");
        b.add_edge(a0, a1);
        b.add_edge(a0, b0);
        let g = b.build();
        let mut view = GraphView::new(&g);
        assert_eq!(view.intra_degree(a0), 1);
        assert_eq!(view.cross_degree(a0), 1);
        view.remove_vertex(a1);
        assert_eq!(view.intra_degree(a0), 0);
        assert_eq!(view.cross_degree(a0), 1);
    }

    #[test]
    fn view_over_an_overlay_tracks_staged_flips() {
        // The same peeling machinery runs over an OverlayGraph mid-commit:
        // counters must reflect the staged (not the base) adjacency.
        let g = path_graph(4); // 0-1-2-3, labels A B A B
        let mut overlay = OverlayGraph::new(&g);
        overlay.flip(&EdgeChange { u: VertexId(0), v: VertexId(2), op: EdgeOp::Insert });
        overlay.flip(&EdgeChange { u: VertexId(2), v: VertexId(3), op: EdgeOp::Remove });
        let mut view = GraphView::new(&overlay);
        assert_eq!(view.alive_count(), 4);
        assert_eq!(view.edge_count(), 3);
        assert_eq!(view.intra_degree(VertexId(0)), 1, "staged homogeneous edge {{0, 2}}");
        assert_eq!(view.degree(VertexId(3)), 0, "staged removal of {{2, 3}}");
        view.remove_vertex(VertexId(2));
        assert_eq!(view.degree(VertexId(0)), 1);
        assert_eq!(view.intra_degree(VertexId(0)), 0);
        assert!(view.connected(VertexId(0), VertexId(1)));
    }

    #[test]
    fn graph_read_on_views_is_dead_safe() {
        let g = path_graph(4);
        let mut view = GraphView::new(&g);
        view.remove_vertex(VertexId(1));
        assert_eq!(GraphRead::neighbors_iter(&view, VertexId(1)).count(), 0);
        assert_eq!(GraphRead::vertices(&view).count(), 3);
        assert!(!GraphRead::has_edge(&view, VertexId(0), VertexId(1)));
        assert!(!GraphRead::is_alive(&view, VertexId(1)));
        assert!(GraphRead::is_alive(&view, VertexId(2)));
        assert!(GraphRead::has_edge(&view, VertexId(2), VertexId(3)));
        assert_eq!(GraphRead::vertex_count(&view), 4, "id space keeps dead ids");
    }
}
