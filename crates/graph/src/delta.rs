//! Edge-level mutations over an immutable [`LabeledGraph`].
//!
//! [`LabeledGraph`] is a frozen CSR snapshot — the right shape for the
//! read-heavy search algorithms, the wrong shape for a live graph. This
//! module closes the gap without giving up immutability: a [`GraphDelta`]
//! *stages* validated edge inserts/deletes against a base snapshot, and
//! [`GraphDelta::apply`] / [`apply_change`] splice them into a **new**
//! snapshot in one linear pass over the CSR arrays: untouched vertices are
//! block-copied run by run, and only the vertices a net change touches are
//! merged (no re-sorting, no re-interning, no per-entry lookup — the
//! O(|E| log |E|) [`crate::GraphBuilder`] path is for initial construction
//! only).
//!
//! The vertex set is fixed: deltas mutate edges, not vertices. Staging is
//! sequential and fully validated — a change is accepted only if it is
//! applicable at its position in the staged order (inserting an edge that is
//! absent *after the changes staged so far*, removing one that is present) —
//! so the staged list can be replayed change-by-change, which is exactly
//! what incremental index maintenance needs (each Algorithm 4 cascade /
//! Algorithm 7 delta is derived from one edge flip against the snapshot it
//! applies to).

use rustc_hash::FxHashMap;

use crate::graph::{LabeledGraph, VertexId};

/// The direction of one staged edge change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Add the edge `{u, v}`.
    Insert,
    /// Delete the edge `{u, v}`.
    Remove,
}

/// One validated edge flip.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeChange {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Insert or remove.
    pub op: EdgeOp,
}

impl EdgeChange {
    /// The endpoint pair in canonical `(min, max)` order.
    #[inline]
    pub fn key(&self) -> (u32, u32) {
        (self.u.0.min(self.v.0), self.u.0.max(self.v.0))
    }
}

/// Why a change could not be staged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Both endpoints are the same vertex.
    SelfLoop(VertexId),
    /// An endpoint id is outside the graph's vertex range.
    OutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The graph's vertex count.
        vertex_count: usize,
    },
    /// Insert of an edge that already exists (in the base graph or staged).
    EdgeExists(VertexId, VertexId),
    /// Remove of an edge that does not exist (or was staged away).
    EdgeMissing(VertexId, VertexId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SelfLoop(v) => write!(f, "self-loop on {v} rejected"),
            DeltaError::OutOfRange { vertex, vertex_count } => {
                write!(f, "vertex id {} out of range (graph has {vertex_count} vertices)", vertex.0)
            }
            DeltaError::EdgeExists(u, v) => write!(f, "edge {{{u}, {v}}} already exists"),
            DeltaError::EdgeMissing(u, v) => write!(f, "edge {{{u}, {v}}} does not exist"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A validated, ordered batch of edge changes against one base snapshot.
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    changes: Vec<EdgeChange>,
    /// Net presence of every *touched* pair after all staged changes.
    overlay: FxHashMap<(u32, u32), bool>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Number of staged changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// The staged changes in order.
    pub fn changes(&self) -> &[EdgeChange] {
        &self.changes
    }

    /// Whether `{u, v}` exists in `graph` *after* the staged changes.
    pub fn has_edge(&self, graph: &LabeledGraph, u: VertexId, v: VertexId) -> bool {
        let key = (u.0.min(v.0), u.0.max(v.0));
        match self.overlay.get(&key) {
            Some(&present) => present,
            None => graph.has_edge(u, v),
        }
    }

    fn validate_endpoints(
        graph: &LabeledGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DeltaError> {
        let n = graph.vertex_count();
        for w in [u, v] {
            if w.index() >= n {
                return Err(DeltaError::OutOfRange { vertex: w, vertex_count: n });
            }
        }
        if u == v {
            return Err(DeltaError::SelfLoop(u));
        }
        Ok(())
    }

    /// Stages the insert of `{u, v}`. Rejects self-loops, out-of-range ids,
    /// and edges already present (in the base or via earlier staged inserts).
    pub fn stage_insert(
        &mut self,
        graph: &LabeledGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DeltaError> {
        Self::validate_endpoints(graph, u, v)?;
        if self.has_edge(graph, u, v) {
            return Err(DeltaError::EdgeExists(u, v));
        }
        self.changes.push(EdgeChange { u, v, op: EdgeOp::Insert });
        self.overlay.insert((u.0.min(v.0), u.0.max(v.0)), true);
        Ok(())
    }

    /// Stages the removal of `{u, v}`. Rejects self-loops, out-of-range ids,
    /// and edges that are absent (in the base or staged away already).
    pub fn stage_remove(
        &mut self,
        graph: &LabeledGraph,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DeltaError> {
        Self::validate_endpoints(graph, u, v)?;
        if !self.has_edge(graph, u, v) {
            return Err(DeltaError::EdgeMissing(u, v));
        }
        self.changes.push(EdgeChange { u, v, op: EdgeOp::Remove });
        self.overlay.insert((u.0.min(v.0), u.0.max(v.0)), false);
        Ok(())
    }

    /// Applies every staged change in a single CSR merge pass, producing the
    /// patched snapshot. Equivalent to (but much cheaper than) replaying the
    /// changes through a fresh [`crate::GraphBuilder`].
    pub fn apply(&self, graph: &LabeledGraph) -> LabeledGraph {
        // Reduce the overlay to the *net* difference against the base.
        let mut net = Vec::new();
        for (&(a, b), &present) in &self.overlay {
            if present != graph.has_edge(VertexId(a), VertexId(b)) {
                net.push(NetChange { at: a, other: VertexId(b), insert: present });
                net.push(NetChange { at: b, other: VertexId(a), insert: present });
            }
        }
        splice(graph, net)
    }
}

/// Applies one already-validated [`EdgeChange`] to `graph`, producing the
/// patched snapshot. The incremental index-maintenance path replays a
/// [`GraphDelta`] through this one change at a time, so each Algorithm 4 /
/// Algorithm 7 step sees the exact pre/post snapshots it is defined on.
///
/// Debug builds assert applicability (insert of an absent edge, removal of a
/// present one); release builds trust the staging validation.
pub fn apply_change(graph: &LabeledGraph, change: &EdgeChange) -> LabeledGraph {
    let (u, v) = (change.u, change.v);
    let insert = change.op == EdgeOp::Insert;
    debug_assert_eq!(
        graph.has_edge(u, v),
        !insert,
        "{:?} of edge {{{u}, {v}}} does not apply",
        change.op
    );
    splice(
        graph,
        vec![
            NetChange { at: u.0, other: v, insert },
            NetChange { at: v.0, other: u, insert },
        ],
    )
}

/// One directed half of a net edge change: `other` enters or leaves `at`'s
/// adjacency list.
struct NetChange {
    at: u32,
    other: VertexId,
    insert: bool,
}

/// One linear pass over the CSR arrays that touches only what changed: each
/// run of untouched vertices is copied with one `extend_from_slice` (and
/// its offsets shifted), and each touched vertex merges its sorted old
/// neighbor slice with its sorted changes.
fn splice(graph: &LabeledGraph, mut net: Vec<NetChange>) -> LabeledGraph {
    net.sort_unstable_by_key(|c| (c.at, c.other));
    let (old_offsets, old_neighbors) = graph.raw_parts();
    let inserted = net.iter().filter(|c| c.insert).count();
    let n = graph.vertex_count();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbors = Vec::with_capacity(old_neighbors.len() + inserted);
    offsets.push(0usize);
    let mut touched = net.chunk_by(|a, b| a.at == b.at).peekable();
    let mut next = 0usize; // first vertex not yet emitted
    loop {
        // The untouched vertices `next..at` go over as one block.
        let at = touched.peek().map_or(n, |changes| changes[0].at as usize);
        let (old_start, new_start) = (old_offsets[next], neighbors.len());
        neighbors.extend_from_slice(&old_neighbors[old_start..old_offsets[at]]);
        offsets.extend(old_offsets[next + 1..=at].iter().map(|&o| o - old_start + new_start));
        let Some(changes) = touched.next() else { break };
        let mut pending = changes.iter().peekable();
        for &w in graph.neighbors(VertexId(at as u32)) {
            while let Some(c) = pending.next_if(|c| c.other < w) {
                debug_assert!(c.insert, "removal of missing edge {{{at}, {}}}", c.other);
                neighbors.push(c.other);
            }
            if let Some(c) = pending.next_if(|c| c.other == w) {
                debug_assert!(!c.insert, "insert of existing edge {{{at}, {w}}}");
                continue;
            }
            neighbors.push(w);
        }
        neighbors.extend(pending.map(|c| {
            debug_assert!(c.insert, "removal of missing edge {{{at}, {}}}", c.other);
            c.other
        }));
        offsets.push(neighbors.len());
        next = at + 1;
    }
    let (labels, interner, names) = graph.clone_meta();
    LabeledGraph::from_parts(offsets, neighbors, labels, interner, names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two labeled triangles joined by one cross edge (the Figure 1 core).
    fn two_triangles() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..3).map(|_| b.add_vertex("SE")).collect();
        let c: Vec<_> = (0..3).map(|_| b.add_vertex("UI")).collect();
        for (u, v) in [(a[0], a[1]), (a[1], a[2]), (a[0], a[2])] {
            b.add_edge(u, v);
        }
        for (u, v) in [(c[0], c[1]), (c[1], c[2]), (c[0], c[2])] {
            b.add_edge(u, v);
        }
        b.add_edge(a[0], c[0]);
        b.build()
    }

    /// Rebuilds `graph` with `delta` applied through a fresh `GraphBuilder`
    /// — the slow reference the splice path must match exactly.
    fn rebuild(graph: &LabeledGraph, delta: &GraphDelta) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        for v in graph.vertices() {
            let label = graph.interner().name(graph.label(v)).unwrap();
            b.add_named_vertex(&graph.vertex_name(v), label);
        }
        for (u, v) in graph.edges() {
            if delta.has_edge(graph, u, v) {
                b.add_edge(u, v);
            }
        }
        for (&(a, bb), &present) in &delta.overlay {
            if present && !graph.has_edge(VertexId(a), VertexId(bb)) {
                b.add_edge(VertexId(a), VertexId(bb));
            }
        }
        b.build()
    }

    fn assert_same(lhs: &LabeledGraph, rhs: &LabeledGraph) {
        assert_eq!(lhs.vertex_count(), rhs.vertex_count());
        assert_eq!(lhs.edge_count(), rhs.edge_count());
        for v in lhs.vertices() {
            assert_eq!(lhs.label(v), rhs.label(v), "label of {v}");
            assert_eq!(lhs.neighbors(v), rhs.neighbors(v), "adjacency of {v}");
        }
    }

    #[test]
    fn staging_validates() {
        let g = two_triangles();
        let mut d = GraphDelta::new();
        assert_eq!(
            d.stage_insert(&g, VertexId(0), VertexId(0)),
            Err(DeltaError::SelfLoop(VertexId(0)))
        );
        assert!(matches!(
            d.stage_insert(&g, VertexId(0), VertexId(99)),
            Err(DeltaError::OutOfRange { .. })
        ));
        assert_eq!(
            d.stage_insert(&g, VertexId(0), VertexId(1)),
            Err(DeltaError::EdgeExists(VertexId(0), VertexId(1)))
        );
        assert_eq!(
            d.stage_remove(&g, VertexId(0), VertexId(4)),
            Err(DeltaError::EdgeMissing(VertexId(0), VertexId(4)))
        );
        assert!(d.is_empty());
    }

    #[test]
    fn staging_tracks_the_overlay() {
        let g = two_triangles();
        let mut d = GraphDelta::new();
        d.stage_insert(&g, VertexId(0), VertexId(4)).unwrap();
        // Double-insert of the staged edge is rejected; so is re-removal.
        assert!(d.stage_insert(&g, VertexId(4), VertexId(0)).is_err());
        d.stage_remove(&g, VertexId(4), VertexId(0)).unwrap();
        assert!(d.stage_remove(&g, VertexId(0), VertexId(4)).is_err());
        assert_eq!(d.len(), 2, "cancelled pairs still record both steps");
        // Net effect: nothing changed.
        let patched = d.apply(&g);
        assert_same(&patched, &g);
    }

    #[test]
    fn apply_matches_builder_rebuild() {
        let g = two_triangles();
        let mut d = GraphDelta::new();
        d.stage_insert(&g, VertexId(0), VertexId(4)).unwrap();
        d.stage_insert(&g, VertexId(2), VertexId(5)).unwrap();
        d.stage_remove(&g, VertexId(0), VertexId(1)).unwrap();
        d.stage_remove(&g, VertexId(3), VertexId(4)).unwrap();
        let patched = d.apply(&g);
        assert_same(&patched, &rebuild(&g, &d));
        assert_eq!(patched.edge_count(), 7);
        // The base snapshot is untouched.
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(0), VertexId(4)));
    }

    #[test]
    fn apply_change_steps_equal_batch_apply() {
        let g = two_triangles();
        let mut d = GraphDelta::new();
        d.stage_remove(&g, VertexId(0), VertexId(3)).unwrap();
        d.stage_insert(&g, VertexId(1), VertexId(4)).unwrap();
        d.stage_insert(&g, VertexId(0), VertexId(3)).unwrap();
        let mut stepped = g.clone();
        for change in d.changes() {
            stepped = apply_change(&stepped, change);
        }
        assert_same(&stepped, &d.apply(&g));
    }

    #[test]
    fn patched_snapshot_keeps_names_and_labels() {
        let mut b = GraphBuilder::new();
        let x = b.add_named_vertex("ali\"ce", "L");
        let y = b.add_named_vertex("bob", "R");
        let z = b.add_named_vertex("carol", "R");
        b.add_edge(x, y);
        let g = b.build();
        let mut d = GraphDelta::new();
        d.stage_insert(&g, x, z).unwrap();
        let patched = d.apply(&g);
        assert_eq!(patched.vertex_name(x), "ali\"ce");
        assert_eq!(patched.vertex_by_name("carol"), Some(z));
        assert_eq!(patched.label(y), patched.label(z));
        assert_eq!(patched.label_count(), 2);
        assert_eq!(patched.edge_count(), 2);
    }

    #[test]
    fn empty_delta_is_an_identity_copy() {
        let g = two_triangles();
        let d = GraphDelta::new();
        assert_same(&d.apply(&g), &g);
    }
}
