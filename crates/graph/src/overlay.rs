//! The mutable adjacency overlay: O(1)-per-edge graph mutation without
//! materializing a CSR snapshot.
//!
//! [`crate::apply_change`] splices a **complete new CSR** per edge flip —
//! O(|V| + |E|) each — which makes replaying a B-edge batch O(B·(|V|+|E|)).
//! Incremental index maintenance only ever *reads* the intermediate
//! snapshots (neighbor lists, degrees, labels, edge membership), so this
//! module replaces them with a read view:
//!
//! * [`GraphRead`] — the read-only adjacency abstraction every maintenance
//!   routine is written against. Implemented by [`LabeledGraph`] (the frozen
//!   CSR), by [`OverlayGraph`] (CSR + staged flips), and by
//!   [`crate::GraphView`] (CSR + deleted vertices), so one generic algorithm
//!   serves all three.
//! * [`OverlayGraph`] — a base CSR plus copy-on-write adjacency lists: the
//!   first flip touching a vertex copies its (typically short) neighbor
//!   slice, subsequent flips binary-insert/remove into the copy, and every
//!   read serves a plain sorted slice found through a dense per-vertex slot
//!   table (no hashing) — overlay reads cost the same as CSR reads, so the
//!   cascades run at full speed mid-batch. After a whole
//!   batch of flips, [`OverlayGraph::materialize`] emits the final snapshot
//!   in **one** linear pass.
//!
//! The contract, pinned by the differential suites: any read through
//! [`GraphRead`] on an overlay equals the same read on the snapshot
//! [`crate::apply_change`] would have produced.

use crate::delta::{EdgeChange, EdgeOp};
use crate::graph::{LabeledGraph, VertexId};
use crate::labels::Label;

/// Read-only access to a labeled graph: the id space, labels, and live
/// adjacency. The *live* graph an implementor represents may be smaller
/// than its id space (a [`crate::GraphView`] with deleted vertices);
/// [`GraphRead::vertex_count`] always sizes the dense id space so callers
/// can allocate per-vertex arrays, while [`GraphRead::vertices`] yields
/// only the live ids.
pub trait GraphRead {
    /// Size of the dense vertex-id space (including any dead ids).
    fn vertex_count(&self) -> usize;

    /// Number of live undirected edges.
    fn edge_count(&self) -> usize;

    /// The label of `v`.
    fn label(&self, v: VertexId) -> Label;

    /// Number of distinct labels in the underlying graph.
    fn label_count(&self) -> usize;

    /// Live vertices in ascending id order.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_;

    /// Whether `v` is live (one of [`GraphRead::vertices`]).
    fn is_alive(&self, v: VertexId) -> bool;

    /// Live neighbors of `v` in ascending id order. Empty when `v` itself
    /// is not live.
    fn neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_;

    /// Live degree of `v` (length of [`GraphRead::neighbors_iter`]).
    fn degree(&self, v: VertexId) -> usize;

    /// Whether the live graph contains the edge `{u, v}`.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool;

    /// Live neighbors of `v` sharing `v`'s label.
    fn same_label_neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let label = self.label(v);
        self.neighbors_iter(v).filter(move |&u| self.label(u) == label)
    }

    /// Live neighbors of `v` with a different label.
    fn cross_label_neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let label = self.label(v);
        self.neighbors_iter(v).filter(move |&u| self.label(u) != label)
    }
}

impl GraphRead for LabeledGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        LabeledGraph::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        LabeledGraph::edge_count(self)
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        LabeledGraph::label(self, v)
    }

    #[inline]
    fn label_count(&self) -> usize {
        LabeledGraph::label_count(self)
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        LabeledGraph::vertices(self)
    }

    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        v.index() < LabeledGraph::vertex_count(self)
    }

    #[inline]
    fn neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors(v).iter().copied()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        LabeledGraph::degree(self, v)
    }

    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        LabeledGraph::has_edge(self, u, v)
    }
}

/// A [`LabeledGraph`] with staged edge flips layered on top — the mutable
/// adjacency view multi-edge commits run their index maintenance against.
///
/// Vertices, labels, and names are fixed; only edges move. Adjacency is
/// copy-on-write per vertex: a flip touching `v` for the first time copies
/// `v`'s neighbor slice (O(deg)), later flips edit the copy in place
/// (O(deg) worst case, O(1) amortized for sparse vertices) — never the
/// O(|V| + |E|) CSR splice of [`crate::apply_change`]. Reads are plain
/// sorted slices either way, so traversal over an overlay costs the same
/// as over the base CSR. The one O(|V|) cost is the zeroed slot table
/// [`OverlayGraph::new`] allocates.
#[derive(Clone, Debug)]
pub struct OverlayGraph<'g> {
    base: &'g LabeledGraph,
    /// Dense slot table, one entry per vertex: 0 for an untouched vertex,
    /// otherwise 1 + the index of its list in `lists` — so a read costs
    /// one array load, never a hash probe.
    slot: Vec<u32>,
    /// Copy-on-write full adjacency lists of the touched vertices, each
    /// sorted ascending.
    lists: Vec<Vec<VertexId>>,
    edge_count: usize,
}

impl<'g> OverlayGraph<'g> {
    /// An overlay with no staged flips: reads are exactly `base`.
    pub fn new(base: &'g LabeledGraph) -> Self {
        OverlayGraph {
            base,
            slot: vec![0; base.vertex_count()],
            lists: Vec::new(),
            edge_count: base.edge_count(),
        }
    }

    /// An overlay with `changes` already applied, in order.
    pub fn from_changes(base: &'g LabeledGraph, changes: &[EdgeChange]) -> Self {
        let mut overlay = OverlayGraph::new(base);
        for change in changes {
            overlay.flip(change);
        }
        overlay
    }

    /// The base snapshot the overlay patches.
    #[inline]
    pub fn base(&self) -> &'g LabeledGraph {
        self.base
    }

    /// Number of vertices whose adjacency has been copied out of the base
    /// (an upper bound on how far the overlay has diverged).
    pub fn touched_vertices(&self) -> usize {
        self.lists.len()
    }

    /// The current sorted neighbor list of `v` (copy-on-write list if `v`
    /// was touched, the base CSR slice otherwise).
    #[inline]
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        match self.slot[v.index()] {
            0 => self.base.neighbors(v),
            s => &self.lists[s as usize - 1],
        }
    }

    /// Applies one already-validated edge flip. Debug builds assert
    /// applicability (insert of an absent edge, removal of a present one);
    /// release builds trust the staging validation, exactly like
    /// [`crate::apply_change`].
    pub fn flip(&mut self, change: &EdgeChange) {
        let (u, v) = (change.u, change.v);
        let insert = match change.op {
            EdgeOp::Insert => {
                debug_assert!(
                    !GraphRead::has_edge(self, u, v),
                    "insert of existing edge {{{u}, {v}}}"
                );
                self.edge_count += 1;
                true
            }
            EdgeOp::Remove => {
                debug_assert!(
                    GraphRead::has_edge(self, u, v),
                    "removal of missing edge {{{u}, {v}}}"
                );
                self.edge_count -= 1;
                false
            }
        };
        self.patch_one(u, v, insert);
        self.patch_one(v, u, insert);
    }

    /// Adds or drops `b` in `a`'s copy-on-write list, copying the base
    /// slice on first touch.
    fn patch_one(&mut self, a: VertexId, b: VertexId, insert: bool) {
        if self.slot[a.index()] == 0 {
            self.lists.push(self.base.neighbors(a).to_vec());
            self.slot[a.index()] = self.lists.len() as u32;
        }
        let list = &mut self.lists[self.slot[a.index()] as usize - 1];
        match list.binary_search(&b) {
            Ok(pos) if !insert => {
                list.remove(pos);
            }
            Err(pos) if insert => {
                list.insert(pos, b);
            }
            // Already in the target state: only reachable on invalid input,
            // which `flip`'s debug assertions reject.
            _ => {}
        }
    }

    /// Materializes the patched graph as a standalone snapshot in one
    /// linear pass over the (overlaid) adjacency lists — the single CSR
    /// materialization a batched commit pays.
    pub fn materialize(&self) -> LabeledGraph {
        let n = self.base.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0usize);
        for v in self.base.vertices() {
            neighbors.extend_from_slice(self.neighbor_slice(v));
            offsets.push(neighbors.len());
        }
        let (labels, interner, names) = self.base.clone_meta();
        LabeledGraph::from_parts(offsets, neighbors, labels, interner, names)
    }
}

impl GraphRead for OverlayGraph<'_> {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.base.vertex_count()
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.edge_count
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        self.base.label(v)
    }

    #[inline]
    fn label_count(&self) -> usize {
        self.base.label_count()
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.base.vertices()
    }

    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        GraphRead::is_alive(self.base, v)
    }

    #[inline]
    fn neighbors_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_slice(v).iter().copied()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.neighbor_slice(v).len()
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        // Search the endpoint with the shorter current list.
        let (su, sv) = (self.neighbor_slice(u), self.neighbor_slice(v));
        if su.len() <= sv.len() {
            su.binary_search(&v).is_ok()
        } else {
            sv.binary_search(&u).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::apply_change;
    use crate::GraphBuilder;
    use rand::{Rng, SeedableRng};

    fn random_labeled(rng: &mut impl Rng, n: usize, labels: usize, p: f64) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> =
            (0..n).map(|i| b.add_vertex(&format!("G{}", i % labels))).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    b.add_edge(vs[i], vs[j]);
                }
            }
        }
        b.build()
    }

    fn assert_reads_match(overlay: &OverlayGraph<'_>, snapshot: &LabeledGraph, context: &str) {
        assert_eq!(GraphRead::edge_count(overlay), snapshot.edge_count(), "|E| {context}");
        for v in snapshot.vertices() {
            assert_eq!(
                overlay.neighbors_iter(v).collect::<Vec<_>>(),
                snapshot.neighbors(v),
                "adjacency of {v} {context}"
            );
            assert_eq!(GraphRead::degree(overlay, v), snapshot.degree(v), "degree of {v} {context}");
            for u in snapshot.vertices() {
                if u != v {
                    assert_eq!(
                        GraphRead::has_edge(overlay, v, u),
                        snapshot.has_edge(v, u),
                        "has_edge({v}, {u}) {context}"
                    );
                }
            }
        }
    }

    #[test]
    fn fresh_overlay_mirrors_base() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let g = random_labeled(&mut rng, 9, 2, 0.4);
        let overlay = OverlayGraph::new(&g);
        assert_reads_match(&overlay, &g, "(fresh)");
        assert_eq!(overlay.touched_vertices(), 0);
        assert_eq!(GraphRead::label_count(&overlay), 2);
    }

    #[test]
    fn random_flip_sequences_match_spliced_snapshots() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for trial in 0..10 {
            let g = random_labeled(&mut rng, 10, 3, 0.35);
            let mut overlay = OverlayGraph::new(&g);
            let mut snapshot = g.clone();
            for step in 0..30 {
                let u = VertexId(rng.gen_range(0..10));
                let v = VertexId(rng.gen_range(0..10));
                if u == v {
                    continue;
                }
                let op = if snapshot.has_edge(u, v) { EdgeOp::Remove } else { EdgeOp::Insert };
                let change = EdgeChange { u, v, op };
                overlay.flip(&change);
                snapshot = apply_change(&snapshot, &change);
                assert_reads_match(&overlay, &snapshot, &format!("(trial {trial}, step {step})"));
            }
            // One linear pass produces the final snapshot bit-identically.
            let materialized = overlay.materialize();
            assert_reads_match(&overlay, &materialized, &format!("(trial {trial}, materialized)"));
            assert_eq!(materialized.vertex_count(), snapshot.vertex_count());
        }
    }

    #[test]
    fn cancelled_flips_restore_base_reads() {
        let mut b = GraphBuilder::new();
        let x = b.add_vertex("A");
        let y = b.add_vertex("A");
        let z = b.add_vertex("B");
        b.add_edge(x, y);
        let g = b.build();
        let mut overlay = OverlayGraph::new(&g);
        overlay.flip(&EdgeChange { u: x, v: z, op: EdgeOp::Insert });
        overlay.flip(&EdgeChange { u: z, v: x, op: EdgeOp::Remove });
        overlay.flip(&EdgeChange { u: x, v: y, op: EdgeOp::Remove });
        overlay.flip(&EdgeChange { u: y, v: x, op: EdgeOp::Insert });
        assert_reads_match(&overlay, &g, "(cancelled)");
        assert!(overlay.touched_vertices() > 0, "COW lists persist, reads still match");
    }

    #[test]
    fn label_partitioned_iteration() {
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let c0 = b.add_vertex("B");
        b.add_edge(a0, c0);
        let g = b.build();
        let mut overlay = OverlayGraph::new(&g);
        overlay.flip(&EdgeChange { u: a0, v: a1, op: EdgeOp::Insert });
        assert_eq!(overlay.same_label_neighbors_iter(a0).collect::<Vec<_>>(), vec![a1]);
        assert_eq!(overlay.cross_label_neighbors_iter(a0).collect::<Vec<_>>(), vec![c0]);
    }
}
