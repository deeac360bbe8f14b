//! Incremental BCindex maintenance under edge updates — single flips and
//! batched commits.
//!
//! The offline/online split of Section 6.3 only pays off at scale if the
//! offline [`BccIndex`] survives graph change. This module patches the two
//! per-vertex components in place after an edge flip, instead of rebuilding:
//!
//! * **label coreness δ** — an edge is *homogeneous* or it does not touch a
//!   label-induced subgraph at all, so only a homogeneous flip can move δ,
//!   and only inside the flipped edge's label group. One flip moves δ by at
//!   most 1, and only for vertices with δ = k = min(δ(u), δ(v)). Both
//!   directions are local traversals (the traversal algorithm of Sariyüce
//!   et al., "Streaming Algorithms for k-core Decomposition", PVLDB 2013)
//!   that never build a view of the label group:
//!   - a deletion runs the Algorithm 4 cascade over δ = k vertices only,
//!     from the endpoints: a vertex's core degree (same-label neighbors with
//!     δ ≥ k not yet peeled) is computed on its first visit and decremented
//!     as its neighbors peel;
//!   - an insertion traverses, from the endpoints, only δ = k vertices
//!     that keep more than k neighbors with δ ≥ k (the purecore), and
//!     evicts a vertex as soon as its count of neighbors that can still
//!     reach k + 1 falls to k; the visited vertices never evicted rise to
//!     k + 1.
//! * **butterfly degree χ** — χ counts wedges made of *cross* edges only,
//!   so only a heterogeneous flip can move it, and only for vertices in the
//!   flipped edge's closed neighborhood. Two-label graphs take the
//!   Algorithm 7 edge delta ([`bcc_butterfly::edge_decrement`], O(d²) per
//!   affected vertex); multi-label graphs recompute the aggregate χ locally
//!   ([`crate::index::hetero_butterfly_degree_of`]).
//!
//! **Batched commits.** [`patch_index_edge`] needs the pre- and post-flip
//! snapshots, so replaying a B-edge batch through it forces B CSR splices —
//! O(B·(|V|+|E|)) just to materialize graphs the cascades only *read*.
//! [`patch_index_batch`] removes that cost: it layers an
//! [`bcc_graph::OverlayGraph`] over the base snapshot, advances it one O(1)
//! edge flip at a time, and runs the identical cascades/deltas against the
//! overlay. Per-flip state lives in epoch-stamped scratch arrays allocated
//! once per batch, so a flip costs what its traversal visits. The caller
//! materializes the final snapshot once (e.g. via
//! [`bcc_graph::GraphDelta::apply`] or [`bcc_graph::OverlayGraph::materialize`]).
//!
//! The contract, pinned by the differential suites: after any sequence of
//! [`patch_index_edge`] calls — or one [`patch_index_batch`] over the same
//! changes — the index is **bit-identical** to `BccIndex::build` on the
//! final snapshot.

use bcc_butterfly::BipartiteCross;
use bcc_graph::{EdgeChange, EdgeOp, GraphRead, LabeledGraph, OverlayGraph, VertexId, WedgeScratch};
use rustc_hash::FxHashSet;

use crate::index::{hetero_butterfly_degree_of_with, BccIndex};

/// Which index entries one [`patch_index_edge`] call moved.
#[derive(Clone, Debug, Default)]
pub struct PatchReport {
    /// Vertices whose label coreness δ changed (by exactly ±1).
    pub coreness_changed: Vec<VertexId>,
    /// Vertices whose butterfly degree χ changed.
    pub chi_changed: Vec<VertexId>,
}

impl PatchReport {
    /// True when the flip moved no index entry at all.
    pub fn is_empty(&self) -> bool {
        self.coreness_changed.is_empty() && self.chi_changed.is_empty()
    }
}

/// What one [`patch_index_batch`] call did across the whole batch.
#[derive(Clone, Debug, Default)]
pub struct BatchPatchReport {
    /// Number of edge changes applied.
    pub applied: usize,
    /// Vertices whose search-relevant state moved anywhere in the batch:
    /// every change's endpoints, their pre/post-flip neighborhoods, and
    /// every index entry the cascades/deltas changed — the union of what
    /// per-edge replay would have reported via [`affected_neighborhood`]
    /// plus its [`PatchReport`]s. This is the cache-invalidation scope.
    pub dirty: FxHashSet<u32>,
    /// How many per-change δ entry moves occurred (entries may recur).
    pub coreness_moves: usize,
    /// How many per-change χ entry moves occurred (entries may recur).
    pub chi_moves: usize,
    /// Wall time spent in Algorithm 4 δ cascades across the batch.
    pub time_cascade: std::time::Duration,
    /// Wall time spent in Algorithm 7 χ deltas across the batch.
    pub time_chi_delta: std::time::Duration,
}

/// The closed neighborhood an edge flip can influence: the endpoints plus
/// every neighbor either endpoint has in the pre- or post-flip snapshot.
/// Search results and index entries outside this set can only move through
/// the cascades, which [`PatchReport`] tracks separately.
pub fn affected_neighborhood(
    before: &LabeledGraph,
    after: &LabeledGraph,
    change: &EdgeChange,
) -> Vec<VertexId> {
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut out = Vec::new();
    for host in [before, after] {
        for w in [change.u, change.v] {
            if seen.insert(w.0) {
                out.push(w);
            }
            for &x in host.neighbors(w) {
                if seen.insert(x.0) {
                    out.push(x);
                }
            }
        }
    }
    out
}

/// [`affected_neighborhood`] evaluated on a single host containing the
/// pre-flip state, written into `out` (sorted): the post-flip neighborhoods
/// add only the endpoints themselves (an insert links `u` and `v`, a removal
/// unlinks them), which are already in the set — so one pre-flip read
/// suffices.
fn affected_on<G: GraphRead>(host: &G, change: &EdgeChange, out: &mut Vec<VertexId>) {
    out.clear();
    out.extend([change.u, change.v]);
    out.extend(host.neighbors_iter(change.u));
    out.extend(host.neighbors_iter(change.v));
    out.sort_unstable();
    out.dedup();
}

/// Patches `index` (valid for `before`) so it becomes valid for `after`,
/// where the two snapshots differ by exactly `change`. Returns which entries
/// moved.
///
/// `delta_max`/`chi_max` are refreshed from the patched arrays, so the index
/// stays self-consistent after every call.
pub fn patch_index_edge(
    index: &mut BccIndex,
    before: &LabeledGraph,
    after: &LabeledGraph,
    change: &EdgeChange,
) -> PatchReport {
    let mut report = PatchReport::default();
    if before.label(change.u) == before.label(change.v) {
        let mut scratch = CoreScratch::new(after.vertex_count());
        patch_coreness(index, after, change, &mut scratch, &mut report);
        if !report.coreness_changed.is_empty() {
            index.delta_max = index.label_coreness.iter().copied().max().unwrap_or(0);
        }
    } else {
        let affected = affected_neighborhood(before, after, change);
        // One flat scratch for every per-vertex delta of this flip.
        let mut scratch = WedgeScratch::new(after.vertex_count());
        if after.label_count() == 2 {
            // The Algorithm 7 edge delta is evaluated on whichever snapshot
            // contains the edge.
            let host = match change.op {
                EdgeOp::Insert => after,
                EdgeOp::Remove => before,
            };
            patch_chi_bipartite(index, host, change, &affected, &mut scratch, &mut report);
        } else {
            patch_chi_multilabel(index, after, &affected, &mut scratch, &mut report);
        }
        if !report.chi_changed.is_empty() {
            index.chi_max = index.butterfly_degree.iter().copied().max().unwrap_or(0);
        }
    }
    report
}

/// Applies a whole batch of edge changes to `index` (valid for `base`)
/// without materializing any intermediate snapshot: each change flips one
/// entry of a mutable adjacency overlay (O(1) for the graph part), then
/// runs the same Algorithm 4 cascade / Algorithm 7 delta the per-edge path
/// runs — against the overlay. Bit-identical to replaying the changes
/// through [`patch_index_edge`], at O(maintenance) instead of
/// O(B·(|V|+|E|)) + O(maintenance) total.
///
/// The changes must be sequentially applicable to `base` (the validated
/// order of a [`bcc_graph::GraphDelta`]). The final snapshot is *not*
/// built here — commit callers splice it once from the same delta.
pub fn patch_index_batch(
    index: &mut BccIndex,
    base: &LabeledGraph,
    changes: &[EdgeChange],
) -> BatchPatchReport {
    let mut overlay = OverlayGraph::new(base);
    let mut report = BatchPatchReport { applied: changes.len(), ..Default::default() };
    // One scratch of each kind serves every flip of the whole commit.
    let mut wedges = WedgeScratch::new(base.vertex_count());
    let mut cores = CoreScratch::new(base.vertex_count());
    let mut affected = Vec::new();
    for change in changes {
        let mut step = PatchReport::default();
        // Pre-flip read: equals the per-edge affected_neighborhood (the
        // post state adds only the endpoints, which are always included).
        affected_on(&overlay, change, &mut affected);
        report.dirty.extend(affected.iter().map(|w| w.0));
        if overlay.label(change.u) == overlay.label(change.v) {
            overlay.flip(change);
            let t = std::time::Instant::now();
            patch_coreness(index, &overlay, change, &mut cores, &mut step);
            report.time_cascade += t.elapsed();
        } else if overlay.label_count() == 2 {
            let t = std::time::Instant::now();
            match change.op {
                EdgeOp::Insert => {
                    overlay.flip(change);
                    patch_chi_bipartite(index, &overlay, change, &affected, &mut wedges, &mut step);
                }
                EdgeOp::Remove => {
                    // Evaluate while the overlay still contains the edge.
                    patch_chi_bipartite(index, &overlay, change, &affected, &mut wedges, &mut step);
                    overlay.flip(change);
                }
            }
            report.time_chi_delta += t.elapsed();
        } else {
            overlay.flip(change);
            let t = std::time::Instant::now();
            patch_chi_multilabel(index, &overlay, &affected, &mut wedges, &mut step);
            report.time_chi_delta += t.elapsed();
        }
        report.coreness_moves += step.coreness_changed.len();
        report.chi_moves += step.chi_changed.len();
        report.dirty.extend(step.coreness_changed.iter().chain(&step.chi_changed).map(|w| w.0));
    }
    // The maxima depend only on the final arrays, so one refresh per batch
    // lands on the same values as the per-edge path's per-change refreshes.
    if report.coreness_moves > 0 {
        index.delta_max = index.label_coreness.iter().copied().max().unwrap_or(0);
    }
    if report.chi_moves > 0 {
        index.chi_max = index.butterfly_degree.iter().copied().max().unwrap_or(0);
    }
    report
}

/// Per-flip state of the δ traversals, epoch-stamped like [`WedgeScratch`]:
/// a vertex's `flags` (and the `degree` they validate) are live only while
/// its stamp equals the current epoch, so [`CoreScratch::begin`] clears
/// everything in O(1). Allocated once per batch.
struct CoreScratch {
    epoch: u32,
    stamp: Vec<u32>,
    flags: Vec<u8>,
    /// The vertex's core degree (deletions) or candidate degree
    /// (insertions); valid while [`VISITED`] is set.
    degree: Vec<u32>,
    /// Visited vertices still to expand (insertions) or to process
    /// (deletions).
    stack: Vec<VertexId>,
    /// Insertions: evicted vertices whose neighbors still await their
    /// decrement.
    evicting: Vec<VertexId>,
    /// Insertions: every visited vertex, in visit order.
    visited: Vec<VertexId>,
}

/// `degree` holds this flip's count for the vertex.
const VISITED: u8 = 1;
/// The vertex is out: it left the k-core (deletions) or cannot join the
/// (k+1)-core (insertions).
const EVICTED: u8 = 1 << 1;
/// Insertions: the vertex's MCD is known; [`MCD_HIGH`] holds MCD > k.
const MCD_KNOWN: u8 = 1 << 2;
const MCD_HIGH: u8 = 1 << 3;

impl CoreScratch {
    fn new(capacity: usize) -> Self {
        CoreScratch {
            epoch: 0,
            stamp: vec![0; capacity],
            flags: vec![0; capacity],
            degree: vec![0; capacity],
            stack: Vec::new(),
            evicting: Vec::new(),
            visited: Vec::new(),
        }
    }

    /// Starts a flip: every vertex reads as untouched again.
    fn begin(&mut self) {
        self.stack.clear();
        self.evicting.clear();
        self.visited.clear();
        // On wrap, clear the stamps once so no stale one reads as live.
        match self.epoch.checked_add(1) {
            Some(next) => self.epoch = next,
            None => {
                self.stamp.fill(0);
                self.epoch = 1;
            }
        }
    }

    #[inline]
    fn has(&self, v: VertexId, flag: u8) -> bool {
        self.stamp[v.index()] == self.epoch && self.flags[v.index()] & flag != 0
    }

    #[inline]
    fn set(&mut self, v: VertexId, flag: u8) {
        let i = v.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.flags[i] = 0;
        }
        self.flags[i] |= flag;
    }

    /// Records `v`'s count for this flip and marks it [`VISITED`].
    #[inline]
    fn visit(&mut self, v: VertexId, degree: u32) {
        self.set(v, VISITED);
        self.degree[v.index()] = degree;
    }
}

/// δ maintenance for a homogeneous flip, within the edge's label group.
/// `after` is any [`GraphRead`] of the post-flip graph — a spliced snapshot
/// on the per-edge path, the live overlay on the batched path.
fn patch_coreness<G: GraphRead>(
    index: &mut BccIndex,
    after: &G,
    change: &EdgeChange,
    scratch: &mut CoreScratch,
    report: &mut PatchReport,
) {
    let k = index.coreness(change.u).min(index.coreness(change.v));
    scratch.begin();
    match change.op {
        // Neither endpoint was in any positive core: nothing can drop.
        EdgeOp::Remove if k == 0 => {}
        EdgeOp::Remove => lower_core(&mut index.label_coreness, after, change, k, scratch, report),
        EdgeOp::Insert => raise_core(&mut index.label_coreness, after, change, k, scratch, report),
    }
}

/// Number of `v`'s same-label neighbors with δ ≥ `k`, counting at most
/// `cap` of them.
fn core_degree<G: GraphRead>(after: &G, delta: &[u32], v: VertexId, k: u32, cap: u32) -> u32 {
    let label = after.label(v);
    let mut count = 0;
    for w in after.neighbors_iter(v) {
        if after.label(w) == label && delta[w.index()] >= k {
            count += 1;
            if count == cap {
                break;
            }
        }
    }
    count
}

/// Deletion of `{u, v}` with k = min(δ(u), δ(v)) ≥ 1: the Algorithm 4
/// cascade over δ = k vertices. Deeper vertices never lose the edge's
/// support, so they are never visited. A processed vertex drops to k − 1
/// at once, which removes it from every later [`core_degree`]; a queued
/// one is still counted until it is processed and decrements its
/// neighbors.
fn lower_core<G: GraphRead>(
    delta: &mut [u32],
    after: &G,
    change: &EdgeChange,
    k: u32,
    scratch: &mut CoreScratch,
    report: &mut PatchReport,
) {
    let label = after.label(change.u);
    for root in [change.u, change.v] {
        if delta[root.index()] == k && !scratch.has(root, VISITED) {
            scratch.visit(root, core_degree(after, delta, root, k, u32::MAX));
            if scratch.degree[root.index()] < k {
                scratch.set(root, EVICTED);
                scratch.stack.push(root);
            }
        }
    }
    while let Some(x) = scratch.stack.pop() {
        delta[x.index()] = k - 1;
        report.coreness_changed.push(x);
        for w in after.neighbors_iter(x) {
            if after.label(w) != label || delta[w.index()] != k || scratch.has(w, EVICTED) {
                continue;
            }
            if scratch.has(w, VISITED) {
                scratch.degree[w.index()] -= 1;
            } else {
                scratch.visit(w, core_degree(after, delta, w, k, u32::MAX));
            }
            if scratch.degree[w.index()] < k {
                scratch.set(w, EVICTED);
                scratch.stack.push(w);
            }
        }
    }
}

/// Insertion of `{u, v}` with k = min(δ(u), δ(v)): the traversal with
/// purecore pruning. Counting same-label neighbors on the post-flip graph,
/// MCD(x) is the number with δ ≥ k. A vertex that rises to k + 1 keeps
/// k + 1 neighbors in the new (k+1)-core, all with δ ≥ k, so it has
/// MCD > k; and each of those neighbors has δ > k or rose too. So the
/// traversal visits only δ = k vertices with MCD > k, and gives each a
/// candidate degree: its neighbors with δ > k, plus those with δ = k,
/// MCD > k, not yet evicted. A vertex whose candidate degree is at most k
/// cannot rise; it is evicted, decrements its visited neighbors (which
/// may evict them in turn), and is never expanded. Every component of the
/// risers contains an endpoint — otherwise it would have been part of the
/// old (k+1)-core — so a traversal from the endpoints through non-evicted
/// vertices reaches all of them, and the visited vertices never evicted
/// are exactly the risers.
fn raise_core<G: GraphRead>(
    delta: &mut [u32],
    after: &G,
    change: &EdgeChange,
    k: u32,
    scratch: &mut CoreScratch,
    report: &mut PatchReport,
) {
    let label = after.label(change.u);
    for root in [change.u, change.v] {
        if delta[root.index()] == k
            && !scratch.has(root, VISITED)
            && mcd_exceeds(delta, after, root, k, scratch)
        {
            visit_candidate(delta, after, root, k, scratch);
        }
    }
    while let Some(x) = scratch.stack.pop() {
        for w in after.neighbors_iter(x) {
            if scratch.has(x, EVICTED) {
                break; // an evicted vertex leads to no riser
            }
            if after.label(w) == label
                && delta[w.index()] == k
                && !scratch.has(w, VISITED)
                && mcd_exceeds(delta, after, w, k, scratch)
            {
                visit_candidate(delta, after, w, k, scratch);
            }
        }
    }
    for &t in &scratch.visited {
        if !scratch.has(t, EVICTED) {
            delta[t.index()] = k + 1;
            report.coreness_changed.push(t);
        }
    }
}

/// Whether the δ = k vertex `x` has MCD > k, computed once per flip.
fn mcd_exceeds<G: GraphRead>(
    delta: &[u32],
    after: &G,
    x: VertexId,
    k: u32,
    scratch: &mut CoreScratch,
) -> bool {
    if !scratch.has(x, MCD_KNOWN) {
        scratch.set(x, MCD_KNOWN);
        if core_degree(after, delta, x, k, k + 1) > k {
            scratch.set(x, MCD_HIGH);
        }
    }
    scratch.has(x, MCD_HIGH)
}

/// Visits `w` during an insertion: counts its candidate degree, then
/// queues it for expansion or evicts it. An eviction propagates to
/// completion before the traversal visits anything else, so a vertex
/// visited later never counts an evicted neighbor that would still
/// decrement it.
fn visit_candidate<G: GraphRead>(
    delta: &[u32],
    after: &G,
    w: VertexId,
    k: u32,
    scratch: &mut CoreScratch,
) {
    let label = after.label(w);
    let mut degree = 0;
    for y in after.neighbors_iter(w) {
        if after.label(y) != label {
            continue;
        }
        let d = delta[y.index()];
        if d > k
            || (d == k && !scratch.has(y, EVICTED) && mcd_exceeds(delta, after, y, k, scratch))
        {
            degree += 1;
        }
    }
    scratch.visit(w, degree);
    scratch.visited.push(w);
    if degree > k {
        scratch.stack.push(w);
        return;
    }
    scratch.set(w, EVICTED);
    scratch.evicting.push(w);
    while let Some(y) = scratch.evicting.pop() {
        for z in after.neighbors_iter(y) {
            // Visited vertices share the label and counted `y`.
            if scratch.has(z, VISITED) && !scratch.has(z, EVICTED) {
                scratch.degree[z.index()] -= 1;
                if scratch.degree[z.index()] <= k {
                    scratch.set(z, EVICTED);
                    scratch.evicting.push(z);
                }
            }
        }
    }
}

/// χ maintenance on a two-label graph: the aggregate χ *is* the bipartite
/// butterfly degree, so the Algorithm 7 edge delta applies verbatim. `host`
/// must contain the flipped edge (post-insert or pre-remove state).
fn patch_chi_bipartite<G: GraphRead>(
    index: &mut BccIndex,
    host: &G,
    change: &EdgeChange,
    affected: &[VertexId],
    scratch: &mut WedgeScratch,
    report: &mut PatchReport,
) {
    let cross = BipartiteCross::new(host.label(change.u), host.label(change.v));
    for &p in affected {
        let delta =
            bcc_butterfly::edge_decrement_with(host, cross, p, change.u, change.v, scratch);
        if delta == 0 {
            continue;
        }
        match change.op {
            EdgeOp::Insert => index.butterfly_degree[p.index()] += delta,
            EdgeOp::Remove => index.butterfly_degree[p.index()] -= delta,
        }
        report.chi_changed.push(p);
    }
}

/// χ maintenance with three or more labels: recompute the aggregate χ
/// locally on the post-flip graph — still O(d²) per affected vertex, never
/// a global recount.
fn patch_chi_multilabel<G: GraphRead>(
    index: &mut BccIndex,
    after: &G,
    affected: &[VertexId],
    scratch: &mut WedgeScratch,
    report: &mut PatchReport,
) {
    for &p in affected {
        let fresh = hetero_butterfly_degree_of_with(after, p, scratch);
        if fresh != index.butterfly_degree[p.index()] {
            index.butterfly_degree[p.index()] = fresh;
            report.chi_changed.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{apply_change, GraphBuilder};

    fn assert_index_eq(patched: &BccIndex, rebuilt: &BccIndex, context: &str) {
        assert_eq!(patched.label_coreness, rebuilt.label_coreness, "δ after {context}");
        assert_eq!(patched.butterfly_degree, rebuilt.butterfly_degree, "χ after {context}");
        assert_eq!(patched.delta_max, rebuilt.delta_max, "δ_max after {context}");
        assert_eq!(patched.chi_max, rebuilt.chi_max, "χ_max after {context}");
    }

    /// Two labeled 4-cliques bridged by a 2×2 butterfly.
    fn butterfly_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
        for grp in [&l, &r] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(grp[i], grp[j]);
                }
            }
        }
        for &x in &l[..2] {
            for &y in &r[..2] {
                b.add_edge(x, y);
            }
        }
        b.build()
    }

    fn flip(graph: &LabeledGraph, u: u32, v: u32, op: EdgeOp) -> (LabeledGraph, EdgeChange) {
        let change = EdgeChange { u: VertexId(u), v: VertexId(v), op };
        (apply_change(graph, &change), change)
    }

    #[test]
    fn homogeneous_deletion_cascades_coreness() {
        let g = butterfly_graph();
        let mut index = BccIndex::build(&g);
        let (after, change) = flip(&g, 0, 1, EdgeOp::Remove);
        let report = patch_index_edge(&mut index, &g, &after, &change);
        // The left 4-clique loses an edge: its 3-core collapses to a 2-core.
        assert_eq!(report.coreness_changed.len(), 4);
        assert!(report.chi_changed.is_empty(), "homogeneous flips never move χ");
        assert_index_eq(&index, &BccIndex::build(&after), "remove {0,1}");
    }

    #[test]
    fn homogeneous_insertion_raises_coreness() {
        let g = butterfly_graph();
        let (base, change) = flip(&g, 0, 1, EdgeOp::Remove);
        let mut index = BccIndex::build(&base);
        // Re-insert the edge: the 4-clique's 3-core re-forms.
        let restored = apply_change(&base, &EdgeChange { op: EdgeOp::Insert, ..change });
        let report = patch_index_edge(
            &mut index,
            &base,
            &restored,
            &EdgeChange { op: EdgeOp::Insert, ..change },
        );
        assert_eq!(report.coreness_changed.len(), 4);
        assert_index_eq(&index, &BccIndex::build(&restored), "re-insert {0,1}");
    }

    #[test]
    fn heterogeneous_flip_moves_only_chi() {
        let g = butterfly_graph();
        let mut index = BccIndex::build(&g);
        let (after, change) = flip(&g, 0, 4, EdgeOp::Remove);
        let report = patch_index_edge(&mut index, &g, &after, &change);
        assert!(report.coreness_changed.is_empty(), "heterogeneous flips never move δ");
        assert!(!report.chi_changed.is_empty());
        assert_index_eq(&index, &BccIndex::build(&after), "remove {0,4}");

        let restored = apply_change(&after, &EdgeChange { op: EdgeOp::Insert, ..change });
        patch_index_edge(&mut index, &after, &restored, &EdgeChange { op: EdgeOp::Insert, ..change });
        assert_index_eq(&index, &BccIndex::build(&restored), "re-insert {0,4}");
    }

    #[test]
    fn isolated_label_pair_insertion() {
        // Two vertices of one label with no homogeneous edges: inserting the
        // first edge lifts both from δ = 0 to δ = 1 (the k = 0 corner).
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let c = b.add_vertex("B");
        b.add_edge(a0, c);
        b.add_edge(a1, c);
        let g = b.build();
        let mut index = BccIndex::build(&g);
        let (after, change) = flip(&g, 0, 1, EdgeOp::Insert);
        let report = patch_index_edge(&mut index, &g, &after, &change);
        assert_eq!(report.coreness_changed.len(), 2);
        assert_index_eq(&index, &BccIndex::build(&after), "first homogeneous edge");
    }

    #[test]
    fn multi_label_chi_patching() {
        // Three labels exercise the aggregate-χ (non-bipartite) path.
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..2).map(|_| b.add_vertex("A")).collect();
        let bs: Vec<_> = (0..2).map(|_| b.add_vertex("B")).collect();
        let cs: Vec<_> = (0..2).map(|_| b.add_vertex("C")).collect();
        for &x in &a {
            for &y in bs.iter().chain(&cs) {
                b.add_edge(x, y);
            }
        }
        let g = b.build();
        let mut index = BccIndex::build(&g);
        let (after, change) = flip(&g, 0, 2, EdgeOp::Remove);
        patch_index_edge(&mut index, &g, &after, &change);
        assert_index_eq(&index, &BccIndex::build(&after), "3-label remove");
        let (restored, ins) = flip(&after, 0, 2, EdgeOp::Insert);
        patch_index_edge(&mut index, &after, &restored, &ins);
        assert_index_eq(&index, &BccIndex::build(&restored), "3-label insert");
    }

    #[test]
    fn batch_patch_matches_per_edge_on_fixtures() {
        // A mixed batch over the bridged-cliques fixture: homogeneous remove,
        // heterogeneous insert + remove, and a cancelling pair.
        let g = butterfly_graph();
        let changes = [
            EdgeChange { u: VertexId(0), v: VertexId(1), op: EdgeOp::Remove },
            EdgeChange { u: VertexId(2), v: VertexId(6), op: EdgeOp::Insert },
            EdgeChange { u: VertexId(0), v: VertexId(4), op: EdgeOp::Remove },
            EdgeChange { u: VertexId(0), v: VertexId(1), op: EdgeOp::Insert },
        ];
        let mut per_edge = BccIndex::build(&g);
        let mut batched = per_edge.clone();
        let mut dirty_ref: FxHashSet<u32> = FxHashSet::default();
        let mut stepped = g.clone();
        for change in &changes {
            let next = apply_change(&stepped, change);
            for w in affected_neighborhood(&stepped, &next, change) {
                dirty_ref.insert(w.0);
            }
            let report = patch_index_edge(&mut per_edge, &stepped, &next, change);
            for w in report.coreness_changed.iter().chain(&report.chi_changed) {
                dirty_ref.insert(w.0);
            }
            stepped = next;
        }
        let report = patch_index_batch(&mut batched, &g, &changes);
        assert_eq!(report.applied, 4);
        assert_index_eq(&batched, &per_edge, "batch vs per-edge replay");
        assert_index_eq(&batched, &BccIndex::build(&stepped), "batch vs rebuild");
        assert_eq!(report.dirty, dirty_ref, "batch dirty set is the per-edge union");
    }

    /// One label throughout. A K5 anchors `u` (to its first two vertices)
    /// and `v` (to the next two); a 20-vertex path joins `u` to `v`. The
    /// path and both endpoints sit at δ = 2; the anchor at δ = 4.
    fn anchored_path() -> (LabeledGraph, VertexId, VertexId) {
        let mut b = GraphBuilder::new();
        let anchor: Vec<_> = (0..5).map(|_| b.add_vertex("A")).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(anchor[i], anchor[j]);
            }
        }
        let u = b.add_vertex("A");
        let path: Vec<_> = (0..20).map(|_| b.add_vertex("A")).collect();
        let v = b.add_vertex("A");
        b.add_edge(u, anchor[0]);
        b.add_edge(u, anchor[1]);
        b.add_edge(v, anchor[2]);
        b.add_edge(v, anchor[3]);
        b.add_edge(u, path[0]);
        for w in path.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.add_edge(path[19], v);
        (b.build(), u, v)
    }

    /// Runs the δ patch of one homogeneous flip on the post-flip snapshot
    /// and hands back the scratch, so a test can see what it visited.
    fn coreness_scratch(index: &mut BccIndex, after: &LabeledGraph, change: &EdgeChange) -> CoreScratch {
        let mut scratch = CoreScratch::new(after.vertex_count());
        patch_coreness(index, after, change, &mut scratch, &mut PatchReport::default());
        scratch
    }

    #[test]
    fn insertion_traverses_only_the_purecore() {
        let (g, u, v) = anchored_path();
        let mut index = BccIndex::build(&g);
        let region = g.vertices().filter(|&w| index.coreness(w) == 2).count();
        assert_eq!(region, 22, "the δ = 2 region: the path and both endpoints");
        let (after, change) = flip(&g, u.0, v.0, EdgeOp::Insert);
        let scratch = coreness_scratch(&mut index, &after, &change);
        // The path's vertices have MCD 2, so only the endpoints pass the
        // purecore test: the traversal visits them, reads the MCD of their
        // two path neighbors, and touches nothing else of the region.
        let mut visited = scratch.visited.clone();
        visited.sort_unstable();
        assert_eq!(visited, vec![u, v]);
        let known = after.vertices().filter(|&w| scratch.has(w, MCD_KNOWN)).count();
        assert_eq!(known, 4);
        assert_index_eq(&index, &BccIndex::build(&after), "insert {u, v}");
        assert_eq!((index.coreness(u), index.coreness(v)), (3, 3), "the endpoints rise");
    }

    #[test]
    fn insertion_evicts_candidates_whose_support_falls_out() {
        // One label, all at δ = 2: the 4-cycle u–a–v–b, and a triangle
        // hanging off each of a and b. Inserting {u, v} gives u and v three
        // candidate neighbors each, but a and b keep only two (their
        // triangle partners have MCD 2): evicting a must cascade to u and
        // v, and nothing rises.
        let mut b = GraphBuilder::new();
        let [u, v, x, y] = [(); 4].map(|_| b.add_vertex("A"));
        for hub in [x, y] {
            b.add_edge(u, hub);
            b.add_edge(v, hub);
            let [c, d] = [(); 2].map(|_| b.add_vertex("A"));
            b.add_edge(hub, c);
            b.add_edge(hub, d);
            b.add_edge(c, d);
        }
        let g = b.build();
        let mut index = BccIndex::build(&g);
        assert!(g.vertices().all(|w| index.coreness(w) == 2));
        let (after, change) = flip(&g, u.0, v.0, EdgeOp::Insert);
        let scratch = coreness_scratch(&mut index, &after, &change);
        assert!(scratch.visited.len() >= 3, "u and v pass the purecore test");
        assert!(scratch.visited.iter().all(|&w| scratch.has(w, EVICTED)));
        assert_index_eq(&index, &BccIndex::build(&after), "insert {u, v}");
    }

    #[test]
    fn batch_inserting_then_removing_one_edge_restores_the_index() {
        let (g, u, v) = anchored_path();
        let reference = BccIndex::build(&g);
        let mut index = reference.clone();
        let report = patch_index_batch(
            &mut index,
            &g,
            &[
                EdgeChange { u, v, op: EdgeOp::Insert },
                EdgeChange { u: v, v: u, op: EdgeOp::Remove },
            ],
        );
        assert_eq!(report.coreness_moves, 4, "both endpoints rise, then fall back");
        assert_index_eq(&index, &reference, "insert then remove {u, v}");
        for w in [u, v] {
            assert!(report.dirty.contains(&w.0));
        }
    }

    /// One label: two disjoint copies of K8 minus one edge (every vertex at
    /// δ = 6), the first with a pendant vertex. Returns the graph and each
    /// copy's vertices; the missing edge is between each copy's first two.
    fn two_near_cliques() -> (LabeledGraph, Vec<VertexId>, Vec<VertexId>) {
        let mut b = GraphBuilder::new();
        let mut copies = Vec::new();
        for _ in 0..2 {
            let c: Vec<_> = (0..8).map(|_| b.add_vertex("A")).collect();
            for i in 0..8 {
                for j in (i + 1)..8 {
                    if (i, j) != (0, 1) {
                        b.add_edge(c[i], c[j]);
                    }
                }
            }
            copies.push(c);
        }
        let pendant = b.add_vertex("A");
        b.add_edge(pendant, copies[0][2]);
        let second = copies.pop().unwrap();
        (b.build(), copies.pop().unwrap(), second)
    }

    #[test]
    fn insertion_raises_and_removal_drops_a_whole_component() {
        let (g, first, second) = two_near_cliques();
        let mut index = BccIndex::build(&g);
        assert!(first.iter().chain(&second).all(|&w| index.coreness(w) == 6));
        // Completing the first copy lifts all 8 of its vertices to δ = 7;
        // the second copy and the pendant stay where they are.
        let (full, insert) = flip(&g, first[0].0, first[1].0, EdgeOp::Insert);
        let report = patch_index_edge(&mut index, &g, &full, &insert);
        let mut moved = report.coreness_changed.clone();
        moved.sort_unstable();
        assert_eq!(moved, first);
        assert_index_eq(&index, &BccIndex::build(&full), "complete the first copy");
        // Removing another of its edges drops the whole copy back to 6.
        let (cut, remove) = flip(&full, first[3].0, first[6].0, EdgeOp::Remove);
        let report = patch_index_edge(&mut index, &full, &cut, &remove);
        let mut moved = report.coreness_changed.clone();
        moved.sort_unstable();
        assert_eq!(moved, first);
        assert_index_eq(&index, &BccIndex::build(&cut), "cut the completed copy");
        assert!(second.iter().all(|&w| index.coreness(w) == 6));
    }

    #[test]
    fn removal_cascade_stops_where_the_core_degree_holds() {
        // A theta graph of one label: hubs s and t joined by three paths
        // with two interior vertices each, all at δ = 2. Cutting the first
        // path drops its interior to δ = 1; the cascade reaches s and t,
        // which keep two paths each and must stay at δ = 2.
        let mut b = GraphBuilder::new();
        let s = b.add_vertex("A");
        let t = b.add_vertex("A");
        let paths: Vec<[VertexId; 2]> =
            (0..3).map(|_| [b.add_vertex("A"), b.add_vertex("A")]).collect();
        for [x, y] in &paths {
            b.add_edge(s, *x);
            b.add_edge(*x, *y);
            b.add_edge(*y, t);
        }
        let g = b.build();
        let mut index = BccIndex::build(&g);
        assert!(g.vertices().all(|w| index.coreness(w) == 2));
        let [x, y] = paths[0];
        let (after, change) = flip(&g, x.0, y.0, EdgeOp::Remove);
        let report = patch_index_edge(&mut index, &g, &after, &change);
        let mut moved = report.coreness_changed.clone();
        moved.sort_unstable();
        assert_eq!(moved, vec![x, y]);
        assert_eq!((index.coreness(s), index.coreness(t)), (2, 2));
        assert_index_eq(&index, &BccIndex::build(&after), "cut the first path");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = butterfly_graph();
        let reference = BccIndex::build(&g);
        let mut index = reference.clone();
        let report = patch_index_batch(&mut index, &g, &[]);
        assert_eq!(report.applied, 0);
        assert!(report.dirty.is_empty());
        assert_index_eq(&index, &reference, "empty batch");
    }
}
