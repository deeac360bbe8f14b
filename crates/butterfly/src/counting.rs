//! Butterfly counting (Algorithm 3 and global variants).
//!
//! The butterfly degree χ(v) (Definition 3) is
//! `χ(v) = Σ_{w ∈ N²_v} C(|N(v) ∩ N(w)|, 2)` where neighborhoods are taken
//! in the bipartite cross-graph. Algorithm 3 computes it by counting 2-hop
//! paths per endpoint instead of doing pairwise set intersections.
//!
//! ## Kernels
//!
//! The hot kernels accumulate wedge endpoints in a dense epoch-stamped
//! [`WedgeScratch`] (flat `u32` counters indexed by vertex id, O(1) logical
//! clear — no hashing, no per-vertex allocation), and fold the binomial sum
//! incrementally: raising a counter from `c − 1` to `c` adds exactly
//! `C(c, 2) − C(c − 1, 2) = c − 1` new pairs, so one pass over the wedges
//! yields `Σ_w C(P[w], 2)` with no second pass over the counters.
//!
//! * [`butterfly_degrees`] / [`butterfly_degree_of`] — Algorithm 3 on the
//!   flat scratch;
//! * [`total_butterflies`] — the exact global count on the same scratch;
//! * [`butterfly_degrees_hash`] — the seed's `FxHashMap` kernel, retained
//!   verbatim as the differential reference for tests and the
//!   `index_build` benchmark.
//!
//! All counting kernels are generic over [`GraphRead`], so they run
//! unchanged on a CSR snapshot, a peeling [`bcc_graph::GraphView`], or a
//! mid-batch [`bcc_graph::OverlayGraph`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bcc_graph::{GraphRead, GraphView, Label, VertexId, WedgeScratch};
use rustc_hash::FxHashMap;

use crate::bipartite::BipartiteCross;

/// Vertices handed to one parallel counting worker per claim of the atomic
/// cursor — mirrors the offline build's χ chunking: small enough that
/// skewed wedge costs balance, large enough that the cursor is uncontended.
const COUNT_CHUNK: usize = 256;

/// `C(c, 2)` in u64.
#[inline]
pub(crate) fn choose2(c: u64) -> u64 {
    c * c.saturating_sub(1) / 2
}

/// Per-vertex butterfly degrees over the cross-graph of `cross`, plus the
/// per-side maxima that Algorithm 2 (lines 6–7) needs.
#[derive(Clone, Debug)]
pub struct ButterflyCounts {
    /// The two sides these counts were computed for.
    pub cross: BipartiteCross,
    /// χ(v) per vertex id (0 for vertices outside the cross-graph).
    pub chi: Vec<u64>,
    /// Maximum χ over the left side (`max_l` of Algorithm 2).
    pub max_left: u64,
    /// Maximum χ over the right side (`max_r` of Algorithm 2).
    pub max_right: u64,
}

impl ButterflyCounts {
    /// Runs Algorithm 3 on the live cross-graph between `cross.left` and
    /// `cross.right` inside `view`.
    pub fn compute(view: &GraphView<'_>, cross: BipartiteCross) -> Self {
        let chi = butterfly_degrees(view, cross);
        let (mut max_left, mut max_right) = (0u64, 0u64);
        let graph = view.graph();
        for v in view.alive_vertices() {
            let label = graph.label(v);
            if label == cross.left {
                max_left = max_left.max(chi[v.index()]);
            } else if label == cross.right {
                max_right = max_right.max(chi[v.index()]);
            }
        }
        ButterflyCounts {
            cross,
            chi,
            max_left,
            max_right,
        }
    }

    /// [`ButterflyCounts::compute`] across up to `threads` workers (`0` =
    /// all cores, `≤ 1` = the sequential reference path): the chi vector is
    /// split into disjoint `COUNT_CHUNK`-sized slices drained through an
    /// atomic cursor, each worker counting its vertices' wedges on its own
    /// [`WedgeScratch`]. Per-vertex χ is an independent exact computation
    /// into a disjoint output slot and the side maxima are folded afterward
    /// in ascending vertex order, so any thread count produces **the same
    /// counts bit for bit** (pinned by tests and the service differential
    /// suite).
    pub fn compute_with_threads(
        view: &GraphView<'_>,
        cross: BipartiteCross,
        threads: usize,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        let n = view.graph().vertex_count();
        if threads <= 1 || n <= COUNT_CHUNK {
            return Self::compute(view, cross);
        }
        let mut chi = vec![0u64; n];
        // Each chunk slot is claimed by exactly one worker (the cursor never
        // hands an index out twice); the Mutex<Option<..>> expresses that
        // ownership transfer safely.
        let chunks: Vec<Mutex<Option<&mut [u64]>>> =
            chi.chunks_mut(COUNT_CHUNK).map(|c| Mutex::new(Some(c))).collect();
        let cursor = AtomicUsize::new(0);
        let tasks = chunks.len();
        let workers = threads.min(tasks);
        let worker = || {
            let mut scratch = WedgeScratch::new(n);
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= tasks {
                    break;
                }
                let slice =
                    chunks[idx].lock().unwrap().take().expect("chunk claimed exactly once");
                let start = idx * COUNT_CHUNK;
                for (off, out) in slice.iter_mut().enumerate() {
                    let v = VertexId((start + off) as u32);
                    // Dead vertices have no live neighbors and off-side
                    // vertices are rejected by the kernel — both yield 0,
                    // matching the sequential pass that skips them.
                    *out = butterfly_degree_of_with(view, cross, v, &mut scratch);
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(worker);
            }
            worker();
        });
        drop(chunks);
        let (mut max_left, mut max_right) = (0u64, 0u64);
        let graph = view.graph();
        for v in view.alive_vertices() {
            let label = graph.label(v);
            if label == cross.left {
                max_left = max_left.max(chi[v.index()]);
            } else if label == cross.right {
                max_right = max_right.max(chi[v.index()]);
            }
        }
        ButterflyCounts {
            cross,
            chi,
            max_left,
            max_right,
        }
    }

    /// χ(v).
    #[inline]
    pub fn chi(&self, v: VertexId) -> u64 {
        self.chi[v.index()]
    }

    /// Maximum χ on the side of `label` (panics if `label` is not a side).
    pub fn side_max(&self, label: Label) -> u64 {
        if label == self.cross.left {
            self.max_left
        } else if label == self.cross.right {
            self.max_right
        } else {
            panic!("label {label} is not a side of this cross-graph");
        }
    }

    /// The condition of Definition 4(4): both sides contain a vertex with
    /// χ ≥ b.
    pub fn satisfies_leader_condition(&self, b: u64) -> bool {
        self.max_left >= b && self.max_right >= b
    }

    /// Total number of butterflies: each butterfly contains 4 vertices, so
    /// `Σ χ(v) / 4`.
    pub fn total(&self) -> u64 {
        self.chi.iter().sum::<u64>() / 4
    }

    /// The vertex on `label`'s side attaining the side maximum, or `None`
    /// when the side contains **no butterflies** (max χ = 0): Definition
    /// 4(4) defines a leader by χ(v) ≥ b ≥ 1, so a χ = 0 vertex is never a
    /// leader and callers must not treat one as such.
    pub fn side_argmax(&self, view: &GraphView<'_>, label: Label) -> Option<VertexId> {
        let graph = view.graph();
        view.alive_vertices()
            .filter(|&v| graph.label(v) == label && self.chi[v.index()] > 0)
            .max_by_key(|&v| self.chi[v.index()])
    }
}

/// Algorithm 3: butterfly degree of every vertex in the cross-graph.
///
/// For each vertex `v`, counts 2-hop paths `v → u → w` (with `u` on the
/// opposite side and `w ≠ v` back on `v`'s side) into one reused
/// [`WedgeScratch`], folding `Σ_w C(P[w], 2)` incrementally.
pub fn butterfly_degrees<G: GraphRead>(g: &G, cross: BipartiteCross) -> Vec<u64> {
    let n = g.vertex_count();
    let mut chi = vec![0u64; n];
    let mut scratch = WedgeScratch::new(n);
    for v in g.vertices() {
        if cross.opposite(g.label(v)).is_none() {
            continue;
        }
        chi[v.index()] = butterfly_degree_of_with(g, cross, v, &mut scratch);
    }
    chi
}

/// Butterfly degree of a single vertex (the Algorithm 3 kernel restricted
/// to one vertex). Used when a leader must be re-validated without
/// recounting the whole side. Borrows a thread-local scratch; loops should
/// call [`butterfly_degree_of_with`] with an explicit one instead.
pub fn butterfly_degree_of<G: GraphRead>(g: &G, cross: BipartiteCross, v: VertexId) -> u64 {
    WedgeScratch::with_thread_local(|scratch| butterfly_degree_of_with(g, cross, v, scratch))
}

/// [`butterfly_degree_of`] on a caller-provided scratch (reused across an
/// entire traversal — the form every hot loop uses).
pub fn butterfly_degree_of_with<G: GraphRead>(
    g: &G,
    cross: BipartiteCross,
    v: VertexId,
    scratch: &mut WedgeScratch,
) -> u64 {
    if cross.opposite(g.label(v)).is_none() {
        return 0;
    }
    scratch.reset_for(g.vertex_count());
    let mut chi = 0u64;
    for u in cross.cross_neighbors(g, v) {
        for w in cross.cross_neighbors(g, u) {
            if w != v {
                chi += (scratch.bump(w) - 1) as u64;
            }
        }
    }
    chi
}

/// The seed's Algorithm 3 kernel — `FxHashMap` wedge accumulators —
/// retained bit-for-bit as the differential reference: the kernel tests and
/// the `index_build` benchmark pin the flat kernels against it (equal
/// output, and the flat kernel must be faster).
pub fn butterfly_degrees_hash<G: GraphRead>(g: &G, cross: BipartiteCross) -> Vec<u64> {
    let n = g.vertex_count();
    let mut chi = vec![0u64; n];
    let mut paths: FxHashMap<u32, u32> = FxHashMap::default();
    for v in g.vertices() {
        let Some(_) = cross.opposite(g.label(v)) else {
            continue;
        };
        paths.clear();
        for u in cross.cross_neighbors(g, v) {
            for w in cross.cross_neighbors(g, u) {
                if w != v {
                    *paths.entry(w.0).or_insert(0) += 1;
                }
            }
        }
        chi[v.index()] = paths.values().map(|&c| choose2(c as u64)).sum();
    }
    chi
}

/// Exact global butterfly count. Each butterfly has exactly two vertices on
/// either side, so summing the Algorithm 3 per-vertex kernel over one side
/// counts every butterfly twice; the side is chosen to minimize the wedge
/// work `Σ C(deg, 2)` of the implied centers (the opposite side), and the
/// whole count runs on one reused scratch — no per-center allocation.
pub fn total_butterflies<G: GraphRead>(g: &G, cross: BipartiteCross) -> u64 {
    let wedge_cost = |side: Label| -> u64 {
        cross
            .side_vertices(g, side)
            .map(|v| choose2(cross.cross_degree(g, v) as u64))
            .sum()
    };
    // Wedges from side S route through centers on the opposite side: start
    // from the side whose *opposite* is cheaper.
    let start_side = if wedge_cost(cross.left) <= wedge_cost(cross.right) {
        cross.right
    } else {
        cross.left
    };
    let mut scratch = WedgeScratch::new(g.vertex_count());
    let mut twice = 0u64;
    for v in cross.side_vertices(g, start_side) {
        twice += butterfly_degree_of_with(g, cross, v, &mut scratch);
    }
    twice / 2
}

/// Brute-force O(n⁴) butterfly degree for tiny graphs — the test oracle.
pub fn brute_force_butterfly_degrees(view: &GraphView<'_>, cross: BipartiteCross) -> Vec<u64> {
    let graph = view.graph();
    let left: Vec<VertexId> = cross.side_vertices(view, cross.left).collect();
    let right: Vec<VertexId> = cross.side_vertices(view, cross.right).collect();
    let mut chi = vec![0u64; graph.vertex_count()];
    let cross_edge = |a: VertexId, b: VertexId| {
        graph.has_edge(a, b) && view.is_alive(a) && view.is_alive(b)
    };
    for i in 0..left.len() {
        for j in (i + 1)..left.len() {
            for x in 0..right.len() {
                for y in (x + 1)..right.len() {
                    let (l1, l2, r1, r2) = (left[i], left[j], right[x], right[y]);
                    if cross_edge(l1, r1)
                        && cross_edge(l1, r2)
                        && cross_edge(l2, r1)
                        && cross_edge(l2, r2)
                    {
                        for v in [l1, l2, r1, r2] {
                            chi[v.index()] += 1;
                        }
                    }
                }
            }
        }
    }
    chi
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, LabeledGraph};

    /// The Figure 2 bow tie: {ql, v5} × {qr, u3} is one butterfly.
    fn single_butterfly() -> (LabeledGraph, [VertexId; 4]) {
        let mut b = GraphBuilder::new();
        let ql = b.add_vertex("SE");
        let v5 = b.add_vertex("SE");
        let qr = b.add_vertex("UI");
        let u3 = b.add_vertex("UI");
        for (x, y) in [(ql, qr), (ql, u3), (v5, qr), (v5, u3)] {
            b.add_edge(x, y);
        }
        let g = b.build();
        (g, [ql, v5, qr, u3])
    }

    fn cross_of(_g: &LabeledGraph) -> BipartiteCross {
        BipartiteCross::new(bcc_graph::Label(0), bcc_graph::Label(1))
    }

    #[test]
    fn one_butterfly_means_chi_one_everywhere() {
        let (g, vs) = single_butterfly();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        for v in vs {
            assert_eq!(counts.chi(v), 1, "Example 1 of the paper: χ(qr)=1");
        }
        assert_eq!(counts.total(), 1);
        assert!(counts.satisfies_leader_condition(1));
        assert!(!counts.satisfies_leader_condition(2));
    }

    #[test]
    fn complete_bipartite_counts() {
        // K_{3,3}: χ(v) = C(2,1)*... each vertex is in C(2,1) choices? For
        // K_{m,n}, total butterflies = C(m,2)*C(n,2) = 9; each left vertex is
        // in C(2,1)=2 of the C(3,2)=3 left pairs → χ = 2*C(3,2) = 2*3 = 6.
        let mut b = GraphBuilder::new();
        let left: Vec<_> = (0..3).map(|_| b.add_vertex("L")).collect();
        let right: Vec<_> = (0..3).map(|_| b.add_vertex("R")).collect();
        for &l in &left {
            for &r in &right {
                b.add_edge(l, r);
            }
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        for v in g.vertices() {
            assert_eq!(counts.chi(v), 6);
        }
        assert_eq!(counts.total(), 9);
        assert_eq!(total_butterflies(&view, cross_of(&g)), 9);
    }

    #[test]
    fn homogeneous_edges_do_not_count() {
        let (g0, _) = single_butterfly();
        // Rebuild with an extra same-label edge — butterfly counts unchanged.
        let mut b = GraphBuilder::new();
        let ql = b.add_vertex("SE");
        let v5 = b.add_vertex("SE");
        let qr = b.add_vertex("UI");
        let u3 = b.add_vertex("UI");
        for (x, y) in [(ql, qr), (ql, u3), (v5, qr), (v5, u3), (ql, v5), (qr, u3)] {
            b.add_edge(x, y);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        let view0 = GraphView::new(&g0);
        let counts0 = ButterflyCounts::compute(&view0, cross_of(&g0));
        assert_eq!(counts.chi, counts0.chi);
    }

    #[test]
    fn third_label_vertices_ignored() {
        let mut b = GraphBuilder::new();
        let l0 = b.add_vertex("L");
        let l1 = b.add_vertex("L");
        let r0 = b.add_vertex("R");
        let r1 = b.add_vertex("R");
        let z = b.add_vertex("Z");
        for (x, y) in [(l0, r0), (l0, r1), (l1, r0), (l1, r1)] {
            b.add_edge(x, y);
        }
        // z connects to everything but is not a side.
        for v in [l0, l1, r0, r1] {
            b.add_edge(z, v);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let cross = BipartiteCross::new(g.label(l0), g.label(r0));
        let counts = ButterflyCounts::compute(&view, cross);
        assert_eq!(counts.chi(z), 0);
        assert_eq!(counts.chi(l0), 1);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn deletion_shrinks_counts() {
        let (g, vs) = single_butterfly();
        let mut view = GraphView::new(&g);
        view.remove_vertex(vs[1]); // drop v5 → no butterfly left
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        assert!(counts.chi.iter().all(|&c| c == 0));
        assert!(!counts.satisfies_leader_condition(1));
    }

    #[test]
    fn matches_brute_force_on_random_bipartite() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for trial in 0..20 {
            let mut b = GraphBuilder::new();
            let left: Vec<_> = (0..6).map(|_| b.add_vertex("L")).collect();
            let right: Vec<_> = (0..6).map(|_| b.add_vertex("R")).collect();
            for &l in &left {
                for &r in &right {
                    if rng.gen_bool(0.45) {
                        b.add_edge(l, r);
                    }
                }
            }
            // A few homogeneous edges that must not matter.
            b.add_edge(left[0], left[1]);
            b.add_edge(right[2], right[3]);
            let g = b.build();
            let view = GraphView::new(&g);
            let cross = cross_of(&g);
            let expected = brute_force_butterfly_degrees(&view, cross);
            let fast = butterfly_degrees(&view, cross);
            assert_eq!(fast, expected, "trial {trial}");
            assert_eq!(butterfly_degrees_hash(&view, cross), expected, "trial {trial} (hash)");
            let total: u64 = expected.iter().sum::<u64>() / 4;
            assert_eq!(total_butterflies(&view, cross), total, "trial {trial}");
            for &v in left.iter().chain(&right) {
                assert_eq!(
                    butterfly_degree_of(&view, cross, v),
                    expected[v.index()],
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn parallel_compute_is_bit_identical_at_every_thread_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB1F);
        // Big enough to clear the COUNT_CHUNK sequential shortcut, with a
        // third label the cross-graph must ignore and a scatter of deletions.
        let mut b = GraphBuilder::new();
        let left: Vec<_> = (0..260).map(|_| b.add_vertex("L")).collect();
        let right: Vec<_> = (0..260).map(|_| b.add_vertex("R")).collect();
        let other: Vec<_> = (0..60).map(|_| b.add_vertex("Z")).collect();
        for &l in &left {
            for &r in &right {
                if rng.gen_bool(0.02) {
                    b.add_edge(l, r);
                }
            }
        }
        for (i, &z) in other.iter().enumerate() {
            b.add_edge(z, left[i % left.len()]);
            b.add_edge(z, right[(i * 7) % right.len()]);
        }
        let g = b.build();
        let mut view = GraphView::new(&g);
        for i in (0..g.vertex_count() as u32).step_by(11) {
            view.remove_vertex(VertexId(i));
        }
        let cross = cross_of(&g);
        let reference = ButterflyCounts::compute(&view, cross);
        for threads in [1usize, 2, 3, 7, 0] {
            let par = ButterflyCounts::compute_with_threads(&view, cross, threads);
            assert_eq!(par.chi, reference.chi, "threads {threads}");
            assert_eq!(par.max_left, reference.max_left, "threads {threads}");
            assert_eq!(par.max_right, reference.max_right, "threads {threads}");
        }
    }

    #[test]
    fn side_argmax_finds_leader() {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex("L");
        let l1 = b.add_vertex("L");
        let l2 = b.add_vertex("L");
        let r: Vec<_> = (0..3).map(|_| b.add_vertex("R")).collect();
        // hub connects to all right vertices; l1/l2 to two each.
        for &x in &r {
            b.add_edge(hub, x);
        }
        b.add_edge(l1, r[0]);
        b.add_edge(l1, r[1]);
        b.add_edge(l2, r[1]);
        b.add_edge(l2, r[2]);
        let g = b.build();
        let view = GraphView::new(&g);
        let cross = cross_of(&g);
        let counts = ButterflyCounts::compute(&view, cross);
        assert_eq!(counts.side_argmax(&view, g.label(hub)), Some(hub));
        assert_eq!(counts.side_max(g.label(hub)), counts.chi(hub));
    }

    #[test]
    fn side_argmax_is_none_without_butterflies() {
        // A 4-cycle missing one chord: edges (l0,r0), (l0,r1), (l1,r0) form
        // wedges but no butterfly — χ = 0 everywhere. Definition 4(4) admits
        // no leader, so side_argmax must not nominate an arbitrary χ = 0
        // vertex on either side (nor on a populated side of an otherwise
        // empty cross-graph).
        let mut b = GraphBuilder::new();
        let l0 = b.add_vertex("L");
        let l1 = b.add_vertex("L");
        let r0 = b.add_vertex("R");
        let r1 = b.add_vertex("R");
        for (x, y) in [(l0, r0), (l0, r1), (l1, r0)] {
            b.add_edge(x, y);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        assert_eq!(counts.max_left, 0);
        assert_eq!(counts.side_argmax(&view, g.label(l0)), None);
        assert_eq!(counts.side_argmax(&view, g.label(r0)), None);
        assert!(!counts.satisfies_leader_condition(1));
    }

    #[test]
    fn side_argmax_ignores_chi_zero_vertices_next_to_real_leaders() {
        // One butterfly plus a pendant left vertex with a single cross edge:
        // the pendant has χ = 0 and must never shadow the real argmax, and
        // the butterfly members must still be found.
        let mut b = GraphBuilder::new();
        let ql = b.add_vertex("SE");
        let v5 = b.add_vertex("SE");
        let qr = b.add_vertex("UI");
        let u3 = b.add_vertex("UI");
        let pendant = b.add_vertex("SE");
        for (x, y) in [(ql, qr), (ql, u3), (v5, qr), (v5, u3), (pendant, qr)] {
            b.add_edge(x, y);
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let counts = ButterflyCounts::compute(&view, cross_of(&g));
        let leader = counts.side_argmax(&view, g.label(ql)).expect("side has a butterfly");
        assert_ne!(leader, pendant);
        assert_eq!(counts.chi(leader), 1);
    }
}
