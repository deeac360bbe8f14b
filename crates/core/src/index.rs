//! The offline BCindex of Section 6.3.
//!
//! Two components per vertex, both O(1) to read at query time:
//!
//! * **coreness** δ(v) inside v's own label group (the k-core of the
//!   label-induced subgraph — the quantity conditions 2–3 of Definition 4
//!   constrain);
//! * **butterfly degree** χ(v) in the bipartite graph between v's label
//!   group and all differently-labeled vertices. On a two-label graph this
//!   is exactly the paper's per-vertex butterfly index; with more labels it
//!   is the natural aggregate (and is used only as a search prior for the
//!   butterfly-core path weight, never for validity checks).
//!
//! The build is the offline cost every `register` and every cold L2P query
//! pays. Its χ half runs on the flat epoch-stamped wedge scratch
//! ([`bcc_graph::WedgeScratch`] — no hashing, no per-vertex allocation) and
//! parallelizes over vertex chunks ([`BccIndex::build_with_threads`]);
//! every configuration is bit-identical to the retained seed implementation
//! ([`BccIndex::build_reference`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bcc_graph::{GraphRead, GraphView, LabeledGraph, VertexId, WedgeScratch};
use rustc_hash::FxHashMap;

/// Vertices handed to one parallel χ worker per claim of the atomic
/// cursor — small enough that skewed wedge costs still balance across
/// workers, large enough that the cursor is not contended.
const CHI_CHUNK: usize = 256;

/// The offline index: label coreness + heterogeneous butterfly degree.
#[derive(Clone, Debug)]
pub struct BccIndex {
    /// δ(v): coreness of v within its label group.
    pub label_coreness: Vec<u32>,
    /// χ(v): butterfly degree of v against all other labels.
    pub butterfly_degree: Vec<u64>,
    /// max δ over the graph (`δ_max` of Definition 6).
    pub delta_max: u32,
    /// max χ over the graph (`χ_max` of Definition 6).
    pub chi_max: u64,
}

impl BccIndex {
    /// Builds the index for `graph` (run once offline, reused across
    /// queries) on the calling thread, with the flat wedge kernel.
    /// Equivalent to [`BccIndex::build_with_threads`] at 1 thread.
    pub fn build(graph: &LabeledGraph) -> Self {
        Self::build_with_threads(graph, 1)
    }

    /// Builds the index with up to `threads` worker threads (0 ⇒ one per
    /// available core). The build has two halves — the δ peeling pass and
    /// the per-vertex χ wedge counts — and the parallel path runs them as
    /// two internally-parallel phases: first the bucketed level-synchronous
    /// δ decomposition (`bcc_cohesion::label_core_decomposition_parallel`)
    /// across all workers, then the χ chunks drained through an atomic
    /// cursor by `std::thread::scope` workers, each with its own
    /// [`WedgeScratch`]. (The earlier design ran δ as a single task in the
    /// χ pool, which made it the build's sequential critical path at high
    /// thread counts — the straggler PR 5 recorded.) δ is order-independent
    /// and per-vertex χ is an independent exact computation, so any thread
    /// count produces a **bit-identical** index (pinned by the test suite
    /// and the `index_build` benchmark).
    ///
    /// This is hand-rolled `std::thread` parallelism: the workspace builds
    /// offline with no thread-pool crate, so the build drives its own
    /// `std::thread::scope` workers.
    pub fn build_with_threads(graph: &LabeledGraph, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            threads
        };
        let n = graph.vertex_count();
        let (label_coreness, butterfly_degree) = if threads <= 1 || n <= CHI_CHUNK {
            (
                bcc_cohesion::label_core_decomposition_direct(graph),
                hetero_butterfly_degrees(graph),
            )
        } else {
            build_halves_parallel(graph, threads)
        };
        let delta_max = label_coreness.iter().copied().max().unwrap_or(0);
        let chi_max = butterfly_degree.iter().copied().max().unwrap_or(0);
        BccIndex {
            label_coreness,
            butterfly_degree,
            delta_max,
            chi_max,
        }
    }

    /// The seed implementation — hash-map wedge accumulators, one thread —
    /// retained verbatim as the differential oracle: tests and the
    /// `index_build` benchmark require every [`BccIndex::build_with_threads`]
    /// configuration to reproduce this index bit for bit (and the flat
    /// kernel to beat it).
    pub fn build_reference(graph: &LabeledGraph) -> Self {
        let view = GraphView::new(graph);
        let label_coreness = bcc_cohesion::label_core_decomposition(&view);
        let butterfly_degree = hetero_butterfly_degrees_hash(&view);
        let delta_max = label_coreness.iter().copied().max().unwrap_or(0);
        let chi_max = butterfly_degree.iter().copied().max().unwrap_or(0);
        BccIndex {
            label_coreness,
            butterfly_degree,
            delta_max,
            chi_max,
        }
    }

    /// δ(v).
    #[inline]
    pub fn coreness(&self, v: VertexId) -> u32 {
        self.label_coreness[v.index()]
    }

    /// χ(v).
    #[inline]
    pub fn chi(&self, v: VertexId) -> u64 {
        self.butterfly_degree[v.index()]
    }
}

/// The parallel build body: phase 1 peels δ with the bucketed
/// level-synchronous engine across all `threads` workers; phase 2 drains χ
/// chunks of [`CHI_CHUNK`] vertices through an atomic cursor claimed by
/// scoped workers — the calling thread is one of them.
fn build_halves_parallel(graph: &LabeledGraph, threads: usize) -> (Vec<u32>, Vec<u64>) {
    // Phase 1 — δ across the whole pool. The PR 5 design handed δ to a
    // single worker in the χ task pool, so at high thread counts the build
    // took max(δ, χ/T) with δ fixed: the sequential critical path the
    // `index_build` benchmark records. The bucketed decomposition peels
    // level-synchronously, bit-identically to the sequential peel.
    let label_coreness = bcc_cohesion::label_core_decomposition_parallel(graph, threads);

    // Phase 2 — χ chunks. Each chunk slot is claimed by exactly one worker
    // (the cursor never hands an index out twice), the Mutex<Option<..>>
    // just makes that ownership transfer safe to express.
    let n = graph.vertex_count();
    let mut chi = vec![0u64; n];
    let chunks: Vec<Mutex<Option<&mut [u64]>>> =
        chi.chunks_mut(CHI_CHUNK).map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);
    let tasks = chunks.len();
    // A worker beyond the task count would only pay its spawn + scratch
    // allocation to observe an exhausted cursor.
    let threads = threads.min(tasks);
    let worker = || {
        let mut scratch = WedgeScratch::new(n);
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= tasks {
                break;
            }
            let slice = chunks[idx].lock().unwrap().take().expect("chunk claimed exactly once");
            let start = idx * CHI_CHUNK;
            for (off, out) in slice.iter_mut().enumerate() {
                *out = hetero_butterfly_degree_of_with(
                    graph,
                    VertexId((start + off) as u32),
                    &mut scratch,
                );
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(worker);
        }
        worker();
    });
    drop(chunks);
    (label_coreness, chi)
}

/// Butterfly degrees where the "opposite side" of a vertex is *any* other
/// label: wedges v → u → w with `ℓ(u) ≠ ℓ(v)` and `ℓ(w) = ℓ(v)`. Reduces to
/// Algorithm 3 on two-label graphs. One flat [`WedgeScratch`] serves the
/// whole pass. Public for the `index_build` benchmark, which times this χ
/// pass against [`hetero_butterfly_degrees_hash`].
pub fn hetero_butterfly_degrees<G: GraphRead>(g: &G) -> Vec<u64> {
    let n = g.vertex_count();
    let mut chi = vec![0u64; n];
    let mut scratch = WedgeScratch::new(n);
    for v in g.vertices() {
        chi[v.index()] = hetero_butterfly_degree_of_with(g, v, &mut scratch);
    }
    chi
}

/// χ(v) alone — the per-vertex wedge count the full decomposition loops
/// over, exposed for incremental maintenance (see [`crate::incremental`]):
/// an edge flip can only change χ inside the flipped edge's closed
/// neighborhood, so patching recomputes exactly those entries. Generic over
/// any [`GraphRead`] source — the batched commit path evaluates it on the
/// mid-batch [`bcc_graph::OverlayGraph`] without materializing a snapshot.
/// Borrows a thread-local scratch; loops should pass their own via
/// [`hetero_butterfly_degree_of_with`].
pub fn hetero_butterfly_degree_of<G: GraphRead>(g: &G, v: VertexId) -> u64 {
    WedgeScratch::with_thread_local(|scratch| hetero_butterfly_degree_of_with(g, v, scratch))
}

/// [`hetero_butterfly_degree_of`] on a caller-provided scratch — the flat
/// Algorithm 3 kernel every maintenance loop and build worker reuses.
pub fn hetero_butterfly_degree_of_with<G: GraphRead>(
    g: &G,
    v: VertexId,
    scratch: &mut WedgeScratch,
) -> u64 {
    let label = g.label(v);
    scratch.reset_for(g.vertex_count());
    let mut chi = 0u64;
    for u in g.cross_label_neighbors_iter(v) {
        for w in g.neighbors_iter(u) {
            if w != v && g.label(w) == label {
                chi += (scratch.bump(w) - 1) as u64;
            }
        }
    }
    chi
}

/// The seed's hash-map χ pass, retained for [`BccIndex::build_reference`]
/// and as the timing baseline of the `index_build` benchmark.
pub fn hetero_butterfly_degrees_hash(view: &GraphView<'_>) -> Vec<u64> {
    let mut chi = vec![0u64; view.graph().vertex_count()];
    let mut paths: FxHashMap<u32, u32> = FxHashMap::default();
    for v in view.alive_vertices() {
        let label = view.graph().label(v);
        paths.clear();
        for u in view.cross_label_neighbors_iter(v) {
            for w in view.neighbors_iter(u) {
                if w != v && view.graph().label(w) == label {
                    *paths.entry(w.0).or_insert(0) += 1;
                }
            }
        }
        chi[v.index()] = paths
            .values()
            .map(|&c| (c as u64) * (c as u64).saturating_sub(1) / 2)
            .sum();
    }
    chi
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_butterfly::{butterfly_degrees, BipartiteCross};
    use bcc_graph::GraphBuilder;

    #[test]
    fn two_label_index_matches_algorithm3() {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
        let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(l[i], l[j]);
            }
        }
        for &x in &l[..3] {
            for &y in &r[..3] {
                b.add_edge(x, y);
            }
        }
        let g = b.build();
        let index = BccIndex::build(&g);
        let view = GraphView::new(&g);
        let direct = butterfly_degrees(&view, BipartiteCross::new(g.label(l[0]), g.label(r[0])));
        assert_eq!(index.butterfly_degree, direct);
        assert_eq!(index.coreness(l[0]), 3, "left 4-clique");
        assert_eq!(index.coreness(r[0]), 0, "right side has no homogeneous edges");
        assert_eq!(index.delta_max, 3);
        assert!(index.chi_max > 0);
    }

    #[test]
    fn index_on_empty_graph() {
        let g = GraphBuilder::new().build();
        let index = BccIndex::build(&g);
        assert_eq!(index.delta_max, 0);
        assert_eq!(index.chi_max, 0);
    }

    #[test]
    fn every_thread_count_is_bit_identical_to_the_seed_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1D3);
        // Sizes straddle the CHI_CHUNK threshold so both the sequential
        // shortcut and the real chunked parallel path are exercised.
        for (n, labels, p) in [(60usize, 2usize, 0.2), (320, 3, 0.03), (700, 4, 0.015)] {
            let names: Vec<String> = (0..labels).map(|i| format!("G{i}")).collect();
            let mut b = GraphBuilder::new();
            let vs: Vec<_> =
                (0..n).map(|_| b.add_vertex(&names[rng.gen_range(0..labels)])).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(p) {
                        b.add_edge(vs[i], vs[j]);
                    }
                }
            }
            let g = b.build();
            let reference = BccIndex::build_reference(&g);
            for threads in [1usize, 2, 3, 7, 0] {
                let built = BccIndex::build_with_threads(&g, threads);
                assert_eq!(
                    built.label_coreness, reference.label_coreness,
                    "δ (n={n}, threads={threads})"
                );
                assert_eq!(
                    built.butterfly_degree, reference.butterfly_degree,
                    "χ (n={n}, threads={threads})"
                );
                assert_eq!(built.delta_max, reference.delta_max);
                assert_eq!(built.chi_max, reference.chi_max);
            }
        }
    }

    #[test]
    fn multi_label_chi_aggregates() {
        // v sits in one butterfly with label B and one with label C.
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let b0 = b.add_vertex("B");
        let b1 = b.add_vertex("B");
        let c0 = b.add_vertex("C");
        let c1 = b.add_vertex("C");
        for (x, y) in [(a0, b0), (a0, b1), (a1, b0), (a1, b1)] {
            b.add_edge(x, y);
        }
        for (x, y) in [(a0, c0), (a0, c1), (a1, c0), (a1, c1)] {
            b.add_edge(x, y);
        }
        let g = b.build();
        let index = BccIndex::build(&g);
        // a0 participates in the AB butterfly and the AC butterfly — but the
        // aggregate also counts the mixed wedge combinations through a1:
        // common "cross" neighbors of a0 and a1 are {b0, b1, c0, c1}, so the
        // aggregate χ(a0) = C(4,2) = 6 (2 pure + 4 mixed).
        assert_eq!(index.chi(a0), 6);
        assert_eq!(index.chi(b0), 1, "B vertices only see the AB butterflies");
    }
}
