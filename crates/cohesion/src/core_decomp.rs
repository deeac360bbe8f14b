//! k-core decomposition (Definition 1) via bucket peeling.
//!
//! `core_decomposition` treats all live edges equally; this produces the
//! `k_max` column of Table 3 and drives the CTC/PSA baselines.
//! `label_core_decomposition` only counts *same-label* edges, yielding each
//! vertex's coreness inside its own label group — the quantity the BCC model
//! constrains (conditions 2–3 of Definition 4) and the coreness component of
//! the BCindex (Section 6.3). Both run in O(|V| + |E|).

use std::sync::atomic::{AtomicU32, Ordering};

use bcc_graph::{GraphRead, GraphView, VertexId};

/// Which edges a decomposition counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DegreeMode {
    /// Degree within the whole alive subgraph.
    All,
    /// Degree within the alive subgraph induced by the vertex's own label.
    SameLabelOnly,
}

fn decomposition<G: GraphRead>(view: &GraphView<'_, G>, mode: DegreeMode) -> Vec<u32> {
    let n = view.graph().vertex_count();
    let alive: Vec<VertexId> = view.collect_vertices();
    let mut degree = vec![0u32; n];
    for &v in &alive {
        degree[v.index()] = match mode {
            DegreeMode::All => view.degree(v) as u32,
            DegreeMode::SameLabelOnly => view.intra_degree(v) as u32,
        };
    }
    match mode {
        DegreeMode::All => {
            peel(n, &alive, degree, |v, out| out.extend(view.neighbors(v)))
        }
        DegreeMode::SameLabelOnly => {
            peel(n, &alive, degree, |v, out| out.extend(view.same_label_neighbors(v)))
        }
    }
}

/// [`label_core_decomposition`] straight off any [`GraphRead`] source,
/// skipping the [`GraphView`] construction entirely. `GraphView::new` pays
/// an O(|V| + |E|) pass to seed alive/degree/intra-degree state the peeling
/// never mutates — on a full snapshot the only quantity the decomposition
/// needs is each vertex's same-label degree, which this computes in one
/// pass of its own. The parallel index build
/// (`bcc_core::BccIndex::build_with_threads`) used to pay the view setup
/// inside its δ task; it and the sequential build arm now share this
/// view-free path. Bit-identical to `label_core_decomposition` over
/// `GraphView::new(g)` by construction (same vertex order, same neighbor
/// order, same peeling) — pinned by tests here and by the index
/// differential suite.
pub fn label_core_decomposition_direct<G: GraphRead>(g: &G) -> Vec<u32> {
    let n = g.vertex_count();
    let alive: Vec<VertexId> = g.vertices().collect();
    let mut degree = vec![0u32; n];
    for &v in &alive {
        degree[v.index()] = g.same_label_neighbors_iter(v).count() as u32;
    }
    peel(n, &alive, degree, |v, out| out.extend(g.same_label_neighbors_iter(v)))
}

/// The shared Batagelj–Zaversnik peeling engine: `degree` holds each alive
/// vertex's starting degree (whichever edge set the caller counts) and
/// `neighbors` appends exactly those neighbors to the scratch buffer.
fn peel(
    n: usize,
    alive: &[VertexId],
    degree: Vec<u32>,
    mut neighbors: impl FnMut(VertexId, &mut Vec<VertexId>),
) -> Vec<u32> {
    let max_degree = alive.iter().map(|&v| degree[v.index()]).max().unwrap_or(0);

    // Bucket sort vertices by degree (Batagelj–Zaversnik).
    let mut bin_start = vec![0usize; max_degree as usize + 2];
    for &v in alive {
        bin_start[degree[v.index()] as usize + 1] += 1;
    }
    for i in 1..bin_start.len() {
        bin_start[i] += bin_start[i - 1];
    }
    let mut position = vec![usize::MAX; n];
    let mut ordered = vec![VertexId(0); alive.len()];
    {
        let mut cursor = bin_start.clone();
        for &v in alive {
            let d = degree[v.index()] as usize;
            position[v.index()] = cursor[d];
            ordered[cursor[d]] = v;
            cursor[d] += 1;
        }
    }

    let mut coreness = vec![0u32; n];
    let mut current_degree = degree;
    let mut processed = vec![false; n];
    let mut scratch: Vec<VertexId> = Vec::new();
    for i in 0..ordered.len() {
        let v = ordered[i];
        processed[v.index()] = true;
        coreness[v.index()] = current_degree[v.index()];
        scratch.clear();
        neighbors(v, &mut scratch);
        for u in scratch.drain(..) {
            if processed[u.index()] {
                continue;
            }
            let du = current_degree[u.index()];
            if du > current_degree[v.index()] {
                // Move u one bucket down: swap it with the first vertex of
                // its current bucket, then shrink the bucket boundary.
                let bucket = du as usize;
                let pu = position[u.index()];
                let first = bin_start[bucket];
                let w = ordered[first];
                if w != u {
                    ordered.swap(first, pu);
                    position[u.index()] = first;
                    position[w.index()] = pu;
                }
                bin_start[bucket] += 1;
                current_degree[u.index()] = du - 1;
            }
        }
    }
    coreness
}

/// `0` means "use every available core" — the same convention as
/// `BccIndex::build_with_threads` and `ServiceConfig::index_threads`.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Below this frontier size a level is expanded on the calling thread: the
/// per-`thread::scope` spawn cost (~tens of µs) dwarfs the work, and small
/// frontiers dominate the tail of every decomposition.
const PARALLEL_FRONTIER_MIN: usize = 256;

/// The level-synchronous parallel peeling engine — the bucket-based
/// counterpart of [`peel`].
///
/// Batagelj–Zaversnik peels one vertex at a time in degree order; its output,
/// the core number, is a property of the graph alone, independent of peeling
/// order. This engine exploits that: for k = 0, 1, … it repeatedly removes
/// *every* remaining vertex of degree ≤ k in rounds (assigning coreness k),
/// decrementing neighbor degrees with a CAS loop that clamps at k — exactly
/// the clamp `peel` applies via its `du > current_degree[v]` guard. Each
/// round's frontier is expanded in parallel over contiguous chunks, one per
/// worker, and the per-worker discovery buffers are concatenated in worker
/// index order, so even the *internal* traversal order is a pure function of
/// the input. The returned coreness vector is bit-identical to [`peel`]'s by
/// the uniqueness of core numbers (pinned by tests and by the index
/// differential suite).
///
/// Work is O(|V| + |E|) like the sequential peel: every edge is relaxed at
/// most twice and every lazy re-bucket entry is paid for by a decrement.
fn peel_parallel(
    n: usize,
    alive: &[VertexId],
    degree: &[AtomicU32],
    threads: usize,
    neighbors: impl Fn(VertexId, &mut Vec<VertexId>) + Sync,
) -> Vec<u32> {
    let max_degree =
        alive.iter().map(|&v| degree[v.index()].load(Ordering::Relaxed)).max().unwrap_or(0);

    // Bucket vertices by starting degree. Buckets are *lazy*: a decrement to
    // d > k re-files the vertex under bucket d without unfiling the stale
    // entry; the pop filter below (`unprocessed && degree == k`) discards
    // stale entries. Every unprocessed vertex holds an entry at its current
    // degree, so no vertex is ever missed.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_degree as usize + 1];
    for &v in alive {
        buckets[degree[v.index()].load(Ordering::Relaxed) as usize].push(v);
    }

    let mut coreness = vec![0u32; n];
    let mut processed = vec![false; n];
    let mut remaining = alive.len();
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut scratch: Vec<VertexId> = Vec::new();

    for k in 0..=max_degree {
        if remaining == 0 {
            break;
        }
        // Invariant at level start: every unprocessed vertex has degree ≥ k
        // (anything that dropped to ≤ j was consumed at level j < k), so the
        // filter `degree == k` selects exactly this level's seeds.
        frontier.clear();
        let mut seeds = std::mem::take(&mut buckets[k as usize]);
        frontier.extend(
            seeds
                .drain(..)
                .filter(|v| !processed[v.index()] && degree[v.index()].load(Ordering::Relaxed) == k),
        );

        while !frontier.is_empty() {
            for &v in &frontier {
                processed[v.index()] = true;
                coreness[v.index()] = k;
            }
            remaining -= frontier.len();

            // Expand the round: decrement unprocessed neighbors, clamping at
            // k. The worker whose CAS moves a neighbor from k+1 to k owns its
            // enqueue (exactly-once); drops that stay above k are re-filed.
            let workers = if frontier.len() < PARALLEL_FRONTIER_MIN { 1 } else { threads };
            let mut next: Vec<VertexId> = Vec::new();
            let mut refile: Vec<(VertexId, u32)> = Vec::new();
            if workers <= 1 {
                expand_chunk(&frontier, degree, k, &neighbors, &mut scratch, &mut next, &mut refile);
            } else {
                let chunk = frontier.len().div_ceil(workers);
                let neighbors = &neighbors;
                let parts: Vec<PeelChunkOut> =
                    std::thread::scope(|s| {
                        let handles: Vec<_> = frontier
                            .chunks(chunk)
                            .map(|slice| {
                                s.spawn(move || {
                                    let mut local_scratch = Vec::new();
                                    let mut local_next = Vec::new();
                                    let mut local_refile = Vec::new();
                                    expand_chunk(
                                        slice,
                                        degree,
                                        k,
                                        &neighbors,
                                        &mut local_scratch,
                                        &mut local_next,
                                        &mut local_refile,
                                    );
                                    (local_next, local_refile)
                                })
                            })
                            .collect();
                        // Join in spawn (= chunk) order: the merged buffers
                        // are deterministic for a given input and chunking.
                        handles.into_iter().map(|h| h.join().expect("peel worker")).collect()
                    });
                for (local_next, local_refile) in parts {
                    next.extend(local_next);
                    refile.extend(local_refile);
                }
            }
            for (v, d) in refile {
                buckets[d as usize].push(v);
            }
            frontier = next;
        }
    }
    coreness
}

/// One peel worker's output: its share of the next frontier (vertices
/// dropped to exactly `k`) and the (vertex, new-degree) drops that stayed
/// above `k`, to be re-filed into their buckets.
type PeelChunkOut = (Vec<VertexId>, Vec<(VertexId, u32)>);

/// One worker's share of a peeling round: relax every neighbor of every
/// frontier vertex in `slice`. Neighbors already at ≤ k (processed earlier,
/// processed this round, or sharing the frontier) are skipped by the clamp —
/// no `processed` lookup is needed.
fn expand_chunk(
    slice: &[VertexId],
    degree: &[AtomicU32],
    k: u32,
    neighbors: &(impl Fn(VertexId, &mut Vec<VertexId>) + Sync),
    scratch: &mut Vec<VertexId>,
    next: &mut Vec<VertexId>,
    refile: &mut Vec<(VertexId, u32)>,
) {
    for &v in slice {
        scratch.clear();
        neighbors(v, scratch);
        for &u in scratch.iter() {
            let slot = &degree[u.index()];
            let mut cur = slot.load(Ordering::Relaxed);
            loop {
                if cur <= k {
                    break;
                }
                match slot.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        if cur == k + 1 {
                            next.push(u);
                        } else {
                            refile.push((u, cur - 1));
                        }
                        break;
                    }
                    Err(seen) => cur = seen,
                }
            }
        }
    }
}

/// [`label_core_decomposition_direct`] with the bucketed parallel engine:
/// same-label coreness straight off any [`GraphRead`] source, peeled
/// level-synchronously across `threads` workers (`0` = all cores). The
/// offline index build's δ task calls this — PR 5 left that task as the
/// build's sequential critical path; here the decomposition itself scales.
/// Output is bit-identical to the sequential path at any thread count.
pub fn label_core_decomposition_parallel<G: GraphRead + Sync>(g: &G, threads: usize) -> Vec<u32> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return label_core_decomposition_direct(g);
    }
    let n = g.vertex_count();
    let alive: Vec<VertexId> = g.vertices().collect();
    let degree: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    // Same-label degree needs a neighbor scan per vertex — the one O(|E|)
    // setup pass — so fan it out over contiguous chunks of the alive list.
    let chunk = alive.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for slice in alive.chunks(chunk) {
            let degree = &degree;
            s.spawn(move || {
                for &v in slice {
                    let d = g.same_label_neighbors_iter(v).count() as u32;
                    degree[v.index()].store(d, Ordering::Relaxed);
                }
            });
        }
    });
    peel_parallel(n, &alive, &degree, threads, |v, out| {
        out.extend(g.same_label_neighbors_iter(v))
    })
}

/// Coreness of every alive vertex counting all live edges; dead vertices get
/// coreness 0.
pub fn core_decomposition<G: GraphRead>(view: &GraphView<'_, G>) -> Vec<u32> {
    decomposition(view, DegreeMode::All)
}

/// Coreness of every alive vertex counting only same-label edges (coreness
/// inside the vertex's label group).
pub fn label_core_decomposition<G: GraphRead>(view: &GraphView<'_, G>) -> Vec<u32> {
    decomposition(view, DegreeMode::SameLabelOnly)
}

/// The maximum coreness in the view (`k_max` of Table 3).
pub fn max_coreness<G: GraphRead>(view: &GraphView<'_, G>) -> u32 {
    core_decomposition(view).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, LabeledGraph};

    fn clique(n: usize, label: &str) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|_| b.add_vertex(label)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(vs[i], vs[j]);
            }
        }
        b.build()
    }

    #[test]
    fn clique_coreness() {
        let g = clique(5, "A");
        let view = GraphView::new(&g);
        let core = core_decomposition(&view);
        assert!(core.iter().all(|&c| c == 4));
        assert_eq!(max_coreness(&view), 4);
    }

    #[test]
    fn path_coreness_is_one() {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..5).map(|_| b.add_vertex("A")).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let g = b.build();
        let core = core_decomposition(&GraphView::new(&g));
        assert!(core.iter().all(|&c| c == 1));
    }

    #[test]
    fn clique_with_pendant() {
        // 4-clique + pendant vertex: clique members have coreness 3, pendant 1.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..5).map(|_| b.add_vertex("A")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(vs[i], vs[j]);
            }
        }
        b.add_edge(vs[0], vs[4]);
        let g = b.build();
        let core = core_decomposition(&GraphView::new(&g));
        assert_eq!(core[4], 1);
        assert_eq!(&core[..4], &[3, 3, 3, 3]);
    }

    #[test]
    fn label_core_ignores_cross_edges() {
        // Two 3-cliques with different labels fully cross-connected: label
        // coreness stays 2 while plain coreness is 5.
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..3).map(|_| b.add_vertex("A")).collect();
        let c: Vec<_> = (0..3).map(|_| b.add_vertex("B")).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                b.add_edge(a[i], a[j]);
                b.add_edge(c[i], c[j]);
            }
        }
        for &u in &a {
            for &v in &c {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let view = GraphView::new(&g);
        let label_core = label_core_decomposition(&view);
        assert!(label_core.iter().all(|&k| k == 2));
        let core = core_decomposition(&view);
        assert!(core.iter().all(|&k| k == 5));
    }

    #[test]
    fn respects_view_deletions() {
        let g = clique(5, "A");
        let mut view = GraphView::new(&g);
        view.remove_vertex(bcc_graph::VertexId(0));
        let core = core_decomposition(&view);
        assert_eq!(core[0], 0, "dead vertices report coreness 0");
        assert!(core[1..].iter().all(|&c| c == 3));
    }

    #[test]
    fn direct_label_core_matches_view_path() {
        // The view-free path must be bit-identical to peeling a fresh full
        // view — the parallel index build relies on this.
        for (n, seed_edges) in [
            (6usize, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]),
            (8, vec![(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 4)]),
        ] {
            let mut b = GraphBuilder::new();
            let vs: Vec<_> = (0..n)
                .map(|i| b.add_vertex(if i % 2 == 0 { "A" } else { "B" }))
                .collect();
            for (u, v) in seed_edges {
                b.add_edge(vs[u], vs[v]);
            }
            let g = b.build();
            assert_eq!(
                label_core_decomposition_direct(&g),
                label_core_decomposition(&GraphView::new(&g)),
            );
        }
    }

    /// Deterministic pseudo-random labeled graph (xorshift64*), dense enough
    /// to produce a spread of core numbers and several labels.
    fn random_graph(n: usize, labels: usize, edge_prob_per_mille: u64, seed: u64) -> LabeledGraph {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        let names: Vec<String> = (0..labels).map(|i| format!("L{i}")).collect();
        let vs: Vec<_> = (0..n).map(|i| b.add_vertex(&names[i % labels])).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if next() % 1000 < edge_prob_per_mille {
                    b.add_edge(vs[i], vs[j]);
                }
            }
        }
        b.build()
    }

    #[test]
    fn parallel_label_core_is_bit_identical_at_every_thread_count() {
        for (n, labels, per_mille, seed) in
            [(60, 2, 200, 0x1D3), (320, 3, 30, 0xBEEF), (700, 4, 15, 0xCAFE)]
        {
            let g = random_graph(n, labels, per_mille, seed);
            let reference = label_core_decomposition_direct(&g);
            for threads in [1usize, 2, 3, 7, 0] {
                assert_eq!(
                    label_core_decomposition_parallel(&g, threads),
                    reference,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_peel_handles_degenerate_shapes() {
        // Empty graph, isolated vertices, and a single clique — the level
        // engine's edges: zero alive, zero max-degree, one giant bucket.
        let empty = GraphBuilder::new().build();
        assert_eq!(label_core_decomposition_parallel(&empty, 4), Vec::<u32>::new());

        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_vertex("A");
        }
        let isolated = b.build();
        assert_eq!(label_core_decomposition_parallel(&isolated, 4), vec![0; 5]);

        let g = clique(9, "A");
        assert_eq!(
            label_core_decomposition_parallel(&g, 3),
            label_core_decomposition_direct(&g)
        );
    }

    #[test]
    fn coreness_is_monotone_under_deletion() {
        // Property sanity: deleting a vertex never increases anyone's coreness.
        let g = clique(6, "A");
        let mut view = GraphView::new(&g);
        let before = core_decomposition(&view);
        view.remove_vertex(bcc_graph::VertexId(3));
        let after = core_decomposition(&view);
        for i in 0..6 {
            assert!(after[i] <= before[i]);
        }
    }
}
