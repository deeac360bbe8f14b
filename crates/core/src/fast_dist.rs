//! Algorithm 5 — fast query-distance computation.
//!
//! After a deletion round removes `D_i` from `G_i`, a vertex's hop distance
//! from a query can only grow, and it grows exactly when every shortest path
//! to it ran through `D_i`. The paper's Algorithm 5 resets the whole suffix
//! beyond `d_min = min_{v ∈ D_i} dist(v, q)` and re-runs BFS over it; on a
//! large candidate that suffix is most of the graph while only a thin shell
//! actually moves. This module maintains the arrays with an exact
//! decremental update instead:
//!
//! 1. **Affected set.** Walk level by level from the deleted vertices'
//!    children (alive neighbours one level farther). A child is affected
//!    only when no live, unaffected neighbour one level closer survives;
//!    an affected vertex's own children are examined at the next level.
//! 2. **Re-settle.** Reset just the affected vertices, seed each from its
//!    surviving neighbours, and settle them with a bucketed BFS in
//!    increasing distance order.
//!
//! Unaffected vertices keep a shortest path, so their distances are final;
//! hop distances are unique, so the arrays equal a fresh BFS after every
//! update. The work is proportional to the affected vertices and their
//! neighbourhoods — the common case the paper points out (the batch was a
//! query's own farthest shell) touches only the batch's neighbours.

use bcc_graph::{GraphView, VertexId, INF_DIST};

use crate::stats::{timed, SearchStats};

/// Per-query BFS distance arrays maintained incrementally across deletions.
#[derive(Clone, Debug)]
pub struct IncrementalDistances {
    /// The query vertices, aligned with `dist`.
    pub queries: Vec<VertexId>,
    /// `dist[i][v]` = hop distance from query `i` to vertex `v`
    /// ([`INF_DIST`] for dead/unreachable vertices).
    pub dist: Vec<Vec<u32>>,
    /// Work lists of the decremental update, reused across batches.
    scratch: UpdateScratch,
}

/// The reusable buffers of [`IncrementalDistances::update_after_removal`].
#[derive(Clone, Debug, Default)]
struct UpdateScratch {
    /// The batch's reachable vertices with their pre-deletion distance,
    /// sorted by it.
    deleted: Vec<(u32, VertexId)>,
    /// Vertices that lost their distance at the level being walked, and
    /// those found at the next one.
    frontier: Vec<VertexId>,
    next: Vec<VertexId>,
    /// Every affected vertex of the current query.
    affected: Vec<VertexId>,
    /// `buckets[i]` holds vertices with tentative distance `base + i`.
    buckets: Vec<Vec<VertexId>>,
}

impl IncrementalDistances {
    /// Full BFS from every query (the expensive baseline that Algorithm 5
    /// avoids repeating).
    pub fn compute(view: &GraphView<'_>, queries: &[VertexId], stats: &mut SearchStats) -> Self {
        let dist = timed(&mut stats.time_query_distance, || {
            queries.iter().map(|&q| bcc_graph::bfs_distances(view, q)).collect()
        });
        stats.full_bfs_runs += queries.len() as u64;
        IncrementalDistances {
            queries: queries.to_vec(),
            dist,
            scratch: UpdateScratch::default(),
        }
    }

    /// Algorithm 5: refreshes the distance arrays after `removed` vertices
    /// were deleted from `view` (call *after* the deletion).
    pub fn update_after_removal(
        &mut self,
        view: &GraphView<'_>,
        removed: &[VertexId],
        stats: &mut SearchStats,
    ) {
        timed(&mut stats.time_query_distance, || {
            for (&q, dist) in self.queries.iter().zip(&mut self.dist) {
                update_one(view, q, dist, removed, &mut self.scratch);
            }
        });
        stats.incremental_dist_updates += 1;
    }

    /// `dist(v, Q)` of Definition 5 (maximum over queries).
    #[inline]
    pub fn vertex_query_distance(&self, v: VertexId) -> u32 {
        self.dist
            .iter()
            .map(|d| d[v.index()])
            .max()
            .unwrap_or(INF_DIST)
    }

    /// The candidate's query distance `dist(G, Q)`.
    pub fn graph_query_distance(&self, view: &GraphView<'_>) -> u32 {
        view.alive_vertices()
            .map(|v| self.vertex_query_distance(v))
            .max()
            .unwrap_or(0)
    }

    /// All alive vertices at the maximum query distance, and that distance.
    pub fn farthest_vertices(&self, view: &GraphView<'_>) -> (Vec<VertexId>, u32) {
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

    /// Returns `true` if every query can reach every other query.
    pub fn queries_connected(&self) -> bool {
        let first = &self.dist[0];
        self.queries.iter().all(|q| first[q.index()] != INF_DIST)
    }
}

/// The exact decremental update of one query's distance array (see the
/// module docs): find the vertices that lost every shortest-path parent,
/// then re-settle only those.
fn update_one(
    view: &GraphView<'_>,
    q: VertexId,
    dist: &mut [u32],
    removed: &[VertexId],
    scratch: &mut UpdateScratch,
) {
    if !view.is_alive(q) {
        dist.fill(INF_DIST);
        return;
    }
    let UpdateScratch { deleted, frontier, next, affected, buckets } = scratch;
    deleted.clear();
    for &v in removed {
        let d = dist[v.index()];
        if d != INF_DIST {
            deleted.push((d, v));
            dist[v.index()] = INF_DIST;
        }
    }
    if deleted.is_empty() {
        // Only unreachable vertices died: nothing else can move.
        return;
    }
    deleted.sort_unstable();

    // Affected set, level by level. Every vertex at `level` that lost its
    // distance is in `frontier` and already reset, so a child one level
    // farther keeps its distance iff some live neighbour still sits at
    // `level`.
    affected.clear();
    frontier.clear();
    let mut level = deleted[0].0;
    let mut pending = deleted.iter().peekable();
    loop {
        while let Some(&(_, v)) = pending.next_if(|&&(d, _)| d == level) {
            frontier.push(v);
        }
        if frontier.is_empty() {
            match pending.peek() {
                Some(&&(d, _)) => level = d,
                None => break,
            }
            continue;
        }
        let child = level + 1;
        next.clear();
        for &p in frontier.iter() {
            for c in view.neighbors(p) {
                if dist[c.index()] == child
                    && !view.neighbors(c).any(|w| dist[w.index()] == level)
                {
                    dist[c.index()] = INF_DIST;
                    next.push(c);
                }
            }
        }
        affected.extend_from_slice(next);
        std::mem::swap(frontier, next);
        level = child;
    }
    if affected.is_empty() {
        return;
    }

    // Re-settle. An affected vertex's new distance exceeds its old one,
    // which exceeds the shallowest deleted level, so `base` bounds every
    // tentative distance from below. A seed is the length of a real path
    // (through a neighbour with a final or tentative distance), so settling
    // the buckets in increasing order yields exact distances; entries whose
    // vertex has since improved are stale and skipped.
    let base = deleted[0].0 + 1;
    let mut top = 0;
    for &u in affected.iter() {
        let seed = view.neighbors(u).map(|w| dist[w.index()]).min().unwrap_or(INF_DIST);
        if seed != INF_DIST {
            dist[u.index()] = seed + 1;
            let slot = (seed + 1 - base) as usize;
            bucket_push(buckets, slot, u);
            top = top.max(slot);
        }
    }
    let mut slot = 0;
    while slot <= top && slot < buckets.len() {
        let d = base + slot as u32;
        let mut bucket = std::mem::take(&mut buckets[slot]);
        for &u in &bucket {
            if dist[u.index()] != d {
                continue;
            }
            for x in view.neighbors(u) {
                if d + 1 < dist[x.index()] {
                    dist[x.index()] = d + 1;
                    bucket_push(buckets, slot + 1, x);
                    top = top.max(slot + 1);
                }
            }
        }
        bucket.clear();
        buckets[slot] = bucket;
        slot += 1;
    }
}

fn bucket_push(buckets: &mut Vec<Vec<VertexId>>, slot: usize, v: VertexId) {
    if buckets.len() <= slot {
        buckets.resize_with(slot + 1, Vec::new);
    }
    buckets[slot].push(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, LabeledGraph};
    use rand::{Rng, SeedableRng};

    fn grid(w: usize, h: usize) -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let vs: Vec<Vec<VertexId>> = (0..h)
            .map(|_| (0..w).map(|_| b.add_vertex("A")).collect())
            .collect();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_edge(vs[y][x], vs[y][x + 1]);
                }
                if y + 1 < h {
                    b.add_edge(vs[y][x], vs[y + 1][x]);
                }
            }
        }
        b.build()
    }

    fn assert_matches_fresh(view: &GraphView<'_>, inc: &IncrementalDistances) {
        for (qi, &q) in inc.queries.iter().enumerate() {
            let fresh = bcc_graph::bfs_distances(view, q);
            assert_eq!(inc.dist[qi], fresh, "query {q} distances diverged");
        }
    }

    #[test]
    fn incremental_matches_full_on_grid() {
        let g = grid(5, 5);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(24)];
        let mut inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        assert_eq!(stats.full_bfs_runs, 2);
        // Delete the grid center, forcing detours.
        let center = VertexId(12);
        view.remove_vertex(center);
        inc.update_after_removal(&view, &[center], &mut stats);
        assert_matches_fresh(&view, &inc);
        assert_eq!(stats.incremental_dist_updates, 1);
    }

    #[test]
    fn randomized_deletion_equivalence() {
        let g = grid(6, 6);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(35)];
        let mut inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        for _round in 0..12 {
            // Remove a random batch of 1–3 alive non-query vertices.
            let alive: Vec<VertexId> = view
                .alive_vertices()
                .filter(|v| !queries.contains(v))
                .collect();
            if alive.len() <= 2 {
                break;
            }
            let k = rng.gen_range(1..=3.min(alive.len()));
            let mut batch = Vec::new();
            for _ in 0..k {
                let v = alive[rng.gen_range(0..alive.len())];
                if view.is_alive(v) {
                    view.remove_vertex(v);
                    batch.push(v);
                }
            }
            inc.update_after_removal(&view, &batch, &mut stats);
            assert_matches_fresh(&view, &inc);
        }
    }

    #[test]
    fn unreachable_deletion_is_noop() {
        // Two disconnected edges; deleting a vertex of the far component
        // leaves the query's distances untouched (d_min = ∞ path).
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex("A");
        let a1 = b.add_vertex("A");
        let c0 = b.add_vertex("A");
        let c1 = b.add_vertex("A");
        b.add_edge(a0, a1);
        b.add_edge(c0, c1);
        let g = b.build();
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let mut inc = IncrementalDistances::compute(&view, &[a0], &mut stats);
        view.remove_vertex(c0);
        inc.update_after_removal(&view, &[c0], &mut stats);
        assert_eq!(inc.dist[0][a1.index()], 1);
        assert_eq!(inc.dist[0][c0.index()], INF_DIST);
        assert_matches_fresh(&view, &inc);
    }

    #[test]
    fn dead_query_blanks_distances() {
        let g = grid(3, 3);
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let q = VertexId(0);
        let mut inc = IncrementalDistances::compute(&view, &[q], &mut stats);
        view.remove_vertex(q);
        inc.update_after_removal(&view, &[q], &mut stats);
        assert!(inc.dist[0].iter().all(|&d| d == INF_DIST));
        assert!(!inc.queries_connected());
    }

    #[test]
    fn distances_can_grow_across_repeated_updates() {
        // A ring: deleting vertices forces ever-longer detours, so the
        // re-settle reaches levels beyond the initial maximum.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..12).map(|_| b.add_vertex("A")).collect();
        for i in 0..12 {
            b.add_edge(vs[i], vs[(i + 1) % 12]);
        }
        let g = b.build();
        let mut view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let mut inc = IncrementalDistances::compute(&view, &[vs[0]], &mut stats);
        // Cut the short arc step by step: distances to the far side grow.
        for &cut in &[vs[1], vs[2], vs[3]] {
            view.remove_vertex(cut);
            inc.update_after_removal(&view, &[cut], &mut stats);
            assert_matches_fresh(&view, &inc);
        }
        assert_eq!(inc.dist[0][vs[4].index()], 8, "forced the long way round");
    }

    #[test]
    fn farthest_and_query_distance_agree_with_fresh() {
        let g = grid(4, 4);
        let view = GraphView::new(&g);
        let mut stats = SearchStats::default();
        let queries = [VertexId(0), VertexId(5)];
        let inc = IncrementalDistances::compute(&view, &queries, &mut stats);
        let fresh = bcc_graph::traversal::QueryDistances::compute(&view, &queries);
        assert_eq!(
            inc.graph_query_distance(&view),
            fresh.graph_query_distance(&view)
        );
        let (fi, di) = inc.farthest_vertices(&view);
        let (ff, df) = fresh.farthest_vertices(&view);
        assert_eq!((fi, di), (ff, df));
    }
}
