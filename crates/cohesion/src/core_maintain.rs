//! Incremental k-core maintenance under vertex deletions.
//!
//! These routines implement the peeling cascades of Algorithm 2 (initial
//! extraction of the `k1`-core and `k2`-core) and Algorithm 4 (maintenance
//! after each removal round of Algorithm 1). Rather than recomputing the
//! decomposition after every deletion, we cascade: whenever a vertex's
//! (intra-label) degree drops below its label's threshold it joins the
//! deletion queue. Total cost across a whole peeling run is O(|E|), the
//! bound used in the paper's complexity analysis (Theorem 4).

use bcc_graph::{GraphRead, GraphView, Label, VertexId};

/// Per-label k-core thresholds for the label-induced core conditions of
/// Definition 4. Labels with no entry are *excluded*: their vertices are
/// peeled unconditionally (this is how Algorithm 2 line 1 restricts the
/// candidate to the two query labels).
#[derive(Clone, Debug)]
pub struct LabelCoreThresholds {
    k_of_label: Vec<Option<u32>>,
}

impl LabelCoreThresholds {
    /// Thresholds over a graph with `label_count` labels; all labels
    /// initially excluded.
    pub fn new(label_count: usize) -> Self {
        LabelCoreThresholds {
            k_of_label: vec![None; label_count],
        }
    }

    /// Requires the induced subgraph of `label` to be a `k`-core.
    pub fn require(&mut self, label: Label, k: u32) -> &mut Self {
        self.k_of_label[label.index()] = Some(k);
        self
    }

    /// The threshold for `label`, or `None` if the label is excluded.
    #[inline]
    pub fn get(&self, label: Label) -> Option<u32> {
        self.k_of_label[label.index()]
    }

    /// Labels that carry a requirement, with their k.
    pub fn required_labels(&self) -> impl Iterator<Item = (Label, u32)> + '_ {
        self.k_of_label
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (Label(i as u32), k)))
    }
}

/// Returns `true` if `v` violates its label's core condition (or carries an
/// excluded label).
#[inline]
fn violates<G: GraphRead>(view: &GraphView<'_, G>, thresholds: &LabelCoreThresholds, v: VertexId) -> bool {
    match thresholds.get(view.graph().label(v)) {
        Some(k) => (view.intra_degree(v) as u32) < k,
        None => true,
    }
}

/// Peels the view down to the maximal subgraph in which every vertex of a
/// required label has intra-label degree ≥ its threshold, and no vertex of
/// an excluded label survives. Returns the removed vertices in deletion
/// order.
pub fn reduce_to_label_core<G: GraphRead>(
    view: &mut GraphView<'_, G>,
    thresholds: &LabelCoreThresholds,
) -> Vec<VertexId> {
    let seeds: Vec<VertexId> = view
        .alive_vertices()
        .filter(|&v| violates(view, thresholds, v))
        .collect();
    cascade_from(view, thresholds, seeds)
}

/// After `removed` vertices were deleted externally (e.g. the farthest-vertex
/// deletions of Algorithm 1 line 7), cascades the label-core conditions from
/// the affected neighborhoods. Returns the additional vertices peeled.
pub fn cascade_label_core<G: GraphRead>(
    view: &mut GraphView<'_, G>,
    thresholds: &LabelCoreThresholds,
    removed: &[VertexId],
) -> Vec<VertexId> {
    let mut seeds = Vec::new();
    for &r in removed {
        debug_assert!(!view.is_alive(r), "cascade seeds must already be deleted");
        for u in view.graph().neighbors_iter(r) {
            if view.is_alive(u) && violates(view, thresholds, u) {
                seeds.push(u);
            }
        }
    }
    cascade_from(view, thresholds, seeds)
}

fn cascade_from<G: GraphRead>(
    view: &mut GraphView<'_, G>,
    thresholds: &LabelCoreThresholds,
    seeds: Vec<VertexId>,
) -> Vec<VertexId> {
    let mut queue: std::collections::VecDeque<VertexId> = seeds.into();
    let mut removed = Vec::new();
    while let Some(v) = queue.pop_front() {
        if !view.is_alive(v) {
            continue;
        }
        if !violates(view, thresholds, v) {
            continue; // requeued vertex recovered (can happen with duplicates)
        }
        let neighbors: Vec<VertexId> = view.same_label_neighbors(v).collect();
        view.remove_vertex(v);
        removed.push(v);
        for u in neighbors {
            if violates(view, thresholds, u) {
                queue.push_back(u);
            }
        }
    }
    removed
}

/// Peels the view to its (plain, label-blind) k-core: every surviving vertex
/// has live degree ≥ `k`. Returns the removed vertices. Used by the PSA
/// baseline and by tests.
pub fn reduce_to_k_core<G: GraphRead>(view: &mut GraphView<'_, G>, k: u32) -> Vec<VertexId> {
    let mut queue: std::collections::VecDeque<VertexId> = view
        .alive_vertices()
        .filter(|&v| (view.degree(v) as u32) < k)
        .collect();
    let mut removed = Vec::new();
    while let Some(v) = queue.pop_front() {
        if !view.is_alive(v) || (view.degree(v) as u32) >= k {
            continue;
        }
        let neighbors: Vec<VertexId> = view.neighbors(v).collect();
        view.remove_vertex(v);
        removed.push(v);
        for u in neighbors {
            if (view.degree(u) as u32) < k {
                queue.push_back(u);
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{GraphBuilder, LabeledGraph};

    /// Two labeled cliques (sizes 5 and 4) joined by a single cross edge.
    fn two_cliques() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..5).map(|_| b.add_vertex("A")).collect();
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_edge(a[i], a[j]);
            }
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(c[i], c[j]);
            }
        }
        b.add_edge(a[0], c[0]);
        b.build()
    }

    #[test]
    fn label_core_peels_excluded_labels() {
        let g = two_cliques();
        let mut view = GraphView::new(&g);
        let mut thresholds = LabelCoreThresholds::new(g.label_count());
        thresholds.require(g.label(VertexId(0)), 4); // label A needs 4-core
        let removed = reduce_to_label_core(&mut view, &thresholds);
        // All 4 B-vertices are peeled (excluded label); the A 5-clique stays.
        assert_eq!(removed.len(), 4);
        assert_eq!(view.alive_count(), 5);
        assert!(view.is_alive(VertexId(0)));
    }

    use bcc_graph::VertexId;

    #[test]
    fn label_core_respects_per_label_k() {
        let g = two_cliques();
        let mut view = GraphView::new(&g);
        let mut thresholds = LabelCoreThresholds::new(g.label_count());
        thresholds.require(g.label(VertexId(0)), 4);
        thresholds.require(g.label(VertexId(5)), 3);
        let removed = reduce_to_label_core(&mut view, &thresholds);
        assert!(removed.is_empty(), "both cliques already satisfy their cores");
        assert_eq!(view.alive_count(), 9);
    }

    #[test]
    fn label_core_cascades() {
        let g = two_cliques();
        let mut view = GraphView::new(&g);
        let mut thresholds = LabelCoreThresholds::new(g.label_count());
        thresholds.require(g.label(VertexId(0)), 4);
        thresholds.require(g.label(VertexId(5)), 3);
        reduce_to_label_core(&mut view, &thresholds);
        // Externally delete one A vertex: the 5-clique drops to a 4-clique,
        // whose members have intra-degree 3 < 4 → whole A side cascades away.
        view.remove_vertex(VertexId(1));
        let extra = cascade_label_core(&mut view, &thresholds, &[VertexId(1)]);
        assert_eq!(extra.len(), 4);
        assert_eq!(view.alive_count(), 4, "only the B clique remains");
    }

    #[test]
    fn plain_k_core_reduction() {
        // 4-clique with a tail of two vertices.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..6).map(|_| b.add_vertex("A")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(vs[i], vs[j]);
            }
        }
        b.add_edge(vs[3], vs[4]);
        b.add_edge(vs[4], vs[5]);
        let g = b.build();
        let mut view = GraphView::new(&g);
        let removed = reduce_to_k_core(&mut view, 3);
        assert_eq!(removed.len(), 2);
        assert_eq!(view.alive_count(), 4);
        // k larger than max coreness empties the graph.
        let mut view2 = GraphView::new(&g);
        let removed2 = reduce_to_k_core(&mut view2, 4);
        assert_eq!(removed2.len(), 6);
        assert_eq!(view2.alive_count(), 0);
    }

    #[test]
    fn matches_decomposition() {
        // The k-core from peeling must equal the vertices with coreness >= k.
        let g = two_cliques();
        let coreness = crate::core_decomposition(&GraphView::new(&g));
        for k in 0..=5u32 {
            let mut view = GraphView::new(&g);
            reduce_to_k_core(&mut view, k);
            for v in g.vertices() {
                assert_eq!(
                    view.is_alive(v),
                    coreness[v.index()] >= k,
                    "k={k} vertex={v}"
                );
            }
        }
    }
}
