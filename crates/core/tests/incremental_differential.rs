//! Differential correctness of incremental BCindex maintenance: after any
//! randomized sequence of edge inserts/deletes, the patched index must be
//! bit-identical to `BccIndex::build` on the final snapshot — and at every
//! intermediate snapshot along the way. The batched overlay path
//! (`patch_index_batch`) is additionally pinned against the per-edge replay
//! it replaces, at batch sizes 1 / 16 / 256 / 4096: identical index bits
//! *and* identical dirty sets.

use bcc_core::{affected_neighborhood, patch_index_batch, patch_index_edge, BccIndex};
use bcc_graph::{
    apply_change, EdgeChange, EdgeOp, GraphBuilder, GraphDelta, LabeledGraph, OverlayGraph,
    VertexId,
};
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashSet;

fn assert_index_eq(patched: &BccIndex, rebuilt: &BccIndex, context: &str) {
    assert_eq!(patched.label_coreness, rebuilt.label_coreness, "δ diverged {context}");
    assert_eq!(patched.butterfly_degree, rebuilt.butterfly_degree, "χ diverged {context}");
    assert_eq!(patched.delta_max, rebuilt.delta_max, "δ_max diverged {context}");
    assert_eq!(patched.chi_max, rebuilt.chi_max, "χ_max diverged {context}");
}

/// A random labeled graph: `n` vertices over `labels` groups, each pair an
/// edge with probability `p`.
fn random_graph(rng: &mut impl Rng, n: usize, labels: usize, p: f64) -> LabeledGraph {
    let names: Vec<String> = (0..labels).map(|i| format!("G{i}")).collect();
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|_| b.add_vertex(&names[rng.gen_range(0..labels)]))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(vs[i], vs[j]);
            }
        }
    }
    b.build()
}

/// Picks a random valid flip for `graph`: a present edge to remove or an
/// absent pair to insert.
fn random_flip(rng: &mut impl Rng, graph: &LabeledGraph) -> Option<EdgeChange> {
    let n = graph.vertex_count() as u32;
    if n < 2 {
        return None;
    }
    for _ in 0..64 {
        let u = VertexId(rng.gen_range(0..n));
        let v = VertexId(rng.gen_range(0..n));
        if u == v {
            continue;
        }
        let op = if graph.has_edge(u, v) { EdgeOp::Remove } else { EdgeOp::Insert };
        return Some(EdgeChange { u, v, op });
    }
    None
}

/// The core differential: walk a random flip sequence, patching one index
/// and rebuilding a reference at every step.
fn run_sequence(seed: u64, n: usize, labels: usize, p: f64, steps: usize) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut graph = random_graph(&mut rng, n, labels, p);
    let mut index = BccIndex::build(&graph);
    for step in 0..steps {
        let Some(change) = random_flip(&mut rng, &graph) else { break };
        let after = apply_change(&graph, &change);
        patch_index_edge(&mut index, &graph, &after, &change);
        assert_index_eq(
            &index,
            &BccIndex::build(&after),
            &format!(
                "(seed {seed}, step {step}, {:?} {}-{})",
                change.op, change.u, change.v
            ),
        );
        graph = after;
    }
}

#[test]
fn two_label_random_sequences() {
    for seed in 0..12 {
        run_sequence(seed, 14, 2, 0.25, 20);
    }
}

#[test]
fn three_label_random_sequences() {
    for seed in 100..110 {
        run_sequence(seed, 12, 3, 0.3, 16);
    }
}

#[test]
fn dense_two_label_sequences() {
    // Dense graphs stress the cascades: high coreness, deep peeling.
    for seed in 200..206 {
        run_sequence(seed, 10, 2, 0.6, 24);
    }
}

#[test]
fn sparse_four_label_sequences() {
    for seed in 300..306 {
        run_sequence(seed, 16, 4, 0.15, 16);
    }
}

/// Stages exactly `size` sequentially-valid random flips against `base`.
fn random_batch(rng: &mut impl Rng, base: &LabeledGraph, size: usize) -> GraphDelta {
    let n = base.vertex_count() as u32;
    assert!(n >= 2, "batch generation needs at least two vertices");
    let mut delta = GraphDelta::new();
    while delta.len() < size {
        let u = VertexId(rng.gen_range(0..n));
        let v = VertexId(rng.gen_range(0..n));
        if u == v {
            continue;
        }
        if delta.has_edge(base, u, v) {
            delta.stage_remove(base, u, v).expect("staged-present edge removes cleanly");
        } else {
            delta.stage_insert(base, u, v).expect("staged-absent edge inserts cleanly");
        }
    }
    delta
}

/// The batched-commit differential: one `patch_index_batch` over the overlay
/// versus the per-edge splice-and-patch replay it replaces versus a cold
/// rebuild. Indices must be bit-identical and the batch dirty set must equal
/// the union of the per-edge affected neighborhoods and entry moves.
fn run_batched(seed: u64, n: usize, labels: usize, p: f64, batch: usize) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let base = random_graph(&mut rng, n, labels, p);
    let delta = random_batch(&mut rng, &base, batch);

    // Per-edge replay twin: B CSR splices, B index patches, dirty union.
    let mut per_edge = BccIndex::build(&base);
    let mut dirty_ref: FxHashSet<u32> = FxHashSet::default();
    let mut stepped = base.clone();
    for change in delta.changes() {
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

    // Batched path: zero intermediate snapshots, one patch call.
    let mut batched = BccIndex::build(&base);
    let report = patch_index_batch(&mut batched, &base, delta.changes());
    assert_eq!(report.applied, batch, "(seed {seed}, B={batch})");
    assert_eq!(report.dirty, dirty_ref, "dirty set diverged (seed {seed}, B={batch})");

    let context = format!("(seed {seed}, B={batch})");
    assert_index_eq(&batched, &per_edge, &format!("batch vs per-edge {context}"));

    // One materialization per commit: the delta merge pass and the overlay
    // merge pass agree with the per-edge stepped snapshot exactly.
    let final_graph = delta.apply(&base);
    let overlay_graph = OverlayGraph::from_changes(&base, delta.changes()).materialize();
    assert_eq!(final_graph.edge_count(), stepped.edge_count(), "{context}");
    for v in final_graph.vertices() {
        assert_eq!(final_graph.neighbors(v), stepped.neighbors(v), "{context} {v}");
        assert_eq!(overlay_graph.neighbors(v), stepped.neighbors(v), "{context} {v}");
    }
    assert_index_eq(&batched, &BccIndex::build(&final_graph), &format!("batch vs rebuild {context}"));
}

#[test]
fn batched_patching_matches_per_edge_replay_small_batches() {
    for (seed, batch) in [(40u64, 1usize), (41, 16), (42, 16)] {
        run_batched(seed, 14, 2, 0.3, batch);
        run_batched(seed ^ 0xA5, 12, 3, 0.25, batch);
    }
}

#[test]
fn batched_patching_matches_per_edge_replay_256() {
    // 256-edge batches need room: toggling pairs of a 48-vertex graph.
    run_batched(50, 48, 2, 0.15, 256);
    run_batched(51, 48, 3, 0.12, 256);
}

/// Every prefix of a batch, patched through `patch_index_batch` (flat
/// scratch kernels over the mid-batch overlay), reproduces the **seed**
/// implementation — `BccIndex::build_reference`, the retained hash-kernel
/// build — bit for bit on the materialized prefix snapshot. This pins the
/// whole rewritten offline path (flat wedge kernels + overlay reads) to the
/// seed semantics at every intermediate state, not just batch ends.
#[test]
fn batch_prefixes_match_the_seed_reference_at_every_step() {
    for (seed, n, labels, p, batch) in
        [(70u64, 14usize, 2usize, 0.3, 12usize), (71, 12, 3, 0.3, 12), (72, 16, 4, 0.2, 10)]
    {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let base = random_graph(&mut rng, n, labels, p);
        let delta = random_batch(&mut rng, &base, batch);
        let changes = delta.changes();
        let built = BccIndex::build(&base);
        assert_index_eq(&built, &BccIndex::build_reference(&base), "flat vs seed build");
        for k in 0..=changes.len() {
            let mut patched = built.clone();
            patch_index_batch(&mut patched, &base, &changes[..k]);
            let snapshot = OverlayGraph::from_changes(&base, &changes[..k]).materialize();
            assert_index_eq(
                &patched,
                &BccIndex::build_reference(&snapshot),
                &format!("(seed {seed}, prefix {k}/{batch})"),
            );
        }
    }
}

#[test]
fn batched_patching_matches_per_edge_replay_4096() {
    // A sparse 1024-vertex graph keeps per-vertex degrees (and the O(d²)
    // χ work) small while offering >500k togglable pairs, so the per-edge
    // twin's 4096 CSR splices stay affordable in debug builds.
    run_batched(60, 1024, 2, 0.004, 4096);
}

#[test]
fn staged_delta_replay_matches_batch_apply_and_rebuild() {
    // The registry's commit path: stage a batch, replay it change by change
    // against the patched index, and also apply it in one splice. All three
    // views of the final state must agree.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xD1FF);
    for trial in 0..8 {
        let base = random_graph(&mut rng, 12, 2 + (trial % 2), 0.3);
        let mut delta = GraphDelta::new();
        let mut stepped = base.clone();
        let mut index = BccIndex::build(&base);
        for _ in 0..10 {
            let Some(change) = random_flip(&mut rng, &stepped) else { break };
            let staged = match change.op {
                EdgeOp::Insert => delta.stage_insert(&base, change.u, change.v),
                EdgeOp::Remove => delta.stage_remove(&base, change.u, change.v),
            };
            // Staging validates against base+overlay, which equals `stepped`.
            staged.expect("flip chosen valid for the stepped snapshot");
            let after = apply_change(&stepped, &change);
            patch_index_edge(&mut index, &stepped, &after, &change);
            stepped = after;
        }
        let batch = delta.apply(&base);
        assert_eq!(batch.edge_count(), stepped.edge_count(), "trial {trial}");
        for v in batch.vertices() {
            assert_eq!(batch.neighbors(v), stepped.neighbors(v), "trial {trial}, {v}");
        }
        assert_index_eq(&index, &BccIndex::build(&batch), &format!("(trial {trial} final)"));
    }
}

/// Stages `size` flips against `base`, most of them inside one label group
/// (with probability `same`): homogeneous flips are the ones that move δ.
fn same_label_biased_batch(
    rng: &mut impl Rng,
    base: &LabeledGraph,
    size: usize,
    same: f64,
) -> GraphDelta {
    let n = base.vertex_count() as u32;
    let mut delta = GraphDelta::new();
    while delta.len() < size {
        let u = VertexId(rng.gen_range(0..n));
        let v = VertexId(rng.gen_range(0..n));
        let homogeneous = base.label(u) == base.label(v);
        if u == v || homogeneous != rng.gen_bool(same) {
            continue;
        }
        if delta.has_edge(base, u, v) {
            delta.stage_remove(base, u, v).expect("staged-present edge removes cleanly");
        } else {
            delta.stage_insert(base, u, v).expect("staged-absent edge inserts cleanly");
        }
    }
    delta
}

/// Commits a run of same-label-biased batches to one evolving graph. After
/// every batch the patched index must equal a rebuild, and the batch's
/// dirty set must hold every vertex whose δ or χ moved across it — a vertex
/// missing from it would keep a stale cache entry.
fn run_dense_batches(seed: u64, n: usize, labels: usize, p: f64) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut graph = random_graph(&mut rng, n, labels, p);
    let mut index = BccIndex::build(&graph);
    assert!(index.delta_max >= 3, "seed {seed}: the fixture needs cores with k ≥ 3");
    for batch in 0..10 {
        let delta = same_label_biased_batch(&mut rng, &graph, 16, 0.8);
        let before = index.clone();
        let report = patch_index_batch(&mut index, &graph, delta.changes());
        graph = delta.apply(&graph);
        let rebuilt = BccIndex::build(&graph);
        let context = format!("(seed {seed}, {labels} labels, batch {batch})");
        assert_index_eq(&index, &rebuilt, &context);
        for v in graph.vertices() {
            let i = v.index();
            if before.label_coreness[i] != rebuilt.label_coreness[i]
                || before.butterfly_degree[i] != rebuilt.butterfly_degree[i]
            {
                assert!(report.dirty.contains(&v.0), "{v} moved but is not dirty {context}");
            }
        }
    }
}

#[test]
fn dense_same_label_batches_match_rebuild_and_dirty_covers_every_move() {
    for seed in 0..9u64 {
        run_dense_batches(800 + seed, 36, 2 + (seed % 3) as usize, 0.4);
    }
}
