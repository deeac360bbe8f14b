//! Offline BCindex build: flat wedge kernels and parallel construction
//! versus the seed implementation, on the planted paper networks.
//!
//! ```text
//! cargo run --release -p bcc-bench --bin index_build -- \
//!     [--scale 8.0] [--repeats 5] [--out index_build.json]
//! ```
//!
//! Two sections, both doubling as invariant checks (the binary exits
//! non-zero on violation; CI runs it under `--release` on every push):
//!
//! 1. **χ kernel** — the wedge-counting pass that dominates the build,
//!    timed two ways: the seed's `FxHashMap` kernel (`hash`) and the dense
//!    epoch-stamped scratch kernel (`flat`). Both outputs must be equal,
//!    and **flat must strictly beat hash** (min over `--repeats`).
//! 2. **Parallel build** — `BccIndex::build_with_threads` at 1, 2, and N
//!    threads (N = available cores). Every configuration must be
//!    **bit-identical** to the seed implementation
//!    (`BccIndex::build_reference`), and every parallel build must strictly
//!    beat the 1-thread build — asserted only when the machine actually has
//!    ≥ 2 cores (a 1-core box cannot exhibit parallel speedup; the check is
//!    then reported as skipped). The build uses hand-rolled
//!    `std::thread::scope` workers (the workspace has no thread-pool
//!    crate) — this benchmark is the proof that they actually run in
//!    parallel.

use std::time::{Duration, Instant};

use bcc_bench::Args;
use bcc_core::{hetero_butterfly_degrees, hetero_butterfly_degrees_hash, BccIndex};
use bcc_eval::Table;
use bcc_graph::{GraphView, LabeledGraph};

/// Minimum wall time of `f`, over `repeats` runs (first-touch effects and
/// scheduler noise wash out of the minimum).
fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..repeats.max(1) {
        let started = Instant::now();
        let value = f();
        let elapsed = started.elapsed();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, value));
        }
    }
    best.expect("repeats >= 1")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct KernelRow {
    network: String,
    vertices: usize,
    edges: usize,
    labels: usize,
    hash_ms: f64,
    flat_ms: f64,
}

/// Section 1: the χ pass, hash vs flat.
fn bench_kernels(name: &str, graph: &LabeledGraph, repeats: usize) -> KernelRow {
    let view = GraphView::new(graph);
    let (hash_time, hash_chi) = time_min(repeats, || hetero_butterfly_degrees_hash(&view));
    let (flat_time, flat_chi) = time_min(repeats, || hetero_butterfly_degrees(graph));
    assert_eq!(
        flat_chi, hash_chi,
        "INVARIANT VIOLATED: flat χ kernel diverged from the hash kernel on {name}"
    );
    KernelRow {
        network: name.to_string(),
        vertices: graph.vertex_count(),
        edges: graph.edge_count(),
        labels: graph.label_count(),
        hash_ms: ms(hash_time),
        flat_ms: ms(flat_time),
    }
}

struct BuildRow {
    network: String,
    threads: usize,
    build_ms: f64,
}

fn assert_index_eq(built: &BccIndex, seed: &BccIndex, context: &str) {
    assert_eq!(
        built.label_coreness, seed.label_coreness,
        "INVARIANT VIOLATED: δ diverged from the seed implementation {context}"
    );
    assert_eq!(
        built.butterfly_degree, seed.butterfly_degree,
        "INVARIANT VIOLATED: χ diverged from the seed implementation {context}"
    );
    assert_eq!(built.delta_max, seed.delta_max, "δ_max diverged {context}");
    assert_eq!(built.chi_max, seed.chi_max, "χ_max diverged {context}");
}

/// Section 2: `build_with_threads` at each thread count, bit-identical to
/// the seed build in every configuration.
fn bench_builds(
    name: &str,
    graph: &LabeledGraph,
    thread_counts: &[usize],
    repeats: usize,
) -> Vec<BuildRow> {
    let seed = BccIndex::build_reference(graph);
    thread_counts
        .iter()
        .map(|&threads| {
            let (build_time, built) =
                time_min(repeats, || BccIndex::build_with_threads(graph, threads));
            assert_index_eq(&built, &seed, &format!("({name}, {threads} threads)"));
            BuildRow { network: name.to_string(), threads, build_ms: ms(build_time) }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let scale = args.get("scale", 8.0f64);
    let repeats = args.get("repeats", 5usize).max(1);
    let out = args.get("out", String::new());
    let out_path = (!out.is_empty()).then_some(out);

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    // 1-thread baseline, the 2-thread gate point, and all cores (the "2"
    // row on a 1-core box documents the thread overhead it pays for
    // nothing — the speedup gate below is skipped there).
    let mut thread_counts = vec![1usize, 2, cores];
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let networks: Vec<(String, LabeledGraph)> = ["dblp", "baidu1"]
        .iter()
        .map(|name| {
            let spec = match *name {
                "dblp" => bcc_datasets::dblp(scale),
                _ => bcc_datasets::baidu1(scale),
            };
            let graph = spec.build().graph;
            eprintln!(
                "{} x{scale}: {} vertices, {} edges, {} labels",
                spec.name,
                graph.vertex_count(),
                graph.edge_count(),
                graph.label_count()
            );
            (spec.name.to_string(), graph)
        })
        .collect();

    // Section 1: χ kernels.
    let kernel_rows: Vec<KernelRow> = networks
        .iter()
        .map(|(name, graph)| bench_kernels(name, graph, repeats))
        .collect();
    let mut kernel_table = Table::new(
        format!("BCindex χ kernel: hash vs flat (min of {repeats} runs)"),
        vec![
            "network".into(),
            "|V|".into(),
            "|E|".into(),
            "labels".into(),
            "hash ms".into(),
            "flat ms".into(),
            "flat speedup".into(),
        ],
    );
    for row in &kernel_rows {
        kernel_table.push_row(vec![
            row.network.clone(),
            row.vertices.to_string(),
            row.edges.to_string(),
            row.labels.to_string(),
            format!("{:.3}", row.hash_ms),
            format!("{:.3}", row.flat_ms),
            format!("{:.2}x", row.hash_ms / row.flat_ms),
        ]);
    }
    println!("{}", kernel_table.render());
    for row in &kernel_rows {
        assert!(
            row.flat_ms < row.hash_ms,
            "INVARIANT VIOLATED: the flat kernel on {} ({:.3} ms) must beat the hash \
             kernel ({:.3} ms)",
            row.network,
            row.flat_ms,
            row.hash_ms
        );
    }

    // Section 2: parallel builds.
    let per_network: Vec<Vec<BuildRow>> = networks
        .iter()
        .map(|(name, graph)| bench_builds(name, graph, &thread_counts, repeats))
        .collect();
    let mut build_table = Table::new(
        format!(
            "BCindex build_with_threads on {cores} core(s) (min of {repeats} runs, \
             bit-identical to the seed build at every setting)"
        ),
        vec!["network".into(), "threads".into(), "build ms".into(), "speedup vs 1t".into()],
    );
    for rows in &per_network {
        let single = rows.iter().find(|r| r.threads == 1).expect("1-thread row").build_ms;
        for row in rows {
            build_table.push_row(vec![
                row.network.clone(),
                row.threads.to_string(),
                format!("{:.3}", row.build_ms),
                format!("{:.2}x", single / row.build_ms),
            ]);
        }
    }
    println!("{}", build_table.render());

    if cores >= 2 {
        for rows in &per_network {
            let single = rows.iter().find(|r| r.threads == 1).expect("1-thread row").build_ms;
            for row in rows.iter().filter(|r| r.threads >= 2) {
                assert!(
                    row.build_ms < single,
                    "INVARIANT VIOLATED: the {}-thread build on {} ({:.3} ms) must beat \
                     the 1-thread build ({:.3} ms) on a {cores}-core machine",
                    row.threads,
                    row.network,
                    row.build_ms,
                    single
                );
            }
        }
        eprintln!("parallel-build gate: PASS (threads {thread_counts:?} on {cores} cores)");
    } else {
        eprintln!(
            "parallel-build gate: SKIPPED — 1 core available, no parallel speedup is \
             physically possible (timings above are still bit-identity-checked)"
        );
    }

    // Section 3: the δ label-core decomposition on its own. Since the
    // two-phase build restructure, δ is phase 1 of `build_with_threads` —
    // a level-synchronous parallel peel across all workers — rather than a
    // sequential "task 0" straggling next to the χ chunks. These rows make
    // the phase's wall time (and its thread scaling) visible so a
    // regression back to a sequential critical path shows up in CI
    // artifacts. Bit-identity vs the sequential peel is asserted per row.
    let delta_rows: Vec<Vec<BuildRow>> = networks
        .iter()
        .map(|(name, graph)| {
            let seed = bcc_cohesion::label_core_decomposition(&GraphView::new(graph));
            thread_counts
                .iter()
                .map(|&threads| {
                    let (delta_time, delta) = time_min(repeats, || {
                        bcc_cohesion::label_core_decomposition_parallel(graph, threads)
                    });
                    assert_eq!(
                        delta, seed,
                        "INVARIANT VIOLATED: parallel δ diverged from the sequential \
                         peel on {name} at {threads} threads"
                    );
                    BuildRow { network: name.clone(), threads, build_ms: ms(delta_time) }
                })
                .collect()
        })
        .collect();
    let mut delta_table = Table::new(
        format!(
            "δ label-core decomposition (phase 1 of build_with_threads) on {cores} \
             core(s) (min of {repeats} runs, bit-identical at every setting)"
        ),
        vec!["network".into(), "threads".into(), "delta ms".into(), "speedup vs 1t".into()],
    );
    for rows in &delta_rows {
        let single = rows.iter().find(|r| r.threads == 1).expect("1-thread row").build_ms;
        for row in rows {
            delta_table.push_row(vec![
                row.network.clone(),
                row.threads.to_string(),
                format!("{:.3}", row.build_ms),
                format!("{:.2}x", single / row.build_ms),
            ]);
        }
    }
    println!("{}", delta_table.render());

    if let Some(path) = out_path {
        let json = format!(
            "{{\"cores\":{cores},\"kernels\":{},\"builds\":{},\"delta\":{}}}",
            kernel_table.to_json(),
            build_table.to_json(),
            delta_table.to_json()
        );
        std::fs::write(&path, json).expect("write JSON summary");
        eprintln!("wrote JSON summary to {path}");
    }
}
