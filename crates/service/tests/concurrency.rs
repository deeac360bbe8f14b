//! Concurrency smoke tests: the same workload must produce byte-identical
//! responses on 1 worker and N workers, and the cache must obey its
//! hit-count invariants (a second identical batch is served 100% from
//! memory). The scatter-gather path (m > 2 `msearch`, whose label-pair
//! sub-queries run side by side on the pool) is held to the same standard
//! through commit cycles, with identical cache accounting.

use bcc_datasets::{queries, PlantedConfig, PlantedNetwork, QueryConstraints};
use bcc_graph::{GraphBuilder, LabeledGraph};
use bcc_service::{BccService, CacheCounters, LineOutcome, ServiceConfig};

/// A small planted network with guaranteed cross-label communities.
fn planted() -> PlantedNetwork {
    PlantedNetwork::generate(PlantedConfig {
        communities: 8,
        community_size: (16, 28),
        ..PlantedConfig::default()
    })
}

/// A deterministic workload of protocol lines over the planted network:
/// distinct ground-truth query pairs across all three methods, plus an
/// msearch and a deliberately unsatisfiable query (search errors are
/// deterministic outcomes and must cache like successes).
fn workload(net: &PlantedNetwork) -> Vec<String> {
    let qs = queries::random_community_queries(
        net,
        12,
        QueryConstraints { degree_rank: 0, inter_distance: None },
        7,
    );
    assert!(qs.len() >= 6, "planted network must yield enough queries");
    let mut lines = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, q) in qs.iter().enumerate() {
        let (a, b) = (q.vertices[0].0, q.vertices[1].0);
        // Dedup (unordered) pairs: in-batch duplicates would make cache
        // hit counts depend on scheduling.
        if !seen.insert((a.min(b), a.max(b))) {
            continue;
        }
        let method = ["online", "lp", "l2p"][i % 3];
        lines.push(format!("search ql={a} qr={b} method={method}"));
        lines.push(format!("msearch q={b},{a} method=lp"));
        lines.push(format!("search ql={a} qr={b} method={method} b=1000000"));
    }
    lines
}

fn service_with(workers: usize, net: &PlantedNetwork) -> BccService {
    BccService::with_graph(
        ServiceConfig { workers, cache_capacity: 4096, ..Default::default() },
        net.graph.clone(),
    )
}

#[test]
fn one_worker_and_n_workers_agree_byte_for_byte() {
    let net = planted();
    let lines = workload(&net);
    let n = bcc_service::default_workers().max(2);

    let single = service_with(1, &net);
    let multi = service_with(n, &net);
    let sequential = single.run_batch(&lines);
    let concurrent = multi.run_batch(&lines);

    assert_eq!(sequential.len(), lines.len());
    assert_eq!(
        sequential, concurrent,
        "worker count must never change an answer"
    );
    // Re-running the same batch on a *fresh* single-worker service is also
    // identical: the cache changes latency, never bytes.
    let fresh = service_with(1, &net);
    assert_eq!(fresh.run_batch(&lines), sequential);
}

#[test]
fn second_identical_batch_is_all_hits() {
    let net = planted();
    let lines = workload(&net);
    let service = service_with(bcc_service::default_workers(), &net);

    let first = service.run_batch(&lines);
    let after_first = service.stats();
    assert_eq!(after_first.cache.hits, 0, "distinct queries: no hit in batch 1");
    assert_eq!(after_first.cache.misses, lines.len() as u64);
    assert_eq!(after_first.searches_executed, lines.len() as u64);

    let second = service.run_batch(&lines);
    let after_second = service.stats();
    assert_eq!(first, second, "cached answers are byte-identical");
    assert_eq!(
        after_second.cache.hits,
        lines.len() as u64,
        "second identical batch ⇒ 100% hits"
    );
    assert_eq!(
        after_second.searches_executed,
        lines.len() as u64,
        "no additional search may execute for batch 2"
    );
    // Symmetric rewrites of the whole batch are also pure hits.
    let swapped: Vec<String> = lines
        .iter()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("search ql=") {
                let mut parts = rest.split(' ');
                let ql = parts.next().unwrap();
                let qr = parts.next().unwrap().strip_prefix("qr=").unwrap();
                let tail: Vec<&str> = parts.collect();
                format!("search ql={qr} qr={ql} {}", tail.join(" "))
            } else {
                l.clone()
            }
        })
        .collect();
    service.run_batch(&swapped);
    assert_eq!(
        service.stats().searches_executed,
        lines.len() as u64,
        "symmetric queries must be served from cache"
    );
}

#[test]
fn hammering_one_service_from_many_threads_is_consistent() {
    let net = planted();
    let lines = workload(&net);
    let service = std::sync::Arc::new(service_with(4, &net));
    let baseline = service.run_batch(&lines);

    // 8 client threads replay the same workload concurrently against the
    // shared (now warm) service; every response must match the baseline.
    let mut handles = Vec::new();
    for _ in 0..8 {
        let service = std::sync::Arc::clone(&service);
        let lines = lines.clone();
        let baseline = baseline.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..3 {
                assert_eq!(service.run_batch(&lines), baseline);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.searches_executed, lines.len() as u64);
    assert_eq!(stats.cache.hits, (8 * 3 * lines.len()) as u64);
    // Every line is a query: the baseline batch plus 8 × 3 replays.
    assert_eq!(stats.requests, (25 * lines.len()) as u64);
    let by_verb = |verb: bcc_service::Verb| stats.requests_by_verb[verb.index()];
    assert_eq!(
        stats.requests,
        by_verb(bcc_service::Verb::Search) + by_verb(bcc_service::Verb::Msearch)
    );
}

/// Three label groups A (0..4), B (4..8), C (8..12): each a 4-clique, A–B
/// and B–C butterfly-bridged, no A–C edges. The m=3 mBCC over {0, 4, 8}
/// is feasible (connectivity flows through B) even though the (A, C) label
/// pair has no butterfly at all — so its scatter always carries one
/// structured per-pair failure inside an `"ok":true` response.
fn three_group_graph() -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let a: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
    let bb: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
    let c: Vec<_> = (0..4).map(|_| b.add_vertex("C")).collect();
    for grp in [&a, &bb, &c] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(grp[i], grp[j]);
            }
        }
    }
    for &x in &a[..2] {
        for &y in &bb[..2] {
            b.add_edge(x, y);
        }
    }
    for &x in &bb[..2] {
        for &y in &c[..2] {
            b.add_edge(x, y);
        }
    }
    b.build()
}

fn expect_output(service: &BccService, line: &str) -> String {
    match service.process_line(line) {
        LineOutcome::Output(out) => out,
        other => panic!("`{line}` produced {other:?} instead of output"),
    }
}

/// The scatter session script: pair searches, m=2 and m=3 msearch, and
/// two commit cycles.
const SCATTER_SCRIPT: [&str; 17] = [
    "search ql=0 qr=4 method=lp",
    "search ql=0 qr=4 method=online",
    "search ql=4 qr=8 method=l2p",
    // m=2 msearch stays a single job — and warms the (0, 4) pair slot the
    // m=3 scatter below probes (identical CacheKey by design).
    "msearch q=0,4 k=3 b=1",
    // m=3: scatters pairs (0,4) [cache hit], (0,8) [structured error: no
    // A–C butterfly], (4,8) plus the monolithic assembly.
    "msearch q=0,4,8 k=3 b=1",
    // Byte-for-byte repeat: a full-key cache hit, no re-scatter.
    "msearch q=0,4,8 k=3 b=1",
    "msearch q=0,4,8 k=3 b=1 method=online",
    // Mutate + commit: a new generation invalidates by dirty set; the
    // scatter must rebuild cleanly.
    "add_edge u=2 v=10",
    "commit",
    "msearch q=0,4,8 k=3 b=1",
    "search ql=0 qr=8",
    "remove_edge u=2 v=10",
    "commit",
    "msearch q=0,4,8 k=3 b=1",
    "msearch q=0,4,8 k=3 b=1",
    "search ql=0 qr=4 method=lp",
    "msearch q=4,8,0 k=3 b=1",
];

/// Runs the scatter script on a fresh service, returning every response
/// line and the final cache accounting (counters, commit invalidations,
/// commit retentions).
fn run_scatter_script(
    workers: usize,
    cache_capacity: usize,
    cache_weight_cap: usize,
) -> (Vec<String>, (CacheCounters, u64, u64)) {
    let service = BccService::with_graph(
        ServiceConfig { workers, cache_capacity, cache_weight_cap, ..ServiceConfig::default() },
        three_group_graph(),
    );
    let outputs = SCATTER_SCRIPT.iter().map(|line| expect_output(&service, line)).collect();
    let stats = service.stats();
    (outputs, (stats.cache, stats.cache_invalidated, stats.cache_retained))
}

#[test]
fn scatter_script_agrees_at_one_and_n_workers() {
    let n = bcc_service::default_workers().max(4);
    // (cache capacity, weight cap): the default cache, no cache at all,
    // and a tiny member-weight cap that forces size-aware eviction — the
    // determinism must survive every eviction regime.
    for (capacity, weight_cap) in [(4096usize, 0usize), (0, 0), (4096, 20)] {
        let (reference, ref_cache) = run_scatter_script(1, capacity, weight_cap);
        let (outputs, cache) = run_scatter_script(n, capacity, weight_cap);
        assert_eq!(outputs.len(), reference.len());
        for (i, (got, want)) in outputs.iter().zip(&reference).enumerate() {
            assert_eq!(
                got, want,
                "response {i} diverged at {n} workers (cache {capacity}, weight cap {weight_cap})"
            );
        }
        // Identical hit/miss/insert/evict and commit accounting: the
        // scatter probes and insert replay run in plan order on the
        // session thread, so worker count cannot move a single counter.
        assert_eq!(
            cache, ref_cache,
            "cache accounting diverged at {n} workers (cache {capacity}, weight cap {weight_cap})"
        );
        if capacity > 0 {
            assert!(ref_cache.0.hits > 0, "the script must exercise cache hits");
        }
    }
}

#[test]
fn scatter_surfaces_partial_failure_per_pair() {
    let service = BccService::with_graph(
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
        three_group_graph(),
    );
    // Warm the (0, 4) pair slot through a direct m=2 msearch, then scatter.
    let _ = expect_output(&service, "msearch q=0,4 k=3 b=1");
    let out = expect_output(&service, "msearch q=0,4,8 k=3 b=1");
    assert!(out.contains("\"ok\":true"), "{out}");
    assert!(out.contains("\"size\":12"), "all three 4-cliques: {out}");
    assert!(out.contains("\"pairs\":["), "{out}");
    assert!(out.contains("\"ql\":0,\"qr\":4,\"ok\":true"), "{out}");
    assert!(
        out.contains("\"ql\":0,\"qr\":8,\"ok\":false,\"error\":\"search\""),
        "the A–C pair has no butterfly — its slot must carry the structured \
         error while the overall response stays ok: {out}"
    );
    assert!(out.contains("\"ql\":4,\"qr\":8,\"ok\":true"), "{out}");

    // The warmed pair was served from cache; the other two pair slots and
    // the full key missed; the repeat is a pure full-key hit.
    let before = service.stats().cache;
    let repeat = expect_output(&service, "msearch q=0,4,8 k=3 b=1");
    let after = service.stats().cache;
    assert_eq!(after.hits, before.hits + 1, "repeat must hit the full key");
    assert_eq!(after.misses, before.misses, "repeat must not re-scatter");
    // Symmetric vertex order normalizes to the same key — still one hit.
    assert_eq!(
        repeat,
        expect_output(&service, "msearch q=8,4,0 k=3 b=1").replace("\"seq\":3", "\"seq\":2")
    );
}
