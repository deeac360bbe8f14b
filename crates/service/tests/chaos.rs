//! Chaos differential suite: deterministic fault injection must never
//! change what a *healthy* request observes. Every test runs a faulty
//! service against a fault-free twin and demands byte-identical responses
//! for unaffected requests, while the injected faults themselves surface
//! as structured errors, counted events, and — crucially — no loss of
//! pool capacity and no poisoned cache entries.

use std::sync::Arc;

use bcc_graph::{GraphBuilder, LabeledGraph};
use bcc_service::{BccService, FaultSite, LineOutcome, Server, ServerConfig, ServiceConfig};

/// Two labeled 4-cliques bridged by a butterfly (a (3,3,1)-BCC).
fn butterfly_graph() -> LabeledGraph {
    let mut b = GraphBuilder::new();
    let l: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("l{i}"), "L")).collect();
    let r: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("r{i}"), "R")).collect();
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

/// Three label groups A (0..4), B (4..8), C (8..12): each a 4-clique, A–B
/// and B–C butterfly-bridged — the m=3 mBCC over {0, 4, 8} exercises the
/// scatter-gather path (three label-pair sub-queries).
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

fn service_with(graph: LabeledGraph, faults: &[&str]) -> BccService {
    BccService::with_graph(
        ServiceConfig {
            workers: 2,
            faults: faults.iter().map(|s| s.to_string()).collect(),
            ..ServiceConfig::default()
        },
        graph,
    )
}

fn expect_output(service: &BccService, line: &str) -> String {
    match service.process_line(line) {
        LineOutcome::Output(out) => out,
        other => panic!("`{line}` produced {other:?} instead of output"),
    }
}

/// Four distinct pair queries on the butterfly graph — distinct cache
/// keys, so each one reaches the pool (no hit short-circuits a fault).
const PAIR_QUERIES: [&str; 4] = [
    "search ql=l0 qr=r0",
    "search ql=l1 qr=r1",
    "search ql=l0 qr=r1",
    "search ql=l1 qr=r0",
];

/// Worker panics are contained: each faulted request gets a structured
/// internal error naming the panic, nothing lands in the cache, and after
/// the burst the pool is back at full width serving byte-identical
/// responses to a never-faulted twin.
#[test]
fn worker_panics_yield_typed_errors_and_full_capacity_after() {
    let faulty = service_with(butterfly_graph(), &["worker_execute:panic:1:4"]);
    let clean = service_with(butterfly_graph(), &[]);

    // Issue every line to both twins (errors consume a seq too, so the
    // comparison below needs both sides to have seen the same workload).
    for line in PAIR_QUERIES {
        let out = expect_output(&faulty, line);
        expect_output(&clean, line);
        assert!(
            out.contains("\"error\":\"internal\"") && out.contains("panicked"),
            "faulted `{line}` should report a contained panic, got: {out}"
        );
    }

    // The plan is exhausted: the same queries now succeed, byte-identical
    // to the twin — the panicked attempts were never cached, and the pool
    // still has every worker (a submit-path panic is caught in place).
    for line in PAIR_QUERIES {
        assert_eq!(expect_output(&faulty, line), expect_output(&clean, line), "line: {line}");
    }
    let stats = faulty.stats();
    assert_eq!(stats.worker_panics, 4);
    assert_eq!(stats.faults_injected, 4);
    assert_eq!(stats.workers, 2, "pool capacity must not decay");
    assert_eq!(stats.cache.hits, 0, "a panicked request must never be served from cache");
    assert_eq!(stats.searches_executed, 4, "panicked attempts never reach the engine");

    // And the cache is healthy: a repeat is a hit with identical bytes.
    let repeat = expect_output(&faulty, PAIR_QUERIES[0]);
    assert_eq!(repeat, expect_output(&clean, PAIR_QUERIES[0]));
    assert_eq!(faulty.stats().cache.hits, 1);
}

/// Sends `lines` one at a time over a TCP connection to a server in front
/// of `service` and returns the responses, so the session-layer sites
/// (`codec_decode`, `admission`) are on the path too.
fn tcp_transcript(service: &Arc<BccService>, lines: &[&str]) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = Server::bind(Arc::clone(service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind 127.0.0.1:0");
    let mut writer = TcpStream::connect(handle.addr()).expect("connect");
    writer.set_nodelay(true).expect("set_nodelay");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let responses = lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim_end().to_string()
        })
        .collect();
    handle.shutdown();
    handle.join();
    responses
}

/// The full mixed workload — searches, m=2 and m=3 msearch (scatter),
/// mutate/commit cycles — over TCP under an always-on delay fault, armed
/// at one site at a time: delays move wall time only, so every response
/// byte must match the fault-free twin, and every site must fire.
#[test]
fn delay_faults_at_every_site_leave_all_responses_byte_identical() {
    let workload = [
        "search ql=0 qr=4",
        "msearch q=0,4 k=3 b=1",
        "msearch q=0,4,8 k=3 b=1",
        "msearch q=0,4,8 k=3 b=1",
        "add_edge u=2 v=10",
        "commit",
        "msearch q=0,4,8 k=3 b=1",
        "remove_edge u=2 v=10",
        "commit",
        "search ql=4 qr=8 method=online",
    ];
    let clean = tcp_transcript(&Arc::new(service_with(three_group_graph(), &[])), &workload);
    for site in FaultSite::ALL {
        let spec = format!("{}:delay1ms:1:0", site.name());
        let faulty = Arc::new(service_with(three_group_graph(), &[&spec]));
        assert_eq!(tcp_transcript(&faulty, &workload), clean, "{spec}");
        let stats = faulty.stats();
        assert!(stats.faults_injected > 0, "`{spec}` never fired");
        assert_eq!(stats.worker_panics, 0);
    }
}

/// A single targeted error fault hits exactly the request it selects by
/// match count; every other request in the run is byte-identical to the
/// twin, and re-issuing the affected line afterwards recovers (the error
/// was transient and uncached).
#[test]
fn targeted_error_fault_affects_only_its_selected_request() {
    let faulty = service_with(butterfly_graph(), &["worker_execute:error:3:1"]);
    let clean = service_with(butterfly_graph(), &[]);

    for (i, line) in PAIR_QUERIES.iter().enumerate() {
        let out = expect_output(&faulty, line);
        let twin = expect_output(&clean, line);
        if i == 2 {
            assert!(
                out.contains("\"error\":\"internal\"")
                    && out.contains("injected fault at worker_execute"),
                "third execution should carry the injected error, got: {out}"
            );
        } else {
            assert_eq!(out, twin, "line: {line}");
        }
    }
    // The plan is spent; the affected query now succeeds and matches.
    assert_eq!(
        expect_output(&faulty, PAIR_QUERIES[2]),
        expect_output(&clean, PAIR_QUERIES[2])
    );
    assert_eq!(faulty.stats().faults_injected, 1);
}

/// A panic inside one scatter pair sub-query is contained, retried within
/// the gather, and the assembled m=3 response stays byte-identical to the
/// fault-free twin — the client never sees the fault at all.
#[test]
fn scatter_pair_panic_is_retried_and_invisible_to_the_client() {
    let faulty = service_with(three_group_graph(), &["scatter_pair:panic:1:1"]);
    let clean = service_with(three_group_graph(), &[]);
    let line = "msearch q=0,4,8 k=3 b=1";
    assert_eq!(expect_output(&faulty, line), expect_output(&clean, line));
    let stats = faulty.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.pair_retries, 1);
    assert_eq!(stats.faults_injected, 1);
}

/// The session-layer sites fire over a real TCP connection: an injected
/// decode fault surfaces as a structured internal error, an admission
/// fault as a structured overload rejection — and the connection keeps
/// serving afterwards, byte-identical to a clean request.
#[test]
fn session_sites_fire_over_tcp_and_the_connection_survives() {
    let service = Arc::new(service_with(
        butterfly_graph(),
        &["codec_decode:error:1:1", "admission:error:1:1"],
    ));
    let line = "search ql=l0 qr=r0";
    let out = tcp_transcript(&service, &[line; 3]);
    let (first, second, third) = (&out[0], &out[1], &out[2]);

    // First request: the decode-site fault fires before dispatch.
    assert!(
        first.contains("\"kind\":\"internal\"") && first.contains("codec_decode"),
        "got: {first}"
    );
    // Second: the admission-site fault renders as a structured overload.
    assert!(
        second.contains("\"kind\":\"overloaded\"") && second.contains("admission"),
        "got: {second}"
    );
    // Third: the plan is spent; the same line now succeeds.
    assert!(third.contains("\"ok\":true"), "got: {third}");
    assert_eq!(service.fault_plan().injected(), 2);
}
