//! Observability end-to-end: the metrics tier must be invisible on the
//! wire (byte-identical responses with the recorder on or off, both
//! codecs) and visible on the side channels — the `metrics` verb and the
//! Prometheus exposition populated by real queries over TCP — while the
//! `stats` JSON keeps its historical key prefix byte-for-byte.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bcc_graph::{GraphBuilder, LabeledGraph};
use bcc_service::{BccService, BinaryCodec, Server, ServerConfig, ServerHandle, ServiceConfig};

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

/// A fresh service with the butterfly graph as `g`, metrics on or off.
/// The result cache is off so commit invalidation counts are
/// timing-independent (see `server_e2e.rs`).
fn service(metrics: bool) -> Arc<BccService> {
    let svc = Arc::new(BccService::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        metrics,
        ..ServiceConfig::default()
    }));
    svc.registry().insert("g".to_string(), butterfly_graph());
    svc
}

/// A test client speaking either codec over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Client {
    fn connect(handle: &ServerHandle, binary: bool) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("set_nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            binary,
        }
    }

    fn round_trip(&mut self, payload: &str) -> String {
        if self.binary {
            self.writer.write_all(&BinaryCodec::encode_frame(payload)).unwrap();
        } else {
            let mut line = Vec::with_capacity(payload.len() + 1);
            line.extend_from_slice(payload.as_bytes());
            line.push(b'\n');
            self.writer.write_all(&line).unwrap();
        }
        self.writer.flush().unwrap();
        if self.binary {
            let mut prefix = [0u8; 4];
            self.reader.read_exact(&mut prefix).expect("response prefix");
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            self.reader.read_exact(&mut payload).expect("response payload");
            String::from_utf8(payload).expect("UTF-8 response")
        } else {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("response line");
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            line
        }
    }
}

/// Searches (all three methods), mutations, a commit cycle, a multi-label
/// query, a parse error, and `graphs` — everything whose response bytes
/// must not depend on the metrics tier. (`stats` and `metrics` are
/// excluded: their outputs report the telemetry itself.)
fn workload() -> Vec<String> {
    vec![
        "search ql=l0 qr=r0 graph=g".into(),
        "search ql=l0 qr=r0 graph=g method=online".into(),
        "search ql=l1 qr=r1 graph=g method=l2p".into(),
        "add_edge u=l3 v=r3 graph=g".into(),
        "commit graph=g".into(),
        "search ql=l3 qr=r3 graph=g".into(),
        "msearch q=l1,r1 graph=g k=3 b=1".into(),
        "not a protocol line".into(),
        "remove_edge u=l3 v=r3 graph=g".into(),
        "commit graph=g".into(),
        "graphs".into(),
        "search ql=l0 qr=r0 graph=g".into(),
    ]
}

/// The differential pin: recorder on vs no-op recorder, same workload over
/// TCP, both codecs — transcripts byte-identical. Telemetry is strictly
/// out-of-band.
#[test]
fn tcp_responses_byte_identical_with_metrics_on_and_off() {
    let transcript = |metrics: bool, binary: bool| -> Vec<String> {
        let svc = service(metrics);
        let handle = Server::bind(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("bind");
        let mut client = Client::connect(&handle, binary);
        let out: Vec<String> =
            workload().iter().map(|line| client.round_trip(line)).collect();
        drop(client);
        handle.shutdown();
        handle.join();
        out
    };
    for binary in [false, true] {
        let on = transcript(true, binary);
        let off = transcript(false, binary);
        assert_eq!(
            on, off,
            "metrics tier changed response bytes (binary codec: {binary})"
        );
    }
}

/// Real queries over TCP populate the `metrics` verb's JSON snapshot and
/// the Prometheus exposition: request counters, verb latency histograms,
/// engine phase histograms, queue wait.
#[test]
fn metrics_verb_and_prometheus_populated_by_real_queries() {
    let svc = service(true);
    let handle =
        Server::bind(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&handle, false);
    for line in workload() {
        client.round_trip(&line);
    }
    let snapshot = client.round_trip("metrics");

    assert!(snapshot.starts_with("{\"ok\":true,\"metrics_enabled\":true"), "{snapshot}");
    // 5 searches in the workload; every one must land in the counter and
    // the latency histogram (requests counts arrivals, count the samples).
    assert!(snapshot.contains("\"search\":{\"requests\":5,\"count\":5,"), "{snapshot}");
    assert!(snapshot.contains("\"msearch\":{\"requests\":1,\"count\":1,"), "{snapshot}");
    assert!(snapshot.contains("\"add_edge\":{\"requests\":1,"), "{snapshot}");
    assert!(snapshot.contains("\"commit\":{\"requests\":2,"), "{snapshot}");
    assert!(snapshot.contains("\"metrics\":{\"requests\":1,"), "{snapshot}");
    // Engine phases recorded by the worker's trace replay: 6 executed
    // searches (5 search + 1 msearch), each timing its distance phase.
    assert!(snapshot.contains("\"query_distance\":{\"count\":6,"), "{snapshot}");
    // Commit stages recorded from the registry's timings: 2 commits.
    assert!(snapshot.contains("\"overlay_apply\":{\"count\":2,"), "{snapshot}");
    assert!(snapshot.contains("\"cache_invalidate\":{\"count\":2,"), "{snapshot}");
    // Admission gate bracketed every query dispatch (5 search + 1 msearch).
    assert!(snapshot.contains("\"queue_wait\":{\"count\":6,"), "{snapshot}");

    let prom = svc.metrics().prometheus();
    assert!(prom.contains("bcc_metrics_enabled 1"), "{prom}");
    assert!(prom.contains("bcc_requests_total{verb=\"search\"} 5"), "{prom}");
    assert!(prom.contains("bcc_requests_total{verb=\"commit\"} 2"), "{prom}");
    assert!(
        prom.contains("bcc_verb_latency_microseconds_count{verb=\"search\"} 5"),
        "{prom}"
    );
    assert!(
        prom.contains("bcc_phase_latency_microseconds_count{phase=\"query_distance\"} 6"),
        "{prom}"
    );
    assert!(prom.contains("bcc_queue_wait_microseconds_count 6"), "{prom}");
    // Exposition is well-formed: every non-comment line is `name[{labels}] value`.
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "bad line: {line}");
    }

    drop(client);
    handle.shutdown();
    handle.join();
}

/// With the tier disabled the `metrics` verb still answers (counters tick,
/// histograms stay empty) — observability degrades, never errors.
#[test]
fn metrics_verb_answers_with_tier_disabled() {
    let svc = service(false);
    let handle =
        Server::bind(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&handle, true);
    client.round_trip("search ql=l0 qr=r0 graph=g");
    let snapshot = client.round_trip("metrics");
    assert!(snapshot.starts_with("{\"ok\":true,\"metrics_enabled\":false"), "{snapshot}");
    // Request arrival counters are always on; histograms are gated off.
    assert!(snapshot.contains("\"search\":{\"requests\":1,\"count\":0,"), "{snapshot}");
    assert!(snapshot.contains("\"queue_wait\":{\"count\":0,"), "{snapshot}");
    drop(client);
    handle.shutdown();
    handle.join();
}

/// The `stats` JSON prefix is pinned byte-for-byte through
/// `total_search_time_us`: existing consumers parse positionally-stable
/// keys, and the new observability keys append strictly after.
#[test]
fn stats_json_keeps_historical_prefix_and_appends_new_keys() {
    let svc = service(true);
    let json = svc.stats_json();
    let expected_prefix = "{\"ok\":true,\"requests\":0,\"searches_executed\":0,\
                           \"cache_hits\":0,\"cache_misses\":0,\"cache_evictions\":0,\
                           \"cache_entries\":0,\"timeouts\":0,\"parse_errors\":0,\
                           \"resolve_errors\":0,\"search_errors\":0,\"mutations_staged\":0,\
                           \"commits\":0,\"mutate_errors\":0,\"cache_invalidated\":0,\
                           \"cache_retained\":0,\"workers\":2,\
                           \"connections_accepted\":0,\"connections_rejected\":0,\
                           \"active_sessions\":0,\"admitted\":0,\"rejected_overloaded\":0,\
                           \"admission_timeouts\":0,\"bytes_in\":0,\"bytes_out\":0,\
                           \"graphs\":[\"g\"],\"total_search_time_us\":0";
    assert!(
        json.starts_with(expected_prefix),
        "historical stats prefix changed:\n{json}"
    );
    let tail = &json[expected_prefix.len()..];
    assert!(tail.starts_with(",\"slow_queries\":0,\"requests_by_verb\":{"), "{tail}");
    assert!(tail.contains("\"stats\":1"), "stats_json counts its own verb: {tail}");
    // The fault counters append last.
    assert!(
        tail.ends_with("},\"faults\":{\"injected\":0,\"worker_panics\":0,\"pair_retries\":0}}"),
        "{tail}"
    );
}

/// The pool surfaces are populated by real traffic: every executed query
/// passed the admission gate and ran on the one worker pool, and the
/// Prometheus exposition carries the unlabeled `bcc_pool_*` families.
#[test]
fn pool_surfaces_track_real_traffic() {
    let svc = service(true);
    let handle =
        Server::bind(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&handle, false);
    for line in workload() {
        client.round_trip(&line);
    }

    // 5 search + 1 msearch, cache off: every dispatch passed the gate.
    let stats = svc.stats();
    assert_eq!(stats.admitted, 6, "{stats:?}");
    assert_eq!(stats.rejected_overloaded, 0, "{stats:?}");
    let sample = |prom: &str, family: &str| -> u64 {
        let prefix = format!("\n{family} ");
        let at = prom.find(&prefix).unwrap_or_else(|| panic!("no {family}: {prom}"));
        let rest = &prom[at + prefix.len()..];
        rest[..rest.find('\n').unwrap()].parse().expect("integer sample")
    };
    // A worker bumps its pool's `executed` *after* delivering the result,
    // so the last job's tick can trail the response by an instant.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while sample(&svc.prometheus(), "bcc_pool_executed_total") < 6
        && std::time::Instant::now() < deadline
    {
        std::thread::yield_now();
    }
    let prom = svc.prometheus();
    for (family, want) in [
        ("bcc_pool_executed_total", 6),
        ("bcc_pool_queue_depth", 0),
        ("bcc_pool_admitted_total", 6),
        ("bcc_pool_rejected_total", 0),
        ("bcc_pool_worker_panics_total", 0),
    ] {
        assert_eq!(sample(&prom, family), want, "{family}: {prom}");
    }
    assert!(!prom.contains("shard"), "{prom}");
    for verb in ["stats", "metrics"] {
        let line = client.round_trip(verb);
        assert!(!line.contains("shard"), "{line}");
    }

    drop(client);
    handle.shutdown();
    handle.join();
}
