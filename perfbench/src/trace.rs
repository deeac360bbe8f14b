//! The traced run: the per-layer split. It repeats the load against a fresh
//! `bcc listen` with a span per request, hosts the service in-process
//! (`BccService::with_graph` + `Server::bind`, default configuration) to
//! time calls into each crate's public functions, and reads the counters
//! the untraced run's server exported through `stats` and `metrics`. Spans
//! are kept in memory and written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bcc_core::{
    butterfly_core_path, expand_candidate, BccIndex, BccParams, BccQuery, L2pBcc, LpBcc,
    MbccParams, MbccQuery, MultiLabelBcc, MultiStrategy, PathWeights, SearchStats,
};
use bcc_graph::{GraphView, LabeledGraph, VertexId};
use bcc_service::{
    parse_line, BccService, GraphRegistry, LineOutcome, Method, ParsedLine, Pending, QueryKind,
    Server, ServerConfig, ServiceConfig,
};

use crate::check::{self, json_u64, Verdict};
use crate::client::{Conn, ServerProc};
use crate::e2e::{check_writes, E2e, Metric, Tally};
use crate::load;
use crate::workload::{Kind, Workload};

/// Set-up replays per traced run.
const SETUP_REPLAYS: usize = 3;
/// Writer batches the commit replay applies.
const COMMIT_REPLAYS: usize = 12;

/// One timed interval. Children of a span never overlap, so a span's self
/// time is its duration minus its children's. `start_ns` is `None` for a
/// child whose duration the program reported itself (a `SearchStats`
/// phase or a `CommitOutcome` stage): it has a length but no position.
struct Span {
    name: &'static str,
    start_ns: Option<u64>,
    dur_ns: u64,
    parent: Option<usize>,
    request: u64,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    fn ns(d: Duration) -> u64 {
        d.as_nanos() as u64
    }

    /// Times `f` as a span named `name`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = Self::ns(self.origin.elapsed());
        self.spans.push(Span {
            name,
            start_ns: Some(start),
            dur_ns: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let now = Self::ns(self.origin.elapsed());
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns.expect("open spans have a start");
    }

    /// A child whose length the program measured itself.
    fn reported(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns: None,
            dur_ns: Self::ns(dur),
            parent: Some(parent),
            request,
        });
    }

    /// Self time in milliseconds of every span named `name`.
    fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns.saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// Whole duration in milliseconds of every span named `name`.
    fn total_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?,
        );
        for (i, s) in self.spans.iter().enumerate() {
            let start = s.start_ns.map_or("null".to_string(), |n| n.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{start},\"dur_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.dur_ns, s.request
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// An in-process service as `bcc listen` configures it: the default
/// configuration, the same registry key.
fn service(w: &Workload, graph: LabeledGraph) -> BccService {
    BccService::with_graph(
        ServiceConfig {
            default_graph: w.graph_name.clone(),
            ..ServiceConfig::default()
        },
        graph,
    )
}

fn bind(service: &Arc<BccService>) -> Result<bcc_service::ServerHandle, String> {
    Server::bind(Arc::clone(service), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())
}

fn output(service: &BccService, line: &str) -> String {
    match service.process_line(line) {
        LineOutcome::Output(out) => out,
        other => panic!("`{line}` produced {other:?}"),
    }
}

pub fn run(
    w: &Workload,
    e2e: &E2e,
    bcc: &Path,
    seconds: f64,
    out_dir: &Path,
    seed: u64,
) -> Result<(Tally, Vec<Metric>), String> {
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut put = |name, value, unit| metrics.push(Metric::new(name, value, unit));

    // Set-up layers, each replayed a few times.
    for r in 0..SETUP_REPLAYS as u64 {
        let root = spans.open("setup", None, r);
        let graph = spans.time("graph.io.load", Some(root), r, || {
            bcc_graph::io::read_graph_file(&w.graph_path)
        });
        let graph = graph.map_err(|e| e.to_string())?;
        let index = spans.time("core.index.build", Some(root), r, || {
            BccIndex::build_with_threads(&graph, 0)
        });
        std::hint::black_box(&index);
        let handle = spans.time("service.server.bind", Some(root), r, || {
            bind(&Arc::new(service(w, graph)))
        })?;
        spans.close(root);
        handle.shutdown();
        handle.join();
    }
    for (name, span) in [
        ("graph.io.load_ms", "graph.io.load"),
        ("core.index.build_ms", "core.index.build"),
        ("service.server.bind_ms", "service.server.bind"),
    ] {
        put(name, load::median(&spans.total_ms(span)), "ms");
    }

    // The traced load: the same traffic, every request a span.
    let traced = traced_load(w, bcc, &mut spans, seconds, &mut tally)?;
    put("trace.throughput_qps", traced.qps, "1/s");
    put("trace.overhead_pct", traced.overhead_pct, "%");

    // Layer replays, one request at a time.
    let replay = replay_requests(w, &mut spans, &mut tally)?;
    for (name, span) in [
        ("net.rtt_ms", "net.rtt"),
        ("core.candidate.find_g0_ms", "core.candidate.find_g0"),
        ("core.local.path_ms", "core.local.path"),
        ("core.local.expand_ms", "core.local.expand"),
        ("graph.view.full_ms", "graph.view.full"),
        ("service.scatter.pair_ms", "service.scatter.pair"),
        ("service.scatter.assembly_ms", "service.scatter.assembly"),
        ("core.search_ms", "core.search"),
        ("core.query_distance_ms", "core.query_distance"),
        ("cohesion.core_decomp_ms", "cohesion.core_decomp"),
        ("butterfly.counting_ms", "butterfly.counting"),
        ("core.leader_pairing_ms", "core.leader_pairing"),
    ] {
        put(name, mean(&spans.total_ms(span)), "ms");
    }
    put(
        "core.unattributed_ms",
        mean(&spans.self_ms("core.search")),
        "ms",
    );
    let rtt = spans.total_ms("net.rtt.hit");
    let handle = spans.total_ms("service.handle.hit");
    let overhead: Vec<f64> = rtt.iter().zip(&handle).map(|(r, h)| r - h).collect();
    put("net.overhead_ms", mean(&overhead), "ms");
    for (name, span) in [
        ("service.parse_us", "service.parse"),
        ("service.cache.lookup_us", "service.cache.lookup"),
    ] {
        put(name, 1e3 * mean(&spans.total_ms(span)), "us");
    }
    let per_query = |v: u64| v as f64 / replay.searches.max(1) as f64;
    let counts = &replay.counts;
    for (name, value) in [
        ("core.iterations", per_query(counts.iterations)),
        ("core.vertices_deleted", per_query(counts.vertices_deleted)),
        ("butterfly.countings", per_query(counts.butterfly_countings)),
        ("core.full_bfs_runs", per_query(counts.full_bfs_runs)),
    ] {
        put(name, value, "count");
    }
    for (name, value) in replay.service_counts {
        put(name, value as f64, "count");
    }

    // The commit path, replayed on the registry alone.
    commit_replay(w, &mut spans)?;
    for (name, span) in [
        ("service.commit_ms", "service.registry.commit"),
        ("graph.delta.apply_ms", "graph.delta.apply"),
        ("core.incremental.cascade_ms", "core.incremental.cascade"),
        (
            "core.incremental.chi_delta_ms",
            "core.incremental.chi_delta",
        ),
    ] {
        put(name, mean(&spans.total_ms(span)), "ms");
    }
    put(
        "service.commit.unattributed_ms",
        mean(&spans.self_ms("service.registry.commit")),
        "ms",
    );

    // Counters the untraced server exported.
    let [stats0, stats1, stats2] = &e2e.stats;
    let [metrics0, metrics1, metrics2] = &e2e.server_metrics;
    let delta = |a: &str, b: &str, keys: &[&str]| -> f64 {
        json_u64(b, keys).unwrap_or(0) as f64 - json_u64(a, keys).unwrap_or(0) as f64
    };
    let hits = delta(stats0, stats1, &["cache_hits"]);
    let misses = delta(stats0, stats1, &["cache_misses"]);
    put(
        "service.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let waits = delta(metrics0, metrics1, &["queue_wait", "count"]);
    put(
        "service.pool.queue_wait_ms",
        delta(metrics0, metrics1, &["queue_wait", "sum_us"]) / 1e3 / waits.max(1.0),
        "ms",
    );
    let requests = delta(stats0, stats1, &["requests"]);
    put(
        "service.scatter.jobs_per_msearch",
        delta(stats0, stats1, &["searches_executed"]) / requests.max(1.0),
        "count",
    );
    let rescopes = delta(metrics0, metrics2, &["phases", "cache_invalidate", "count"]);
    put(
        "service.cache.rescope_ms",
        delta(
            metrics0,
            metrics2,
            &["phases", "cache_invalidate", "sum_us"],
        ) / 1e3
            / rescopes.max(1.0),
        "ms",
    );
    let commits = delta(stats0, stats2, &["commits"]).max(1.0);
    put(
        "service.cache.invalidated_per_commit",
        delta(stats0, stats2, &["cache_invalidated"]) / commits,
        "count",
    );
    put(
        "service.cache.retained_per_commit",
        delta(stats0, stats2, &["cache_retained"]) / commits,
        "count",
    );
    put(
        "service.cache.stale_iterations",
        e2e.stale_iterations as f64,
        "count",
    );
    put(
        "server.cpu_ms_per_req",
        1e3 * e2e.cpu_window_s / e2e.reads.max(1) as f64,
        "ms",
    );
    put("server.cpu_util", e2e.cpu_window_s / e2e.window_s, "cores");
    put("loadgen.lateness_ms", load::median(&e2e.lateness_ms), "ms");

    let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.spec.name));
    spans.write(&path)?;
    println!("spans: {} written to {}", spans.spans.len(), path.display());
    Ok((tally, metrics))
}

/// What the traced load measured.
struct Traced {
    /// Reads completed per second not spent pausing, as in the untraced run.
    qps: f64,
    /// Time the readers spent recording spans, as a share of the time their
    /// traced requests took.
    overhead_pct: f64,
}

/// The untraced run's traffic again, against a fresh `bcc listen`, with a
/// span per request (its send and its wait for the reply as children).
/// Tracing is the readers' span bookkeeping; it is timed directly, because
/// two separate loads differ by the host's drift more than by it.
fn traced_load(
    w: &Workload,
    bcc: &Path,
    spans: &mut Spans,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let server = ServerProc::launch(bcc, &w.graph_path)?;
    let addr = server.addr;
    let mut warm = Conn::connect(addr)?;
    warm.round_trip(&w.setup_line)?;
    for lines in &w.warmup {
        load::warm(&mut warm, lines);
    }
    drop(warm);
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + Duration::from_secs_f64(seconds);
    let origin = spans.origin;
    let (readers, batches) = std::thread::scope(|s| {
        let writer = (w.spec.kind == Kind::ReadWrite).then(|| {
            s.spawn(move || {
                load::writer(
                    addr,
                    &w.batches,
                    load::Schedule::Rate(w.spec.commit_rate),
                    t0,
                    Some(end),
                )
            })
        });
        let readers: Vec<_> = w
            .streams
            .iter()
            .enumerate()
            .map(|(c, lines)| {
                s.spawn(move || {
                    traced_reader(addr, lines, origin, t0, end, c as u64, w.spec.think_ms)
                })
            })
            .collect();
        let readers: Vec<Result<TracedReader, String>> = readers
            .into_iter()
            .map(|h| h.join().expect("traced reader panicked"))
            .collect();
        let batches = match writer {
            Some(h) => h.join().expect("traced writer panicked"),
            None => Ok(Vec::new()),
        };
        (readers, batches)
    });
    if let Err(e) = server.shutdown() {
        tally.record(&e, Verdict::NoReply);
    }
    check_writes(w, &batches?, tally);
    let t0_ns = Spans::ns(t0 - origin);
    let mut last_ns = t0_ns + Spans::ns(Duration::from_secs_f64(seconds));
    let mut readers: Vec<TracedReader> = readers.into_iter().collect::<Result<_, _>>()?;
    if let Some(c) = readers.iter().position(|r| r.ran_dry) {
        return Err(format!(
            "stream exhausted: traced connection {c} sent all its requests before the window closed"
        ));
    }
    for r in &readers {
        for s in r.spans.iter().filter(|s| s.name == "loadgen.request") {
            last_ns = last_ns.max(s.start_ns.unwrap_or(0) + s.dur_ns);
        }
    }
    let window = Duration::from_nanos(last_ns - t0_ns);
    let (mut qps, mut bookkeeping, mut busy) = (0.0, Duration::ZERO, Duration::ZERO);
    for r in &mut readers {
        qps += r.completed as f64 / (window - r.paused).as_secs_f64();
        bookkeeping += r.bookkeeping;
        busy += r.busy;
        tally.attempted += r.tally.attempted;
        for (verdict, n) in std::mem::take(&mut r.tally.failures) {
            *tally.failures.entry(verdict).or_default() += n;
        }
        tally.examples.append(&mut r.tally.examples);
        // Move the connection's spans into the shared arena.
        let base = spans.spans.len();
        for mut s in r.spans.drain(..) {
            s.parent = s.parent.map(|p| p + base);
            spans.spans.push(s);
        }
    }
    Ok(Traced {
        qps,
        overhead_pct: 100.0 * bookkeeping.as_secs_f64() / busy.as_secs_f64(),
    })
}

struct TracedReader {
    spans: Vec<Span>,
    tally: Tally,
    completed: usize,
    paused: Duration,
    ran_dry: bool,
    /// Wall time of the requests, and the time that went to recording
    /// their spans.
    busy: Duration,
    bookkeeping: Duration,
}

fn traced_reader(
    addr: SocketAddr,
    lines: &[String],
    origin: Instant,
    t0: Instant,
    end: Instant,
    conn_id: u64,
    think_ms: f64,
) -> Result<TracedReader, String> {
    let mut conn = Conn::connect(addr)?;
    let mut r = TracedReader {
        spans: Vec::new(),
        tally: Tally::default(),
        completed: 0,
        paused: Duration::ZERO,
        ran_dry: true,
        busy: Duration::ZERO,
        bookkeeping: Duration::ZERO,
    };
    let ns = |t: Instant| Spans::ns(t - origin);
    let now = Instant::now();
    if now < t0 {
        std::thread::sleep(t0 - now);
    }
    for (i, line) in lines.iter().enumerate() {
        let start = Instant::now();
        if start >= end {
            r.ran_dry = false;
            break;
        }
        let request = (conn_id << 32) | i as u64;
        let root = r.spans.len();
        r.spans.push(Span {
            name: "loadgen.request",
            start_ns: Some(ns(start)),
            dur_ns: 0,
            parent: None,
            request,
        });
        let recorded = Instant::now();
        let reply = conn.send_only(line).and_then(|()| {
            let sent = Instant::now();
            r.spans.push(Span {
                name: "net.send",
                start_ns: Some(ns(start)),
                dur_ns: Spans::ns(sent - start),
                parent: Some(root),
                request,
            });
            let waiting = Instant::now();
            r.bookkeeping += waiting - sent;
            let reply = conn.recv();
            let done = Instant::now();
            r.spans.push(Span {
                name: "net.wait_reply",
                start_ns: Some(ns(sent)),
                dur_ns: Spans::ns(done - sent),
                parent: Some(root),
                request,
            });
            r.spans[root].dur_ns = Spans::ns(done - start);
            r.busy += done - start;
            r.bookkeeping += done.elapsed();
            reply
        });
        r.bookkeeping += recorded - start;
        let failed = reply.is_err();
        match check::shape(&reply) {
            Ok(_) => {
                r.completed += 1;
                r.tally.record(line, Verdict::Ok);
            }
            Err(v) => r.tally.record(line, v),
        }
        if failed {
            r.ran_dry = false;
            break;
        }
        let paused = Instant::now();
        load::think(think_ms);
        r.paused += paused.elapsed();
    }
    Ok(r)
}

struct Replay {
    searches: usize,
    /// The replayed searches' Table-4 counts, summed.
    counts: SearchStats,
    /// The replay's cache hits, misses, invalidations, retentions and
    /// executed searches, by metric name.
    service_counts: [(&'static str, u64); 5],
}

/// A query's vertices and k's as the service normalizes them: sorted by
/// vertex id, each default k the vertex's label coreness.
fn normalized(line: &str, index: &BccIndex) -> Option<(Vec<VertexId>, Vec<u32>)> {
    let Ok(ParsedLine::Request(request)) = parse_line(line) else {
        return None;
    };
    let tokens = match &request.kind {
        QueryKind::Pair { ql, qr, .. } => vec![ql.clone(), qr.clone()],
        QueryKind::Multi { qs, .. } => qs.clone(),
    };
    let mut vs: Vec<VertexId> = tokens
        .iter()
        .map(|t| t.parse().ok().map(VertexId))
        .collect::<Option<_>>()?;
    vs.sort_unstable();
    vs.dedup();
    let ks = vs.iter().map(|&v| index.coreness(v)).collect();
    Some((vs, ks))
}

/// Replays the workload's first requests one at a time: over TCP to an
/// in-process server and through `BccService::handle` on a twin (so the
/// difference is transport and session), then each engine layer alone.
/// Writer batches are interleaved so the cache sees commits. The server
/// and the twin are two replays of one sequence: their replies and cache
/// counters must agree exactly.
fn replay_requests(w: &Workload, spans: &mut Spans, tally: &mut Tally) -> Result<Replay, String> {
    let graph: &LabeledGraph = &w.graph;
    let index = BccIndex::build_with_threads(graph, 0);
    let server = Arc::new(service(w, graph.clone()));
    let handle = bind(&server)?;
    let twin = service(w, graph.clone());
    let mut conn = Conn::connect(handle.addr())?;
    let lines: Vec<&String> = w.streams.iter().flatten().take(w.spec.replays).collect();
    let commit_every = (lines.len() / 4).max(1);
    let method = match w.spec.kind {
        Kind::Search | Kind::ReadWrite => Method::Lp,
        Kind::L2p | Kind::Msearch => Method::L2p,
    };
    let mut replay = Replay {
        searches: 0,
        counts: SearchStats::default(),
        service_counts: [("", 0); 5],
    };
    let mut batches = w.batches.iter();
    for (i, line) in lines.iter().enumerate() {
        let r = i as u64;
        if i > 0 && i % commit_every == 0 {
            if let Some(batch) = batches.next() {
                for flip in batch {
                    let via_tcp = conn.round_trip(&flip.line());
                    tally.record(
                        "replayed stage line",
                        check::verdict(&via_tcp, &output(&twin, &flip.line())),
                    );
                }
                let via_tcp = conn.round_trip("commit");
                tally.record(
                    "replayed commit",
                    check::verdict(&via_tcp, &output(&twin, "commit")),
                );
            }
        }
        let root = spans.open("replay", None, r);
        let parsed = spans.time("service.parse", Some(root), r, || parse_line(line));
        let Ok(ParsedLine::Request(request)) = parsed else {
            return Err(format!("stream line `{line}` does not parse"));
        };
        let via_tcp = spans.time("net.rtt", Some(root), r, || conn.round_trip(line));
        let direct = spans.time("service.handle", Some(root), r, || {
            twin.handle(request.clone())
        });
        tally.record(line, check::verdict(&via_tcp, &direct.to_json()));
        // Both answers are cached now: the same request again costs the
        // server its transport, session and cache probe, and the twin its
        // cache probe alone.
        let again = spans.time("net.rtt.hit", Some(root), r, || conn.round_trip(line));
        let direct = spans.time("service.handle.hit", Some(root), r, || {
            twin.handle(request.clone())
        });
        tally.record(line, check::verdict(&again, &direct.to_json()));
        let hit = spans.time("service.cache.lookup", Some(root), r, || {
            twin.submit(request)
        });
        if !matches!(hit, Pending::Ready(_)) {
            return Err(format!(
                "`{line}` missed the cache right after it was answered"
            ));
        }
        let _ = twin.wait(hit);

        // The engine layers, on the original graph with the service's k's.
        let Some((vs, ks)) = normalized(line, &index) else {
            return Err(format!("cannot normalize `{line}`"));
        };
        let view = spans.time("graph.view.full", Some(root), r, || GraphView::new(graph));
        let labels: Vec<_> = vs.iter().map(|&v| graph.label(v)).collect();
        let paths: Vec<Vec<VertexId>> = vs[1..]
            .iter()
            .filter_map(|&t| {
                spans.time("core.local.path", Some(root), r, || {
                    butterfly_core_path(&view, &index, PathWeights::default(), vs[0], t, &labels)
                })
            })
            .collect();
        let mut seeds: Vec<VertexId> = paths.into_iter().flatten().collect();
        seeds.sort_unstable();
        seeds.dedup();
        let floors: Vec<_> = labels
            .iter()
            .zip(&ks)
            .map(|(&l, &k)| {
                let floor = seeds
                    .iter()
                    .filter(|&&v| graph.label(v) == l)
                    .map(|&v| index.coreness(v))
                    .min();
                (l, floor.unwrap_or(0).max(k))
            })
            .collect();
        let selected = spans.time("core.local.expand", Some(root), r, || {
            expand_candidate(&view, &index, &seeds, &floors, L2pBcc::default().eta)
        });
        let mquery = MbccQuery::new(vs.clone());
        let mparams = MbccParams::new(ks.clone(), 1);
        let mut g0_stats = SearchStats::default();
        let _ = spans.time("core.candidate.find_g0", Some(root), r, || match method {
            Method::L2p => bcc_core::candidate::Candidate::find_g0_in_threaded(
                GraphView::from_vertices(graph, selected),
                &mquery,
                &mparams,
                1,
                &mut g0_stats,
            )
            .map(|_| ()),
            _ => bcc_core::candidate::Candidate::find_g0_threaded(
                graph,
                &mquery,
                &mparams,
                1,
                &mut g0_stats,
            )
            .map(|_| ()),
        });

        let search = spans.open("core.search", Some(root), r);
        let result = if vs.len() == 2 {
            let (query, params) = (
                BccQuery::pair(vs[0], vs[1]),
                BccParams::new(ks[0], ks[1], 1),
            );
            match method {
                Method::L2p => L2pBcc::default().search(graph, &index, &query, &params),
                _ => LpBcc::default().search(graph, &query, &params),
            }
        } else {
            MultiLabelBcc::with_strategy(method.multi_strategy()).search(
                graph,
                Some(&index),
                &mquery,
                &mparams,
            )
        };
        spans.close(search);
        if let Ok(found) = &result {
            let st = &found.stats;
            spans.reported("core.query_distance", search, st.time_query_distance);
            spans.reported("cohesion.core_decomp", search, st.time_core_decomp);
            spans.reported("butterfly.counting", search, st.time_butterfly_counting);
            spans.reported("core.leader_pairing", search, st.time_leader_update);
            replay.searches += 1;
            replay.counts.merge(st);
        }

        // Scatter's two kinds of job: one per label pair, and the assembly
        // over every query vertex (on a pair request the two coincide).
        let strategy: MultiStrategy = method.multi_strategy();
        let scatter = spans.open("service.scatter", Some(root), r);
        for a in 0..vs.len() {
            for b in a + 1..vs.len() {
                let _ = spans.time("service.scatter.pair", Some(scatter), r, || {
                    let q = MbccQuery::new(vec![vs[a], vs[b]]);
                    let p = MbccParams::new(vec![ks[a], ks[b]], 1);
                    std::hint::black_box(MultiLabelBcc::with_strategy(strategy).search(
                        graph,
                        Some(&index),
                        &q,
                        &p,
                    ))
                });
            }
        }
        let _ = spans.time("service.scatter.assembly", Some(scatter), r, || {
            std::hint::black_box(MultiLabelBcc::with_strategy(strategy).search(
                graph,
                Some(&index),
                &mquery,
                &mparams,
            ))
        });
        spans.close(scatter);
        spans.close(root);
    }
    let served = conn.round_trip("stats")?;
    drop(conn);
    handle.shutdown();
    handle.join();
    // The twin's extra `submit` per request is its only extra cache hit.
    let direct = twin.stats();
    let counts = [
        (
            "replay.cache_hits",
            "cache_hits",
            direct.cache.hits - lines.len() as u64,
        ),
        ("replay.cache_misses", "cache_misses", direct.cache.misses),
        (
            "replay.cache_invalidated",
            "cache_invalidated",
            direct.cache_invalidated,
        ),
        (
            "replay.cache_retained",
            "cache_retained",
            direct.cache_retained,
        ),
        (
            "replay.searches_executed",
            "searches_executed",
            direct.searches_executed,
        ),
    ];
    let agree = counts
        .iter()
        .all(|&(_, key, value)| json_u64(&served, &[key]) == Some(value));
    let verdict = if agree {
        Verdict::Ok
    } else {
        Verdict::Mismatch
    };
    tally.record("replayed counters agree", verdict);
    let listed: Vec<String> = counts
        .iter()
        .map(|(_, key, v)| format!("{key} {v}"))
        .collect();
    println!(
        "replay: {} requests, {} with a community; {} (server and twin agree: {agree})",
        lines.len(),
        replay.searches,
        listed.join(", ")
    );
    replay.service_counts = counts.map(|(name, _, value)| (name, value));
    Ok(replay)
}

/// Replays writer batches on a bare registry: `stage_edge` per flip, then
/// `commit`, with the stage times its `CommitOutcome` reports.
fn commit_replay(w: &Workload, spans: &mut Spans) -> Result<(), String> {
    let registry = GraphRegistry::with_index_threads(0);
    let name = w.graph_name.as_str();
    let entry = registry.insert(name, w.graph.clone());
    std::hint::black_box(&entry.index().index);
    let mut dirty: BTreeMap<usize, usize> = BTreeMap::new();
    for (b, batch) in w.batches.iter().take(COMMIT_REPLAYS).enumerate() {
        let r = b as u64;
        let entry = registry
            .get(name)
            .ok_or("graph vanished from the registry")?;
        spans.time("service.registry.stage", None, r, || {
            batch.iter().try_for_each(|f| {
                registry
                    .stage_edge(&entry, VertexId(f.u), VertexId(f.v), f.insert)
                    .map(|_| ())
            })
        })?;
        let id = spans.open("service.registry.commit", None, r);
        let outcome = registry.commit(name)?;
        spans.close(id);
        spans.reported("graph.delta.apply", id, outcome.time_overlay_apply);
        spans.reported("core.incremental.cascade", id, outcome.time_cascade);
        spans.reported("core.incremental.chi_delta", id, outcome.time_chi_delta);
        dirty.insert(b, outcome.dirty.as_ref().map_or(0, |d| d.len()));
    }
    let sizes: Vec<f64> = dirty.values().map(|&d| d as f64).collect();
    println!(
        "commit replay: {} batches, median dirty set {} vertices",
        sizes.len(),
        load::median(&sizes)
    );
    Ok(())
}
