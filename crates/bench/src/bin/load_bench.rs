//! Multi-client TCP load benchmark: sustained q/s and p50/p99 latency
//! through `bcc-service`'s socket front-end, plus a deterministic overload
//! phase proving the admission controller rejects — with a structured
//! error, never a hang — when the queue is full.
//!
//! ```text
//! cargo run --release -p bcc-bench --bin load_bench -- \
//!     [--scale 0.3] [--queries 32] [--clients 8] [--out load_bench.json]
//! ```
//!
//! Phase 1 drives one client over the line codec; phase 2 drives
//! `--clients` concurrent clients (alternating line/binary codecs), each
//! with its own distinct query set (cold cache both times — fresh server
//! per phase); phase 3 replays phase 2's workload with the metrics tier
//! disabled. Client-side latencies land in a `bcc-obs` log₂ histogram
//! (p50/p99 are histogram quantiles, the same math the live `metrics` verb
//! uses), and the JSON summary carries the server's per-phase breakdown
//! read back from its metrics registry. The binary *verifies* the serving
//! invariants and exits non-zero on failure so CI can gate on it:
//!
//! * every overload response is the structured `overloaded` error;
//! * N-client throughput ≥ 1-client throughput (SKIPPED on single-core
//!   machines, where concurrency cannot help);
//! * metrics-on throughput within 5% of metrics-off (same SKIP rule);
//! * the query-thread sweep — the same single-client workload forced to
//!   method=online with `query_threads` 1 vs 0 (all cores) — must run
//!   strictly faster parallel than sequential (same SKIP rule);
//! * the chaos phase — a canned fault plan panics the first four pool
//!   executions — must surface each injected panic as a structured
//!   internal error and then serve the whole workload on a full-width
//!   pool;
//! * an armed-but-never-firing fault plan must stay within 2% of the
//!   fault-free baseline throughput (same SKIP rule).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use bcc_bench::Args;
use bcc_datasets::{queries, QueryConstraints};
use bcc_eval::Table;
use bcc_obs::{Histogram, HistogramSnapshot, Phase};
use bcc_service::{BccService, Priority, Server, ServerConfig, ServiceConfig};

/// One benchmark client over either codec.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Client {
    fn connect(addr: SocketAddr, binary: bool) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        // Latency bench: measure the service, not Nagle + delayed ACKs.
        stream.set_nodelay(true).expect("set_nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            binary,
        }
    }

    fn round_trip(&mut self, payload: &str) -> String {
        let mut frame = Vec::with_capacity(5 + payload.len());
        if self.binary {
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(payload.as_bytes());
        } else {
            frame.extend_from_slice(payload.as_bytes());
            frame.push(b'\n');
        }
        self.writer.write_all(&frame).expect("send request");
        self.writer.flush().expect("flush");
        if self.binary {
            let mut prefix = [0u8; 4];
            self.reader.read_exact(&mut prefix).expect("response prefix");
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            self.reader.read_exact(&mut payload).expect("response payload");
            String::from_utf8(payload).expect("utf8 response")
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

/// Distinct query lines for one client (seed-disjoint across clients so
/// the result cache cannot serve one client from another's work).
fn query_lines(net: &bcc_datasets::PlantedNetwork, count: usize, seed: u64) -> Vec<String> {
    let qs = queries::random_community_queries(
        net,
        count,
        QueryConstraints { degree_rank: 0, inter_distance: None },
        seed,
    );
    let mut seen = std::collections::HashSet::new();
    qs.iter()
        .enumerate()
        .filter(|(_, q)| {
            let (a, b) = (q.vertices[0].0, q.vertices[1].0);
            seen.insert((a.min(b), a.max(b)))
        })
        .map(|(i, q)| {
            let method = ["lp", "online", "l2p"][i % 3];
            format!("search ql={} qr={} method={method}", q.vertices[0].0, q.vertices[1].0)
        })
        .collect()
}

/// Histogram quantile in milliseconds (samples are recorded in µs).
fn quantile_ms(snap: &HistogramSnapshot, p: f64) -> f64 {
    snap.quantile(p) as f64 / 1e3
}

struct BenchPhase {
    label: String,
    clients: usize,
    requests: usize,
    qps: f64,
    /// Pooled client-side request latencies (µs).
    latency: HistogramSnapshot,
    /// Server-side per-engine-phase histograms, [`Phase::ALL`] order
    /// (all empty when the phase ran with metrics off).
    engine_phases: Vec<HistogramSnapshot>,
    /// The server's Prometheus exposition after the run.
    prom: String,
}

/// Runs one phase: a fresh server, `client_lines[i]` played by client `i`
/// (even clients binary, odd clients lines), per-request latencies pooled
/// into one log₂ histogram.
fn run_phase(
    label: &str,
    graph: &bcc_graph::LabeledGraph,
    client_lines: &[Vec<String>],
    metrics: bool,
    query_threads: usize,
    faults: &[String],
) -> BenchPhase {
    let service = Arc::new(BccService::with_graph(
        ServiceConfig {
            workers: 0,
            cache_capacity: 4096,
            metrics,
            query_threads,
            faults: faults.to_vec(),
            ..Default::default()
        },
        graph.clone(),
    ));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind bench server");
    let addr = handle.addr();

    // Pre-warm the BCindex so the one-off offline build (an l2p cold-start
    // cost, not a serving latency) doesn't land in some client's p99.
    if let Some(line) = client_lines.iter().flatten().find(|l| l.ends_with("l2p")) {
        let mut warm = Client::connect(addr, false);
        warm.round_trip(line);
    }

    // One lock-free histogram shared by every client thread: the same
    // recording path the server's own metrics registry uses.
    let latency = Histogram::new();
    let started = Instant::now();
    std::thread::scope(|s| {
        for (i, lines) in client_lines.iter().enumerate() {
            let latency = &latency;
            s.spawn(move || {
                let mut client = Client::connect(addr, i % 2 == 0);
                for line in lines {
                    let t = Instant::now();
                    let response = client.round_trip(line);
                    assert!(response.contains("\"ok\":"), "malformed response: {response}");
                    latency.record_duration(t.elapsed());
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join();

    let snap = latency.snapshot();
    BenchPhase {
        label: label.to_string(),
        clients: client_lines.len(),
        requests: snap.count as usize,
        qps: snap.count as f64 / wall,
        latency: snap,
        engine_phases: Phase::ALL.iter().map(|&p| service.metrics().phase_snapshot(p)).collect(),
        prom: service.metrics().prometheus(),
    }
}

fn main() {
    let args = Args::parse();
    let scale = args.get("scale", 0.3f64);
    let per_client = args.get("queries", 32usize);
    let clients = args.get("clients", 8usize).max(2);
    let out = args.get("out", String::new());
    let out_path = (!out.is_empty()).then_some(out);
    let prom = args.get("prom", String::new());
    let prom_path = (!prom.is_empty()).then_some(prom);

    let spec = bcc_datasets::dblp(scale);
    let net = spec.build();
    eprintln!(
        "planted {} x{scale}: {} vertices, {} edges",
        spec.name,
        net.graph.vertex_count(),
        net.graph.edge_count()
    );

    let all_lines: Vec<Vec<String>> = (0..clients)
        .map(|i| query_lines(&net, per_client, 0xBCC + i as u64))
        .collect();
    let total: usize = all_lines.iter().map(Vec::len).sum();
    eprintln!("workload: {clients} clients, {total} distinct query lines total");

    let single = run_phase("1 client", &net.graph, &all_lines[..1], true, 1, &[]);
    // Same N-client workload twice: metrics tier off (the baseline), then
    // on — the pair the ≤5% overhead gate compares.
    let multi_off = run_phase("N clients, metrics off", &net.graph, &all_lines, false, 1, &[]);
    let multi = run_phase("N clients", &net.graph, &all_lines, true, 1, &[]);
    // The same workload with a fault plan armed but never firing (the
    // selected match is astronomically far away): the injection hooks on
    // the hot path must cost nothing measurable — the ≤2% gate below.
    let armed_plan = vec!["worker_execute:panic:1000000000".to_string()];
    let multi_armed =
        run_phase("N clients, faults armed", &net.graph, &all_lines, true, 1, &armed_plan);

    // Query-thread sweep: one client, the whole workload, with the stages
    // *inside* each search sequential vs parallel (`--query-threads 0` ⇒
    // all cores). Online-method queries carry the most intra-query work
    // (full BFS + full recount per peel iteration), so the sweep forces
    // every line to method=online — the fairest surface for the knob.
    let sweep_lines: Vec<Vec<String>> = vec![all_lines
        .iter()
        .flatten()
        .map(|l| {
            let base = l.split(" method=").next().unwrap_or(l);
            format!("{base} method=online")
        })
        .collect()];
    let qt_seq = run_phase("1 client, query-threads 1", &net.graph, &sweep_lines, true, 1, &[]);
    let qt_par = run_phase("1 client, query-threads 0", &net.graph, &sweep_lines, true, 0, &[]);

    // Overload phase: a depth-0 queue whose only slot is held externally —
    // every request must be rejected, structurally, immediately.
    let service = Arc::new(BccService::with_graph(
        ServiceConfig { workers: 1, cache_capacity: 0, ..Default::default() },
        net.graph.clone(),
    ));
    let handle = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig { queue_depth: 0, ..ServerConfig::default() },
    )
    .expect("bind overload server");
    let permit = handle
        .admission()
        .admit(Priority::Normal, None)
        .expect("hold the only admission slot");
    let mut client = Client::connect(handle.addr(), false);
    let overload_requests = 16usize;
    let reject_started = Instant::now();
    for line in all_lines[0].iter().take(overload_requests).cycle().take(overload_requests) {
        let response = client.round_trip(line);
        assert!(
            response.contains("\"error\":{\"kind\":\"overloaded\""),
            "INVARIANT VIOLATED: overload must reject with the structured \
             error, got: {response}"
        );
    }
    let reject_elapsed = reject_started.elapsed();
    drop(permit);
    drop(client);
    let rejected = service.stats().rejected_overloaded;
    handle.shutdown();
    handle.join();
    assert_eq!(
        rejected, overload_requests as u64,
        "INVARIANT VIOLATED: every overload request is counted rejected"
    );
    println!(
        "overload: {overload_requests} requests rejected structurally in {:.1} ms total",
        reject_elapsed.as_secs_f64() * 1e3
    );

    // Chaos phase: a canned fault plan panics the first four pool
    // executions. Each faulted request must surface as the structured
    // internal error naming the panic — never a hang, never a torn
    // connection — and afterwards the exhausted plan must leave a pool at
    // full width serving the whole workload cleanly.
    let chaos_faults = 4usize;
    let service = Arc::new(BccService::with_graph(
        ServiceConfig {
            workers: 2,
            cache_capacity: 0,
            faults: vec![format!("worker_execute:panic:1:{chaos_faults}")],
            ..Default::default()
        },
        net.graph.clone(),
    ));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind chaos server");
    let mut client = Client::connect(handle.addr(), false);
    let chaos_started = Instant::now();
    for line in all_lines[0].iter().take(chaos_faults) {
        let response = client.round_trip(line);
        assert!(
            response.contains("\"error\":\"internal\"") && response.contains("panicked"),
            "INVARIANT VIOLATED: an injected worker panic must surface as the \
             structured internal error, got: {response}"
        );
    }
    for line in &all_lines[0] {
        let response = client.round_trip(line);
        // Infeasible planted queries legitimately fail with a `search`
        // error; what recovery forbids is any residue of the panics.
        assert!(
            !response.contains("\"error\":\"internal\""),
            "INVARIANT VIOLATED: after the fault plan is spent no request may \
             see an internal error, got: {response}"
        );
    }
    let chaos_elapsed = chaos_started.elapsed();
    let chaos_requests = chaos_faults + all_lines[0].len();
    drop(client);
    let chaos_stats = service.stats();
    handle.shutdown();
    handle.join();
    assert_eq!(
        chaos_stats.worker_panics, chaos_faults as u64,
        "INVARIANT VIOLATED: every injected panic is counted contained"
    );
    assert_eq!(
        chaos_stats.workers, 2,
        "INVARIANT VIOLATED: pool capacity decayed after contained panics"
    );
    println!(
        "chaos: {chaos_faults} injected worker panics contained, {} requests \
         recovered on a full-width pool, {:.1} ms total",
        all_lines[0].len(),
        chaos_elapsed.as_secs_f64() * 1e3
    );

    let mut table = Table::new(
        format!("TCP load bench on {} x{scale} ({total} distinct queries)", spec.name),
        vec![
            "phase".into(),
            "clients".into(),
            "requests".into(),
            "q/s".into(),
            "p50 ms".into(),
            "p99 ms".into(),
        ],
    );
    for phase in [&single, &multi_off, &multi, &multi_armed, &qt_seq, &qt_par] {
        table.push_row(vec![
            phase.label.clone(),
            phase.clients.to_string(),
            phase.requests.to_string(),
            format!("{:.0}", phase.qps),
            format!("{:.2}", quantile_ms(&phase.latency, 0.50)),
            format!("{:.2}", quantile_ms(&phase.latency, 0.99)),
        ]);
    }
    table.push_row(vec![
        "overload".into(),
        "1".into(),
        overload_requests.to_string(),
        format!("{:.0}", overload_requests as f64 / reject_elapsed.as_secs_f64()),
        "-".into(),
        "-".into(),
    ]);
    table.push_row(vec![
        "chaos".into(),
        "1".into(),
        chaos_requests.to_string(),
        format!("{:.0}", chaos_requests as f64 / chaos_elapsed.as_secs_f64()),
        "-".into(),
        "-".into(),
    ]);
    println!("{}", table.render());

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        println!(
            "throughput gate SKIPPED: {cores} core(s) available — concurrent \
             clients cannot outrun one client without parallelism"
        );
        println!(
            "metrics-overhead gate SKIPPED: {cores} core(s) available — a \
             contended single core turns scheduling noise into false signal"
        );
    } else {
        assert!(
            multi.qps >= single.qps,
            "INVARIANT VIOLATED: {clients}-client throughput ({:.0} q/s) fell \
             below 1-client throughput ({:.0} q/s) on a {cores}-core machine",
            multi.qps,
            single.qps
        );
        println!(
            "scaling: {clients} clients {:.0} q/s vs 1 client {:.0} q/s ({:.1}x)",
            multi.qps,
            single.qps,
            multi.qps / single.qps
        );
        // Telemetry must be ~free: the gated tier is a branch plus a few
        // relaxed fetch_adds per request, drowned by the search itself.
        assert!(
            multi.qps >= multi_off.qps * 0.95,
            "INVARIANT VIOLATED: metrics-on throughput ({:.0} q/s) more than \
             5% below metrics-off ({:.0} q/s)",
            multi.qps,
            multi_off.qps
        );
        println!(
            "metrics overhead: on {:.0} q/s vs off {:.0} q/s ({:+.1}%)",
            multi.qps,
            multi_off.qps,
            (multi.qps / multi_off.qps - 1.0) * 100.0
        );
    }
    if cores < 2 {
        println!(
            "fault-injection gate SKIPPED: {cores} core(s) available — a \
             contended single core turns scheduling noise into false signal"
        );
    } else {
        // An armed-but-never-firing plan is one relaxed load plus one
        // branch per checked site; the gate keeps it under 2% of the
        // fault-free baseline.
        assert!(
            multi_armed.qps >= multi.qps * 0.98,
            "INVARIANT VIOLATED: armed fault plan throughput ({:.0} q/s) more \
             than 2% below the fault-free baseline ({:.0} q/s)",
            multi_armed.qps,
            multi.qps
        );
        println!(
            "fault-injection overhead: armed {:.0} q/s vs disabled {:.0} q/s ({:+.1}%)",
            multi_armed.qps,
            multi.qps,
            (multi_armed.qps / multi.qps - 1.0) * 100.0
        );
    }
    if cores < 2 {
        println!(
            "query-thread gate SKIPPED: {cores} core(s) available — intra-query \
             workers cannot beat the sequential path without parallelism"
        );
    } else {
        assert!(
            qt_par.qps > qt_seq.qps,
            "INVARIANT VIOLATED: query-threads 0 throughput ({:.0} q/s) did not \
             beat query-threads 1 ({:.0} q/s) on a {cores}-core machine",
            qt_par.qps,
            qt_seq.qps
        );
        println!(
            "query threads: parallel {:.0} q/s vs sequential {:.0} q/s ({:.2}x)",
            qt_par.qps,
            qt_seq.qps,
            qt_par.qps / qt_seq.qps
        );
    }
    if let Some(path) = out_path {
        std::fs::write(
            &path,
            summary_json(&table, &single, &multi_off, &multi, &multi_armed, &qt_seq, &qt_par, cores),
        )
        .expect("write JSON summary");
        eprintln!("wrote JSON summary to {path}");
    }
    if let Some(path) = prom_path {
        std::fs::write(&path, &multi.prom).expect("write Prometheus exposition");
        eprintln!("wrote Prometheus exposition to {path}");
    }
}

/// The JSON summary: the rendered table plus, for each phase, the
/// histogram-derived latency quantiles and (metrics-on phases) the
/// server-side per-engine-phase breakdown.
#[allow(clippy::too_many_arguments)]
fn summary_json(
    table: &Table,
    single: &BenchPhase,
    multi_off: &BenchPhase,
    multi: &BenchPhase,
    multi_armed: &BenchPhase,
    qt_seq: &BenchPhase,
    qt_par: &BenchPhase,
    cores: usize,
) -> String {
    let hist = |snap: &HistogramSnapshot| {
        format!(
            "{{\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}",
            snap.count,
            snap.sum,
            snap.quantile(0.50),
            snap.quantile(0.90),
            snap.quantile(0.99)
        )
    };
    let phase_json = |bench: &BenchPhase| {
        let breakdown = Phase::ALL
            .iter()
            .zip(&bench.engine_phases)
            .map(|(p, snap)| format!("\"{}\":{}", p.name(), hist(snap)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"qps\":{:.1},\"latency\":{},\"engine_phases\":{{{}}}}}",
            bench.qps,
            hist(&bench.latency),
            breakdown
        )
    };
    format!(
        "{{\"table\":{},\"phases\":{{\"single\":{},\"multi_metrics_off\":{},\"multi\":{},\
         \"multi_faults_armed\":{}}},\
         \"query_thread_sweep\":{{\"cores\":{cores},\"sequential\":{},\"parallel\":{},\
         \"speedup\":{:.3}}}}}\n",
        table.to_json(),
        phase_json(single),
        phase_json(multi_off),
        phase_json(multi),
        phase_json(multi_armed),
        phase_json(qt_seq),
        phase_json(qt_par),
        qt_par.qps / qt_seq.qps.max(1e-9),
    )
}
