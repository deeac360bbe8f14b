//! `bcc` — command-line butterfly-core community search.
//!
//! ```text
//! bcc stats    <graph-file>
//! bcc search   <graph-file> --ql <name|id> --qr <name|id> [--k1 N] [--k2 N] [--b N] [--method online|lp|l2p]
//! bcc msearch  <graph-file> --q <name|id> --q <name|id> --q ... [--k N] [--b N] [--method online|lp|l2p]
//! bcc serve    <graph-file> [--workers N] [--cache N] [--cache-weight-cap N] [--name NAME] [--index-threads N]
//! bcc listen   <graph-file> <addr> [--max-conns N] [--queue-depth N] [--timeout-ms N]
//! bcc batch    <graph-file> <queries-file> [--workers N] [--cache N] [--name NAME] [--index-threads N]
//! bcc generate <output-file> [--network baidu1|baidu2|amazon|dblp|youtube|livejournal|orkut] [--scale F]
//! bcc case     <flight|trade|fiction|academic> [--out FILE]
//! ```
//!
//! Graph files use the `bcc-graph` text format (`v <id> <label> [name]` /
//! `e <u> <v>` lines). `serve` reads request lines from stdin and prints one
//! JSON result line each (see `bcc-service` for the protocol); `batch` runs
//! a file of request lines concurrently across the worker pool.

use std::process::ExitCode;
use std::time::Instant;

use bcc_core::{
    BccIndex, BccParams, BccQuery, LpBcc, MbccParams, MbccQuery, MultiLabelBcc, MultiStrategy,
};
use bcc_graph::{GraphView, LabeledGraph, VertexId};
use bcc_service::{BccService, FaultSite, Server, ServerConfig, ServiceConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h")
        || args.first().map(String::as_str) == Some("help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  bcc stats    <graph-file>
  bcc search   <graph-file> --ql <name|id> --qr <name|id> [--k1 N] [--k2 N] [--b N] [--method online|lp|l2p] [--index-threads N]
  bcc msearch  <graph-file> --q <name|id> --q <name|id> [--q ...] [--k N] [--b N] [--method online|lp|l2p] [--index-threads N]
  bcc serve    <graph-file> [--workers N] [--cache N] [--cache-weight-cap N] [--name NAME] [--index-threads N] [--no-metrics] [--slow-query-ms N] [--fault SPEC]...
  bcc listen   <graph-file> <addr> [--max-conns N] [--queue-depth N] [--timeout-ms N] [--metrics-addr ADDR] [serve flags]
  bcc batch    <graph-file> <queries-file> [--workers N] [--cache N] [--cache-weight-cap N] [--name NAME] [--index-threads N] [--no-metrics] [--slow-query-ms N] [--fault SPEC]...
  bcc generate <output-file> [--network dblp] [--scale 1.0]
  bcc case     <flight|trade|fiction|academic> [--out FILE]

--index-threads parallelizes the offline BCindex build (0 = one thread per
core). Defaults: 0 for serve/batch (the build amortizes across a session),
1 for one-shot search/msearch (a single query does not grab every core
unasked). The produced index is bit-identical at any setting.

--workers sizes the serving commands' one worker pool (0 = one thread per
core, the default). An `msearch` of more than two vertices submits its
label-pair sub-queries to the pool next to the full multi-label search and
gathers them into one response — responses stay byte-identical at any
worker count. --cache-weight-cap bounds the result cache by total community
members instead of entry count (0 = entry-count only). Every command
rejects a flag it does not know.

serve reads `search ql=<v> qr=<v> [k1=N] [k2=N] [b=N] [method=...]` /
`msearch q=<v>,<v>,...` / `add_edge u=<v> v=<v>` / `remove_edge u=<v> v=<v>` /
`commit` / `stats` / `graphs` / `metrics` / `quit` lines from stdin and
prints one JSON result line per request; batch runs a file of such lines
concurrently and prints results in input order. add_edge/remove_edge stage
live edge updates; commit applies them, patching the BCindex in place and
invalidating only the affected cache entries.

Observability: per-verb latency histograms, per-phase query/commit timings,
queue-wait distribution, and a slow-query log (one JSON line to stderr per
query over --slow-query-ms, default 250). The `metrics` verb returns the
whole registry as one JSON line; --metrics-addr additionally serves
Prometheus text exposition over HTTP. --no-metrics disables the histogram
tier (responses are byte-identical either way; telemetry is out-of-band).

listen serves the same protocol over TCP to many concurrent clients, each on
its own connection (newline-delimited JSON or length-prefixed binary frames,
negotiated per connection from its first byte). --max-conns caps concurrent
connections; --queue-depth bounds the admission queue — requests beyond it
are rejected with a structured `overloaded` error. A `quit` line closes the
issuing connection; `shutdown` stops the whole server. The bound address is
printed to stderr.

Fault tolerance (serve/batch/listen): --fault <site>:<action>[:<from>[:<count>]]
(repeatable) arms deterministic fault injection — action is panic, error, or
delay<N>ms; site is one of codec_decode (serve/listen: a session decoded a
request), admission (listen: a query is about to ask the admission gate for
a permit), worker_execute (a worker is about to run a search), scatter_pair
(a scatter pair sub-query runs) or commit (a commit is about to publish the
patched snapshot; the batch stays staged if it fails). A site the command
never reaches is rejected. The
Nth..N+count-1th matches at the site fire; everything else is untouched.
Worker panics are contained (a structured `internal` error; the worker
keeps serving). A scatter pair sub-query that fails internally is retried
up to twice inside the request's deadline.";

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    match command.as_str() {
        "stats" => stats(args),
        "search" => search(args),
        "msearch" => msearch(args),
        "serve" => serve(args),
        "listen" => listen(args),
        "batch" => batch(args),
        "generate" => generate(args),
        "case" => case(args),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .collect()
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `search`'s value flags.
const SEARCH_FLAGS: [&str; 7] =
    ["--ql", "--qr", "--k1", "--k2", "--b", "--method", "--index-threads"];

/// `msearch`'s value flags.
const MSEARCH_FLAGS: [&str; 5] = ["--q", "--k", "--b", "--method", "--index-threads"];

/// The value flags every serving command (`serve`, `batch`, `listen`)
/// accepts; `--no-metrics` is their one bare flag.
const SERVICE_FLAGS: [&str; 7] = [
    "--workers",
    "--cache",
    "--cache-weight-cap",
    "--name",
    "--index-threads",
    "--slow-query-ms",
    "--fault",
];

/// `listen`'s own value flags, on top of [`SERVICE_FLAGS`].
const LISTEN_FLAGS: [&str; 4] = ["--max-conns", "--queue-depth", "--timeout-ms", "--metrics-addr"];

/// Rejects a `--flag` that is in neither `values` nor `bare`, and a value
/// flag with no value after it. Positional arguments pass, and so does the
/// value after each known flag.
fn check_flags(args: &[String], values: &[&str], bare: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") || bare.contains(&arg.as_str()) {
            continue;
        }
        if !values.contains(&arg.as_str()) {
            return Err(format!("unknown flag `{arg}` for `{}`", args[0]));
        }
        if rest.next().is_none() {
            return Err(format!("{arg} expects a value"));
        }
    }
    Ok(())
}

/// The shared `--index-threads` knob (0 ⇒ one per available core): how
/// many workers the offline BCindex build uses. Any value produces a
/// bit-identical index — the knob only moves build wall time. `default`
/// applies when the flag is absent: 0 for the serving commands (the build
/// is amortized across a whole session), 1 for one-shot search/msearch
/// (a single query should not grab every core unasked).
fn index_threads(args: &[String], default: usize) -> Result<usize, String> {
    flag_value(args, "--index-threads")
        .map(|t| t.parse().map_err(|_| "--index-threads must be an integer".to_string()))
        .transpose()
        .map(|t| t.unwrap_or(default))
}

fn load(args: &[String]) -> Result<LabeledGraph, String> {
    let path = args.get(1).ok_or("missing graph file")?;
    bcc_graph::io::read_graph_file(path).map_err(|e| e.to_string())
}

fn resolve(graph: &LabeledGraph, token: &str) -> Result<VertexId, String> {
    if let Some(v) = graph.vertex_by_name(token) {
        return Ok(v);
    }
    let id: u32 = token
        .parse()
        .map_err(|_| format!("`{token}` is neither a vertex name nor an id"))?;
    if (id as usize) < graph.vertex_count() {
        Ok(VertexId(id))
    } else {
        Err(format!("vertex id {id} out of range"))
    }
}

fn stats(args: &[String]) -> Result<(), String> {
    check_flags(args, &[], &[])?;
    let graph = load(args)?;
    let view = GraphView::new(&graph);
    println!("vertices : {}", graph.vertex_count());
    println!("edges    : {}", graph.edge_count());
    println!("labels   : {}", graph.label_count());
    println!("k_max    : {}", bcc_cohesion::max_coreness(&view));
    println!("d_max    : {}", graph.max_degree());
    let hist = graph.label_histogram();
    for (label, name) in graph.interner().iter() {
        println!("  label {name}: {} vertices", hist[label.index()]);
    }
    Ok(())
}

fn search(args: &[String]) -> Result<(), String> {
    check_flags(args, &SEARCH_FLAGS, &[])?;
    let graph = load(args)?;
    let ql = resolve(&graph, flag_value(args, "--ql").ok_or("--ql required")?)?;
    let qr = resolve(&graph, flag_value(args, "--qr").ok_or("--qr required")?)?;
    let query = BccQuery::pair(ql, qr);
    let mut params = BccParams::auto(&graph, &query);
    if let Some(k1) = flag_value(args, "--k1") {
        params.k1 = k1.parse().map_err(|_| "--k1 must be an integer")?;
    }
    if let Some(k2) = flag_value(args, "--k2") {
        params.k2 = k2.parse().map_err(|_| "--k2 must be an integer")?;
    }
    if let Some(b) = flag_value(args, "--b") {
        params.b = b.parse().map_err(|_| "--b must be an integer")?;
    }
    let method = flag_value(args, "--method").unwrap_or("lp");
    println!(
        "searching ({}, {}, {})-BCC for {{{}, {}}} with {method}",
        params.k1,
        params.k2,
        params.b,
        graph.vertex_name(ql),
        graph.vertex_name(qr)
    );
    // The BCindex is consulted only by l2p: build it lazily in that arm so
    // online/lp pay nothing, and report its (offline, amortizable) build
    // time separately from the search itself.
    let search_started = Instant::now();
    let result = match method {
        "online" => bcc_core::OnlineBcc::default().search(&graph, &query, &params),
        "lp" => LpBcc::default().search(&graph, &query, &params),
        "l2p" => {
            let index_started = Instant::now();
            let index = BccIndex::build_with_threads(&graph, index_threads(args, 1)?);
            println!("index build   : {:?}", index_started.elapsed());
            let search_started = Instant::now();
            let result = bcc_core::L2pBcc::default().search(&graph, &index, &query, &params);
            println!("search time   : {:?}", search_started.elapsed());
            result
        }
        other => return Err(format!("unknown method `{other}`")),
    };
    if method != "l2p" {
        println!("search time   : {:?}", search_started.elapsed());
    }
    match result {
        Ok(result) => {
            println!(
                "community of {} members, query distance {}, {} iterations:",
                result.community.len(),
                result.query_distance,
                result.iterations
            );
            for &v in &result.community {
                println!(
                    "  {} [{}]",
                    graph.vertex_name(v),
                    graph.interner().name(graph.label(v)).unwrap_or("?")
                );
            }
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn msearch(args: &[String]) -> Result<(), String> {
    check_flags(args, &MSEARCH_FLAGS, &[])?;
    let graph = load(args)?;
    let tokens = flag_values(args, "--q");
    if tokens.len() < 2 {
        return Err("msearch needs at least two --q vertices".into());
    }
    let queries: Result<Vec<VertexId>, String> =
        tokens.iter().map(|t| resolve(&graph, t)).collect();
    let query = MbccQuery::new(queries?);
    let mut params = MbccParams::auto(&graph, &query);
    if let Some(k) = flag_value(args, "--k") {
        let k: u32 = k.parse().map_err(|_| "--k must be an integer")?;
        params.ks = vec![k; query.m()];
    }
    if let Some(b) = flag_value(args, "--b") {
        params.b = b.parse().map_err(|_| "--b must be an integer")?;
    }
    let method = flag_value(args, "--method").unwrap_or("lp");
    // One source of truth for the token → strategy mapping (including the
    // Local eta/weights defaults): the service's Method.
    let strategy = match method {
        "online" => bcc_service::Method::Online.multi_strategy(),
        "lp" => bcc_service::Method::Lp.multi_strategy(),
        "l2p" => bcc_service::Method::L2p.multi_strategy(),
        other => return Err(format!("unknown method `{other}`")),
    };
    // As in `search`: only the local (l2p) strategy reads the BCindex, so
    // it alone pays the build, reported separately from the search.
    let index = match strategy {
        MultiStrategy::Local { .. } => {
            let index_started = Instant::now();
            let index = BccIndex::build_with_threads(&graph, index_threads(args, 1)?);
            println!("index build   : {:?}", index_started.elapsed());
            Some(index)
        }
        _ => None,
    };
    let searcher = MultiLabelBcc::with_strategy(strategy);
    let search_started = Instant::now();
    let result = searcher.search(&graph, index.as_ref(), &query, &params);
    println!("search time   : {:?}", search_started.elapsed());
    match result {
        Ok(result) => {
            println!(
                "mBCC community of {} members (m = {}):",
                result.community.len(),
                query.m()
            );
            for &v in &result.community {
                println!(
                    "  {} [{}]",
                    graph.vertex_name(v),
                    graph.interner().name(graph.label(v)).unwrap_or("?")
                );
            }
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Collect repeated `--fault <site>:<action>[:<from>[:<count>]]` specs and
/// pre-validate them: `BccService::new` panics on a malformed plan (it has no
/// error channel), so parse the whole set here and surface a clean CLI error
/// instead. A site the command never reaches is an error too: `admission`
/// is checked only by TCP sessions, and `codec_decode` only by sessions,
/// which `batch` does not run.
fn fault_specs(args: &[String]) -> Result<Vec<String>, String> {
    let specs: Vec<String> = flag_values(args, "--fault")
        .into_iter()
        .map(str::to_string)
        .collect();
    bcc_service::FaultPlan::parse(&specs).map_err(|e| format!("invalid --fault spec: {e}"))?;
    let command = args[0].as_str();
    for spec in &specs {
        let Some(site) = spec.split(':').next().and_then(FaultSite::from_name) else {
            continue;
        };
        let fires_under: &[&str] = match site {
            FaultSite::Admission => &["listen"],
            FaultSite::CodecDecode => &["serve", "listen"],
            _ => continue,
        };
        if !fires_under.contains(&command) {
            return Err(format!(
                "--fault site `{}` never fires under `{command}` (only under {})",
                site.name(),
                fires_under.join(" and ")
            ));
        }
    }
    Ok(specs)
}

/// Shared setup for `serve`/`batch`: load the graph file and start a
/// service with it registered under `--name` (default: the file stem).
fn start_service(args: &[String]) -> Result<BccService, String> {
    let path = args.get(1).ok_or("missing graph file")?;
    let graph = bcc_graph::io::read_graph_file(path).map_err(|e| e.to_string())?;
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("default")
        .to_string();
    let config = ServiceConfig {
        workers: flag_value(args, "--workers")
            .map(|w| w.parse().map_err(|_| "--workers must be an integer"))
            .transpose()?
            .unwrap_or(0),
        cache_capacity: flag_value(args, "--cache")
            .map(|c| c.parse().map_err(|_| "--cache must be an integer"))
            .transpose()?
            .unwrap_or(4096),
        cache_weight_cap: flag_value(args, "--cache-weight-cap")
            .map(|c| c.parse().map_err(|_| "--cache-weight-cap must be an integer"))
            .transpose()?
            .unwrap_or(0),
        default_graph: flag_value(args, "--name").unwrap_or(&stem).to_string(),
        index_threads: index_threads(args, 0)?,
        metrics: !has_flag(args, "--no-metrics"),
        slow_query_ms: flag_value(args, "--slow-query-ms")
            .map(|t| t.parse().map_err(|_| "--slow-query-ms must be an integer"))
            .transpose()?
            .unwrap_or(250),
        faults: fault_specs(args)?,
        ..ServiceConfig::default()
    };
    let service = BccService::with_graph(config, graph);
    // Banner on stderr: stdout carries only protocol responses.
    let entry = service
        .registry()
        .get(&service.config().default_graph)
        .expect("default graph was just registered");
    eprintln!(
        "serving `{}` ({} vertices, {} edges, {} labels) with {} workers, cache {}",
        entry.name(),
        entry.graph().vertex_count(),
        entry.graph().edge_count(),
        entry.graph().label_count(),
        service.workers(),
        service.config().cache_capacity,
    );
    Ok(service)
}

fn serve(args: &[String]) -> Result<(), String> {
    check_flags(args, &SERVICE_FLAGS, &["--no-metrics"])?;
    let service = start_service(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    service
        .run_session(stdin.lock(), stdout.lock())
        .map_err(|e| e.to_string())
}

fn listen(args: &[String]) -> Result<(), String> {
    check_flags(args, &[&SERVICE_FLAGS[..], &LISTEN_FLAGS].concat(), &["--no-metrics"])?;
    // `listen <graph-file> <addr>`: the graph file rides in the same slot
    // as serve's, so `start_service` applies unchanged.
    let addr = args.get(2).ok_or("missing listen address (e.g. 127.0.0.1:7447)")?;
    let mut config = ServerConfig::default();
    if let Some(m) = flag_value(args, "--max-conns") {
        config.max_connections = m.parse().map_err(|_| "--max-conns must be an integer")?;
    }
    if let Some(q) = flag_value(args, "--queue-depth") {
        config.queue_depth = q.parse().map_err(|_| "--queue-depth must be an integer")?;
    }
    if let Some(t) = flag_value(args, "--timeout-ms") {
        config.default_timeout_ms =
            Some(t.parse().map_err(|_| "--timeout-ms must be an integer")?);
    }
    let service = std::sync::Arc::new(start_service(args)?);
    let handle = Server::bind(std::sync::Arc::clone(&service), addr.as_str(), config)
        .map_err(|e| e.to_string())?;
    // Stderr like the serve banner — and the *bound* address, so `:0`
    // callers (tests, scripts) learn the kernel-chosen port.
    eprintln!("listening on {}", handle.addr());
    if let Some(metrics_addr) = flag_value(args, "--metrics-addr") {
        let bound = spawn_metrics_exporter(std::sync::Arc::clone(&service), metrics_addr)?;
        eprintln!("metrics exposition on http://{bound}/metrics");
    }
    handle.join();
    eprintln!("server shut down");
    Ok(())
}

/// Binds `addr` and serves the service's Prometheus text exposition to
/// every connection as one HTTP/1.0 response. A trivial hand-rolled
/// responder — no HTTP dependency: read (and discard) the request head,
/// write status line + headers + body, close. Scrapes are rare and tiny,
/// so one acceptor thread handles connections sequentially; a slow or
/// silent client is cut off by a read timeout rather than wedging the
/// exporter. Returns the bound address (`:0` picks a free port).
fn spawn_metrics_exporter(
    service: std::sync::Arc<BccService>,
    addr: &str,
) -> Result<std::net::SocketAddr, String> {
    use std::io::{Read as _, Write as _};
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
            // Drain the request head (best effort: stop at the blank line,
            // a timeout, or 8 KiB — whichever comes first).
            let mut head = Vec::with_capacity(512);
            let mut chunk = [0u8; 512];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        head.extend_from_slice(&chunk[..n]);
                        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                            break;
                        }
                    }
                }
            }
            let body = service.prometheus();
            let response = format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.write_all(response.as_bytes());
        }
    });
    Ok(bound)
}

fn batch(args: &[String]) -> Result<(), String> {
    check_flags(args, &SERVICE_FLAGS, &["--no-metrics"])?;
    let queries_path = args.get(2).ok_or("missing queries file")?;
    let lines: Vec<String> = std::fs::read_to_string(queries_path)
        .map_err(|e| format!("{queries_path}: {e}"))?
        .lines()
        .map(str::to_owned)
        .collect();
    let service = start_service(args)?;
    let started = Instant::now();
    let responses = service.run_batch(&lines);
    let elapsed = started.elapsed();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    use std::io::Write as _;
    for line in &responses {
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    let stats = service.stats();
    eprintln!(
        "{} responses in {:?} ({:.0} q/s); cache hits {}, misses {}, searches {}",
        responses.len(),
        elapsed,
        responses.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.cache.hits,
        stats.cache.misses,
        stats.searches_executed,
    );
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--network", "--scale"], &[])?;
    let out = args.get(1).ok_or("missing output file")?;
    let network = flag_value(args, "--network").unwrap_or("dblp");
    let scale: f64 = flag_value(args, "--scale")
        .unwrap_or("1.0")
        .parse()
        .map_err(|_| "--scale must be a number")?;
    let spec = match network {
        "baidu1" => bcc_datasets::baidu1(scale),
        "baidu2" => bcc_datasets::baidu2(scale),
        "amazon" => bcc_datasets::amazon(scale),
        "dblp" => bcc_datasets::dblp(scale),
        "youtube" => bcc_datasets::youtube(scale),
        "livejournal" => bcc_datasets::livejournal(scale),
        "orkut" => bcc_datasets::orkut(scale),
        other => return Err(format!("unknown network `{other}`")),
    };
    let net = spec.build();
    bcc_graph::io::write_graph_file(&net.graph, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} vertices, {} edges, {} labels) to {out}",
        spec.name,
        net.graph.vertex_count(),
        net.graph.edge_count(),
        net.graph.label_count()
    );
    Ok(())
}

fn case(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--out"], &[])?;
    let which = args.get(1).ok_or("missing case-study name")?;
    let graph = match which.as_str() {
        "flight" => bcc_datasets::flight_network(42),
        "trade" => bcc_datasets::trade_network(42),
        "fiction" => bcc_datasets::fiction_network(),
        "academic" => bcc_datasets::academic_network(42),
        other => return Err(format!("unknown case study `{other}`")),
    };
    match flag_value(args, "--out") {
        Some(path) => {
            bcc_graph::io::write_graph_file(&graph, path).map_err(|e| e.to_string())?;
            println!("wrote {which} network to {path}");
        }
        None => {
            println!(
                "{which}: {} vertices, {} edges, {} labels",
                graph.vertex_count(),
                graph.edge_count(),
                graph.label_count()
            );
        }
    }
    Ok(())
}
