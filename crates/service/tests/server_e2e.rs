//! End-to-end tests of the TCP front-end against an in-process server:
//! byte-identity with `run_batch` across both codecs, structured overload
//! rejection, per-transport `quit` semantics, and full-server `shutdown`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use bcc_graph::{GraphBuilder, LabeledGraph};
use bcc_service::{
    BccService, BinaryCodec, Priority, Server, ServerConfig, ServerHandle, ServiceConfig,
};

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

/// A service with `workers` workers and `count` independent copies of the
/// butterfly graph registered as `g0..g{count-1}` — per-client graphs keep
/// concurrent mutate-then-search workloads deterministic per client. The
/// server's admission gate is as wide as the pool: with one worker, a test
/// holding the gate's only permit provokes deterministic queueing.
///
/// The result cache is off: a commit's `invalidated` count depends on
/// whether earlier searches' results have landed in the cache yet, which
/// `run_batch` (mutations execute at submit time, search results land
/// asynchronously) does not pin down. With the cache disabled both the
/// sequential TCP session and the batch report `invalidated:0` — every
/// other byte is timing-independent.
fn service_with_graphs(workers: usize, count: usize) -> Arc<BccService> {
    let service = Arc::new(BccService::new(ServiceConfig {
        workers,
        cache_capacity: 0,
        ..ServiceConfig::default()
    }));
    for i in 0..count {
        service.registry().insert(format!("g{i}"), butterfly_graph());
    }
    service
}

fn start(service: &Arc<BccService>, config: ServerConfig) -> ServerHandle {
    Server::bind(Arc::clone(service), "127.0.0.1:0", config).expect("bind 127.0.0.1:0")
}

/// A test client speaking either codec over one connection, counting the
/// wire bytes it sends and receives.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
    sent: u64,
    received: u64,
}

impl Client {
    fn connect(handle: &ServerHandle, binary: bool) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("set_nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            binary,
            sent: 0,
            received: 0,
        }
    }

    fn send(&mut self, payload: &str) {
        let wire = if self.binary {
            BinaryCodec::encode_frame(payload)
        } else {
            let mut line = Vec::with_capacity(payload.len() + 1);
            line.extend_from_slice(payload.as_bytes());
            line.push(b'\n');
            line
        };
        self.writer.write_all(&wire).unwrap();
        self.writer.flush().unwrap();
        self.sent += wire.len() as u64;
    }

    fn recv(&mut self) -> Option<String> {
        if self.binary {
            let mut prefix = [0u8; 4];
            self.reader.read_exact(&mut prefix).ok()?;
            let len = u32::from_be_bytes(prefix) as usize;
            let mut payload = vec![0u8; len];
            self.reader.read_exact(&mut payload).ok()?;
            self.received += 4 + len as u64;
            Some(String::from_utf8(payload).expect("UTF-8 response"))
        } else {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => None,
                Ok(read) => {
                    self.received += read as u64;
                    while line.ends_with('\n') || line.ends_with('\r') {
                        line.pop();
                    }
                    Some(line)
                }
            }
        }
    }

    fn round_trip(&mut self, payload: &str) -> String {
        self.send(payload);
        self.recv().expect("response")
    }
}

/// The per-client workload: mutate-then-search interleaved, plus a parse
/// error and both query forms. No `stats` lines — their counters are
/// global and nondeterministic under concurrency.
fn workload(graph: &str) -> Vec<String> {
    vec![
        format!("search ql=l0 qr=r0 graph={graph}"),
        format!("add_edge u=l3 v=r3 graph={graph}"),
        format!("commit graph={graph}"),
        format!("search ql=l3 qr=r3 graph={graph}"),
        format!("this is not a protocol line"),
        format!("search ql=l0 qr=r0 graph={graph} method=online"),
        format!("msearch q=l1,r1 graph={graph} k=3 b=1"),
        format!("remove_edge u=l3 v=r3 graph={graph}"),
        format!("commit graph={graph}"),
        format!("search ql=l0 qr=r0 graph={graph}"),
    ]
}

#[test]
fn eight_concurrent_clients_match_run_batch_on_both_codecs() {
    const CLIENTS: usize = 8;
    let service = service_with_graphs(2, CLIENTS);
    let handle = start(&service, ServerConfig::default());

    let collected: Vec<(usize, Vec<String>, (u64, u64))> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let handle = &handle;
                s.spawn(move || {
                    // Half the clients speak binary frames, half newline JSON.
                    let mut client = Client::connect(handle, i % 2 == 0);
                    let responses: Vec<String> = workload(&format!("g{i}"))
                        .iter()
                        .map(|line| client.round_trip(line))
                        .collect();
                    client.send("quit");
                    assert!(client.recv().is_none(), "quit closes the session");
                    (i, responses, (client.sent, client.received))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // Each client's responses must be byte-identical to the equivalent
    // run_batch against a fresh service holding the same graph.
    let (mut wire_sent, mut wire_received) = (0, 0);
    for (i, responses, (sent, received)) in collected {
        wire_sent += sent;
        wire_received += received;
        let graph = format!("g{i}");
        let twin = BccService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 0,
            ..ServiceConfig::default()
        });
        twin.registry().insert(graph.clone(), butterfly_graph());
        let expected = twin.run_batch(&workload(&graph));
        assert_eq!(
            responses, expected,
            "client {i}: TCP responses diverge from run_batch"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.connections_accepted, CLIENTS as u64);
    assert_eq!(
        stats.admitted,
        5 * CLIENTS as u64,
        "four searches + one msearch per client pass the gate"
    );
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

    handle.shutdown();
    handle.join();
    let stats = service.stats();
    assert_eq!(stats.active_sessions, 0, "no leaked sessions");
    assert_eq!(stats.bytes_in, wire_sent, "bytes_in counts every byte the clients wrote");
    assert_eq!(stats.bytes_out, wire_received, "bytes_out counts every byte the clients read");
}

#[test]
fn overload_rejects_with_structured_error_and_recovers() {
    let service = service_with_graphs(1, 1);
    let handle = start(
        &service,
        ServerConfig { queue_depth: 0, ..ServerConfig::default() },
    );

    // Occupy the only admission slot from the outside: any query arriving
    // now sees a full (depth-0) queue — deterministic overload.
    let permit = handle.admission().admit(Priority::Normal, None).unwrap();
    let mut client = Client::connect(&handle, false);
    let rejected = client.round_trip("search ql=l0 qr=r0 graph=g0");
    assert!(
        rejected.contains("\"error\":{\"kind\":\"overloaded\""),
        "structured overload rejection, got: {rejected}"
    );
    assert!(rejected.starts_with("{\"ok\":false,\"seq\":0"), "{rejected}");

    // Non-query lines bypass admission and still work while overloaded.
    let graphs = client.round_trip("graphs");
    assert!(graphs.contains("\"graphs\":[\"g0\"]"), "{graphs}");

    // Release the slot: the same session's next query succeeds (the
    // session was never closed, never hung).
    drop(permit);
    let ok = client.round_trip("search ql=l0 qr=r0 graph=g0");
    assert!(ok.contains("\"ok\":true"), "{ok}");
    assert!(ok.contains("\"seq\":2"), "per-session seq kept counting: {ok}");

    let stats = service.stats();
    assert_eq!(stats.rejected_overloaded, 1);
    assert_eq!(stats.admitted, 2, "external permit + the successful query");

    handle.shutdown();
    handle.join();
}

#[test]
fn queued_request_times_out_with_structured_error() {
    let service = service_with_graphs(1, 1);
    let handle = start(
        &service,
        ServerConfig { queue_depth: 8, ..ServerConfig::default() },
    );
    let permit = handle.admission().admit(Priority::Normal, None).unwrap();
    let mut client = Client::connect(&handle, true);
    let response = client.round_trip("search ql=l0 qr=r0 graph=g0 timeout_ms=50");
    assert!(response.contains("\"error\":\"timeout\""), "{response}");
    assert!(response.contains("admission queue"), "{response}");
    assert_eq!(service.stats().admission_timeouts, 1);
    drop(permit);
    handle.shutdown();
    handle.join();
}

#[test]
fn admission_wait_counts_against_timeout_ms() {
    // One worker, so the gate is one permit wide, and every search sleeps
    // 300 ms on its worker before it runs.
    let service = Arc::new(BccService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        faults: vec!["worker_execute:delay300ms".into()],
        ..ServiceConfig::default()
    }));
    service.registry().insert("g0", butterfly_graph());
    let handle = start(&service, ServerConfig::default());
    let permit = handle.admission().admit(Priority::Normal, None).unwrap();
    let mut client = Client::connect(&handle, false);
    client.send("search ql=l0 qr=r0 graph=g0 timeout_ms=400");
    let queued_by = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.admission().load().1 != 1 {
        assert!(
            std::time::Instant::now() < queued_by,
            "the request never queued"
        );
        std::thread::yield_now();
    }
    // Release the permit 200 ms after the request queued: the search then
    // needs 300 ms, more than the budget the wait left, though less than
    // its whole `timeout_ms`.
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(permit);
    let response = client.recv().expect("response");
    assert!(response.contains("\"error\":\"timeout\""), "{response}");
    assert_eq!(
        service.stats().admission_timeouts,
        0,
        "admitted before its deadline"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn quit_closes_only_the_issuing_tcp_session() {
    let service = service_with_graphs(2, 1);
    let handle = start(&service, ServerConfig::default());

    let mut a = Client::connect(&handle, false);
    let mut b = Client::connect(&handle, true);
    assert!(a.round_trip("search ql=l0 qr=r0 graph=g0").contains("\"ok\":true"));
    assert!(b.round_trip("search ql=l1 qr=r1 graph=g0").contains("\"ok\":true"));

    a.send("quit");
    assert!(a.recv().is_none(), "quitting session closes");

    // Session b is unaffected and the server still accepts new sessions.
    assert!(b.round_trip("search ql=l0 qr=r0 graph=g0").contains("\"ok\":true"));
    let mut c = Client::connect(&handle, false);
    assert!(c.round_trip("graphs").contains("\"ok\":true"));

    handle.shutdown();
    handle.join();
    assert_eq!(service.stats().active_sessions, 0);
}

#[test]
fn shutdown_line_closes_every_session_and_stops_accepting() {
    let service = service_with_graphs(2, 1);
    let handle = start(&service, ServerConfig::default());
    let addr = handle.addr();

    let mut idle_a = Client::connect(&handle, false);
    let mut idle_b = Client::connect(&handle, true);
    assert!(idle_a.round_trip("graphs").contains("\"ok\":true"));
    assert!(idle_b.round_trip("graphs").contains("\"ok\":true"));

    let mut closer = Client::connect(&handle, false);
    closer.send("shutdown");

    // join() returning proves the accept loop and every session thread
    // (including the two idle ones, unblocked by the socket shutdown)
    // exited — nothing leaked.
    handle.join();
    assert!(idle_a.recv().is_none(), "idle session was closed by shutdown");
    assert!(idle_b.recv().is_none(), "idle session was closed by shutdown");
    assert_eq!(service.stats().active_sessions, 0);

    // The listener is gone: new connections are refused (or immediately
    // closed by the dying acceptor).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            let mut reader = BufReader::new(stream);
            let mut buf = String::new();
            assert_eq!(reader.read_line(&mut buf).unwrap_or(0), 0, "no service behind it");
        }
    }
}

#[test]
fn connection_limit_rejects_with_structured_error() {
    let service = service_with_graphs(2, 1);
    let handle = start(
        &service,
        ServerConfig { max_connections: 2, ..ServerConfig::default() },
    );
    let mut a = Client::connect(&handle, false);
    let mut b = Client::connect(&handle, false);
    // Force both sessions to be fully established before the third tries.
    assert!(a.round_trip("graphs").contains("\"ok\":true"));
    assert!(b.round_trip("graphs").contains("\"ok\":true"));

    let mut c = Client::connect(&handle, false);
    let rejection = c.recv().expect("structured rejection line");
    assert!(
        rejection.contains("\"error\":{\"kind\":\"overloaded\""),
        "{rejection}"
    );
    assert!(rejection.contains("connection limit"), "{rejection}");
    assert_eq!(service.stats().connections_rejected, 1);

    handle.shutdown();
    handle.join();
}
