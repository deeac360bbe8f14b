//! End-to-end test of `bcc listen`: spawn the real binary, parse the bound
//! address off stderr, drive concurrent TCP clients over both codecs, and
//! shut the server down cleanly over the wire.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_bcc");

/// Writes a small two-clique butterfly graph file and returns its path.
fn graph_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut b = bcc_graph::GraphBuilder::new();
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
    let path = dir.join("butterfly.g");
    bcc_graph::io::write_graph_file(&b.build(), &path).expect("write graph file");
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bcc-listen-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spawns `bcc listen <graph> 127.0.0.1:0 <extra>` and parses the bound
/// address from the stderr banner. The stderr reader is returned too:
/// dropping it closes the pipe and the child's later shutdown banner
/// would die on EPIPE.
fn spawn_listen(
    graph: &std::path::Path,
    extra: &[&str],
) -> (Child, SocketAddr, std::io::Lines<BufReader<std::process::ChildStderr>>) {
    let mut child = Command::new(BIN)
        .arg("listen")
        .arg(graph)
        .arg("127.0.0.1:0")
        .args(["--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bcc listen");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("stderr open until the banner")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().parse().expect("bound address parses");
        }
    };
    (child, addr, lines)
}

/// One test client; `binary` selects the length-prefixed codec.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    binary: bool,
}

impl Client {
    fn connect(addr: SocketAddr, binary: bool) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("set_nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
            binary,
        }
    }

    fn send(&mut self, payload: &str) {
        let mut frame = Vec::with_capacity(5 + payload.len());
        if self.binary {
            frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            frame.extend_from_slice(payload.as_bytes());
        } else {
            frame.extend_from_slice(payload.as_bytes());
            frame.push(b'\n');
        }
        self.writer.write_all(&frame).unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Option<String> {
        if self.binary {
            let mut prefix = [0u8; 4];
            self.reader.read_exact(&mut prefix).ok()?;
            let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
            self.reader.read_exact(&mut payload).ok()?;
            Some(String::from_utf8(payload).expect("utf8 response"))
        } else {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => None,
                Ok(_) => {
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

#[test]
fn listen_serves_concurrent_clients_and_shuts_down_over_the_wire() {
    let dir = temp_dir("serve");
    let graph = graph_file(&dir);
    let (mut child, addr, stderr_lines) = spawn_listen(&graph, &[]);

    // Read-only queries against the shared graph: responses are
    // deterministic, so every client — text or binary — must get the
    // same bytes in the same (per-session seq) order.
    let queries = [
        "search ql=l0 qr=r0",
        "search ql=r0 qr=l0",
        "msearch q=l0,r0 k=3 b=1",
        "definitely not a request",
        "search ql=l1 qr=r1 method=online",
    ];
    let transcripts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                s.spawn(move || {
                    let mut client = Client::connect(addr, i % 2 == 0);
                    let responses: Vec<String> =
                        queries.iter().map(|q| client.round_trip(q)).collect();
                    client.send("quit");
                    assert!(client.recv().is_none(), "quit closes this connection");
                    responses
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    for transcript in &transcripts[1..] {
        assert_eq!(
            transcript, &transcripts[0],
            "identical queries, identical bytes, regardless of codec"
        );
    }
    assert!(transcripts[0][0].contains("\"ok\":true"), "{}", transcripts[0][0]);
    assert!(transcripts[0][0].contains("\"size\":8"), "{}", transcripts[0][0]);
    assert!(transcripts[0][3].contains("\"error\":\"parse\""), "{}", transcripts[0][3]);

    // All four sessions quit; the server is still alive for new clients.
    let mut last = Client::connect(addr, false);
    assert!(last.round_trip("graphs").contains("\"graphs\":[\"butterfly\"]"));

    // `shutdown` over the wire stops the whole process.
    last.send("shutdown");
    let status = child.wait().expect("bcc listen exits after shutdown");
    assert!(status.success(), "clean exit, got {status:?}");
    let farewell: Vec<String> = stderr_lines.map(|l| l.expect("read stderr")).collect();
    assert!(
        farewell.iter().any(|l| l == "server shut down"),
        "shutdown banner on stderr: {farewell:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listen_metrics_addr_serves_prometheus_populated_by_real_queries() {
    let dir = temp_dir("metrics");
    let graph = graph_file(&dir);
    let (mut child, addr, mut stderr_lines) =
        spawn_listen(&graph, &["--metrics-addr", "127.0.0.1:0", "--slow-query-ms", "0"]);
    // The exporter banner follows the listen banner on stderr.
    let metrics_addr: SocketAddr = loop {
        let line = stderr_lines
            .next()
            .expect("stderr open until the exporter banner")
            .expect("read stderr");
        if let Some(rest) = line.strip_prefix("metrics exposition on http://") {
            break rest
                .trim()
                .trim_end_matches("/metrics")
                .parse()
                .expect("exporter address parses");
        }
    };

    // Real traffic over the protocol socket, then its own snapshot verb.
    let mut client = Client::connect(addr, false);
    assert!(client.round_trip("search ql=l0 qr=r0").contains("\"ok\":true"));
    assert!(client.round_trip("search ql=l1 qr=r1").contains("\"ok\":true"));
    let snapshot = client.round_trip("metrics");
    assert!(snapshot.starts_with("{\"ok\":true,\"metrics_enabled\":true"), "{snapshot}");
    assert!(snapshot.contains("\"search\":{\"requests\":2,\"count\":2,"), "{snapshot}");

    // Scrape the Prometheus endpoint like a collector would.
    let mut scrape = TcpStream::connect(metrics_addr).expect("connect exporter");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: bcc\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"), "{response}");
    assert!(response.contains("bcc_requests_total{verb=\"search\"} 2"), "{response}");
    assert!(response.contains("bcc_requests_total{verb=\"metrics\"} 1"), "{response}");
    assert!(
        response.contains("bcc_verb_latency_microseconds_count{verb=\"search\"} 2"),
        "{response}"
    );
    // --slow-query-ms 0 flags every query with nonzero elapsed time.
    assert!(!response.contains("bcc_slow_queries_total 0"), "{response}");

    // A second scrape works: the exporter serves one response per
    // connection, sequentially, and survives the first close.
    let mut again = TcpStream::connect(metrics_addr).expect("reconnect exporter");
    again.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut response2 = String::new();
    again.read_to_string(&mut response2).expect("read scrape");
    assert!(response2.starts_with("HTTP/1.0 200 OK\r\n"), "{response2}");

    client.send("shutdown");
    assert!(child.wait().expect("exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listen_framing_violation_gets_structured_error_then_close() {
    let dir = temp_dir("framing");
    let graph = graph_file(&dir);
    let (mut child, addr, _stderr_lines) = spawn_listen(&graph, &[]);

    // First byte 0x01 negotiates the binary codec, and the frame it opens
    // claims 16 MiB + 1 — one byte over the cap.
    let mut client = Client::connect(addr, true);
    client.writer.write_all(&[0x01, 0x00, 0x00, 0x01]).unwrap();
    client.writer.flush().unwrap();
    let error = client.recv().expect("structured framing error");
    assert!(error.contains("\"error\":{\"kind\":\"framing\""), "{error}");
    assert!(client.recv().is_none(), "the violating connection is closed");

    // The server survives the bad client.
    let mut ok = Client::connect(addr, false);
    assert!(ok.round_trip("search ql=l0 qr=r0").contains("\"ok\":true"));
    ok.send("shutdown");
    assert!(child.wait().expect("exits").success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listen_accepts_and_fires_the_session_fault_sites() {
    let dir = temp_dir("fault-sites");
    let graph = graph_file(&dir);
    let (mut child, addr, _stderr_lines) = spawn_listen(
        &graph,
        &[
            "--fault",
            "codec_decode:error:1:1",
            "--fault",
            "admission:error:1:1",
        ],
    );

    // The first request trips `codec_decode` before dispatch; the second is
    // the first to reach the gate and trips `admission`; the third is served.
    let mut client = Client::connect(addr, false);
    let decoded = client.round_trip("search ql=l0 qr=r0");
    assert!(
        decoded.contains("injected fault at codec_decode"),
        "{decoded}"
    );
    let admitted = client.round_trip("search ql=l0 qr=r0");
    assert!(
        admitted.contains("injected fault at admission"),
        "{admitted}"
    );
    assert!(client
        .round_trip("search ql=l0 qr=r0")
        .contains("\"ok\":true"));
    client.send("shutdown");
    assert!(child.wait().expect("exits").success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn listen_survives_clients_dying_mid_frame_without_leaking_sessions() {
    let dir = temp_dir("midframe");
    let graph = graph_file(&dir);
    let (mut child, addr, _stderr_lines) = spawn_listen(&graph, &[]);

    // Clients that die at the nastiest points of the wire protocol: the
    // session threads must see each one as end-of-stream (or a framing
    // violation), release the connection slot, and exit — never block on
    // a frame that will never complete.
    for _round in 0..2 {
        // Binary codec negotiated, then death inside the length prefix.
        let half_prefix = TcpStream::connect(addr).expect("connect");
        (&half_prefix).write_all(&[0x01, 0x00]).unwrap();
        drop(half_prefix);

        // A full prefix declaring 64 payload bytes, but only 10 arrive.
        let half_payload = TcpStream::connect(addr).expect("connect");
        (&half_payload)
            .write_all(&[0x01, 0x00, 0x00, 0x40, b'x', b'x', b'x', b'x', b'x'])
            .unwrap();
        drop(half_payload);

        // Text codec, death before the newline ends the first line.
        let half_line = TcpStream::connect(addr).expect("connect");
        (&half_line).write_all(b"search ql=l0").unwrap();
        drop(half_line);

        // Connect and vanish before sending a single byte.
        drop(TcpStream::connect(addr).expect("connect"));
    }

    // The server keeps serving a well-behaved client...
    let mut ok = Client::connect(addr, false);
    assert!(ok.round_trip("search ql=l0 qr=r0").contains("\"ok\":true"));

    // ...and every dead session drains: the gauge must fall back to 1
    // (this client alone). Poll briefly — the disconnects are racing us.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = ok.round_trip("stats");
        if stats.contains("\"active_sessions\":1,") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dead sessions never drained: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Shutdown joins every session thread before the process exits — a
    // leaked thread stuck in a dead client's read would hang this wait.
    ok.send("shutdown");
    assert!(child.wait().expect("exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
