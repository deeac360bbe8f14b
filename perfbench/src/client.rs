//! The real `bcc listen` process and the benchmark's TCP connections.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reply that never arrives within this long counts as a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a launch may take to print its bound address.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// One `bcc listen <graph> 127.0.0.1:0` process, launched with default
/// flags. Its stderr is drained for the process's whole life: the
/// slow-query log writes a line per query over 250 ms, and a full pipe
/// would stall the server.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    pub launched: Instant,
    drain: Option<JoinHandle<()>>,
    slow_lines: Arc<AtomicU64>,
}

impl ServerProc {
    pub fn launch(bcc: &Path, graph: &Path) -> Result<ServerProc, String> {
        let launched = Instant::now();
        let mut child = Command::new(bcc)
            .arg("listen")
            .arg(graph)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("launch {}: {e}", bcc.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let slow_lines = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let drain = {
            let slow_lines = Arc::clone(&slow_lines);
            std::thread::spawn(move || {
                let mut tx = Some(tx);
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        if let Some(tx) = tx.take() {
                            let _ = tx.send(addr.trim().to_string());
                        }
                    } else if line.contains("\"slow_query\":true") {
                        slow_lines.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let mut server = ServerProc {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            launched,
            drain: Some(drain),
            slow_lines,
        };
        match rx.recv_timeout(LAUNCH_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bound address `{addr}`: {e}"))?;
                Ok(server)
            }
            Err(_) => Err(format!(
                "`bcc listen` printed no bound address within {LAUNCH_TIMEOUT:?}"
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// User plus system CPU seconds over all the process's threads.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields, in clock ticks of 1/100 s on Linux.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }

    pub fn slow_query_lines(&self) -> u64 {
        self.slow_lines.load(Ordering::Relaxed)
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.send_only("shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("`bcc listen` exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("`bcc listen` did not exit after `shutdown`".into()),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The host's CPU time stolen by the hypervisor and its total CPU time, in
/// clock ticks summed over all cores (`/proc/stat`). Steal is time a
/// virtual core was ready but a neighbour ran; it slows a run without
/// showing in its own CPU time.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One newline-JSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            buf: Vec::with_capacity(256),
        })
    }

    pub fn send_only(&mut self, line: &str) -> Result<(), String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed before the reply".into()),
            Ok(_) if !reply.ends_with('\n') => Err("reply cut off".into()),
            Ok(_) => {
                reply.pop();
                Ok(reply)
            }
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send_only(line)?;
        self.recv()
    }
}
