//! The TCP front-end: accept loop, connection limit, and the admission
//! controller that stands between sessions and the worker pool.
//!
//! One OS thread per connection runs a [`Session`]; the accept loop bounds
//! how many exist at once (`max_connections`), turning extras away with a
//! structured `overloaded` error. Inside the connection limit, the
//! [`Admission`] gate bounds how many requests may *wait* for the worker
//! pool (`queue_depth`); as many may occupy it as the pool has workers:
//!
//! * a request arriving to a full wait queue is rejected immediately with
//!   `{"ok":false,...,"error":{"kind":"overloaded",...}}` — the client
//!   always gets an answer, never a silent drop or an unbounded stall;
//! * waiting requests dispatch by **priority** first (`priority=high`
//!   before `normal` before `low`), then in arrival order. A session reads
//!   its next request only after writing the previous response, so it
//!   never has two waiters: arrival order serves every waiting session once
//!   before any session is served twice;
//! * a request's deadline runs from the moment its session asks the gate:
//!   one that expires while queued gets the standard structured `timeout`
//!   error without ever touching the pool, and one admitted late executes
//!   on what is left of its `timeout_ms`.
//!
//! `shutdown` from any session closes every session, stops the accept
//! loop, and joins all threads — [`ServerHandle::join`] returns only when
//! nothing is left running.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::codec::{Codec, LineCodec};
use crate::fault::{lock_unpoisoned, panic_message};
use crate::metrics::Metrics;
use crate::request::Priority;
use crate::session::{session_error_json, Session, SessionEnd};
use crate::service::BccService;

/// Tunables for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrent connections; extras are rejected with a
    /// structured `overloaded` error (newline-framed: rejection happens
    /// before the first byte arrives, so no codec was negotiated).
    pub max_connections: usize,
    /// Maximum requests waiting in the admission queue (beyond those
    /// executing); an arrival past this bound is rejected immediately.
    pub queue_depth: usize,
    /// Deadline inherited by requests that carry no `timeout_ms`
    /// (`None` ⇒ no deadline).
    pub default_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            queue_depth: 128,
            default_timeout_ms: None,
        }
    }
}

/// Why [`Admission::admit`] refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The wait queue is full; the message describes the limit.
    Overloaded(String),
    /// The request's deadline expired while it waited.
    DeadlineExpired,
}

/// One queued request.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    ticket: u64,
    priority: Priority,
}

#[derive(Default)]
struct AdmState {
    in_flight: usize,
    waiting: Vec<Waiter>,
    next_ticket: u64,
}

/// The admission controller: a bounded wait queue in front of the worker
/// pool, ordered by priority and then by arrival. Sessions block in
/// [`Admission::admit`]; the returned permit occupies one execution slot
/// until dropped.
pub struct Admission {
    concurrency: usize,
    queue_depth: usize,
    metrics: Arc<Metrics>,
    state: Mutex<AdmState>,
    available: Condvar,
}

/// Holds one admission slot; dropping it releases the slot and wakes
/// waiters.
pub struct AdmissionPermit<'a> {
    admission: &'a Admission,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AdmissionPermit")
    }
}

impl Admission {
    /// A gate allowing `concurrency` concurrent executions and
    /// `queue_depth` waiters, counting into `metrics`.
    pub fn new(concurrency: usize, queue_depth: usize, metrics: Arc<Metrics>) -> Self {
        Admission {
            concurrency: concurrency.max(1),
            queue_depth,
            metrics,
            state: Mutex::new(AdmState::default()),
            available: Condvar::new(),
        }
    }

    /// Admits one request, blocking until a slot is free and this request
    /// is the best-entitled waiter (priority, then arrival). Fails fast with
    /// [`AdmitError::Overloaded`] when the wait queue is full, and with
    /// [`AdmitError::DeadlineExpired`] if `deadline` passes while queued.
    pub fn admit(
        &self,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<AdmissionPermit<'_>, AdmitError> {
        let mut state = lock_unpoisoned(&self.state);
        if state.in_flight < self.concurrency && state.waiting.is_empty() {
            return Ok(self.dispatch(&mut state));
        }
        if state.waiting.len() >= self.queue_depth {
            self.metrics.rejected_overloaded.inc();
            return Err(AdmitError::Overloaded(format!(
                "admission queue full ({} executing, {} waiting, queue depth {})",
                state.in_flight,
                state.waiting.len(),
                self.queue_depth
            )));
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push(Waiter { ticket, priority });
        loop {
            if state.in_flight < self.concurrency && self.best(&state) == Some(ticket) {
                let idx = state
                    .waiting
                    .iter()
                    .position(|w| w.ticket == ticket)
                    .expect("own ticket is queued");
                state.waiting.swap_remove(idx);
                let permit = self.dispatch(&mut state);
                // More slots may be free — let the next-best waiter check.
                self.available.notify_all();
                return Ok(permit);
            }
            state = match deadline {
                None => self
                    .available
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        let idx = state
                            .waiting
                            .iter()
                            .position(|w| w.ticket == ticket)
                            .expect("own ticket is queued");
                        state.waiting.swap_remove(idx);
                        self.metrics.admission_timeouts.inc();
                        drop(state);
                        // The freed queue slot may unblock an arrival path
                        // decision; waiters re-evaluate harmlessly.
                        self.available.notify_all();
                        return Err(AdmitError::DeadlineExpired);
                    }
                    self.available
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
            };
        }
    }

    /// Occupies a slot (state lock held).
    fn dispatch<'a>(&'a self, state: &mut AdmState) -> AdmissionPermit<'a> {
        state.in_flight += 1;
        self.metrics.admitted.inc();
        AdmissionPermit { admission: self }
    }

    /// The ticket entitled to the next free slot: highest priority, then
    /// lowest ticket (earliest arrival).
    fn best(&self, state: &AdmState) -> Option<u64> {
        state
            .waiting
            .iter()
            .min_by_key(|w| (std::cmp::Reverse(w.priority), w.ticket))
            .map(|w| w.ticket)
    }

    /// Snapshot of (executing, waiting) — for tests and the load bench.
    pub fn load(&self) -> (usize, usize) {
        let state = lock_unpoisoned(&self.state);
        (state.in_flight, state.waiting.len())
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.admission.state);
        state.in_flight -= 1;
        drop(state);
        self.admission.available.notify_all();
    }
}

/// Everything the accept loop, session threads, and [`ServerHandle`] share.
struct Shared {
    service: Arc<BccService>,
    config: ServerConfig,
    /// The admission gate every session's queries pass through.
    admission: Admission,
    addr: SocketAddr,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    /// Live session sockets, keyed by session id — `shutdown` closes them
    /// all (each session thread then unblocks out of its read).
    live: Mutex<HashMap<u64, TcpStream>>,
    /// Session threads not yet joined: each spawn joins those that have
    /// ended, and [`ServerHandle::join`] joins the rest.
    session_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Flips the shutdown flag once: closes every live session socket and
    /// wakes the accept loop with a throwaway self-connection.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for stream in lock_unpoisoned(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running TCP server. Obtained from [`Server::bind`]; dropping the
/// handle does **not** stop the server — call [`ServerHandle::shutdown`]
/// (or send a `shutdown` line) and then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// The TCP front-end constructor (see the module docs).
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4000`; port 0 picks a free port) and
    /// starts accepting. Each accepted connection gets a session thread;
    /// queries admission-gate onto the service's worker pool, through a
    /// gate as wide as the pool.
    pub fn bind<A: ToSocketAddrs>(
        service: Arc<BccService>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let admission = Admission::new(
            service.workers(),
            config.queue_depth,
            Arc::clone(service.metrics()),
        );
        let shared = Arc::new(Shared {
            service,
            config,
            admission,
            addr,
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            live: Mutex::new(HashMap::new()),
            session_threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("bcc-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle { shared, accept_thread: Some(accept_thread) })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The admission gate (tests and the load bench occupy slots directly
    /// to provoke deterministic overload).
    pub fn admission(&self) -> &Admission {
        &self.shared.admission
    }

    /// Initiates shutdown: stop accepting, close every session.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has fully stopped — the accept loop exited
    /// and every session thread was joined. (Returns immediately only
    /// after [`ServerHandle::shutdown`] or a client's `shutdown` line;
    /// otherwise this is "serve forever".)
    pub fn join(mut self) {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        let threads = std::mem::take(&mut *lock_unpoisoned(&self.shared.session_threads));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

/// The accept loop: enforce the connection limit, spawn session threads.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let metrics = Arc::clone(shared.service.metrics());
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let active = metrics.active_sessions.get();
        if active >= shared.config.max_connections as u64 {
            metrics.connections_rejected.inc();
            reject_connection(stream, active, shared.config.max_connections);
            continue;
        }
        metrics.connections_accepted.inc();
        metrics.active_sessions.add(1);
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        if let Ok(registered) = stream.try_clone() {
            lock_unpoisoned(&shared.live).insert(id, registered);
        }
        let session_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("bcc-session-{id}"))
            .spawn(move || session_thread(session_shared, id, stream));
        match spawned {
            Ok(handle) => {
                let mut threads = lock_unpoisoned(&shared.session_threads);
                // Join the sessions that have ended: a finished thread that
                // is never joined keeps its stack mapped until shutdown.
                for ended in threads.extract_if(.., |thread| thread.is_finished()) {
                    let _ = ended.join();
                }
                threads.push(handle);
            }
            Err(_) => {
                // Spawn failure: undo the bookkeeping; the stream drops.
                lock_unpoisoned(&shared.live).remove(&id);
                metrics.active_sessions.sub(1);
            }
        }
    }
}

/// Best-effort structured rejection of an over-limit connection. The codec
/// is negotiated from bytes the server has not read yet, so rejections are
/// always newline-framed.
fn reject_connection(mut stream: TcpStream, active: u64, limit: usize) {
    let line = session_error_json(
        None,
        "overloaded",
        &format!("connection limit reached ({active} active, limit {limit})"),
    );
    let _ = LineCodec.write_response(&mut stream, &line);
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's thread: run the session, then tear down bookkeeping
/// and propagate `shutdown` to the whole server.
fn session_thread(shared: Arc<Shared>, id: u64, stream: TcpStream) {
    // One request-response per round trip: without TCP_NODELAY, Nagle
    // holds each small response hostage to the peer's delayed ACK
    // (~40 ms per round trip on loopback).
    let _ = stream.set_nodelay(true);
    // The whole session runs under containment: the session layer already
    // catches per-request panics, so anything unwinding to here is a bug
    // in the codec/framing layer itself — log it, but *always* fall
    // through to the bookkeeping below (live-map removal, gauge
    // decrement, socket shutdown), or the server would leak the session
    // slot and `join` could hang on a thread count that never drains.
    let end = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match stream.try_clone() {
            Ok(read_half) => {
                let mut session = Session::for_connection(
                    &shared.service,
                    &shared.admission,
                    shared.config.default_timeout_ms,
                );
                // BufWriter turns a codec's prefix + payload + newline
                // writes into one packet; `Session::emit` flushes per
                // response.
                session.run(BufReader::new(read_half), io::BufWriter::new(&stream))
            }
            Err(e) => Err(e),
        }
    })) {
        Ok(end) => end,
        Err(cause) => {
            eprintln!(
                "{{\"event\":\"session_panic\",\"session\":{id},\"message\":{}}}",
                bcc_graph::json::json_string(&panic_message(cause.as_ref()))
            );
            Ok(SessionEnd::Protocol)
        }
    };
    lock_unpoisoned(&shared.live).remove(&id);
    shared.service.metrics().active_sessions.sub(1);
    let _ = stream.shutdown(Shutdown::Both);
    if matches!(end, Ok(SessionEnd::Shutdown)) {
        shared.begin_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::sync::mpsc;

    fn gate(concurrency: usize, depth: usize) -> Admission {
        Admission::new(concurrency, depth, Arc::new(Metrics::default()))
    }

    #[test]
    fn admits_up_to_concurrency_then_queues_then_rejects() {
        let adm = gate(2, 1);
        let first = adm.admit(Priority::Normal, None).unwrap();
        let _second = adm.admit(Priority::Normal, None).unwrap();
        assert_eq!(adm.load(), (2, 0));
        // Third must wait; occupy the single queue slot from a thread.
        std::thread::scope(|s| {
            let (enqueued_tx, enqueued_rx) = mpsc::channel();
            let adm = &adm;
            s.spawn(move || {
                // Deadline long enough to outlive the test, short enough to
                // unblock it if notification logic is broken.
                let deadline = Instant::now() + std::time::Duration::from_secs(5);
                enqueued_tx.send(()).unwrap();
                let permit = adm.admit(Priority::Normal, Some(deadline));
                assert!(permit.is_ok(), "queued request dispatches once a slot frees");
            });
            enqueued_rx.recv().unwrap();
            // Busy-wait until the spawned request is actually queued.
            while adm.load().1 != 1 {
                std::thread::yield_now();
            }
            // Queue full: an arrival is rejected immediately.
            let err = adm.admit(Priority::Normal, None).unwrap_err();
            assert!(matches!(err, AdmitError::Overloaded(ref m) if m.contains("queue")));
            drop(first); // frees a slot → the queued request dispatches
        });
        assert_eq!(adm.metrics.rejected_overloaded.get(), 1);
        assert_eq!(adm.metrics.admitted.get(), 3);
    }

    #[test]
    fn queued_deadline_expires_without_dispatch() {
        let adm = gate(1, 4);
        let permit = adm.admit(Priority::Normal, None).unwrap();
        let deadline = Instant::now() + std::time::Duration::from_millis(30);
        let err = adm.admit(Priority::Normal, Some(deadline)).unwrap_err();
        assert_eq!(err, AdmitError::DeadlineExpired);
        assert_eq!(adm.load(), (1, 0), "expired waiter left the queue");
        assert_eq!(adm.metrics.admission_timeouts.get(), 1);
        drop(permit);
    }

    #[test]
    fn priority_outranks_arrival_and_arrival_breaks_ties() {
        // Queue low(a), normal(b), high(c), normal(d) behind a blocker —
        // dispatch order must be c [priority wins], then b and d in arrival
        // order [equal priority], then a.
        let adm = gate(1, 8);
        let blocker = adm.admit(Priority::Normal, None).unwrap();
        let adm = &adm;
        let (order_tx, order_rx) = mpsc::channel::<&'static str>();
        std::thread::scope(|s| {
            let waiters = [
                ("a", Priority::Low),
                ("b", Priority::Normal),
                ("c", Priority::High),
                ("d", Priority::Normal),
            ];
            for (queued, (tag, priority)) in waiters.into_iter().enumerate() {
                let tx = order_tx.clone();
                s.spawn(move || {
                    let permit = adm.admit(priority, None).unwrap();
                    tx.send(tag).unwrap();
                    // Hold briefly so dispatches serialize observably.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    drop(permit);
                });
                // Wait until this waiter is queued before the next arrives.
                while adm.load().1 != queued + 1 {
                    std::thread::yield_now();
                }
            }
            drop(blocker);
            let order: Vec<_> = (0..waiters.len())
                .map(|_| order_rx.recv().unwrap())
                .collect();
            assert_eq!(
                order,
                ["c", "b", "d", "a"],
                "dispatch order: priority, then arrival"
            );
        });
    }

    #[test]
    fn finished_session_threads_are_not_retained() {
        let service = Arc::new(BccService::new(crate::ServiceConfig {
            workers: 1,
            ..crate::ServiceConfig::default()
        }));
        let handle = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let threads = || lock_unpoisoned(&handle.shared.session_threads);
        for _ in 0..24 {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            (&stream).write_all(b"graphs\nquit\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":true"), "{line}");
            line.clear();
            assert_eq!(
                reader.read_line(&mut line).unwrap(),
                0,
                "quit closes the session"
            );
            // Let every retained session thread finish before the next
            // connection, so the next spawn joins them all.
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while !threads().iter().all(JoinHandle::is_finished) {
                assert!(Instant::now() < deadline, "session thread never finished");
                std::thread::yield_now();
            }
        }
        // Each spawn joined the sessions that had ended: at most the last
        // session and one whose handle was pushed after it ended remain.
        let retained = threads().len();
        assert!(retained <= 2, "{retained} session handles retained");
        let metrics = Arc::clone(handle.shared.service.metrics());
        handle.shutdown();
        handle.join();
        assert_eq!(metrics.active_sessions.get(), 0);
    }
}
