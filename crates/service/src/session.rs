//! Per-connection sessions: one state machine between a byte stream and
//! the [`BccService`].
//!
//! A [`Session`] owns everything connection-scoped: the negotiated
//! [`Codec`], the admission gate and default deadline of a TCP connection,
//! and the response sequence numbering. It drives the same line protocol as
//! `process_line` — the service stays transport-agnostic; only the session
//! knows where the bytes come from.
//!
//! Two sequencing policies cover the two transports:
//!
//! * [`SeqPolicy::Service`] — the historical `bcc serve` semantics: global
//!   service-wide sequence numbers, `shutdown` equals `quit` (there is
//!   exactly one session). `BccService::run_session` is a session in this
//!   mode, byte-identical to the pre-refactor loop.
//! * [`SeqPolicy::PerSession`] — TCP semantics: `seq` is the session-local
//!   output index, exactly the numbering [`BccService::run_batch`] emits,
//!   so one client's responses over the wire are byte-identical to running
//!   its lines as a batch. `quit` ends only this session; `shutdown` asks
//!   the server to close every session.
//!
//! Teardown is graceful by construction: a session executes one request at
//! a time and waits for its pool ticket inline, so by the time `run`
//! returns — `quit`, EOF, protocol error, or the server shutting the
//! socket down — it holds no in-flight tickets.

use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::codec::{codec_for, Codec, CodecError, CodecKind};
use crate::fault::{panic_message, FaultSite};
use crate::request::{parse_line, Method, ParsedLine, QueryRequest, RequestError};
use crate::response::QueryResponse;
use crate::server::{Admission, AdmitError};
use crate::service::{BccService, LineOutcome};

/// How a session numbers its responses (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqPolicy {
    /// Global service-wide numbering; `shutdown` ≡ `quit` (`bcc serve`).
    Service,
    /// Session-local output-index numbering (`run_batch` semantics); the
    /// TCP transport.
    PerSession,
}

/// Why a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The peer closed its side at a payload boundary.
    Eof,
    /// A `quit` line: close this session only.
    Quit,
    /// A `shutdown` line: the caller (the TCP server) should close every
    /// session and stop accepting.
    Shutdown,
    /// The peer violated the framing protocol; a structured error was sent
    /// and the connection must close.
    Protocol,
}

/// One connection's state machine. Generic over the byte stream; the codec
/// is negotiated from the stream's first byte in [`Session::run`].
pub struct Session<'s> {
    service: &'s BccService,
    policy: SeqPolicy,
    /// The admission gate queries pass before reaching the pool (TCP
    /// sessions only).
    gate: Option<&'s Admission>,
    /// Deadline inherited by requests carrying no `timeout_ms` (TCP
    /// sessions only).
    default_timeout_ms: Option<u64>,
    /// Responses emitted so far — the next per-session seq.
    emitted: u64,
}

/// What one payload produced.
enum Step {
    Output(String),
    Silent,
    End(SessionEnd),
}

impl<'s> Session<'s> {
    /// The `bcc serve` session: global seq, no admission gate.
    pub fn service_mode(service: &'s BccService) -> Self {
        Session {
            service,
            policy: SeqPolicy::Service,
            gate: None,
            default_timeout_ms: None,
            emitted: 0,
        }
    }

    /// A TCP connection's session: its queries pass `gate`, and those
    /// carrying no `timeout_ms` inherit `default_timeout_ms`.
    pub fn for_connection(
        service: &'s BccService,
        gate: &'s Admission,
        default_timeout_ms: Option<u64>,
    ) -> Self {
        Session {
            service,
            policy: SeqPolicy::PerSession,
            gate: Some(gate),
            default_timeout_ms,
            emitted: 0,
        }
    }

    /// Runs the session to completion: negotiate the codec off the first
    /// byte, then one response per request payload until the peer quits,
    /// disconnects, or breaks the framing protocol. `Err` is an I/O
    /// failure of the underlying stream (for TCP, a routine disconnect).
    pub fn run<R: BufRead, W: Write>(
        &mut self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<SessionEnd> {
        let first = loop {
            match reader.fill_buf() {
                Ok([]) => return Ok(SessionEnd::Eof),
                Ok(buf) => break buf[0],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let codec = codec_for(CodecKind::negotiate(first));
        let metrics = self.service.metrics();
        loop {
            match codec.read_request(&mut reader) {
                Ok(None) => return Ok(SessionEnd::Eof),
                Ok(Some((payload, wire_bytes))) => {
                    metrics.bytes_in.add(wire_bytes);
                    match self.step_contained(&payload) {
                        Step::Silent => {}
                        Step::Output(line) => self.emit(&*codec, &mut writer, &line)?,
                        Step::End(end) => return Ok(end),
                    }
                }
                Err(CodecError::Protocol(message)) => {
                    // Structured error out (best effort — the peer may
                    // already be gone), then close: framing violations are
                    // not recoverable mid-stream.
                    let line =
                        session_error_json(Some(self.emitted), "framing", &message);
                    let _ = self.emit(&*codec, &mut writer, &line);
                    return Ok(SessionEnd::Protocol);
                }
                Err(CodecError::Io(e)) => return Err(e),
            }
        }
    }

    /// [`Self::step`] under panic containment: a panic while processing
    /// one request — injected, or a real bug anywhere in the dispatch
    /// path — becomes a structured internal error on this session's
    /// stream, and the session keeps serving subsequent requests. The
    /// `codec_decode` fault site fires here too, between framing and
    /// dispatch, inside the containment so its panic action is also
    /// survivable.
    fn step_contained(&mut self, payload: &str) -> Step {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.service.fault_plan().perturb(FaultSite::CodecDecode) {
                return Step::Output(session_error_json(
                    Some(self.emitted),
                    "internal",
                    "injected fault at codec_decode",
                ));
            }
            self.step(payload)
        }));
        match result {
            Ok(step) => step,
            Err(cause) => Step::Output(session_error_json(
                Some(self.emitted),
                "internal",
                &format!("request processing panicked: {}", panic_message(cause.as_ref())),
            )),
        }
    }

    /// Processes one request payload.
    fn step(&mut self, payload: &str) -> Step {
        if self.policy == SeqPolicy::Service {
            // Delegate wholesale: `process_line` already implements the
            // single-session semantics (global seq, shutdown ≡ quit) and
            // keeps `bcc serve` byte-identical.
            return match self.service.process_line(payload) {
                LineOutcome::Output(line) => Step::Output(line),
                LineOutcome::Quit => Step::End(SessionEnd::Quit),
                LineOutcome::Silent => Step::Silent,
            };
        }
        match parse_line(payload) {
            Ok(ParsedLine::Empty) => Step::Silent,
            Ok(ParsedLine::Quit) => Step::End(SessionEnd::Quit),
            Ok(ParsedLine::Shutdown) => Step::End(SessionEnd::Shutdown),
            Ok(ParsedLine::Stats) => Step::Output(self.service.stats_json()),
            Ok(ParsedLine::Graphs) => Step::Output(self.service.graphs_json()),
            Ok(ParsedLine::Metrics) => Step::Output(self.service.metrics_json()),
            Ok(ParsedLine::Mutate(request)) => {
                Step::Output(self.service.handle_mutate(request).to_json())
            }
            Ok(ParsedLine::Request(mut request)) => {
                request.timeout_ms = request.timeout_ms.or(self.default_timeout_ms);
                Step::Output(self.dispatch_query(request))
            }
            Err(err) => {
                // Count the failure on the service (its global seq is not
                // used: this session numbers its own outputs).
                let _ = self.service.note_parse_error();
                Step::Output(
                    QueryResponse::error(self.emitted, "", Method::Lp, err).to_json(),
                )
            }
        }
    }

    /// Runs one query through the admission gate and the service, with
    /// this session's output index as its seq. The request's deadline runs
    /// from here: the service gets only the budget the gate wait left.
    fn dispatch_query(&self, mut request: QueryRequest) -> String {
        let seq = self.emitted;
        // The `admission` fault site: a synthetic gate rejection (or delay,
        // or panic — contained by `step_contained`) before any real gate
        // or pool work happens.
        if self.service.fault_plan().perturb(FaultSite::Admission) {
            return session_error_json(Some(seq), "overloaded", "injected fault at admission");
        }
        let gate = self
            .gate
            .expect("per-session sessions are built with a gate");
        // Queue wait = time from asking the gate to holding a permit (or
        // being turned away) — the admission component of tail latency.
        let wait_started = Instant::now();
        let deadline = request
            .timeout_ms
            .map(|ms| wait_started + Duration::from_millis(ms));
        let method = request.method;
        let admitted = gate.admit(request.priority, deadline);
        self.service.metrics().record_queue_wait(wait_started.elapsed());
        match admitted {
            Ok(_permit) => {
                if let Some(deadline) = deadline {
                    // Whole milliseconds, rounded up: a request admitted at
                    // once keeps its full `timeout_ms`.
                    let left = deadline.saturating_duration_since(Instant::now());
                    request.timeout_ms = Some(left.as_micros().div_ceil(1000) as u64);
                }
                // The permit spans the whole submit + wait: the session
                // occupies one admission slot until its response is ready.
                let mut response = self.service.handle(request);
                response.seq = seq;
                response.to_json()
            }
            Err(AdmitError::Overloaded(message)) => {
                session_error_json(Some(seq), "overloaded", &message)
            }
            Err(AdmitError::DeadlineExpired) => QueryResponse::error(
                seq,
                "",
                method,
                RequestError {
                    kind: crate::request::ErrorKind::Timeout,
                    message: "deadline expired while waiting in the admission queue"
                        .into(),
                },
            )
            .to_json(),
        }
    }

    /// Writes one response payload, counting bytes and the output index.
    fn emit<W: Write>(
        &mut self,
        codec: &dyn Codec,
        writer: &mut W,
        line: &str,
    ) -> io::Result<()> {
        let wire_bytes = codec.write_response(writer, line)?;
        writer.flush()?;
        self.service.metrics().bytes_out.add(wire_bytes);
        self.emitted += 1;
        Ok(())
    }
}

/// The session/transport-layer structured error line:
/// `{"ok":false,"seq":N,"error":{"kind":K,"message":M}}`. Unlike request
/// errors (whose flat `"error":"<kind>"` shape callers already parse),
/// these originate *outside* request processing — admission overload,
/// framing violations, connection-limit rejections — so the kind/message
/// pair nests under `"error"`.
pub fn session_error_json(seq: Option<u64>, kind: &str, message: &str) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"ok\":false");
    if let Some(seq) = seq {
        out.push_str(",\"seq\":");
        out.push_str(&seq.to_string());
    }
    out.push_str(",\"error\":{\"kind\":");
    bcc_graph::json::push_json_string(&mut out, kind);
    out.push_str(",\"message\":");
    bcc_graph::json::push_json_string(&mut out, message);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_error_shape() {
        assert_eq!(
            session_error_json(Some(3), "overloaded", "queue full"),
            "{\"ok\":false,\"seq\":3,\"error\":{\"kind\":\"overloaded\",\
             \"message\":\"queue full\"}}"
        );
        assert_eq!(
            session_error_json(None, "framing", "x\"y"),
            "{\"ok\":false,\"error\":{\"kind\":\"framing\",\"message\":\"x\\\"y\"}}"
        );
    }
}
