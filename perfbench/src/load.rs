//! Load generation: closed-loop query connections (callers that wait for
//! their answer) and a writer, open loop while reads run (an independent
//! feed on a fixed schedule, timed from each batch's due time).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::workload::Flip;

/// One request and its reply, with times relative to the window start.
pub struct Sample {
    pub line: String,
    pub sent: Duration,
    pub replied: Duration,
    pub reply: Result<String, String>,
}

impl Sample {
    pub fn latency(&self) -> Duration {
        self.replied.saturating_sub(self.sent)
    }
}

/// One closed-loop connection's window.
pub struct Reader {
    pub samples: Vec<Sample>,
    /// Time from each reply to the next request: the pause and the loop's
    /// own bookkeeping.
    pub paused: Duration,
    /// The stream ran out before the window closed.
    pub ran_dry: bool,
}

/// Sends `lines` in order, each `think_ms` after the previous reply, until
/// `end`. Every request sent before `end` is completed and kept.
pub fn closed_loop(
    conn: &mut Conn,
    lines: &[String],
    t0: Instant,
    end: Instant,
    think_ms: f64,
) -> Reader {
    let mut reader = Reader {
        samples: Vec::new(),
        paused: Duration::ZERO,
        ran_dry: true,
    };
    for line in lines {
        let now = Instant::now();
        if now >= end {
            reader.ran_dry = false;
            break;
        }
        let reply = conn.round_trip(line);
        let done = Instant::now();
        let failed = reply.is_err();
        reader.samples.push(Sample {
            line: line.clone(),
            sent: now - t0,
            replied: done - t0,
            reply,
        });
        if failed {
            reader.ran_dry = false;
            break;
        }
        think(think_ms);
        reader.paused += done.elapsed();
    }
    reader
}

/// A caller's pause between a reply and its next request. It spins: a
/// sleeping thread's wake-up takes longer the busier the host is, and it
/// would stretch the pause and the next round trip with it.
pub fn think(ms: f64) {
    let pause = Duration::from_secs_f64(ms / 1e3);
    let start = Instant::now();
    while start.elapsed() < pause {
        std::hint::spin_loop();
    }
}

/// Sends every line once, untimed (cache fill and lazy set-up).
pub fn warm(conn: &mut Conn, lines: &[String]) -> Vec<(String, Result<String, String>)> {
    lines
        .iter()
        .map(|l| (l.clone(), conn.round_trip(l)))
        .collect()
}

/// One writer batch: its stage lines and `commit`, as sent.
pub struct Batch {
    pub due: Duration,
    pub first_sent: Duration,
    pub commit_sent: Duration,
    pub commit_replied: Duration,
    pub stage_replies: Vec<Result<String, String>>,
    pub commit_reply: Result<String, String>,
}

impl Batch {
    /// Due time to the commit's reply: a stall delays later batches too,
    /// and that wait is counted.
    pub fn latency(&self) -> Duration {
        self.commit_replied.saturating_sub(self.due)
    }

    /// How late the generator sent the batch's first line.
    pub fn lateness(&self) -> Duration {
        self.first_sent.saturating_sub(self.due)
    }
}

/// When the writer's batches are due.
#[derive(Clone, Copy)]
pub enum Schedule {
    /// Open loop: batch `i` is due at `t0 + i / rate`, however late the
    /// previous batch ran.
    Rate(f64),
    /// Closed loop: each batch is due when the previous commit replied.
    Closed,
}

/// The writer: stages each batch's flips, then commits. Stops at the first
/// batch due at or after `end`, or when the batches run out.
pub fn writer(
    addr: SocketAddr,
    batches: &[Vec<Flip>],
    schedule: Schedule,
    t0: Instant,
    end: Option<Instant>,
) -> Result<Vec<Batch>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let due = match schedule {
            Schedule::Rate(rate) => Duration::from_secs_f64(i as f64 / rate),
            Schedule::Closed => t0.elapsed(),
        };
        let due_at = t0 + due;
        if end.is_some_and(|end| due_at >= end) {
            break;
        }
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let first_sent = t0.elapsed();
        let stage_replies: Vec<_> = batch.iter().map(|f| conn.round_trip(&f.line())).collect();
        let commit_sent = t0.elapsed();
        let commit_reply = conn.round_trip("commit");
        let commit_replied = t0.elapsed();
        let failed = commit_reply.is_err() || stage_replies.iter().any(Result::is_err);
        out.push(Batch {
            due,
            first_sent,
            commit_sent,
            commit_replied,
            stage_replies,
            commit_reply,
        });
        if failed {
            break;
        }
    }
    Ok(out)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
