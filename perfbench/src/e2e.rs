//! The untraced run: set-up time, the load window against the real
//! `bcc listen` binary, the writer, probes, and the answer checks.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::{self, Verdict};
use crate::client::{self, Conn, ServerProc};
use crate::load::{self, Batch, Reader, Sample, Schedule};
use crate::workload::{graph_after, Kind, Workload};

/// Launches measured for `setup_s`; the last one serves the load.
const SETUP_LAUNCHES: usize = 11;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations attempted and failed, by reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: BTreeMap<Verdict, u64>,
    /// The first few failures, for the log.
    pub examples: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, verdict: Verdict) {
        self.attempted += 1;
        if verdict != Verdict::Ok {
            *self.failures.entry(verdict).or_default() += 1;
            if self.examples.len() < 5 {
                self.examples.push(format!("{}: {what}", verdict.name()));
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

/// What the untraced run measured, kept for the traced run's layer split.
pub struct E2e {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub reads: usize,
    pub window_s: f64,
    pub cpu_window_s: f64,
    /// `stats` and `metrics` replies before and after the read window, and
    /// after the writer finished.
    pub stats: [String; 3],
    pub server_metrics: [String; 3],
    pub lateness_ms: Vec<f64>,
    pub stale_iterations: usize,
}

pub fn run(w: &Workload, bcc: &Path, seconds: f64) -> Result<E2e, String> {
    let mut tally = Tally::default();
    let mut gen0_checks: Vec<(String, Result<String, String>)> = Vec::new();

    // Set-up: launch to the first answer that needs the BCindex.
    let mut setup_s = Vec::with_capacity(SETUP_LAUNCHES);
    let mut server = None;
    for i in 0..SETUP_LAUNCHES {
        let launched = ServerProc::launch(bcc, &w.graph_path)?;
        let mut conn = Conn::connect(launched.addr)?;
        let reply = conn.round_trip(&w.setup_line);
        setup_s.push(launched.launched.elapsed().as_secs_f64());
        gen0_checks.push((w.setup_line.clone(), reply));
        drop(conn);
        if i + 1 < SETUP_LAUNCHES {
            if let Err(e) = launched.shutdown() {
                tally.record(&e, Verdict::NoReply);
            }
        } else {
            server = Some(launched);
        }
    }
    let server = server.expect("at least one launch");
    let addr = server.addr;

    let mut conns: Vec<Conn> = (0..w.spec.readers)
        .map(|_| Conn::connect(addr))
        .collect::<Result<_, _>>()?;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&w.warmup)
            .map(|(conn, lines)| s.spawn(move || load::warm(conn, lines)))
            .collect();
        for h in handles {
            gen0_checks.extend(h.join().expect("warm-up thread panicked"));
        }
    });

    let [stats0, metrics0] = snapshot(addr)?;
    let cpu0 = server.cpu_seconds().unwrap_or(f64::NAN);
    let steal0 = client::host_steal_ticks();

    // The read window (and, on rw-x2, the writer running alongside).
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + Duration::from_secs_f64(seconds);
    let concurrent_writer = w.spec.kind == Kind::ReadWrite;
    let (reads, batches): (Vec<Reader>, Result<Vec<Batch>, String>) = std::thread::scope(|s| {
        let writer = concurrent_writer.then(|| {
            s.spawn(|| {
                load::writer(
                    addr,
                    &w.batches,
                    Schedule::Rate(w.spec.commit_rate),
                    t0,
                    Some(end),
                )
            })
        });
        let readers: Vec<_> = conns
            .iter_mut()
            .zip(&w.streams)
            .map(|(conn, lines)| {
                s.spawn(move || {
                    let now = Instant::now();
                    if now < t0 {
                        std::thread::sleep(t0 - now);
                    }
                    load::closed_loop(conn, lines, t0, end, w.spec.think_ms)
                })
            })
            .collect();
        let reads = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        let batches = match writer {
            Some(h) => h.join().expect("writer panicked"),
            None => Ok(Vec::new()),
        };
        (reads, batches)
    });
    let mut batches = batches?;
    let cpu1 = server.cpu_seconds().unwrap_or(f64::NAN);
    if let (Some((stolen0, total0)), Some((stolen1, total1))) = (steal0, client::host_steal_ticks())
    {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the window",
            100.0 * (stolen1 - stolen0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    let [stats1, metrics1] = snapshot(addr)?;
    drop(conns);

    // The x8 workloads' commit phase follows the reads, closed loop on the
    // otherwise idle server.
    if !concurrent_writer {
        batches = load::writer(addr, &w.batches, Schedule::Closed, Instant::now(), None)?;
    }
    let [stats2, metrics2] = snapshot(addr)?;
    let mut control = Conn::connect(addr)?;
    let probe_replies: Vec<Result<String, String>> =
        w.probes.iter().map(|p| control.round_trip(p)).collect();
    let rss_kib = server
        .vm_hwm_kib()
        .ok_or("cannot read the server's VmHWM")?;
    drop(control);
    let slow_lines = server.slow_query_lines();
    if let Err(e) = server.shutdown() {
        tally.record(&e, Verdict::NoReply);
    }

    if let Some(c) = reads.iter().position(|r| r.ran_dry) {
        return Err(format!(
            "stream exhausted: connection {c} sent all {} of its requests before the window \
             closed; the throughput would be under-reported",
            w.streams[c].len()
        ));
    }
    let read_samples: Vec<&Sample> = reads.iter().flat_map(|r| &r.samples).collect();
    let window_s = read_samples
        .iter()
        .map(|s| s.replied.as_secs_f64())
        .fold(seconds, f64::max);
    // Per connection, reads completed per second it was not pausing: the
    // pause is the client's, not the service's.
    let read_qps: f64 = reads
        .iter()
        .map(|r| {
            let completed = r.samples.iter().filter(|s| s.reply.is_ok()).count();
            completed as f64 / (window_s - r.paused.as_secs_f64())
        })
        .sum();

    // Answer checks, outside the timed window.
    check_writes(w, &batches, &mut tally);
    let done = batches.iter().filter(|b| b.commit_reply.is_ok()).count();
    if !concurrent_writer {
        gen0_checks.extend(
            read_samples
                .iter()
                .map(|s| (s.line.clone(), s.reply.clone())),
        );
    }
    let expected = check::answers(
        &w.graph,
        &w.graph_name,
        &gen0_checks
            .iter()
            .map(|(l, _)| l.clone())
            .collect::<Vec<_>>(),
        2,
    );
    let mut verified: HashMap<String, HashSet<String>> = HashMap::new();
    for ((line, reply), expected) in gen0_checks.iter().zip(&expected) {
        let verdict = check::verdict(reply, expected);
        if let (Verdict::Ok, Ok(reply)) = (verdict, reply) {
            verified
                .entry(line.clone())
                .or_default()
                .insert(check::strip_seq(reply));
        }
        tally.record(line, verdict);
    }
    let stale_iterations = if concurrent_writer {
        check_rw_reads(w, &batches, &read_samples, verified, &mut tally)
    } else {
        0
    };
    let final_graph = graph_after(&w.graph, &w.batches, done);
    let probe_expected = check::answers(&final_graph, &w.graph_name, &w.probes, 2);
    for ((line, reply), expected) in w.probes.iter().zip(&probe_replies).zip(&probe_expected) {
        tally.record(line, check::verdict(reply, expected));
    }

    let mut latencies: Vec<f64> = read_samples
        .iter()
        .map(|s| load::millis(s.latency()))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mut commits: Vec<f64> = batches.iter().map(|b| load::millis(b.latency())).collect();
    commits.sort_by(f64::total_cmp);
    let cache = |key| {
        check::json_u64(&stats1, &[key]).unwrap_or(0)
            - check::json_u64(&stats0, &[key]).unwrap_or(0)
    };
    println!(
        "reads: {} in {:.3} s over {} connection(s), {:.3} s of it pausing, cache hits {} \
         misses {}; commits: {} batches of {} flips; retained replies with a stale \
         `iterations`: {stale_iterations}; slow-query log lines: {slow_lines}",
        read_samples.len(),
        window_s,
        w.spec.readers,
        reads.iter().map(|r| r.paused.as_secs_f64()).sum::<f64>(),
        cache("cache_hits"),
        cache("cache_misses"),
        batches.len(),
        crate::workload::FLIPS_PER_BATCH,
    );
    for (what, n) in [
        ("read latency", latencies.len()),
        ("commit latency", commits.len()),
    ] {
        if n < 100 {
            println!("warning: {what} has {n} samples; p90 needs 100 for ten beyond it");
        }
    }
    let metrics = vec![
        Metric::new("setup_s", load::median(&setup_s), "s"),
        Metric::new("throughput_qps", read_qps, "1/s"),
        Metric::new("latency_p50_ms", load::percentile(&latencies, 0.5), "ms"),
        Metric::new("latency_p90_ms", load::percentile(&latencies, 0.9), "ms"),
        Metric::new("commit_p50_ms", load::percentile(&commits, 0.5), "ms"),
        Metric::new("commit_p90_ms", load::percentile(&commits, 0.9), "ms"),
        Metric::new("peak_rss_mb", rss_kib as f64 / 1024.0, "MB"),
    ];
    println!(
        "samples: setup {} launches, latency {} reads, commit {} batches",
        setup_s.len(),
        latencies.len(),
        commits.len()
    );
    Ok(E2e {
        metrics,
        tally,
        reads: read_samples.len(),
        window_s,
        cpu_window_s: cpu1 - cpu0,
        stats: [stats0, stats1, stats2],
        server_metrics: [metrics0, metrics1, metrics2],
        lateness_ms: batches.iter().map(|b| load::millis(b.lateness())).collect(),
        stale_iterations,
    })
}

/// The server's `stats` and `metrics` replies, over a connection of their
/// own that is closed again, so that load never shares the cores with an
/// extra connection.
fn snapshot(addr: SocketAddr) -> Result<[String; 2], String> {
    let mut conn = Conn::connect(addr)?;
    Ok([conn.round_trip("stats")?, conn.round_trip("metrics")?])
}

/// Stage replies must count up, and each commit must report the edge
/// count the client's own bookkeeping predicts.
pub fn check_writes(w: &Workload, batches: &[Batch], tally: &mut Tally) {
    let vertices = w.graph.vertex_count();
    let mut edges = w.graph.edge_count();
    for (batch, flips) in batches.iter().zip(&w.batches) {
        for (i, (reply, flip)) in batch.stage_replies.iter().zip(flips).enumerate() {
            tally.record(
                &flip.line(),
                check::stage_verdict(reply, flip, &w.graph_name, i + 1),
            );
            edges = if flip.insert { edges + 1 } else { edges - 1 };
        }
        let v = check::commit_verdict(
            &batch.commit_reply,
            &w.graph_name,
            flips.len(),
            vertices,
            edges,
        );
        tally.record("commit", v);
    }
}

/// A read racing commits may see any generation live between its send and
/// its reply: generation `g` counts the commits that completed before the
/// send (low end) or were sent before the reply (high end).
///
/// One discrepancy is tolerated and counted, not failed: a cache entry the
/// service retained across a commit repeats, byte for byte, an answer that
/// was verified when it was computed, and differs from the live
/// generation's reference only in `iterations` (the peel's iteration count
/// can move when a flip lands in the candidate but outside the community).
/// Returns how many replies were such stale-iteration repeats.
fn check_rw_reads(
    w: &Workload,
    batches: &[Batch],
    reads: &[&Sample],
    mut verified: HashMap<String, HashSet<String>>,
    tally: &mut Tally,
) -> usize {
    let ranges: Vec<(usize, usize)> = reads
        .iter()
        .map(|s| {
            let lo = batches
                .iter()
                .filter(|b| b.commit_replied <= s.sent)
                .count();
            let hi = batches
                .iter()
                .filter(|b| b.commit_sent <= s.replied)
                .count();
            (lo, hi)
        })
        .collect();
    let mut needs: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (s, &(lo, hi)) in reads.iter().zip(&ranges) {
        for g in lo..=hi {
            needs.entry(g).or_default().insert(s.line.clone());
        }
    }
    let expected = check::generation_answers(&w.graph, &w.batches, &w.graph_name, &needs, 2);
    let mut stale = 0;
    for (s, &(lo, hi)) in reads.iter().zip(&ranges) {
        let wanted: Vec<&String> = (lo..=hi).map(|g| &expected[&(g, s.line.clone())]).collect();
        let mut verdict = wanted
            .iter()
            .map(|e| check::verdict(&s.reply, e))
            .min()
            .unwrap_or(Verdict::Mismatch);
        if let Ok(reply) = &s.reply {
            let reply = check::strip_seq(reply);
            if verdict == Verdict::Ok {
                verified.entry(s.line.clone()).or_default().insert(reply);
            } else if verdict == Verdict::Mismatch
                && verified
                    .get(&s.line)
                    .is_some_and(|seen| seen.contains(&reply))
                && wanted.iter().any(|e| {
                    check::without_iterations(&reply)
                        == check::without_iterations(&check::strip_seq(e))
                })
            {
                verdict = Verdict::Ok;
                stale += 1;
            }
        }
        tally.record(&s.line, verdict);
    }
    stale
}
