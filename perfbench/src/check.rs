//! Answer checking against a sequential in-process reference: a cold
//! `BccService` with one worker, `query_threads 1` and the cache off, run
//! outside the timed window.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bcc_graph::LabeledGraph;
use bcc_service::{BccService, LineOutcome, ServiceConfig};

use crate::workload::{graph_after, Flip};

/// Why an operation failed (`Ok` when it did not).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    NoReply,
    Malformed,
    Internal,
    Timeout,
    Overloaded,
    Mismatch,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::NoReply => "no reply",
            Verdict::Malformed => "malformed line",
            Verdict::Internal => "internal",
            Verdict::Timeout => "timeout",
            Verdict::Overloaded => "overloaded",
            Verdict::Mismatch => "answer differs from the reference",
        }
    }
}

/// The reply's shape alone: transport and server-side failures. An
/// `ok:false` search error is an answer, not a failure.
pub fn shape(reply: &Result<String, String>) -> Result<&str, Verdict> {
    let reply = reply.as_deref().map_err(|_| Verdict::NoReply)?;
    if !(reply.starts_with("{\"ok\":") && reply.ends_with('}')) {
        return Err(Verdict::Malformed);
    }
    for (kind, verdict) in [
        ("internal", Verdict::Internal),
        ("timeout", Verdict::Timeout),
        ("overloaded", Verdict::Overloaded),
    ] {
        if reply.contains(&format!("\"error\":\"{kind}\""))
            || reply.contains(&format!("\"kind\":\"{kind}\""))
        {
            return Err(verdict);
        }
    }
    Ok(reply)
}

/// Compares a reply with the reference answer, ignoring `seq`.
pub fn verdict(reply: &Result<String, String>, expected: &str) -> Verdict {
    match shape(reply) {
        Err(v) => v,
        Ok(reply) if strip_seq(reply) == strip_seq(expected) => Verdict::Ok,
        Ok(_) => Verdict::Mismatch,
    }
}

/// The reply without its `"seq":N,` field.
pub fn strip_seq(line: &str) -> String {
    let Some(start) = line.find("\"seq\":") else {
        return line.to_string();
    };
    let digits = line[start + 6..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    let mut end = start + 6 + digits;
    if line[end..].starts_with(',') {
        end += 1;
    }
    format!("{}{}", &line[..start], &line[end..])
}

/// The reply with its `"iterations":N` value blanked.
pub fn without_iterations(line: &str) -> String {
    let Some(start) = line.find("\"iterations\":") else {
        return line.to_string();
    };
    let from = start + 13;
    let digits = line[from..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}_{}", &line[..from], &line[from + digits..])
}

fn reference_service(graph: LabeledGraph, name: &str) -> BccService {
    BccService::with_graph(
        ServiceConfig {
            workers: 1,
            cache_capacity: 0,
            query_threads: 1,
            index_threads: 1,
            default_graph: name.to_string(),
            ..ServiceConfig::default()
        },
        graph,
    )
}

fn answer(service: &BccService, line: &str) -> String {
    match service.process_line(line) {
        LineOutcome::Output(out) => out,
        other => panic!("request line `{line}` produced {other:?}"),
    }
}

/// Reference answers for `lines` on `graph`, split across `threads`
/// reference services (each one worker, sequential, cache off).
pub fn answers(graph: &LabeledGraph, name: &str, lines: &[String], threads: usize) -> Vec<String> {
    let threads = threads.clamp(1, lines.len().max(1));
    let mut out = vec![String::new(); lines.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let service = reference_service(graph.clone(), name);
                    (t..lines.len())
                        .step_by(threads)
                        .map(|i| (i, answer(&service, &lines[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, line) in handle.join().expect("reference thread panicked") {
                out[i] = line;
            }
        }
    });
    out
}

/// Reference answers per graph generation: generation `g` is the base
/// graph after the first `g` writer batches, built independently of the
/// server's commit path. `needs` maps each generation to the lines asked
/// of it.
pub fn generation_answers(
    base: &LabeledGraph,
    batches: &[Vec<Flip>],
    name: &str,
    needs: &BTreeMap<usize, BTreeSet<String>>,
    threads: usize,
) -> HashMap<(usize, String), String> {
    let gens: Vec<(&usize, &BTreeSet<String>)> = needs.iter().collect();
    let threads = threads.clamp(1, gens.len().max(1));
    let mut out = HashMap::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let gens = &gens;
                s.spawn(move || {
                    let mut answered = Vec::new();
                    for &(&g, lines) in gens.iter().skip(t).step_by(threads) {
                        let service = reference_service(graph_after(base, batches, g), name);
                        for line in lines {
                            answered.push(((g, line.clone()), answer(&service, line)));
                        }
                    }
                    answered
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("reference thread panicked"));
        }
    });
    out
}

/// The exact replies a stage line and a commit must produce. A commit's
/// `invalidated`/`retained` counts depend on what the cache held, so only
/// their presence is checked.
pub fn stage_verdict(
    reply: &Result<String, String>,
    flip: &Flip,
    graph: &str,
    staged: usize,
) -> Verdict {
    let op = if flip.insert {
        "add_edge"
    } else {
        "remove_edge"
    };
    verdict(
        reply,
        &format!("{{\"ok\":true,\"op\":\"{op}\",\"graph\":\"{graph}\",\"staged\":{staged}}}"),
    )
}

pub fn commit_verdict(
    reply: &Result<String, String>,
    graph: &str,
    applied: usize,
    vertices: usize,
    edges: usize,
) -> Verdict {
    let reply = match shape(reply) {
        Err(v) => return v,
        Ok(reply) => reply,
    };
    let expected = format!(
        "{{\"ok\":true,\"op\":\"commit\",\"graph\":\"{graph}\",\"applied\":{applied},\
         \"vertices\":{vertices},\"edges\":{edges},\"index_patched\":true,\"invalidated\":"
    );
    let tail_ok = reply
        .strip_prefix(&expected)
        .and_then(|rest| rest.split_once(",\"retained\":"))
        .is_some_and(|(inv, ret)| {
            inv.parse::<u64>().is_ok()
                && ret
                    .strip_suffix('}')
                    .is_some_and(|r| r.parse::<u64>().is_ok())
        });
    if tail_ok {
        Verdict::Ok
    } else {
        Verdict::Mismatch
    }
}

/// Reads the unsigned integer after the key path `keys` (each key searched
/// after the previous one) in a one-line JSON reply.
pub fn json_u64(line: &str, keys: &[&str]) -> Option<u64> {
    let mut at = 0;
    for key in keys {
        let pat = format!("\"{key}\":");
        at += line[at..].find(&pat)? + pat.len();
    }
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
