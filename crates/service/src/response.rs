//! Query responses and their one-line JSON serialization.
//!
//! The serialized form is **deterministic**: it carries no wall times and
//! no cache metadata, so the same request against the same graph snapshot
//! produces byte-identical lines regardless of worker count, cache state,
//! or scheduling. (Hit rates and latency live in the `stats` line instead.)
//! JSON is hand-rolled — this workspace builds without serde (see
//! `vendor/README.md`); the only subtlety is string escaping.

use std::time::Duration;

use crate::request::{Method, RequestError};

/// A successful search, reduced to its deterministic, cacheable core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Community vertex ids, sorted ascending.
    pub community: Vec<u32>,
    /// Query distance of the answer (Definition 5).
    pub query_distance: u32,
    /// Peeling iterations the search performed.
    pub iterations: usize,
    /// Leader vertices, sorted ascending (one per query label).
    pub leaders: Vec<u32>,
    /// Effective per-query-vertex core parameters, aligned with the
    /// normalized (sorted) query vertex order.
    pub ks: Vec<u32>,
    /// Effective butterfly threshold.
    pub b: u64,
    /// Per-label-pair sub-query results for scattered msearch (m > 2).
    /// Empty for pair searches and 2-vertex msearch; empty = omitted from
    /// the serialized line, so historical response bytes are unchanged.
    pub pairs: Vec<PairOutcome>,
}

/// One label-pair sub-query's result inside a scattered msearch response:
/// the partial-failure surface. A failed pair appears as a structured
/// error *inside* the `ok:true` response — a scattered msearch never turns
/// one slow or unsatisfiable pair into a whole-request failure as long as
/// the assembly succeeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairOutcome {
    /// Left query vertex id (normalized order; `ql < qr`).
    pub ql: u32,
    /// Right query vertex id.
    pub qr: u32,
    /// The pair community's members on success (not serialized — kept for
    /// commit-time cache invalidation scoping), or the structured error.
    pub result: Result<Vec<u32>, RequestError>,
}

impl PairOutcome {
    /// The deterministic `{"ql":..,"qr":..,...}` object form.
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(48);
        out.push_str("{\"ql\":");
        out.push_str(&self.ql.to_string());
        out.push_str(",\"qr\":");
        out.push_str(&self.qr.to_string());
        match &self.result {
            Ok(members) => {
                out.push_str(",\"ok\":true,\"size\":");
                out.push_str(&members.len().to_string());
            }
            Err(err) => {
                out.push_str(",\"ok\":false");
                push_str_field(&mut out, "error", err.kind.as_str());
                push_str_field(&mut out, "message", &err.message);
            }
        }
        out.push('}');
        out
    }
}

/// The service's answer to one request line.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Request sequence number (input order within the session/batch).
    pub seq: u64,
    /// Registry key of the graph that served the request (empty when the
    /// request failed before graph resolution).
    pub graph: String,
    /// Searcher that ran (the request's method even on failure).
    pub method: Method,
    /// The outcome or a structured error.
    pub outcome: Result<QueryOutcome, RequestError>,
    /// Served from the result cache (not serialized — see module docs).
    pub cached: bool,
    /// End-to-end service time (not serialized).
    pub elapsed: Duration,
}

impl QueryResponse {
    /// An error response.
    pub fn error(seq: u64, graph: &str, method: Method, err: RequestError) -> Self {
        QueryResponse {
            seq,
            graph: graph.to_owned(),
            method,
            outcome: Err(err),
            cached: false,
            elapsed: Duration::ZERO,
        }
    }

    /// True for a successful search.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The deterministic one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        match &self.outcome {
            Ok(outcome) => {
                out.push_str("{\"ok\":true");
                push_field(&mut out, "seq", &self.seq.to_string());
                push_str_field(&mut out, "graph", &self.graph);
                push_str_field(&mut out, "method", self.method.as_str());
                push_field(&mut out, "size", &outcome.community.len().to_string());
                push_field(&mut out, "query_distance", &outcome.query_distance.to_string());
                push_field(&mut out, "iterations", &outcome.iterations.to_string());
                push_field(&mut out, "ks", &u32_array(&outcome.ks));
                push_field(&mut out, "b", &outcome.b.to_string());
                push_field(&mut out, "leaders", &u32_array(&outcome.leaders));
                push_field(&mut out, "community", &u32_array(&outcome.community));
                if !outcome.pairs.is_empty() {
                    let mut pairs = String::with_capacity(outcome.pairs.len() * 32 + 2);
                    pairs.push('[');
                    for (i, p) in outcome.pairs.iter().enumerate() {
                        if i > 0 {
                            pairs.push(',');
                        }
                        pairs.push_str(&p.to_json());
                    }
                    pairs.push(']');
                    push_field(&mut out, "pairs", &pairs);
                }
                out.push('}');
            }
            Err(err) => {
                out.push_str("{\"ok\":false");
                push_field(&mut out, "seq", &self.seq.to_string());
                if !self.graph.is_empty() {
                    push_str_field(&mut out, "graph", &self.graph);
                }
                push_str_field(&mut out, "error", err.kind.as_str());
                push_str_field(&mut out, "message", &err.message);
                out.push('}');
            }
        }
        out
    }
}

/// `,"key":value` (raw value — number or array).
fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
}

/// `,"key":"escaped string"`.
fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    bcc_graph::json::push_json_string(out, value);
}

/// The workspace-wide JSON string escaper (`bcc_graph::json`), re-exported
/// where the service historically kept its private copy.
pub(crate) use bcc_graph::json::json_string;

fn u32_array(values: &[u32]) -> String {
    let mut out = String::with_capacity(values.len() * 4 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// What a successful mutation line reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateOutcome {
    /// An `add_edge`/`remove_edge` line staged a change; `pending` counts
    /// the changes now staged for the graph.
    Staged {
        /// Staged-but-uncommitted changes for this graph.
        pending: usize,
    },
    /// A `commit` line applied the staged batch.
    Committed(CommitSummary),
}

/// The deterministic payload of a `commit` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitSummary {
    /// Edge changes applied.
    pub applied: usize,
    /// Vertex count of the new snapshot.
    pub vertices: usize,
    /// Edge count of the new snapshot.
    pub edges: usize,
    /// True when the BCindex was patched in place (it had been built);
    /// false when the new snapshot starts with a lazily-unbuilt index.
    pub index_patched: bool,
    /// Result-cache entries invalidated (their community or query touched
    /// the mutation).
    pub invalidated: usize,
    /// Warm entries rekeyed to the new snapshot generation (still hits).
    pub retained: usize,
}

/// The service's answer to one mutation line. Serialization carries no
/// timings — like [`QueryResponse`], the bytes are deterministic.
#[derive(Clone, Debug)]
pub struct MutateResponse {
    /// The protocol verb (`add_edge` / `remove_edge` / `commit`).
    pub op: &'static str,
    /// Registry key (empty when the request failed before resolution).
    pub graph: String,
    /// The outcome or a structured error.
    pub outcome: Result<MutateOutcome, RequestError>,
}

impl MutateResponse {
    /// The deterministic one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        match &self.outcome {
            Ok(MutateOutcome::Staged { pending }) => {
                out.push_str("{\"ok\":true");
                push_str_field(&mut out, "op", self.op);
                push_str_field(&mut out, "graph", &self.graph);
                push_field(&mut out, "staged", &pending.to_string());
                out.push('}');
            }
            Ok(MutateOutcome::Committed(summary)) => {
                out.push_str("{\"ok\":true");
                push_str_field(&mut out, "op", self.op);
                push_str_field(&mut out, "graph", &self.graph);
                push_field(&mut out, "applied", &summary.applied.to_string());
                push_field(&mut out, "vertices", &summary.vertices.to_string());
                push_field(&mut out, "edges", &summary.edges.to_string());
                push_field(&mut out, "index_patched", if summary.index_patched { "true" } else { "false" });
                push_field(&mut out, "invalidated", &summary.invalidated.to_string());
                push_field(&mut out, "retained", &summary.retained.to_string());
                out.push('}');
            }
            Err(err) => {
                out.push_str("{\"ok\":false");
                push_str_field(&mut out, "op", self.op);
                if !self.graph.is_empty() {
                    push_str_field(&mut out, "graph", &self.graph);
                }
                push_str_field(&mut out, "error", err.kind.as_str());
                push_str_field(&mut out, "message", &err.message);
                out.push('}');
            }
        }
        out
    }
}

/// Converts a `BccResult` into the deterministic outcome form.
pub fn outcome_from_result(result: &bcc_core::BccResult, ks: &[u32], b: u64) -> QueryOutcome {
    let mut leaders: Vec<u32> = result.leaders.iter().map(|v| v.0).collect();
    leaders.sort_unstable();
    QueryOutcome {
        community: result.community.iter().map(|v| v.0).collect(),
        query_distance: result.query_distance,
        iterations: result.iterations,
        leaders,
        ks: ks.to_vec(),
        b,
        pairs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_json_shape() {
        let response = QueryResponse {
            seq: 3,
            graph: "g".into(),
            method: Method::Lp,
            outcome: Ok(QueryOutcome {
                community: vec![0, 1, 4],
                query_distance: 2,
                iterations: 5,
                leaders: vec![0, 4],
                ks: vec![3, 2],
                b: 1,
                pairs: Vec::new(),
            }),
            cached: true,
            elapsed: Duration::from_millis(7),
        };
        assert_eq!(
            response.to_json(),
            "{\"ok\":true,\"seq\":3,\"graph\":\"g\",\"method\":\"lp\",\"size\":3,\
             \"query_distance\":2,\"iterations\":5,\"ks\":[3,2],\"b\":1,\
             \"leaders\":[0,4],\"community\":[0,1,4]}"
        );
        // Determinism: cached/elapsed never leak into the serialized line.
        assert!(!response.to_json().contains("cached"));
        assert!(!response.to_json().contains("elapsed"));
    }

    #[test]
    fn pairs_section_serializes_after_community() {
        let response = QueryResponse {
            seq: 0,
            graph: "g".into(),
            method: Method::Lp,
            outcome: Ok(QueryOutcome {
                community: vec![0, 1, 4],
                query_distance: 2,
                iterations: 5,
                leaders: vec![0, 4],
                ks: vec![3, 2],
                b: 1,
                pairs: vec![
                    PairOutcome { ql: 0, qr: 4, result: Ok(vec![0, 1, 4]) },
                    PairOutcome {
                        ql: 0,
                        qr: 9,
                        result: Err(RequestError {
                            kind: crate::request::ErrorKind::Search,
                            message: "no butterflies".into(),
                        }),
                    },
                ],
            }),
            cached: false,
            elapsed: Duration::ZERO,
        };
        let json = response.to_json();
        assert!(json.ends_with(
            "\"community\":[0,1,4],\"pairs\":[{\"ql\":0,\"qr\":4,\"ok\":true,\"size\":3},\
             {\"ql\":0,\"qr\":9,\"ok\":false,\"error\":\"search\",\
             \"message\":\"no butterflies\"}]}"
        ), "{json}");
        // The pair members themselves never serialize (invalidation-only).
        assert_eq!(json.matches("[0,1,4]").count(), 1);
    }

    #[test]
    fn error_json_shape() {
        let response = QueryResponse::error(
            9,
            "",
            Method::Online,
            RequestError::parse("bad \"input\"\nline"),
        );
        assert_eq!(
            response.to_json(),
            "{\"ok\":false,\"seq\":9,\"error\":\"parse\",\
             \"message\":\"bad \\\"input\\\"\\nline\"}"
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\u{1}"), "\"a\\\"b\\\\c\\u0001\"");
    }

    #[test]
    fn mutate_json_shapes() {
        let staged = MutateResponse {
            op: "add_edge",
            graph: "g".into(),
            outcome: Ok(MutateOutcome::Staged { pending: 2 }),
        };
        assert_eq!(
            staged.to_json(),
            "{\"ok\":true,\"op\":\"add_edge\",\"graph\":\"g\",\"staged\":2}"
        );
        let committed = MutateResponse {
            op: "commit",
            graph: "g".into(),
            outcome: Ok(MutateOutcome::Committed(CommitSummary {
                applied: 2,
                vertices: 8,
                edges: 17,
                index_patched: true,
                invalidated: 1,
                retained: 3,
            })),
        };
        assert_eq!(
            committed.to_json(),
            "{\"ok\":true,\"op\":\"commit\",\"graph\":\"g\",\"applied\":2,\
             \"vertices\":8,\"edges\":17,\"index_patched\":true,\
             \"invalidated\":1,\"retained\":3}"
        );
        let failed = MutateResponse {
            op: "remove_edge",
            graph: "hostile\"name".into(),
            outcome: Err(RequestError::mutate("edge {v0, v1} does not exist")),
        };
        assert_eq!(
            failed.to_json(),
            "{\"ok\":false,\"op\":\"remove_edge\",\"graph\":\"hostile\\\"name\",\
             \"error\":\"mutate\",\"message\":\"edge {v0, v1} does not exist\"}"
        );
    }
}
