//! The line-oriented request protocol and its (panic-free) parser.
//!
//! One request per line, `key=value` tokens after the verb:
//!
//! ```text
//! search  ql=<name|id> qr=<name|id> [k1=N] [k2=N] [b=N]
//!         [method=online|lp|l2p] [graph=NAME] [timeout_ms=N]
//!         [priority=low|normal|high]
//! msearch q=<name|id>,<name|id>[,...] [k=N] [b=N]
//!         [method=online|lp|l2p] [graph=NAME] [timeout_ms=N]
//!         [priority=low|normal|high]
//! add_edge    u=<name|id> v=<name|id> [graph=NAME]
//! remove_edge u=<name|id> v=<name|id> [graph=NAME]
//! commit  [graph=NAME]
//! stats
//! graphs
//! quit
//! shutdown
//! ```
//!
//! `add_edge`/`remove_edge` *stage* validated edge changes against a named
//! snapshot; `commit` applies the staged batch, patching the BCindex in
//! place and invalidating only the affected result-cache entries (see
//! [`crate::registry`]).
//!
//! Blank lines and `#` comments are ignored. Every malformed line maps to a
//! structured [`RequestError`] — the parser never panics (enforced by a
//! property test fuzzing arbitrary byte soup).

use bcc_core::MultiStrategy;
use bcc_graph::VertexId;

/// Which searcher executes a request. For multi-label requests the three
/// variants map onto [`MultiStrategy`] (`Online`, `LeaderPair`, `Local`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Algorithm 1 (online greedy).
    Online,
    /// Algorithms 5–7 (leader pairs + fast distances). The default.
    Lp,
    /// Algorithm 8 (index-based local search) — forces the index build.
    L2p,
}

impl Method {
    /// Protocol token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Online => "online",
            Method::Lp => "lp",
            Method::L2p => "l2p",
        }
    }

    /// The multi-label strategy this method selects.
    pub fn multi_strategy(&self) -> MultiStrategy {
        match self {
            Method::Online => MultiStrategy::Online,
            Method::Lp => MultiStrategy::LeaderPair,
            Method::L2p => MultiStrategy::Local {
                eta: 2048,
                weights: Default::default(),
            },
        }
    }

    fn parse(token: &str) -> Result<Method, RequestError> {
        match token {
            "online" => Ok(Method::Online),
            "lp" => Ok(Method::Lp),
            "l2p" => Ok(Method::L2p),
            other => Err(RequestError::parse(format!(
                "unknown method `{other}` (expected online|lp|l2p)"
            ))),
        }
    }
}

/// Admission priority of a request. Priorities only matter where requests
/// compete for execution — the TCP front-end's admission queue dispatches
/// higher priorities first (arrival order breaks ties). The sequential
/// `serve`/`batch` paths accept the key and ignore it, so a line's output
/// bytes never depend on its priority.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Dispatched only when nothing more urgent waits.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Dispatched ahead of normal/low traffic.
    High,
}

impl Priority {
    /// Protocol token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    fn parse(token: &str) -> Result<Priority, RequestError> {
        match token {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(RequestError::parse(format!(
                "unknown priority `{other}` (expected low|normal|high)"
            ))),
        }
    }
}

/// A parsed query request: the two-label pair form or the m-label form.
/// Vertex tokens stay unresolved strings — resolution needs the graph and
/// happens in the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Registry key; `None` = the service's default graph.
    pub graph: Option<String>,
    /// Pair or multi query.
    pub kind: QueryKind,
    /// Searcher selection.
    pub method: Method,
    /// Per-request deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Admission priority (TCP front-end only; see [`Priority`]).
    pub priority: Priority,
}

/// The query shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `search`: a `{q_l, q_r}` pair with optional `(k1, k2, b)` overrides
    /// (defaults: the paper's auto parameterization — query coreness, b=1).
    Pair {
        /// Left query vertex token.
        ql: String,
        /// Right query vertex token.
        qr: String,
        /// `k1` override.
        k1: Option<u32>,
        /// `k2` override.
        k2: Option<u32>,
        /// `b` override.
        b: Option<u64>,
    },
    /// `msearch`: `m ≥ 2` query vertices with a uniform `k` override.
    Multi {
        /// Query vertex tokens.
        qs: Vec<String>,
        /// Uniform `k` override for every label group.
        k: Option<u32>,
        /// `b` override.
        b: Option<u64>,
    },
}

/// A parsed mutation line: stage an edge change or commit the staged batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateRequest {
    /// Registry key; `None` = the service's default graph.
    pub graph: Option<String>,
    /// What to do.
    pub op: MutateOp,
}

/// The three mutation verbs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateOp {
    /// Stage the insertion of edge `{u, v}` (unresolved vertex tokens).
    AddEdge {
        /// One endpoint token.
        u: String,
        /// The other endpoint token.
        v: String,
    },
    /// Stage the removal of edge `{u, v}`.
    RemoveEdge {
        /// One endpoint token.
        u: String,
        /// The other endpoint token.
        v: String,
    },
    /// Apply every staged change: patch the snapshot + index, invalidate
    /// affected cache entries.
    Commit,
}

impl MutateOp {
    /// Protocol verb, echoed back in the response's `"op"` field.
    pub fn verb(&self) -> &'static str {
        match self {
            MutateOp::AddEdge { .. } => "add_edge",
            MutateOp::RemoveEdge { .. } => "remove_edge",
            MutateOp::Commit => "commit",
        }
    }
}

/// One protocol line, parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParsedLine {
    /// A query to execute.
    Request(QueryRequest),
    /// A mutation: stage an edge change or commit the staged batch.
    Mutate(MutateRequest),
    /// `stats` — emit a [`crate::service::ServiceStats`] JSON line.
    Stats,
    /// `graphs` — list registry keys.
    Graphs,
    /// `metrics` — emit the full [`crate::metrics::Metrics`] snapshot as one
    /// deterministic JSON line.
    Metrics,
    /// `quit` — end the session. Over TCP this closes only the issuing
    /// connection; in `bcc serve` (one stdin session) it ends the process.
    Quit,
    /// `shutdown` — stop serving entirely. The TCP server closes every
    /// session and stops accepting; in `bcc serve`/`bcc batch` there is
    /// only one session, so it degenerates to [`ParsedLine::Quit`].
    Shutdown,
    /// Blank line or comment — produce no output.
    Empty,
}

/// Error category, mirrored into the response `"error"` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line did not parse.
    Parse,
    /// A vertex token or graph name did not resolve.
    Resolve,
    /// The search itself failed (`SearchError`).
    Search,
    /// A mutation could not be staged or committed (invalid edge change,
    /// nothing staged, snapshot replaced mid-stage).
    Mutate,
    /// The per-request deadline expired.
    Timeout,
    /// The worker executing the request died.
    Internal,
}

impl ErrorKind {
    /// Protocol token for the `"error"` field.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Resolve => "resolve",
            ErrorKind::Search => "search",
            ErrorKind::Mutate => "mutate",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured request/serving error: category + human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// Category.
    pub kind: ErrorKind,
    /// What went wrong.
    pub message: String,
}

impl RequestError {
    /// A parse-category error.
    pub fn parse(message: impl Into<String>) -> Self {
        RequestError { kind: ErrorKind::Parse, message: message.into() }
    }

    /// A resolve-category error.
    pub fn resolve(message: impl Into<String>) -> Self {
        RequestError { kind: ErrorKind::Resolve, message: message.into() }
    }

    /// A mutate-category error.
    pub fn mutate(message: impl Into<String>) -> Self {
        RequestError { kind: ErrorKind::Mutate, message: message.into() }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for RequestError {}

/// Parses one protocol line. Never panics, whatever the input.
pub fn parse_line(line: &str) -> Result<ParsedLine, RequestError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(ParsedLine::Empty);
    }
    let mut tokens = line.split_whitespace();
    let Some(verb) = tokens.next() else {
        return Ok(ParsedLine::Empty);
    };
    let rest: Vec<&str> = tokens.collect();
    match verb {
        "stats" => expect_bare(verb, &rest, ParsedLine::Stats),
        "graphs" => expect_bare(verb, &rest, ParsedLine::Graphs),
        "metrics" => expect_bare(verb, &rest, ParsedLine::Metrics),
        "quit" | "exit" => expect_bare(verb, &rest, ParsedLine::Quit),
        "shutdown" => expect_bare(verb, &rest, ParsedLine::Shutdown),
        "search" => parse_search(&rest).map(ParsedLine::Request),
        "msearch" => parse_msearch(&rest).map(ParsedLine::Request),
        "add_edge" => parse_edge_mutation(&rest, true).map(ParsedLine::Mutate),
        "remove_edge" => parse_edge_mutation(&rest, false).map(ParsedLine::Mutate),
        "commit" => parse_commit(&rest).map(ParsedLine::Mutate),
        other => Err(RequestError::parse(format!(
            "unknown verb `{other}` (expected search|msearch|add_edge|remove_edge|commit|\
             stats|graphs|metrics|quit|shutdown)"
        ))),
    }
}

fn expect_bare(
    verb: &str,
    rest: &[&str],
    parsed: ParsedLine,
) -> Result<ParsedLine, RequestError> {
    if rest.is_empty() {
        Ok(parsed)
    } else {
        Err(RequestError::parse(format!("`{verb}` takes no arguments")))
    }
}

/// Splits `key=value` tokens, rejecting duplicates and bare words.
struct KeyValues<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KeyValues<'a> {
    fn parse(tokens: &[&'a str]) -> Result<Self, RequestError> {
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(tokens.len());
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(RequestError::parse(format!(
                    "expected key=value, got `{token}`"
                )));
            };
            if key.is_empty() || value.is_empty() {
                return Err(RequestError::parse(format!(
                    "empty key or value in `{token}`"
                )));
            }
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(RequestError::parse(format!("duplicate key `{key}`")));
            }
            pairs.push((key, value));
        }
        Ok(KeyValues { pairs })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let idx = self.pairs.iter().position(|&(k, _)| k == key)?;
        Some(self.pairs.swap_remove(idx).1)
    }

    fn take_num<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, RequestError> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                RequestError::parse(format!("`{key}` must be a non-negative integer, got `{raw}`"))
            }),
        }
    }

    fn finish(self) -> Result<(), RequestError> {
        match self.pairs.first() {
            None => Ok(()),
            Some((key, _)) => Err(RequestError::parse(format!("unknown key `{key}`"))),
        }
    }
}

fn take_common(
    kv: &mut KeyValues<'_>,
) -> Result<(Option<String>, Method, Option<u64>, Priority), RequestError> {
    let graph = kv.take("graph").map(str::to_owned);
    let method = match kv.take("method") {
        Some(token) => Method::parse(token)?,
        None => Method::Lp,
    };
    let timeout_ms = kv.take_num::<u64>("timeout_ms")?;
    let priority = match kv.take("priority") {
        Some(token) => Priority::parse(token)?,
        None => Priority::Normal,
    };
    Ok((graph, method, timeout_ms, priority))
}

fn parse_search(tokens: &[&str]) -> Result<QueryRequest, RequestError> {
    let mut kv = KeyValues::parse(tokens)?;
    let ql = kv
        .take("ql")
        .ok_or_else(|| RequestError::parse("`search` requires ql=<vertex>"))?
        .to_owned();
    let qr = kv
        .take("qr")
        .ok_or_else(|| RequestError::parse("`search` requires qr=<vertex>"))?
        .to_owned();
    let k1 = kv.take_num::<u32>("k1")?;
    let k2 = kv.take_num::<u32>("k2")?;
    let b = kv.take_num::<u64>("b")?;
    let (graph, method, timeout_ms, priority) = take_common(&mut kv)?;
    kv.finish()?;
    Ok(QueryRequest {
        graph,
        kind: QueryKind::Pair { ql, qr, k1, k2, b },
        method,
        timeout_ms,
        priority,
    })
}

fn parse_edge_mutation(tokens: &[&str], insert: bool) -> Result<MutateRequest, RequestError> {
    let verb = if insert { "add_edge" } else { "remove_edge" };
    let mut kv = KeyValues::parse(tokens)?;
    let u = kv
        .take("u")
        .ok_or_else(|| RequestError::parse(format!("`{verb}` requires u=<vertex>")))?
        .to_owned();
    let v = kv
        .take("v")
        .ok_or_else(|| RequestError::parse(format!("`{verb}` requires v=<vertex>")))?
        .to_owned();
    let graph = kv.take("graph").map(str::to_owned);
    kv.finish()?;
    let op = if insert {
        MutateOp::AddEdge { u, v }
    } else {
        MutateOp::RemoveEdge { u, v }
    };
    Ok(MutateRequest { graph, op })
}

fn parse_commit(tokens: &[&str]) -> Result<MutateRequest, RequestError> {
    let mut kv = KeyValues::parse(tokens)?;
    let graph = kv.take("graph").map(str::to_owned);
    kv.finish()?;
    Ok(MutateRequest { graph, op: MutateOp::Commit })
}

fn parse_msearch(tokens: &[&str]) -> Result<QueryRequest, RequestError> {
    let mut kv = KeyValues::parse(tokens)?;
    let qs_raw = kv
        .take("q")
        .ok_or_else(|| RequestError::parse("`msearch` requires q=<v1>,<v2>[,...]"))?;
    let qs: Vec<String> = qs_raw
        .split(',')
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect();
    if qs.len() < 2 {
        return Err(RequestError::parse(
            "`msearch` needs at least two comma-separated query vertices",
        ));
    }
    let k = kv.take_num::<u32>("k")?;
    let b = kv.take_num::<u64>("b")?;
    let (graph, method, timeout_ms, priority) = take_common(&mut kv)?;
    kv.finish()?;
    Ok(QueryRequest {
        graph,
        kind: QueryKind::Multi { qs, k, b },
        method,
        timeout_ms,
        priority,
    })
}

/// A resolved, normalized cache key: `(snapshot generation, method, query
/// vertices with their effective k's, b)`.
///
/// Normalization makes symmetric requests share a slot: the pair
/// `{q_l, q_r}` with `(k1, k2)` and `{q_r, q_l}` with `(k2, k1)` describe
/// the same community, so `(vertex, k)` tuples are sorted by vertex id (the
/// same rule generalizes to m-label queries, whose searcher treats the
/// query set symmetrically up to leader ordering).
///
/// The key carries the entry's process-unique *generation*, not its name:
/// re-registering a graph under an existing name gets a fresh generation,
/// so results computed on the replaced snapshot can never be served for
/// the new one (they stop matching and age out of the LRU).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Process-unique snapshot id ([`crate::GraphEntry::generation`]).
    pub generation: u64,
    /// Searcher.
    pub method: Method,
    /// True for msearch requests (a 2-vertex msearch runs Algorithm 9, not
    /// the pair searcher, so the two must not share cache slots).
    pub multi: bool,
    /// `(vertex, k)` pairs sorted by vertex id.
    pub vertex_ks: Vec<(u32, u32)>,
    /// Butterfly threshold.
    pub b: u64,
}

impl CacheKey {
    /// Builds the normalized key from resolved vertices and effective
    /// per-vertex core parameters (aligned slices).
    pub fn normalized(
        generation: u64,
        method: Method,
        multi: bool,
        vertices: &[VertexId],
        ks: &[u32],
        b: u64,
    ) -> Self {
        debug_assert_eq!(vertices.len(), ks.len());
        let mut vertex_ks: Vec<(u32, u32)> = vertices
            .iter()
            .zip(ks)
            .map(|(v, &k)| (v.0, k))
            .collect();
        vertex_ks.sort_unstable();
        CacheKey {
            generation,
            method,
            multi,
            vertex_ks,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_search() {
        let parsed = parse_line("search ql=alice qr=bob").unwrap();
        let ParsedLine::Request(req) = parsed else { panic!("not a request") };
        assert_eq!(req.method, Method::Lp);
        assert_eq!(req.graph, None);
        assert_eq!(req.timeout_ms, None);
        assert_eq!(
            req.kind,
            QueryKind::Pair {
                ql: "alice".into(),
                qr: "bob".into(),
                k1: None,
                k2: None,
                b: None
            }
        );
    }

    #[test]
    fn parses_full_search() {
        let line = "search ql=0 qr=7 k1=3 k2=2 b=2 method=l2p graph=g timeout_ms=500";
        let ParsedLine::Request(req) = parse_line(line).unwrap() else { panic!() };
        assert_eq!(req.method, Method::L2p);
        assert_eq!(req.graph.as_deref(), Some("g"));
        assert_eq!(req.timeout_ms, Some(500));
        assert_eq!(
            req.kind,
            QueryKind::Pair {
                ql: "0".into(),
                qr: "7".into(),
                k1: Some(3),
                k2: Some(2),
                b: Some(2)
            }
        );
    }

    #[test]
    fn parses_msearch() {
        let ParsedLine::Request(req) =
            parse_line("msearch q=a,b,c k=2 method=online").unwrap()
        else {
            panic!()
        };
        assert_eq!(req.method, Method::Online);
        assert_eq!(
            req.kind,
            QueryKind::Multi {
                qs: vec!["a".into(), "b".into(), "c".into()],
                k: Some(2),
                b: None
            }
        );
    }

    #[test]
    fn parses_mutations() {
        let ParsedLine::Mutate(add) = parse_line("add_edge u=alice v=bob").unwrap() else {
            panic!()
        };
        assert_eq!(add.graph, None);
        assert_eq!(add.op, MutateOp::AddEdge { u: "alice".into(), v: "bob".into() });
        assert_eq!(add.op.verb(), "add_edge");

        let ParsedLine::Mutate(rm) = parse_line("remove_edge u=0 v=7 graph=g").unwrap() else {
            panic!()
        };
        assert_eq!(rm.graph.as_deref(), Some("g"));
        assert_eq!(rm.op, MutateOp::RemoveEdge { u: "0".into(), v: "7".into() });

        let ParsedLine::Mutate(commit) = parse_line("commit").unwrap() else { panic!() };
        assert_eq!(commit.op, MutateOp::Commit);
        let ParsedLine::Mutate(commit) = parse_line("commit graph=g").unwrap() else {
            panic!()
        };
        assert_eq!(commit.graph.as_deref(), Some("g"));
    }

    #[test]
    fn mutation_parse_errors_are_structured() {
        for (line, needle) in [
            ("add_edge u=a", "requires v="),
            ("add_edge v=a", "requires u="),
            ("remove_edge u=a v=b bogus=1", "unknown key"),
            ("remove_edge u=a v=b u=c", "duplicate key"),
            ("commit now", "key=value"),
            ("commit k=3", "unknown key"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Parse, "line: {line}");
            assert!(err.message.contains(needle), "line `{line}`: {}", err.message);
        }
    }

    #[test]
    fn control_lines_and_comments() {
        assert_eq!(parse_line("stats").unwrap(), ParsedLine::Stats);
        assert_eq!(parse_line("graphs").unwrap(), ParsedLine::Graphs);
        assert_eq!(parse_line("metrics").unwrap(), ParsedLine::Metrics);
        assert_eq!(parse_line("quit").unwrap(), ParsedLine::Quit);
        assert_eq!(parse_line("exit").unwrap(), ParsedLine::Quit);
        assert_eq!(parse_line("shutdown").unwrap(), ParsedLine::Shutdown);
        assert_eq!(parse_line("").unwrap(), ParsedLine::Empty);
        assert_eq!(parse_line("   ").unwrap(), ParsedLine::Empty);
        assert_eq!(parse_line("# a comment").unwrap(), ParsedLine::Empty);
    }

    #[test]
    fn parses_priority() {
        let ParsedLine::Request(req) = parse_line("search ql=a qr=b").unwrap() else {
            panic!()
        };
        assert_eq!(req.priority, Priority::Normal);
        let ParsedLine::Request(req) =
            parse_line("search ql=a qr=b priority=high").unwrap()
        else {
            panic!()
        };
        assert_eq!(req.priority, Priority::High);
        let ParsedLine::Request(req) = parse_line("msearch q=a,b priority=low").unwrap()
        else {
            panic!()
        };
        assert_eq!(req.priority, Priority::Low);
        assert!(Priority::High > Priority::Normal && Priority::Normal > Priority::Low);
        let err = parse_line("search ql=a qr=b priority=urgent").unwrap_err();
        assert!(err.message.contains("unknown priority"), "{}", err.message);
        let err = parse_line("shutdown now").unwrap_err();
        assert!(err.message.contains("takes no arguments"), "{}", err.message);
    }

    #[test]
    fn structured_errors() {
        for (line, needle) in [
            ("frobnicate x=1", "unknown verb"),
            ("search ql=a", "requires qr="),
            ("search qr=a", "requires ql="),
            ("search ql=a qr=b k1=potato", "non-negative integer"),
            ("search ql=a qr=b method=quantum", "unknown method"),
            ("search ql=a qr=b ql=c", "duplicate key"),
            ("search ql=a qr=b bogus=1", "unknown key"),
            ("search ql=a qr=b naked", "key=value"),
            ("search ql=", "empty key or value"),
            ("msearch q=a", "at least two"),
            ("msearch q=a,b k=-3", "non-negative integer"),
            ("stats now", "takes no arguments"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Parse, "line: {line}");
            assert!(
                err.message.contains(needle),
                "line `{line}`: message `{}` missing `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn cache_key_symmetric_normalization() {
        let a = CacheKey::normalized(
            7,
            Method::Lp,
            false,
            &[VertexId(3), VertexId(9)],
            &[4, 2],
            1,
        );
        let b = CacheKey::normalized(
            7,
            Method::Lp,
            false,
            &[VertexId(9), VertexId(3)],
            &[2, 4],
            1,
        );
        assert_eq!(a, b, "swapped pair with swapped k's is the same key");
        let c = CacheKey::normalized(
            7,
            Method::Lp,
            false,
            &[VertexId(9), VertexId(3)],
            &[4, 2],
            1,
        );
        assert_ne!(a, c, "different k assignment is a different key");
        let d = CacheKey::normalized(
            7,
            Method::Lp,
            true,
            &[VertexId(3), VertexId(9)],
            &[4, 2],
            1,
        );
        assert_ne!(a, d, "msearch and search never share slots");
    }

    #[test]
    fn error_display() {
        let err = RequestError::parse("nope");
        assert_eq!(err.to_string(), "parse: nope");
    }
}
