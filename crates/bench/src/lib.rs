//! Shared experiment harness for the benchmark binaries.
//!
//! Every `src/bin/*` binary reproduces one table or figure of the paper's
//! Section 8. This library holds the common machinery: network
//! preparation (graph + all indices), the five evaluated methods (PSA, CTC,
//! Online-BCC, LP-BCC, L2P-BCC), the per-query runner, and workload
//! evaluation (queries run one after another, so the reported numbers are
//! single-threaded latencies, as in the paper).

use std::time::{Duration, Instant};

use bcc_baselines::{CtcIndex, CtcSearch, PsaSearch};
use bcc_core::{
    BccIndex, BccParams, BccQuery, L2pBcc, LpBcc, MbccParams, MbccQuery, MultiLabelBcc,
    MultiStrategy, OnlineBcc, SearchStats,
};
use bcc_datasets::queries::CommunityQuery;
use bcc_datasets::{NetworkSpec, PlantedNetwork};
use bcc_eval::MethodAggregate;
use bcc_graph::{GraphView, VertexId};

/// The five evaluated methods, in the paper's legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Progressive minimum k-core search \[23\].
    Psa,
    /// Closest truss community \[20\].
    Ctc,
    /// Algorithm 1.
    OnlineBcc,
    /// Algorithm 1 + Algorithms 5–7.
    LpBcc,
    /// LP + index-based local exploration (Algorithm 8).
    L2pBcc,
}

impl Method {
    /// All five methods in paper order.
    pub fn all() -> [Method; 5] {
        [
            Method::Psa,
            Method::Ctc,
            Method::OnlineBcc,
            Method::LpBcc,
            Method::L2pBcc,
        ]
    }

    /// The three BCC variants only (Figures 6–10).
    pub fn bcc_only() -> [Method; 3] {
        [Method::OnlineBcc, Method::LpBcc, Method::L2pBcc]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Psa => "PSA",
            Method::Ctc => "CTC",
            Method::OnlineBcc => "Online-BCC",
            Method::LpBcc => "LP-BCC",
            Method::L2pBcc => "L2P-BCC",
        }
    }
}

/// A network with every per-graph index the methods need, built once per
/// experiment.
pub struct PreparedNetwork {
    /// Display name (paper's network name).
    pub name: String,
    /// The generated network + ground truth.
    pub net: PlantedNetwork,
    /// BCindex for L2P-BCC (label coreness + butterfly degrees).
    pub index: BccIndex,
    /// Truss decomposition for CTC.
    pub ctc_index: CtcIndex,
    /// Label-blind coreness for PSA.
    pub coreness: Vec<u32>,
}

impl PreparedNetwork {
    /// Builds the network and all indices.
    pub fn prepare(spec: &NetworkSpec) -> Self {
        let net = spec.build();
        let index = BccIndex::build(&net.graph);
        let ctc_index = CtcIndex::build(&net.graph);
        let coreness = bcc_cohesion::core_decomposition(&GraphView::new(&net.graph));
        PreparedNetwork {
            name: spec.name.to_string(),
            net,
            index,
            ctc_index,
            coreness,
        }
    }

    /// The paper's default `(k1, k2, b)` for a query pair: per-label
    /// coreness of the query vertices and b = 1.
    pub fn default_params(&self, query: &CommunityQuery) -> BccParams {
        BccParams {
            k1: self.index.coreness(query.vertices[0]),
            k2: self.index.coreness(query.vertices[1]),
            b: 1,
        }
    }
}

/// Parameter overrides for the sweep experiments (Figures 8–9).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParamOverride {
    /// Fix both k1 and k2 to this value (Figure 8).
    pub k: Option<u32>,
    /// Fix b to this value (Figure 9).
    pub b: Option<u64>,
}

/// Outcome of one method on one query.
pub struct QueryOutcome {
    /// The community (None if the method failed / found nothing).
    pub community: Option<Vec<VertexId>>,
    /// Wall time of the search call.
    pub elapsed: Duration,
    /// Instrumentation (BCC methods only).
    pub stats: Option<SearchStats>,
}

/// Runs `method` on one query pair with the paper's default parameters
/// (plus overrides).
pub fn run_query(
    prepared: &PreparedNetwork,
    method: Method,
    query: &CommunityQuery,
    overrides: ParamOverride,
) -> QueryOutcome {
    let graph = &prepared.net.graph;
    let mut params = prepared.default_params(query);
    if let Some(k) = overrides.k {
        params.k1 = k;
        params.k2 = k;
    }
    if let Some(b) = overrides.b {
        params.b = b;
    }
    let pair = BccQuery::pair(query.vertices[0], query.vertices[1]);
    let start = Instant::now();
    match method {
        Method::Psa => {
            let result =
                PsaSearch::default().search_with_coreness(graph, &prepared.coreness, &query.vertices);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.ok().map(|r| r.community),
                stats: None,
            }
        }
        Method::Ctc => {
            let result = CtcSearch::default().search(graph, &prepared.ctc_index, &query.vertices);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.ok().map(|r| r.community),
                stats: None,
            }
        }
        Method::OnlineBcc => {
            let result = OnlineBcc::default().search(graph, &pair, &params);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.as_ref().ok().map(|r| r.community.clone()),
                stats: result.ok().map(|r| r.stats),
            }
        }
        Method::LpBcc => {
            let result = LpBcc::default().search(graph, &pair, &params);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.as_ref().ok().map(|r| r.community.clone()),
                stats: result.ok().map(|r| r.stats),
            }
        }
        Method::L2pBcc => {
            let result = L2pBcc::default().search(graph, &prepared.index, &pair, &params);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.as_ref().ok().map(|r| r.community.clone()),
                stats: result.ok().map(|r| r.stats),
            }
        }
    }
}

/// Runs an mBCC method on a multi-label query with the paper's defaults
/// (k_i = per-label coreness of q_i, b = 1). CTC/PSA take the query set
/// label-blind.
pub fn run_mbcc_query(
    prepared: &PreparedNetwork,
    method: Method,
    query: &CommunityQuery,
) -> QueryOutcome {
    let graph = &prepared.net.graph;
    let mquery = MbccQuery::new(query.vertices.clone());
    let mparams = MbccParams {
        ks: query
            .vertices
            .iter()
            .map(|&q| prepared.index.coreness(q).max(1))
            .collect(),
        b: 1,
    };
    let start = Instant::now();
    match method {
        Method::Psa => {
            let result =
                PsaSearch::default().search_with_coreness(graph, &prepared.coreness, &query.vertices);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.ok().map(|r| r.community),
                stats: None,
            }
        }
        Method::Ctc => {
            let result = CtcSearch::default().search(graph, &prepared.ctc_index, &query.vertices);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.ok().map(|r| r.community),
                stats: None,
            }
        }
        Method::OnlineBcc | Method::LpBcc | Method::L2pBcc => {
            let searcher = match method {
                Method::OnlineBcc => MultiLabelBcc::with_strategy(MultiStrategy::Online),
                Method::LpBcc => MultiLabelBcc::with_strategy(MultiStrategy::LeaderPair),
                _ => MultiLabelBcc::with_strategy(MultiStrategy::Local {
                    eta: 2048,
                    weights: Default::default(),
                }),
            };
            let result = searcher.search(graph, Some(&prepared.index), &mquery, &mparams);
            QueryOutcome {
                elapsed: start.elapsed(),
                community: result.as_ref().ok().map(|r| r.community.clone()),
                stats: result.ok().map(|r| r.stats),
            }
        }
    }
}

/// Evaluates one method over a workload, in parallel across queries.
/// Returns the aggregate plus the summed search stats (BCC methods).
pub fn evaluate_method(
    prepared: &PreparedNetwork,
    method: Method,
    queries: &[CommunityQuery],
    overrides: ParamOverride,
    multi_label: bool,
) -> (MethodAggregate, SearchStats) {
    let partials: Vec<(MethodAggregate, SearchStats)> = queries
        .iter()
        .map(|q| {
            let outcome = if multi_label {
                run_mbcc_query(prepared, method, q)
            } else {
                run_query(prepared, method, q, overrides)
            };
            let mut agg = MethodAggregate::default();
            let mut stats = SearchStats::default();
            match &outcome.community {
                Some(community) => {
                    let truth = prepared.net.community(q.community);
                    // For multi-label queries the target is the queried
                    // label groups of the community, not every group it has
                    // (an m = 2 query over a 6-group community asks for 2
                    // teams). Pair queries on 2-group communities are
                    // unaffected.
                    let f1 = if multi_label {
                        let graph = &prepared.net.graph;
                        let allowed: Vec<_> =
                            q.vertices.iter().map(|&v| graph.label(v)).collect();
                        let filtered: Vec<VertexId> = truth
                            .iter()
                            .copied()
                            .filter(|&v| allowed.contains(&graph.label(v)))
                            .collect();
                        bcc_eval::f1_score(community, &filtered)
                    } else {
                        bcc_eval::f1_score(community, truth)
                    };
                    agg.record_success(f1, outcome.elapsed, community.len());
                }
                None => agg.record_failure(outcome.elapsed),
            }
            if let Some(s) = &outcome.stats {
                stats.merge(s);
            }
            (agg, stats)
        })
        .collect();
    let mut agg = MethodAggregate::default();
    let mut stats = SearchStats::default();
    for (a, s) in partials {
        agg.f1_sum += a.f1_sum;
        agg.time_sum += a.time_sum;
        agg.queries += a.queries;
        agg.successes += a.successes;
        agg.size_sum += a.size_sum;
        stats.merge(&s);
    }
    (agg, stats)
}

/// Tiny CLI argument helper shared by the binaries: `--key value` flags.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name` parsed as `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Presence of a bare `--name` flag.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Default workload size for quality/efficiency experiments. The paper uses
/// 1000 random queries; the laptop-scale default is smaller and can be
/// raised via `--queries`.
pub const DEFAULT_QUERIES: usize = 40;

/// Default scale multiplier for the seven networks.
pub const DEFAULT_SCALE: f64 = 1.0;

/// Runs one case study (Exps 6–8): LP-BCC with `b` and k = the queries'
/// label coreness, versus CTC, printing both communities grouped by label.
pub fn case_study_compare(
    graph: &bcc_graph::LabeledGraph,
    title: &str,
    ql_name: &str,
    qr_name: &str,
    b: u64,
) {
    let ql = graph
        .vertex_by_name(ql_name)
        .unwrap_or_else(|| panic!("{ql_name} not in graph"));
    let qr = graph
        .vertex_by_name(qr_name)
        .unwrap_or_else(|| panic!("{qr_name} not in graph"));
    let index = BccIndex::build(graph);
    let params = BccParams {
        k1: index.coreness(ql),
        k2: index.coreness(qr),
        b,
    };
    println!("== {title}");
    println!(
        "Query: {{\"{ql_name}\" [{}], \"{qr_name}\" [{}]}}, k1={}, k2={}, b={b}",
        graph.interner().name(graph.label(ql)).unwrap_or("?"),
        graph.interner().name(graph.label(qr)).unwrap_or("?"),
        params.k1,
        params.k2,
    );
    let pair = BccQuery::pair(ql, qr);
    match LpBcc::default().search(graph, &pair, &params) {
        Ok(result) => {
            println!(
                "-- BCC community ({} members, query distance {}):",
                result.community.len(),
                result.query_distance
            );
            print_by_label(graph, &result.community);
        }
        Err(e) => println!("-- BCC search failed: {e}"),
    }
    let ctc_index = CtcIndex::build(graph);
    match CtcSearch::default().search(graph, &ctc_index, &[ql, qr]) {
        Ok(result) => {
            println!("-- CTC community ({} members):", result.community.len());
            print_by_label(graph, &result.community);
        }
        Err(e) => println!("-- CTC search failed: {e:?}"),
    }
    println!();
}

/// Prints community members grouped by label.
pub fn print_by_label(graph: &bcc_graph::LabeledGraph, community: &[VertexId]) {
    let mut by_label: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
    for &v in community {
        by_label
            .entry(graph.label(v).0)
            .or_default()
            .push(graph.vertex_name(v));
    }
    for (label, mut names) in by_label {
        names.sort();
        let label_name = graph
            .interner()
            .name(bcc_graph::Label(label))
            .unwrap_or("?")
            .to_string();
        println!("   [{label_name}] {}", names.join(", "));
    }
}

/// One network's results across all five methods (Figures 4 and 5 come
/// from the same pass).
pub struct SuiteRow {
    /// Network display name.
    pub network: String,
    /// `(method, aggregate, summed stats)` per method in paper order.
    pub per_method: Vec<(Method, MethodAggregate, SearchStats)>,
}

/// Runs the Exp-1/Exp-2 suite: all five methods over random ground-truth
/// queries on the seven networks.
pub fn run_quality_suite(scale: f64, n_queries: usize, seed: u64) -> Vec<SuiteRow> {
    let mut rows = Vec::new();
    for spec in bcc_datasets::networks::all_two_label(scale) {
        let prepared = PreparedNetwork::prepare(&spec);
        let queries = bcc_datasets::random_community_queries(
            &prepared.net,
            n_queries,
            bcc_datasets::QueryConstraints::default(),
            seed,
        );
        let per_method = Method::all()
            .into_iter()
            .map(|m| {
                let (agg, stats) =
                    evaluate_method(&prepared, m, &queries, ParamOverride::default(), false);
                (m, agg, stats)
            })
            .collect();
        rows.push(SuiteRow {
            network: prepared.name.clone(),
            per_method,
        });
        eprintln!("[suite] {} done ({} queries)", prepared.name, queries.len());
    }
    rows
}
