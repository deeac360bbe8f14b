//! Ablation study for the Section 6 design choices (beyond the paper's own
//! Table 4): isolates the contribution of each fast strategy — bulk
//! deletion, fast query distances (Alg. 5), and leader pairs (Algs. 6–7) —
//! on one network, holding the answers fixed (all bulk variants return the
//! same communities, query distances, iteration counts and leaders; only the
//! work differs). Exits non-zero if any bulk variant changes an answer.
//!
//! `cargo run -p bcc-bench --release --bin ablation_strategies [--scale 1.0] [--queries 30] [--seed 7]`

use std::time::Instant;

use bcc_bench::{Args, PreparedNetwork, DEFAULT_SCALE};
use bcc_core::{BccQuery, EngineConfig, MbccParams, MbccQuery, SearchError, SearchStats};
use bcc_datasets::QueryConstraints;
use bcc_eval::table::fmt_seconds;
use bcc_eval::Table;
use bcc_graph::VertexId;

/// The strategy-independent part of a peel's outcome: community, query
/// distance, iterations and certified leaders.
type Answer = (Vec<VertexId>, u32, usize, Vec<VertexId>);

fn main() {
    let args = Args::parse();
    let scale = args.get("scale", DEFAULT_SCALE);
    let queries = args.get("queries", 30usize);
    let seed = args.get("seed", 7u64);

    let prepared = PreparedNetwork::prepare(&bcc_datasets::dblp(scale));
    let workload = bcc_datasets::random_community_queries(
        &prepared.net,
        queries,
        QueryConstraints::default(),
        seed,
    );
    eprintln!("[ablation] {} queries on DBLP", workload.len());

    let variants: Vec<(&str, EngineConfig)> = vec![
        ("single deletion, no fast strategies", {
            let mut c = EngineConfig::online();
            c.bulk = false;
            c
        }),
        ("bulk deletion only (Online-BCC)", EngineConfig::online()),
        ("bulk + fast distances (Alg 5)", {
            let mut c = EngineConfig::online();
            c.fast_dist = true;
            c
        }),
        ("bulk + leader pairs (Algs 6-7)", {
            let mut c = EngineConfig::online();
            c.leader_pairs = true;
            c
        }),
        ("all strategies (LP-BCC)", EngineConfig::leader_pair()),
    ];

    let mut table = Table::new(
        format!(
            "Ablation: per-query mean over {} DBLP queries (scale {scale})",
            workload.len()
        ),
        [
            "Variant",
            "time (s)",
            "#butterfly countings",
            "iterations",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut reference: Option<Vec<Result<Answer, SearchError>>> = None;
    for (name, config) in variants {
        let mut stats = SearchStats::default();
        let mut elapsed = 0.0f64;
        let mut answers = Vec::new();
        for q in &workload {
            let pair = BccQuery::pair(q.vertices[0], q.vertices[1]);
            let params = prepared.default_params(q);
            let mquery = MbccQuery::new(pair.as_vec());
            let mparams = MbccParams::new(vec![params.k1, params.k2], params.b);
            let started = Instant::now();
            let result = bcc_core::candidate::Candidate::find_g0(
                &prepared.net.graph,
                &mquery,
                &mparams,
                &mut stats,
            )
            .and_then(|(candidate, counts)| {
                bcc_core::engine::run_peel(candidate, counts, config, &mut stats)
            });
            elapsed += started.elapsed().as_secs_f64();
            answers.push(result.map(|o| (o.community, o.query_distance, o.iterations, o.leaders)));
        }
        // All bulk variants must agree on the answers — community, query
        // distance, iterations and leaders, or the same error (the fast
        // strategies are pure accelerations); single-deletion peels in a
        // different order and may legitimately differ.
        if config.bulk {
            match &reference {
                None => reference = Some(answers),
                Some(reference) => assert_eq!(
                    reference, &answers,
                    "{name} changed the answers — strategies must be pure accelerations"
                ),
            }
        }
        let n = workload.len().max(1) as f64;
        table.push_row(vec![
            name.to_string(),
            fmt_seconds(elapsed / n),
            format!("{:.2}", stats.butterfly_countings as f64 / n),
            format!("{:.1}", stats.iterations as f64 / n),
        ]);
    }
    println!("{}", table.render());
    if args.has("json") {
        println!("{}", table.to_json());
    }
}
