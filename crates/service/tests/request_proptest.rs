//! Property tests for the request parser and the serving front-end: no
//! input line — arbitrary byte soup or near-valid mutations — may panic,
//! and every malformed line must map to a structured error.

use bcc_graph::GraphBuilder;
use bcc_service::{
    parse_line, BccService, ErrorKind, LineOutcome, ParsedLine, ServiceConfig,
};
use proptest::prelude::*;

/// Arbitrary bytes (lossily decoded — the session reader hands the parser
/// `String`s, so this matches the real input surface).
fn byte_soup() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..255, 0..120)
}

/// Near-valid lines: protocol fragments spliced together in random order,
/// hitting the parser's key/value handling much harder than raw bytes.
fn fragment_line() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..8)
}

const FRAGMENTS: &[&str] = &[
    "search", "msearch", "stats", "graphs", "quit", "ql=a", "ql=0", "qr=b", "qr==",
    "q=a,b", "q=,", "q=a", "k1=3", "k1=99999999999999999999", "k2=-1", "k=2", "b=1",
    "method=lp", "method=l2p", "method=", "graph=g", "timeout_ms=10", "ql", "=",
    "ql=a=b", "#", "search ql=a qr=b", "\u{1F98B}", "k1=③",
    "add_edge", "remove_edge", "commit", "u=a", "u=0", "v=b", "v=",
];

fn assemble(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| FRAGMENTS[i])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A tiny service so fuzz lines also exercise resolution + response
/// serialization end-to-end.
fn tiny_service() -> BccService {
    let mut b = GraphBuilder::new();
    let l: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("a{i}"), "L")).collect();
    let r: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("b{i}"), "R")).collect();
    for grp in [&l, &r] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(grp[i], grp[j]);
            }
        }
    }
    for &x in &l[..2] {
        for &y in &r[..2] {
            b.add_edge(x, y);
        }
    }
    BccService::with_graph(ServiceConfig { workers: 2, ..Default::default() }, b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics and classifies every line: parsed, empty, or
    /// a structured parse error.
    #[test]
    fn parser_total_on_arbitrary_bytes(bytes in byte_soup()) {
        let line = String::from_utf8_lossy(&bytes);
        match parse_line(&line) {
            Ok(ParsedLine::Request(req)) => {
                // A parsed request round-trips its invariants.
                match req.kind {
                    bcc_service::QueryKind::Pair { ref ql, ref qr, .. } => {
                        prop_assert!(!ql.is_empty() && !qr.is_empty());
                    }
                    bcc_service::QueryKind::Multi { ref qs, .. } => {
                        prop_assert!(qs.len() >= 2);
                    }
                }
            }
            Ok(_) => {}
            Err(err) => {
                prop_assert_eq!(err.kind, ErrorKind::Parse);
                prop_assert!(!err.message.is_empty());
            }
        }
    }

    /// Near-valid fragment splices never panic either, and errors stay
    /// structured.
    #[test]
    fn parser_total_on_fragment_splices(indices in fragment_line()) {
        let line = assemble(&indices);
        if let Err(err) = parse_line(&line) {
            prop_assert_eq!(err.kind, ErrorKind::Parse);
            prop_assert!(!err.message.is_empty());
        }
    }

    /// A repeated key is always a structured `duplicate key` parse error —
    /// never silent last-wins — for every verb, every key, every duplicate
    /// position, and regardless of whether the repeated value differs.
    #[test]
    fn duplicate_keys_are_structured_errors(
        verb_idx in 0usize..5,
        key_idx in 0usize..8,
        position in 0usize..8,
        same_value in 0usize..2,
    ) {
        // (verb, base tokens forming a fully valid line)
        const BASES: &[(&str, &[&str])] = &[
            ("search", &["ql=a", "qr=b", "k1=1", "b=2", "method=lp", "graph=g"]),
            ("msearch", &["q=a,b", "k=1", "b=2", "timeout_ms=5"]),
            ("add_edge", &["u=a", "v=b", "graph=g"]),
            ("remove_edge", &["u=a", "v=b"]),
            ("commit", &["graph=g"]),
        ];
        let (verb, base) = BASES[verb_idx % BASES.len()];
        let dup_source = base[key_idx % base.len()];
        let key = dup_source.split('=').next().unwrap();
        let duplicate = if same_value == 0 {
            dup_source.to_string()
        } else {
            format!("{key}=zz9")
        };
        let mut tokens: Vec<String> = base.iter().map(|t| t.to_string()).collect();
        tokens.insert(position % (tokens.len() + 1), duplicate);
        let line = format!("{verb} {}", tokens.join(" "));

        let err = parse_line(&line).expect_err(&format!("`{line}` must be rejected"));
        prop_assert_eq!(err.kind, ErrorKind::Parse, "line: {}", line);
        prop_assert!(
            err.message.contains("duplicate key"),
            "line `{}`: message `{}`",
            line,
            err.message
        );
        // The base line without the duplicate still parses.
        let clean = format!("{verb} {}", base.join(" "));
        prop_assert!(parse_line(&clean).is_ok(), "base line `{}` must parse", clean);
    }

    /// Valid `search` lines with arbitrary numeric parameters always parse
    /// to exactly those parameters.
    #[test]
    fn valid_search_lines_round_trip(
        (k1, k2) in (0u32..50, 0u32..50),
        b in 0u64..10,
        timeout in 1u64..10_000,
    ) {
        let line = format!(
            "search ql=x qr=y k1={k1} k2={k2} b={b} timeout_ms={timeout} method=online"
        );
        let Ok(ParsedLine::Request(req)) = parse_line(&line) else {
            panic!("valid line failed to parse: {line}");
        };
        prop_assert_eq!(req.timeout_ms, Some(timeout));
        prop_assert_eq!(req.method, bcc_service::Method::Online);
        let bcc_service::QueryKind::Pair { k1: pk1, k2: pk2, b: pb, .. } = req.kind else {
            panic!("search parsed to non-pair");
        };
        prop_assert_eq!(pk1, Some(k1));
        prop_assert_eq!(pk2, Some(k2));
        prop_assert_eq!(pb, Some(b));
    }
}

proptest! {
    // Full end-to-end fuzz runs searches on resolvable lines, so fewer
    // cases keep the suite fast; the graph is 8 vertices.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole serving front-end is total: any line produces either
    /// silence, a quit, or exactly one well-formed output line (valid JSON
    /// head, never a panic).
    #[test]
    fn service_front_end_total(indices in fragment_line(), bytes in byte_soup()) {
        let service = tiny_service();
        for line in [assemble(&indices), String::from_utf8_lossy(&bytes).into_owned()] {
            match service.process_line(&line) {
                LineOutcome::Output(out) => {
                    prop_assert!(
                        out.starts_with("{\"ok\":true") || out.starts_with("{\"ok\":false"),
                        "malformed output line: {out}"
                    );
                    prop_assert!(!out.contains('\n'), "output must be one line: {out:?}");
                }
                LineOutcome::Quit | LineOutcome::Silent => {}
            }
        }
    }
}

/// `shard list` / `shard assign` lines get the unknown-verb parse error
/// like any other unknown word, through the parser and the service alike.
#[test]
fn shard_lines_are_unknown_verbs() {
    let service = tiny_service();
    for line in ["shard list", "shard assign default 0"] {
        let err = parse_line(line).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse, "line: {line}");
        assert!(err.message.contains("unknown verb `shard`"), "{}", err.message);
        let LineOutcome::Output(out) = service.process_line(line) else {
            panic!("`{line}` must produce an error line");
        };
        assert!(out.contains("\"error\":\"parse\""), "{out}");
    }
}
