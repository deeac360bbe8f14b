//! Failure-injection and corner-case tests across the search stack: the
//! graphs a downstream user will inevitably feed the library.

use bcc::core::{MbccParams, MbccQuery, MultiLabelBcc};
use bcc::prelude::*;

/// The minimal valid BCC: exactly one butterfly, nothing else.
fn minimal_butterfly() -> (bcc::graph::LabeledGraph, BccQuery) {
    let mut b = GraphBuilder::new();
    let l0 = b.add_vertex("L");
    let l1 = b.add_vertex("L");
    let r0 = b.add_vertex("R");
    let r1 = b.add_vertex("R");
    for (x, y) in [(l0, r0), (l0, r1), (l1, r0), (l1, r1)] {
        b.add_edge(x, y);
    }
    // Intra edges so (1,1)-cores exist.
    b.add_edge(l0, l1);
    b.add_edge(r0, r1);
    let g = b.build();
    (g, BccQuery::pair(l0, r0))
}

#[test]
fn minimal_butterfly_community() {
    let (g, q) = minimal_butterfly();
    let params = BccParams::new(1, 1, 1);
    for result in [
        OnlineBcc::default().search(&g, &q, &params).unwrap(),
        LpBcc::default().search(&g, &q, &params).unwrap(),
    ] {
        assert_eq!(result.community.len(), 4, "{:?}", result.community);
        assert_eq!(result.leaders.len(), 2);
    }
}

#[test]
fn k_zero_is_accepted() {
    // k = 0 imposes no core constraint; the butterfly condition still must
    // hold.
    let (g, q) = minimal_butterfly();
    let result = OnlineBcc::default().search(&g, &q, &BccParams::new(0, 0, 1)).unwrap();
    assert_eq!(result.community.len(), 4);
}

#[test]
fn b_zero_certifies_trivially() {
    // b = 0 means any vertex certifies the cross condition (χ ≥ 0).
    let mut b = GraphBuilder::new();
    let l0 = b.add_vertex("L");
    let l1 = b.add_vertex("L");
    let r0 = b.add_vertex("R");
    let r1 = b.add_vertex("R");
    b.add_edge(l0, l1);
    b.add_edge(r0, r1);
    b.add_edge(l0, r0); // a single cross edge, no butterfly
    let g = b.build();
    let result = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l0, r0), &BccParams::new(1, 1, 0))
        .unwrap();
    assert_eq!(result.community.len(), 4);
    // With b = 1 the same query must fail (no butterfly exists).
    let err = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l0, r0), &BccParams::new(1, 1, 1))
        .unwrap_err();
    assert_eq!(err, SearchError::NoCandidate);
}

#[test]
fn two_vertex_graph_has_no_bcc() {
    let mut b = GraphBuilder::new();
    let l = b.add_vertex("L");
    let r = b.add_vertex("R");
    b.add_edge(l, r);
    let g = b.build();
    let err = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l, r), &BccParams::new(1, 1, 1))
        .unwrap_err();
    // Cores of size < 2 per side cannot exist with k = 1... actually a
    // single cross edge gives intra-degree 0 < 1 on both sides.
    assert_eq!(err, SearchError::NoCandidate);
}

#[test]
fn isolated_query_vertices() {
    let mut b = GraphBuilder::new();
    let l = b.add_vertex("L");
    let r = b.add_vertex("R");
    let _pad = b.add_vertex("L");
    let g = b.build();
    let err = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l, r), &BccParams::new(0, 0, 0))
        .unwrap_err();
    assert!(
        err == SearchError::Disconnected || err == SearchError::NoCandidate,
        "{err:?}"
    );
}

#[test]
fn l2p_on_disconnected_labels() {
    // ql and qr in different components: the path search must fail cleanly.
    let mut b = GraphBuilder::new();
    let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
    let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
    for grp in [&l, &r] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(grp[i], grp[j]);
            }
        }
    }
    let g = b.build();
    let index = BccIndex::build(&g);
    let err = L2pBcc::default()
        .search(&g, &index, &BccQuery::pair(l[0], r[0]), &BccParams::new(3, 3, 1))
        .unwrap_err();
    assert_eq!(err, SearchError::Disconnected);
}

#[test]
fn mbcc_single_query_rejected() {
    let (g, q) = minimal_butterfly();
    let err = MultiLabelBcc::default()
        .search(
            &g,
            None,
            &MbccQuery::new(vec![q.ql]),
            &MbccParams::new(vec![1], 1),
        )
        .unwrap_err();
    assert_eq!(err, SearchError::TooFewQueries);
}

#[test]
fn huge_parameters_fail_gracefully() {
    let (g, q) = minimal_butterfly();
    for params in [
        BccParams::new(100, 1, 1),
        BccParams::new(1, 100, 1),
        BccParams::new(1, 1, u64::MAX),
    ] {
        let err = OnlineBcc::default().search(&g, &q, &params).unwrap_err();
        assert_eq!(err, SearchError::NoCandidate, "{params:?}");
    }
}

#[test]
fn query_vertices_may_be_leaders_or_not() {
    // Leader-biased vs junior-biased queries (Section 3.3): both must find
    // the same underlying community.
    let mut b = GraphBuilder::new();
    // Left: leaders l0, l1 carry the butterflies; juniors l2, l3 don't.
    let l: Vec<_> = (0..4).map(|_| b.add_vertex("L")).collect();
    let r: Vec<_> = (0..4).map(|_| b.add_vertex("R")).collect();
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
    let g = b.build();
    let params = BccParams::new(3, 3, 1);
    let leaders = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l[0], r[0]), &params)
        .unwrap();
    let juniors = OnlineBcc::default()
        .search(&g, &BccQuery::pair(l[3], r[3]), &params)
        .unwrap();
    assert_eq!(leaders.community, juniors.community,
        "the underlying community is identical regardless of query bias");
}

#[test]
fn acq_returns_empty_on_cross_label_queries() {
    // The executable version of the paper's Section 1 motivating argument.
    let (g, q) = minimal_butterfly();
    let err = AcqSearch::default().search_pair(&g, q.ql, q.qr).unwrap_err();
    assert_eq!(err, bcc::baselines::BaselineError::NoCommunity);
    // …while a BCC exists on the very same graph.
    assert!(OnlineBcc::default()
        .search(&g, &q, &BccParams::new(1, 1, 1))
        .is_ok());
}

