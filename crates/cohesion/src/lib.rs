//! Cohesive-subgraph substrates: k-core and k-truss.
//!
//! The BCC model (Definition 4 of the paper) builds on *k-cores of
//! label-induced subgraphs*; the CTC baseline [Huang et al. 2015] builds on
//! *k-trusses*. This crate provides both, each with:
//!
//! * a full decomposition (coreness per vertex / trussness per edge), and
//! * incremental maintenance under vertex deletions (the peeling cascades of
//!   Algorithm 4 and of the CTC search loop).
//!
//! Core decomposition uses the linear bucket algorithm of Batagelj &
//! Zaversnik \[3\]; truss decomposition uses support peeling in
//! ascending-support order.
//!
//! ```
//! use bcc_graph::{GraphBuilder, GraphView};
//! use bcc_cohesion::{core_decomposition, reduce_to_k_core};
//!
//! // A triangle with a pendant vertex.
//! let mut b = GraphBuilder::new();
//! let vs: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(vs[u], vs[v]);
//! }
//! let g = b.build();
//!
//! let coreness = core_decomposition(&GraphView::new(&g));
//! assert_eq!(coreness, vec![2, 2, 2, 1]);
//!
//! let mut view = GraphView::new(&g);
//! reduce_to_k_core(&mut view, 2);
//! assert!(!view.is_alive(vs[3]), "the pendant is peeled");
//! ```

pub mod core_decomp;
pub mod core_maintain;
pub mod support;
pub mod truss;

pub use core_decomp::{
    core_decomposition, label_core_decomposition, label_core_decomposition_direct,
    label_core_decomposition_parallel, label_core_decomposition_view_parallel, max_coreness,
};
pub use core_maintain::{
    cascade_label_core, reduce_to_k_core, reduce_to_label_core, reduce_to_label_core_parallel,
    LabelCoreThresholds,
};
pub use support::{triangle_supports, EdgeIndex};
pub use truss::{truss_decomposition, TrussState};
