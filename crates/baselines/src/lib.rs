//! Community-search baselines the paper compares against (Section 8):
//!
//! * [`CtcSearch`] — **CTC**, the closest truss community model of Huang et
//!   al. \[20\]: the connected k-truss containing the query vertices with
//!   maximum trussness, shrunk by farthest-vertex peeling to minimize the
//!   query distance.
//! * [`PsaSearch`] — **PSA**, the progressive minimum k-core search of Li et
//!   al. \[23\]: a small connected k-core containing the query vertices,
//!   found by expand-then-shrink greedy minimization (see DESIGN.md for the
//!   documented substitution of the original pruning machinery).
//!
//! Both models are label-blind — exactly the property the paper's case
//! studies exploit to show why BCC finds cross-group communities they miss.

pub mod acq;
pub mod ctc;
pub mod psa;

pub use acq::AcqSearch;
pub use ctc::{CtcIndex, CtcSearch};
pub use psa::PsaSearch;

use bcc_graph::VertexId;

/// A community found by a baseline method.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Community members, sorted ascending.
    pub community: Vec<VertexId>,
    /// Query distance of the community (Definition 5 of the BCC paper).
    pub query_distance: u32,
    /// Peeling iterations performed.
    pub iterations: usize,
}

impl BaselineResult {
    /// Returns `true` if `v` is in the community.
    pub fn contains(&self, v: &VertexId) -> bool {
        self.community.binary_search(v).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.community.len()
    }

    /// Returns `true` when the community is empty.
    pub fn is_empty(&self) -> bool {
        self.community.is_empty()
    }
}

/// Why a baseline search failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// A query vertex is out of the graph's range.
    QueryOutOfRange(VertexId),
    /// No community satisfying the model contains the queries.
    NoCommunity,
    /// Query vertices are mutually disconnected in the candidate.
    Disconnected,
    /// The query set was empty.
    EmptyQuery,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::QueryOutOfRange(v) => write!(f, "query vertex {v} out of range"),
            BaselineError::NoCommunity => write!(f, "no qualifying community exists"),
            BaselineError::Disconnected => write!(f, "query vertices are disconnected"),
            BaselineError::EmptyQuery => write!(f, "query set is empty"),
        }
    }
}

impl std::error::Error for BaselineError {}
