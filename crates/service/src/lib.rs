//! # bcc-service — concurrent, cached BCC query serving
//!
//! The paper's BCC search is an *online, per-query* operation over a shared
//! offline index (Section 6.3's BCindex). This crate turns the workspace's
//! library into a long-lived query engine exploiting exactly that split:
//!
//! * [`GraphRegistry`] — loads/generates named graphs once, holds each
//!   `LabeledGraph` + lazily built [`bcc_core::BccIndex`] behind `Arc` for
//!   shared read-only access across threads;
//! * [`WorkerPool`] — std::thread workers (N = available parallelism)
//!   executing requests concurrently against the shared snapshot, with
//!   per-request deadline support;
//! * [`LruCache`] — a result cache keyed by the *normalized* query
//!   (`(graph, method, sorted (vertex, k) pairs, b)`), so repeated and
//!   symmetric queries are served from memory, with hit/miss/eviction
//!   counters;
//! * [`BccService`] — the façade tying the three together and speaking a
//!   line-oriented protocol (`bcc serve` / `bcc batch` in the CLI),
//!   including live mutation: `add_edge`/`remove_edge` stage validated
//!   edge changes, `commit` applies them as a fresh snapshot with the
//!   BCindex patched in place (Algorithm 4 cascades + Algorithm 7
//!   butterfly deltas) and cache invalidation scoped to the affected
//!   communities.
//!
//! ```
//! use bcc_graph::GraphBuilder;
//! use bcc_service::{BccService, LineOutcome, ServiceConfig};
//!
//! // Two labeled 4-cliques bridged by a butterfly.
//! let mut b = GraphBuilder::new();
//! let l: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("l{i}"), "L")).collect();
//! let r: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("r{i}"), "R")).collect();
//! for grp in [&l, &r] {
//!     for i in 0..4 {
//!         for j in (i + 1)..4 {
//!             b.add_edge(grp[i], grp[j]);
//!         }
//!     }
//! }
//! for &x in &l[..2] {
//!     for &y in &r[..2] {
//!         b.add_edge(x, y);
//!     }
//! }
//!
//! let service = BccService::with_graph(ServiceConfig::default(), b.build());
//! let LineOutcome::Output(line) = service.process_line("search ql=l0 qr=r0") else {
//!     panic!("search lines produce output");
//! };
//! assert!(line.contains("\"ok\":true"));
//! // The same (symmetric) query again: a cache hit, same answer.
//! service.process_line("search ql=r0 qr=l0");
//! assert_eq!(service.stats().cache.hits, 1);
//! ```

pub mod cache;
pub mod codec;
pub mod fault;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod request;
pub mod response;
pub mod scatter;
pub mod server;
pub mod service;
pub mod session;

pub use cache::{CacheCounters, LruCache};
pub use codec::{codec_for, BinaryCodec, Codec, CodecError, CodecKind, LineCodec, MAX_FRAME_LEN};
pub use fault::{lock_unpoisoned, FaultAction, FaultPlan, FaultRule, FaultSite};
pub use metrics::{Metrics, Verb};
pub use pool::{default_workers, JobError, Ticket, WorkerPool};
pub use registry::{BuiltIndex, CommitOutcome, GraphEntry, GraphRegistry};
pub use request::{
    parse_line, CacheKey, ErrorKind, Method, MutateOp, MutateRequest, ParsedLine, Priority,
    QueryKind, QueryRequest, RequestError,
};
pub use response::{
    CommitSummary, MutateOutcome, MutateResponse, PairOutcome, QueryOutcome, QueryResponse,
};
pub use server::{Admission, AdmissionPermit, AdmitError, Server, ServerConfig, ServerHandle};
pub use service::{BccService, LineOutcome, Pending, ServiceConfig, ServiceStats};
pub use session::{session_error_json, SeqPolicy, Session, SessionEnd};

/// Compile-time audit that every type the worker pool shares across threads
/// is `Send + Sync`: the graph snapshot, the index, the searchers, and the
/// service façade itself (`&BccService` is used from the session loop while
/// workers hold its cache/counters). A regression — say an `Rc` slipping
/// into `LabeledGraph` — fails this module's build, not a test at runtime.
#[allow(dead_code)]
mod send_sync_audit {
    fn assert_send_sync<T: Send + Sync>() {}

    fn audit() {
        assert_send_sync::<bcc_graph::LabeledGraph>();
        assert_send_sync::<bcc_core::BccIndex>();
        assert_send_sync::<bcc_core::BccResult>();
        assert_send_sync::<bcc_core::OnlineBcc>();
        assert_send_sync::<bcc_core::LpBcc>();
        assert_send_sync::<bcc_core::L2pBcc>();
        assert_send_sync::<bcc_core::MultiLabelBcc>();
        assert_send_sync::<bcc_core::SearchError>();
        assert_send_sync::<crate::GraphEntry>();
        assert_send_sync::<crate::GraphRegistry>();
        assert_send_sync::<crate::WorkerPool>();
        assert_send_sync::<crate::BccService>();
        assert_send_sync::<crate::QueryResponse>();
        assert_send_sync::<crate::Admission>();
        assert_send_sync::<crate::Metrics>();
        assert_send_sync::<bcc_obs::Histogram>();
        assert_send_sync::<bcc_obs::QueryTrace>();
        assert_send_sync::<crate::FaultPlan>();
    }
}
