//! The query-serving façade: registry + pool + cache behind one type.
//!
//! [`BccService`] amortizes the offline work (graph load, `BccIndex` build)
//! across many online queries, the offline/online split of Section 6.3:
//!
//! * requests resolve and normalize on the calling thread (cheap);
//! * cache hits return immediately;
//! * misses execute on the worker pool against the shared `Arc` snapshot,
//!   then populate the LRU result cache — even when the caller's deadline
//!   has already expired, so abandoned work still warms the cache.
//!
//! Symmetric queries (`{q_l, q_r}` vs `{q_r, q_l}`) normalize to one cache
//! key *and* one execution order, so answers are reproducible regardless of
//! how the pair was written, how many workers run, or what the cache held.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bcc_core::{
    BccParams, BccQuery, L2pBcc, LpBcc, MbccParams, MbccQuery, MultiLabelBcc, OnlineBcc,
};
use bcc_graph::{LabeledGraph, VertexId};

use crate::cache::{CacheCounters, LruCache};
use crate::fault::{lock_unpoisoned, FaultPlan, FaultSite};
use crate::metrics::{Metrics, Verb};
use crate::pool::{JobError, Ticket, WorkerPool};
use crate::registry::{GraphEntry, GraphRegistry};
use crate::request::{
    parse_line, CacheKey, ErrorKind, Method, MutateOp, MutateRequest, ParsedLine, QueryKind,
    QueryRequest, RequestError,
};
use crate::response::{
    json_string, outcome_from_result, CommitSummary, MutateOutcome, MutateResponse, PairOutcome,
    QueryOutcome, QueryResponse,
};
use crate::scatter::{self, PairJob, PairSource, ScatterWait};

/// Bounded gather-side re-execution of a scatter pair that failed
/// internally (worker panic, injected fault): up to this many retries,
/// with 1 ms / 2 ms backoff, always inside the request's deadline budget.
const MAX_PAIR_RETRIES: u32 = 2;

/// Tunables for a [`BccService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (0 ⇒ one per available core).
    pub workers: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Result-cache weight budget: the summed member count of cached
    /// communities may not exceed this (LRU entries are evicted until it
    /// fits; the newest entry always survives). 0 = no weight budget
    /// (count-capacity only), the historical behavior.
    pub cache_weight_cap: usize,
    /// Registry key used when a request names no graph.
    pub default_graph: String,
    /// Threads for the offline BCindex build of registered graphs (0 ⇒ one
    /// per available core — the default: the build is the cold-start cost
    /// of every `register` and first L2P query, and any thread count yields
    /// a bit-identical index).
    pub index_threads: usize,
    /// Whether the gated metrics tier is live: latency/phase/queue-wait
    /// histograms and the slow-query log. Per-verb request counters (and
    /// responses!) are identical either way — telemetry is out-of-band.
    pub metrics: bool,
    /// Queries slower than this are counted and logged (one JSON line to
    /// stderr) when metrics are enabled. 0 flags everything measurable.
    pub slow_query_ms: u64,
    /// Worker threads *inside* each search's stages (BFS distances,
    /// label-core reduction, butterfly recounts). The default, `1`, runs
    /// each search on its worker's own thread — the pool already
    /// parallelizes *across* queries; `> 1` (or `0`, all cores) opts into
    /// the parallel stages. Responses are byte-identical at every setting.
    pub query_threads: usize,
    /// Deterministic fault-injection rules, one spec per entry
    /// (`<site>:<action>[:<from>[:<count>]]` — see [`FaultPlan::parse`]).
    /// Empty (the default, and the only production configuration) compiles
    /// the injection points down to a single never-taken branch.
    pub faults: Vec<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 4096,
            cache_weight_cap: 0,
            default_graph: "default".into(),
            index_threads: 0,
            metrics: true,
            slow_query_ms: 250,
            query_threads: 1,
            faults: Vec::new(),
        }
    }
}

/// The service counters as [`BccService::stats`] reads them: one field at a
/// time from the metrics registry, the cache, and the pool, so a snapshot
/// taken under traffic need not be consistent across fields.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Query requests accepted (parsed and submitted).
    pub requests: u64,
    /// Searches actually executed on the pool (≠ requests: hits and
    /// pre-deadline drops skip execution).
    pub searches_executed: u64,
    /// Result-cache counters.
    pub cache: CacheCounters,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Requests whose deadline expired before a result was delivered.
    pub timeouts: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Requests whose graph or vertex tokens did not resolve.
    pub resolve_errors: u64,
    /// Executed searches that returned a `SearchError`.
    pub search_errors: u64,
    /// Edge changes successfully staged (`add_edge`/`remove_edge`).
    pub mutations_staged: u64,
    /// Successful `commit`s.
    pub commits: u64,
    /// Mutation lines that failed (staging or commit).
    pub mutate_errors: u64,
    /// Cache entries dropped by community-scoped commit invalidation.
    pub cache_invalidated: u64,
    /// Warm cache entries rekeyed across a commit (still hits afterwards).
    pub cache_retained: u64,
    /// Worker threads.
    pub workers: usize,
    /// Registered graph names, sorted.
    pub graphs: Vec<String>,
    /// Wall time summed over executed searches.
    pub total_search_time: Duration,
    /// TCP connections accepted into a session.
    pub connections_accepted: u64,
    /// TCP connections turned away at the connection limit.
    pub connections_rejected: u64,
    /// Sessions currently open (a gauge, not a counter).
    pub active_sessions: u64,
    /// Requests the admission controller dispatched to the pool.
    pub admitted: u64,
    /// Requests rejected with a structured `overloaded` error (queue full).
    pub rejected_overloaded: u64,
    /// Requests whose deadline expired while waiting in the admission queue.
    pub admission_timeouts: u64,
    /// Request bytes read off sessions (payload + framing).
    pub bytes_in: u64,
    /// Response bytes written to sessions (payload + framing).
    pub bytes_out: u64,
    /// Queries over the slow-query threshold (0 with metrics disabled).
    pub slow_queries: u64,
    /// Requests counted per protocol verb, in [`Verb::ALL`] order. Always
    /// live (counters are unconditional; only histograms are gated).
    pub requests_by_verb: [u64; Verb::COUNT],
    /// Faults the injection plan has fired (always 0 without a plan).
    pub faults_injected: u64,
    /// Worker jobs that panicked (contained, never fatal).
    pub worker_panics: u64,
    /// Scatter pair sub-queries re-executed after a transient internal
    /// failure.
    pub pair_retries: u64,
}

impl ServiceStats {
    /// One-line JSON form (the `stats` protocol command).
    pub fn to_json(&self) -> String {
        let graphs = self
            .graphs
            .iter()
            .map(|g| json_string(g))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"ok\":true,\"requests\":{},\"searches_executed\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_entries\":{},\"timeouts\":{},\"parse_errors\":{},\
             \"resolve_errors\":{},\"search_errors\":{},\"mutations_staged\":{},\
             \"commits\":{},\"mutate_errors\":{},\"cache_invalidated\":{},\
             \"cache_retained\":{},\"workers\":{},\
             \"connections_accepted\":{},\"connections_rejected\":{},\
             \"active_sessions\":{},\"admitted\":{},\"rejected_overloaded\":{},\
             \"admission_timeouts\":{},\"bytes_in\":{},\"bytes_out\":{},\
             \"graphs\":[{}],\"total_search_time_us\":{},\
             \"slow_queries\":{},\"requests_by_verb\":{{{}}},\
             \"faults\":{{\"injected\":{},\"worker_panics\":{},\
             \"pair_retries\":{}}}}}",
            self.requests,
            self.searches_executed,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache_entries,
            self.timeouts,
            self.parse_errors,
            self.resolve_errors,
            self.search_errors,
            self.mutations_staged,
            self.commits,
            self.mutate_errors,
            self.cache_invalidated,
            self.cache_retained,
            self.workers,
            self.connections_accepted,
            self.connections_rejected,
            self.active_sessions,
            self.admitted,
            self.rejected_overloaded,
            self.admission_timeouts,
            self.bytes_in,
            self.bytes_out,
            graphs,
            self.total_search_time.as_micros(),
            self.slow_queries,
            Verb::ALL
                .iter()
                .map(|v| format!("\"{}\":{}", v.name(), self.requests_by_verb[v.index()]))
                .collect::<Vec<_>>()
                .join(","),
            self.faults_injected,
            self.worker_panics,
            self.pair_retries,
        )
    }
}

type SharedCache = Arc<Mutex<LruCache<CacheKey, Result<QueryOutcome, RequestError>>>>;

/// A response that may still be executing on the pool. Obtained from
/// [`BccService::submit`]; turn it into a [`QueryResponse`] with
/// [`BccService::wait`]. Submitting a whole batch before waiting is what
/// lets independent requests run concurrently.
pub enum Pending {
    /// Answered inline (cache hit, or an error before execution).
    Ready(QueryResponse),
    /// Executing on the pool.
    InFlight {
        /// Request sequence number.
        seq: u64,
        /// Graph registry key.
        graph: String,
        /// Searcher.
        method: Method,
        /// Protocol verb (search/msearch) for per-verb latency accounting.
        verb: Verb,
        /// Absolute deadline, if any.
        deadline: Option<Instant>,
        /// The pool ticket.
        ticket: Ticket<Result<QueryOutcome, RequestError>>,
        /// Submission instant (for the response's `elapsed`).
        started: Instant,
    },
    /// A multi-label msearch (m > 2) scattered over the pool: one assembly
    /// job plus C(m,2) label-pair sub-queries, gathered in plan order by
    /// [`BccService::wait`].
    Scatter(Box<ScatterWait>),
}

/// What one protocol line produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// Emit this line.
    Output(String),
    /// End the session.
    Quit,
    /// Emit nothing (blank/comment line).
    Silent,
}

/// The long-lived query engine: graph registry + worker pool + result
/// cache + the line protocol.
pub struct BccService {
    config: ServiceConfig,
    registry: GraphRegistry,
    pool: WorkerPool,
    cache: SharedCache,
    metrics: Arc<Metrics>,
    faults: Arc<FaultPlan>,
    seq: AtomicU64,
}

impl BccService {
    /// Starts the service (spawns the worker pool) with an empty registry.
    ///
    /// # Panics
    ///
    /// When `config.faults` holds a malformed spec — callers taking specs
    /// from users (the CLI) pre-validate with [`FaultPlan::parse`].
    pub fn new(config: ServiceConfig) -> Self {
        let faults = Arc::new(
            FaultPlan::parse(&config.faults)
                .unwrap_or_else(|err| panic!("invalid fault spec: {err}")),
        );
        let pool = WorkerPool::new(config.workers);
        let cache = Arc::new(Mutex::new(LruCache::with_weight_cap(
            config.cache_capacity,
            config.cache_weight_cap,
        )));
        let registry = GraphRegistry::with_index_threads(config.index_threads);
        let metrics = Arc::new(Metrics::new(config.metrics, config.slow_query_ms));
        BccService {
            config,
            registry,
            pool,
            cache,
            metrics,
            faults,
            seq: AtomicU64::new(0),
        }
    }

    /// Starts the service with `graph` registered as the default graph.
    pub fn with_graph(config: ServiceConfig, graph: LabeledGraph) -> Self {
        let service = BccService::new(config);
        service
            .registry
            .insert(service.config.default_graph.clone(), graph);
        service
    }

    /// The graph registry (register/lookup graphs at any time).
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The metrics registry: every service and transport counter (the TCP
    /// server and its sessions count into it too) and the histograms. The
    /// CLI's Prometheus responder reads it through this accessor.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The compiled fault-injection plan (inert unless configured; shared
    /// with sessions so transport sites consult the same match counters).
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.faults
    }

    /// A stats snapshot, read counter by counter.
    pub fn stats(&self) -> ServiceStats {
        let m = &*self.metrics;
        let cache = lock_unpoisoned(&self.cache);
        ServiceStats {
            requests: m.requests(Verb::Search) + m.requests(Verb::Msearch),
            searches_executed: m.searches_executed.get(),
            cache: cache.counters(),
            cache_entries: cache.len(),
            timeouts: m.timeouts.get(),
            parse_errors: m.parse_errors.get(),
            resolve_errors: m.resolve_errors.get(),
            search_errors: m.search_errors.get(),
            mutations_staged: m.mutations_staged.get(),
            commits: m.commits.get(),
            mutate_errors: m.mutate_errors.get(),
            cache_invalidated: m.cache_invalidated.get(),
            cache_retained: m.cache_retained.get(),
            workers: self.pool.workers(),
            graphs: self.registry.names(),
            total_search_time: Duration::from_nanos(m.search_time_ns.get()),
            connections_accepted: m.connections_accepted.get(),
            connections_rejected: m.connections_rejected.get(),
            active_sessions: m.active_sessions.get(),
            admitted: m.admitted.get(),
            rejected_overloaded: m.rejected_overloaded.get(),
            admission_timeouts: m.admission_timeouts.get(),
            bytes_in: m.bytes_in.get(),
            bytes_out: m.bytes_out.get(),
            slow_queries: m.slow_queries(),
            requests_by_verb: Verb::ALL.map(|verb| m.requests(verb)),
            faults_injected: self.faults.injected(),
            worker_panics: self.pool.panics(),
            pair_retries: m.pair_retries.get(),
        }
    }

    /// Submits a request: resolves + normalizes it, probes the cache, and
    /// on a miss schedules execution on the pool.
    pub fn submit(&self, request: QueryRequest) -> Pending {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let verb = match request.kind {
            QueryKind::Pair { .. } => Verb::Search,
            QueryKind::Multi { .. } => Verb::Msearch,
        };
        self.metrics.count_request(verb);
        let started = Instant::now();

        let graph_name = request
            .graph
            .clone()
            .unwrap_or_else(|| self.config.default_graph.clone());
        let Some(entry) = self.registry.get(&graph_name) else {
            self.metrics.resolve_errors.inc();
            self.metrics.record_latency(verb, started.elapsed());
            return Pending::Ready(QueryResponse::error(
                seq,
                "",
                request.method,
                RequestError::resolve(format!("no graph registered as `{graph_name}`")),
            ));
        };

        let normalized = match normalize(&entry, &request) {
            Ok(normalized) => normalized,
            Err(err) => {
                self.metrics.resolve_errors.inc();
                self.metrics.record_latency(verb, started.elapsed());
                return Pending::Ready(QueryResponse::error(seq, &graph_name, request.method, err));
            }
        };
        let key = CacheKey::normalized(
            entry.generation(),
            request.method,
            normalized.multi,
            &normalized.vertices,
            &normalized.ks,
            normalized.b,
        );

        if let Some(outcome) = lock_unpoisoned(&self.cache).get(&key) {
            let elapsed = started.elapsed();
            self.metrics.record_latency(verb, elapsed);
            return Pending::Ready(QueryResponse {
                seq,
                graph: graph_name,
                method: request.method,
                outcome: outcome.clone(),
                cached: true,
                elapsed,
            });
        }

        let deadline = request
            .timeout_ms
            .map(|ms| started + Duration::from_millis(ms));
        let method = request.method;

        // A multi-label msearch over more than two vertices scatters: the
        // pair sub-queries and the assembly run side by side on the pool.
        // Pair searches and 2-vertex msearch (which the engine reduces to
        // the pair case) stay single-job.
        if normalized.multi && normalized.vertices.len() > 2 {
            return self
                .submit_scatter(seq, graph_name, entry, method, normalized, key, deadline, started);
        }

        let shared = self.exec_shared();
        let job_key = key.clone();
        let ticket = self.pool.submit(move || {
            execute(&entry, method, &normalized, job_key, deadline, true, &shared)
        });
        Pending::InFlight {
            seq,
            graph: graph_name,
            method,
            verb,
            deadline,
            ticket,
            started,
        }
    }

    /// The shared handles a worker job records through.
    fn exec_shared(&self) -> ExecShared {
        ExecShared {
            cache: Arc::clone(&self.cache),
            metrics: Arc::clone(&self.metrics),
            faults: Arc::clone(&self.faults),
            query_threads: self.config.query_threads,
        }
    }

    /// Scatters one m > 2 msearch: probes each label pair's cache slot in
    /// plan order on this thread (deterministic hit/miss accounting),
    /// submits the misses to the pool in plan order, then the monolithic
    /// assembly run. No sub-job inserts into the cache — [`Self::gather`]
    /// replays all inserts in plan order.
    #[allow(clippy::too_many_arguments)]
    fn submit_scatter(
        &self,
        seq: u64,
        graph_name: String,
        entry: Arc<GraphEntry>,
        method: Method,
        normalized: Normalized,
        key: CacheKey,
        deadline: Option<Instant>,
        started: Instant,
    ) -> Pending {
        let plan = scatter::pair_plan(&normalized.vertices, &normalized.ks);
        let mut pairs = Vec::with_capacity(plan.len());
        for ((vi, ki), (vj, kj)) in plan {
            let pair_key = CacheKey::normalized(
                entry.generation(),
                method,
                true,
                &[vi, vj],
                &[ki, kj],
                normalized.b,
            );
            let cached = lock_unpoisoned(&self.cache).get(&pair_key).cloned();
            let source = match cached {
                Some(outcome) => PairSource::Cached(outcome),
                None => PairSource::Miss(self.submit_pair(&entry, method, &pair_key, deadline)),
            };
            pairs.push(PairJob { ql: vi.0, qr: vj.0, key: pair_key, source });
        }
        let shared = self.exec_shared();
        let job_key = key.clone();
        let assembly = {
            let entry = Arc::clone(&entry);
            self.pool.submit(move || {
                execute(&entry, method, &normalized, job_key, deadline, false, &shared)
            })
        };
        Pending::Scatter(Box::new(ScatterWait {
            seq,
            graph: graph_name,
            method,
            entry,
            deadline,
            started,
            key,
            assembly,
            pairs,
        }))
    }

    /// Submits one label-pair sub-query to the pool. The pair's
    /// [`Normalized`] form is rebuilt from its cache key, so gather-side
    /// retries need only the key.
    fn submit_pair(
        &self,
        entry: &Arc<GraphEntry>,
        method: Method,
        pair_key: &CacheKey,
        deadline: Option<Instant>,
    ) -> Ticket<Result<QueryOutcome, RequestError>> {
        let sub = Normalized {
            multi: true,
            vertices: pair_key.vertex_ks.iter().map(|&(v, _)| VertexId(v)).collect(),
            ks: pair_key.vertex_ks.iter().map(|&(_, k)| k).collect(),
            b: pair_key.b,
        };
        let entry = Arc::clone(entry);
        let shared = self.exec_shared();
        let job_key = pair_key.clone();
        self.pool.submit(move || {
            if shared.faults.perturb(FaultSite::ScatterPair) {
                return Err(RequestError {
                    kind: ErrorKind::Internal,
                    message: "injected fault at scatter_pair".into(),
                });
            }
            execute(&entry, method, &sub, job_key, deadline, false, &shared)
        })
    }

    /// Blocks until `pending` resolves (or its deadline passes).
    pub fn wait(&self, pending: Pending) -> QueryResponse {
        match pending {
            Pending::Ready(response) => response,
            Pending::InFlight {
                seq,
                graph,
                method,
                verb,
                deadline,
                ticket,
                started,
            } => {
                let outcome = match ticket.wait_until(deadline) {
                    Ok(outcome) => outcome,
                    Err(err) => Err(job_error(err)),
                };
                // Count timeouts here, once per response, whichever side
                // noticed first (the waiter's deadline or the worker's
                // pre-execution drop).
                if matches!(&outcome, Err(e) if e.kind == ErrorKind::Timeout) {
                    self.metrics.timeouts.inc();
                }
                let elapsed = started.elapsed();
                self.metrics.record_latency(verb, elapsed);
                QueryResponse {
                    seq,
                    graph,
                    method,
                    outcome,
                    cached: false,
                    elapsed,
                }
            }
            Pending::Scatter(wait) => self.gather(*wait),
        }
    }

    /// Gathers a scattered msearch: the assembly result first (it is the
    /// response body), then every pair in plan order, all under the
    /// parent's inherited deadline. A failed pair becomes a structured
    /// entry in the response's `pairs` section — partial failure never
    /// fails the request as long as the assembly succeeded. Cache inserts
    /// replay here, in plan order, so cache state is identical at any
    /// worker count.
    ///
    /// A pair that failed *internally* (worker panic, injected fault —
    /// never a deadline) is retried here with bounded backoff inside the
    /// inherited deadline budget, re-executed against the scatter's
    /// original snapshot.
    fn gather(&self, wait: ScatterWait) -> QueryResponse {
        let ScatterWait {
            seq,
            graph,
            method,
            entry,
            deadline,
            started,
            key,
            assembly,
            pairs,
        } = wait;
        let collect = |ticket: Ticket<Result<QueryOutcome, RequestError>>| match ticket
            .wait_until(deadline)
        {
            Ok(outcome) => outcome,
            Err(err) => Err(job_error(err)),
        };
        let assembly_outcome = collect(assembly);
        let mut pair_outcomes = Vec::with_capacity(pairs.len());
        let mut inserts = Vec::new();
        for job in pairs {
            let outcome = match job.source {
                PairSource::Cached(outcome) => outcome,
                PairSource::Miss(ticket) => {
                    let mut outcome = collect(ticket);
                    let mut attempt: u32 = 0;
                    // Retry only internal failures (the job died; the work
                    // was never done) — a blown deadline stays blown.
                    // Backoff doubles and must fit the budget.
                    while attempt < MAX_PAIR_RETRIES
                        && matches!(&outcome, Err(e) if e.kind == ErrorKind::Internal)
                    {
                        let backoff = Duration::from_millis(1 << attempt);
                        if deadline.is_some_and(|d| Instant::now() + backoff >= d) {
                            break;
                        }
                        std::thread::sleep(backoff);
                        attempt += 1;
                        self.metrics.pair_retries.inc();
                        outcome = collect(self.submit_pair(&entry, method, &job.key, deadline));
                    }
                    if scatter::cacheable(&outcome) {
                        inserts.push((job.key, outcome.clone()));
                    }
                    outcome
                }
            };
            pair_outcomes.push(PairOutcome {
                ql: job.ql,
                qr: job.qr,
                result: outcome.map(|o| o.community),
            });
        }
        // A transient pair failure (timeout, lost worker) must not be baked
        // into the full-query cache entry — a retry would keep serving it.
        let transient_pair = pair_outcomes.iter().any(|p| {
            matches!(&p.result, Err(e) if e.kind == ErrorKind::Timeout || e.kind == ErrorKind::Internal)
        });
        let outcome = assembly_outcome.map(|mut o| {
            o.pairs = pair_outcomes;
            o
        });
        {
            let mut cache = lock_unpoisoned(&self.cache);
            for (pair_key, value) in inserts {
                let weight = scatter::outcome_weight(&value);
                cache.insert_weighted(pair_key, value, weight);
            }
            if scatter::cacheable(&outcome) && !transient_pair {
                let weight = scatter::outcome_weight(&outcome);
                cache.insert_weighted(key, outcome.clone(), weight);
            }
        }
        if matches!(&outcome, Err(e) if e.kind == ErrorKind::Timeout) {
            self.metrics.timeouts.inc();
        }
        let elapsed = started.elapsed();
        self.metrics.record_latency(Verb::Msearch, elapsed);
        QueryResponse { seq, graph, method, outcome, cached: false, elapsed }
    }

    /// Submit + wait in one call (the sequential path).
    pub fn handle(&self, request: QueryRequest) -> QueryResponse {
        let pending = self.submit(request);
        self.wait(pending)
    }

    /// Executes one mutation line synchronously: stage an edge change, or
    /// commit the staged batch and invalidate affected cache entries.
    pub fn handle_mutate(&self, request: MutateRequest) -> MutateResponse {
        let verb = match request.op {
            MutateOp::AddEdge { .. } => Verb::AddEdge,
            MutateOp::RemoveEdge { .. } => Verb::RemoveEdge,
            MutateOp::Commit => Verb::Commit,
        };
        self.metrics.count_request(verb);
        let started = Instant::now();
        // Containment: a panic anywhere in the mutation path (staging,
        // commit, index patch, cache rescope) must not unwind into the
        // session loop — it surfaces as a structured internal error and
        // the service keeps serving.
        let op = request.op.verb();
        let graph_name = request
            .graph
            .clone()
            .unwrap_or_else(|| self.config.default_graph.clone());
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.handle_mutate_inner(request)
        })) {
            Ok(response) => response,
            Err(payload) => {
                self.metrics.mutate_errors.inc();
                MutateResponse {
                    op,
                    graph: graph_name,
                    outcome: Err(RequestError {
                        kind: ErrorKind::Internal,
                        message: format!(
                            "the mutation handler panicked: {}",
                            crate::fault::panic_message(payload.as_ref())
                        ),
                    }),
                }
            }
        };
        self.metrics.record_latency(verb, started.elapsed());
        response
    }

    /// [`Self::handle_mutate`] minus the per-verb accounting wrapper.
    fn handle_mutate_inner(&self, request: MutateRequest) -> MutateResponse {
        let graph_name = request
            .graph
            .clone()
            .unwrap_or_else(|| self.config.default_graph.clone());
        let op = request.op.verb();
        match &request.op {
            MutateOp::AddEdge { u, v } | MutateOp::RemoveEdge { u, v } => {
                let insert = matches!(request.op, MutateOp::AddEdge { .. });
                let Some(entry) = self.registry.get(&graph_name) else {
                    let message = format!("no graph registered as `{graph_name}`");
                    return self.mutate_error(op, graph_name, message);
                };
                let resolved = resolve_vertex(entry.graph(), u)
                    .and_then(|u| resolve_vertex(entry.graph(), v).map(|v| (u, v)));
                let (u, v) = match resolved {
                    Ok(pair) => pair,
                    Err(err) => return self.mutate_error(op, graph_name, err.message),
                };
                match self.registry.stage_edge(&entry, u, v, insert) {
                    Ok(pending) => {
                        self.metrics.mutations_staged.inc();
                        MutateResponse {
                            op,
                            graph: graph_name,
                            outcome: Ok(MutateOutcome::Staged { pending }),
                        }
                    }
                    Err(message) => self.mutate_error(op, graph_name, message),
                }
            }
            MutateOp::Commit => {
                // The commit fault site, just before the publish (after the
                // index patch and the splice): the last point where a commit
                // can fail. An injected error or panic there leaves the old
                // generation live and the batch staged.
                let mut injected = false;
                let committed = self.registry.commit_with(&graph_name, || {
                    injected = self.faults.perturb(FaultSite::Commit);
                    if injected {
                        Err("injected fault at commit".into())
                    } else {
                        Ok(())
                    }
                });
                match committed {
                    Err(message) if injected => {
                        self.metrics.mutate_errors.inc();
                        MutateResponse {
                            op,
                            graph: graph_name,
                            outcome: Err(RequestError { kind: ErrorKind::Internal, message }),
                        }
                    }
                    Ok(outcome) => {
                        // Commit-stage phase telemetry: the registry timed the
                        // overlay apply and the per-batch cascade/χ work; the
                        // cache rescope is bracketed right here.
                        use bcc_obs::{Phase, Recorder as _};
                        let m = &*self.metrics;
                        m.record_phase(Phase::OverlayApply, outcome.time_overlay_apply);
                        m.record_phase(Phase::Cascade, outcome.time_cascade);
                        m.record_phase(Phase::ChiDelta, outcome.time_chi_delta);
                        let rescope_started = Instant::now();
                        let (invalidated, retained) = self.rescope_cache(
                            outcome.old_generation,
                            outcome.entry.generation(),
                            outcome.dirty.as_ref(),
                        );
                        m.record_phase(Phase::CacheInvalidate, rescope_started.elapsed());
                        m.commits.inc();
                        m.cache_invalidated.add(invalidated as u64);
                        m.cache_retained.add(retained as u64);
                        MutateResponse {
                            op,
                            graph: graph_name,
                            outcome: Ok(MutateOutcome::Committed(CommitSummary {
                                applied: outcome.applied,
                                vertices: outcome.entry.graph().vertex_count(),
                                edges: outcome.entry.graph().edge_count(),
                                index_patched: outcome.index_patched(),
                                invalidated,
                                retained,
                            })),
                        }
                    }
                    Err(message) => self.mutate_error(op, graph_name, message),
                }
            }
        }
    }

    /// A counted, structured mutation failure.
    fn mutate_error(&self, op: &'static str, graph: String, message: String) -> MutateResponse {
        self.metrics.mutate_errors.inc();
        MutateResponse { op, graph, outcome: Err(RequestError::mutate(message)) }
    }

    /// Community-scoped cache invalidation across a commit: every entry of
    /// the replaced generation whose query vertices or cached community
    /// intersect the dirty set (or whose outcome was an error — feasibility
    /// can shift non-locally) is dropped; unaffected warm entries are
    /// rekeyed to the new generation and keep hitting. With no dirty set
    /// (index never built) the graph's entries are invalidated wholesale;
    /// other graphs' entries are untouched either way.
    fn rescope_cache(
        &self,
        old_generation: u64,
        new_generation: u64,
        dirty: Option<&rustc_hash::FxHashSet<u32>>,
    ) -> (usize, usize) {
        let mut cache = lock_unpoisoned(&self.cache);
        let (mut invalidated, mut retained) = (0, 0);
        // LRU→MRU order, so rekeyed survivors keep their relative recency.
        for key in cache.keys_by_recency() {
            if key.generation != old_generation {
                continue;
            }
            let affected = match dirty {
                None => true,
                Some(dirty) => {
                    let query_touched =
                        key.vertex_ks.iter().any(|&(v, _)| dirty.contains(&v));
                    query_touched
                        || match cache.peek(&key) {
                            Some(Ok(outcome)) => {
                                outcome.community.iter().any(|v| dirty.contains(v))
                                    // Pair annotations scope too: a dirty
                                    // pair community — or a failed pair,
                                    // whose feasibility can shift
                                    // non-locally — taints the entry.
                                    || outcome.pairs.iter().any(|p| match &p.result {
                                        Ok(members) => {
                                            members.iter().any(|v| dirty.contains(v))
                                        }
                                        Err(_) => true,
                                    })
                            }
                            Some(Err(_)) | None => true,
                        }
                }
            };
            let Some(value) = cache.remove(&key) else { continue };
            if affected {
                invalidated += 1;
            } else {
                let mut rekeyed = key;
                rekeyed.generation = new_generation;
                let weight = scatter::outcome_weight(&value);
                cache.insert_weighted(rekeyed, value, weight);
                retained += 1;
            }
        }
        (invalidated, retained)
    }

    /// The `stats` verb's JSON line (counts the verb; [`Self::stats`] is
    /// the uncounted programmatic snapshot).
    pub fn stats_json(&self) -> String {
        self.metrics.count_request(Verb::Stats);
        self.stats().to_json()
    }

    /// The `metrics` verb's JSON line: the full registry snapshot —
    /// deterministic key order, integers only.
    pub fn metrics_json(&self) -> String {
        self.metrics.count_request(Verb::Metrics);
        self.metrics.snapshot_json(self.faults.injected())
    }

    /// Prometheus exposition text: the metrics registry's families plus
    /// the worker pool's load gauges/counters.
    pub fn prometheus(&self) -> String {
        let m = &*self.metrics;
        let mut out = m.prometheus();
        let families: [(&str, &str, u64); 5] = [
            ("bcc_pool_executed_total", "counter", self.pool.executed()),
            ("bcc_pool_queue_depth", "gauge", self.pool.queued() as u64),
            ("bcc_pool_admitted_total", "counter", m.admitted.get()),
            ("bcc_pool_rejected_total", "counter", m.rejected_overloaded.get()),
            ("bcc_pool_worker_panics_total", "counter", self.pool.panics()),
        ];
        for (name, kind, value) in families {
            out.push_str(&format!(
                "# HELP {name} Worker pool load.\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP bcc_faults_injected_total Faults the injection plan has fired.\n\
             # TYPE bcc_faults_injected_total counter\n\
             bcc_faults_injected_total {}\n",
            self.faults.injected()
        ));
        out.push_str(&format!(
            "# HELP bcc_pair_retries_total Scatter pair sub-queries retried after an \
             internal failure.\n# TYPE bcc_pair_retries_total counter\n\
             bcc_pair_retries_total {}\n",
            m.pair_retries.get()
        ));
        out
    }

    /// The `graphs` command's JSON line.
    pub fn graphs_json(&self) -> String {
        self.metrics.count_request(Verb::Graphs);
        let names = self
            .registry
            .names()
            .iter()
            .map(|g| json_string(g))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{\"ok\":true,\"graphs\":[{names}]}}")
    }

    /// Counts a parse failure and allocates the global sequence number its
    /// error line carries on the sequential (`serve`) path. The session
    /// layer calls this for TCP sessions too (the counter), substituting
    /// its own per-session seq.
    pub(crate) fn note_parse_error(&self) -> u64 {
        self.metrics.parse_errors.inc();
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Processes one protocol line into its outcome. Never panics. A
    /// `shutdown` line behaves like `quit` here — this path serves exactly
    /// one session, so "stop serving" and "end the session" coincide; only
    /// the TCP server distinguishes them (see [`crate::session::Session`]).
    pub fn process_line(&self, line: &str) -> LineOutcome {
        match parse_line(line) {
            Ok(ParsedLine::Empty) => LineOutcome::Silent,
            Ok(ParsedLine::Quit) | Ok(ParsedLine::Shutdown) => LineOutcome::Quit,
            Ok(ParsedLine::Stats) => LineOutcome::Output(self.stats_json()),
            Ok(ParsedLine::Graphs) => LineOutcome::Output(self.graphs_json()),
            Ok(ParsedLine::Metrics) => LineOutcome::Output(self.metrics_json()),
            Ok(ParsedLine::Request(request)) => {
                LineOutcome::Output(self.handle(request).to_json())
            }
            Ok(ParsedLine::Mutate(request)) => {
                LineOutcome::Output(self.handle_mutate(request).to_json())
            }
            Err(err) => {
                let seq = self.note_parse_error();
                LineOutcome::Output(QueryResponse::error(seq, "", Method::Lp, err).to_json())
            }
        }
    }

    /// Runs a whole session: one response line per request line, until EOF
    /// or `quit`. The `bcc serve` loop (also driven directly by tests).
    /// Since the codec/session refactor this is a [`crate::session::Session`]
    /// in [`crate::session::SeqPolicy::Service`] mode — same bytes as the
    /// historical inline loop, plus first-byte codec negotiation (a binary
    /// client can speak length-prefixed frames over stdin too).
    pub fn run_session<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: W,
    ) -> std::io::Result<()> {
        crate::session::Session::service_mode(self).run(reader, writer).map(|_| ())
    }

    /// Executes a batch of request lines concurrently: every line is
    /// submitted before any result is awaited, so independent misses run in
    /// parallel across the pool. Output lines come back in input order,
    /// with `seq` renumbered to the *batch-local* output index — request
    /// lines therefore serialize byte-identically on every run, whatever
    /// the worker count or cache state. (`stats` lines are the exception:
    /// they snapshot live counters — rendered when the batch's emit pass
    /// reaches them, i.e. after every earlier request completed — and
    /// counters touched by *later* in-flight requests can differ run to
    /// run.)
    ///
    /// Duplicate queries inside one batch may each execute (the cache is
    /// probed at submit time, before the first copy lands); a *subsequent*
    /// batch of the same queries is served entirely from cache.
    pub fn run_batch<S: AsRef<str>>(&self, lines: &[S]) -> Vec<String> {
        enum Slot {
            Line(String),
            Stats,
            Metrics,
            Failed(RequestError),
            Waiting(Pending),
        }
        let mut slots = Vec::with_capacity(lines.len());
        for line in lines {
            match parse_line(line.as_ref()) {
                Ok(ParsedLine::Empty) => {}
                Ok(ParsedLine::Quit) | Ok(ParsedLine::Shutdown) => break,
                Ok(ParsedLine::Stats) => slots.push(Slot::Stats),
                Ok(ParsedLine::Metrics) => slots.push(Slot::Metrics),
                Ok(ParsedLine::Graphs) => {
                    if let LineOutcome::Output(out) = self.process_line("graphs") {
                        slots.push(Slot::Line(out));
                    }
                }
                Ok(ParsedLine::Request(request)) => {
                    slots.push(Slot::Waiting(self.submit(request)));
                }
                // Mutations execute *at submit time*, synchronously: every
                // earlier search already holds its `Arc` to the pre-commit
                // snapshot, every later line resolves against the new one —
                // the batch behaves as if the lines ran sequentially.
                Ok(ParsedLine::Mutate(request)) => {
                    slots.push(Slot::Line(self.handle_mutate(request).to_json()));
                }
                Err(err) => {
                    self.metrics.parse_errors.inc();
                    slots.push(Slot::Failed(err));
                }
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| match slot {
                Slot::Line(out) => out,
                Slot::Stats => self.stats_json(),
                Slot::Metrics => self.metrics_json(),
                Slot::Failed(err) => {
                    QueryResponse::error(idx as u64, "", Method::Lp, err).to_json()
                }
                Slot::Waiting(pending) => {
                    let mut response = self.wait(pending);
                    response.seq = idx as u64;
                    response.to_json()
                }
            })
            .collect()
    }
}

/// A resolved request: vertices and effective parameters in normalized
/// (sorted-by-vertex-id) order.
struct Normalized {
    multi: bool,
    vertices: Vec<VertexId>,
    ks: Vec<u32>,
    b: u64,
}

/// Resolves a vertex token (name first, then numeric id) against `graph`.
fn resolve_vertex(graph: &LabeledGraph, token: &str) -> Result<VertexId, RequestError> {
    if let Some(v) = graph.vertex_by_name(token) {
        return Ok(v);
    }
    let id: u32 = token.parse().map_err(|_| {
        RequestError::resolve(format!("`{token}` is neither a vertex name nor an id"))
    })?;
    if (id as usize) < graph.vertex_count() {
        Ok(VertexId(id))
    } else {
        Err(RequestError::resolve(format!(
            "vertex id {id} out of range (graph has {} vertices)",
            graph.vertex_count()
        )))
    }
}

/// Resolves tokens and computes effective `(k, b)` parameters, touching the
/// index only when a default `k` is needed (the paper's coreness-of-query
/// auto parameterization) — explicit parameters keep the index unbuilt for
/// online/lp requests.
fn normalize(entry: &GraphEntry, request: &QueryRequest) -> Result<Normalized, RequestError> {
    let graph = entry.graph();
    let (multi, tokens, explicit_ks, b) = match &request.kind {
        QueryKind::Pair { ql, qr, k1, k2, b } => (
            false,
            vec![ql.clone(), qr.clone()],
            vec![*k1, *k2],
            b.unwrap_or(1),
        ),
        QueryKind::Multi { qs, k, b } => {
            (true, qs.clone(), vec![*k; qs.len()], b.unwrap_or(1))
        }
    };
    let vertices: Vec<VertexId> = tokens
        .iter()
        .map(|t| resolve_vertex(graph, t))
        .collect::<Result<_, _>>()?;
    let ks: Vec<u32> = vertices
        .iter()
        .zip(&explicit_ks)
        .map(|(&v, k)| match k {
            Some(k) => *k,
            // Default: the query vertex's label coreness (index-backed).
            None => entry.index().index.coreness(v),
        })
        .collect();
    // Normalized execution order = sorted by vertex id, k's carried along.
    let mut pairs: Vec<(VertexId, u32)> = vertices.into_iter().zip(ks).collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    if multi {
        // `msearch q=a,a,b` describes the same query set as `q=a,b`: dedup
        // so both execute identically and share one cache slot. (Duplicate
        // vertices always carry identical k's — a uniform override or the
        // vertex's own coreness.) Pair queries keep their two slots: the
        // degenerate `ql == qr` form is still a pair search.
        pairs.dedup_by_key(|&mut (v, _)| v);
        if pairs.len() < 2 {
            return Err(RequestError::resolve(
                "`msearch` needs at least two distinct query vertices",
            ));
        }
    }
    let (vertices, ks): (Vec<VertexId>, Vec<u32>) = pairs.into_iter().unzip();
    Ok(Normalized { multi, vertices, ks, b })
}

/// The shared service handles one worker job records through: the result
/// cache and the lock-free metrics registry.
#[derive(Clone)]
struct ExecShared {
    cache: SharedCache,
    metrics: Arc<Metrics>,
    faults: Arc<FaultPlan>,
    query_threads: usize,
}

/// Maps a pool-level wait failure to the structured protocol error it
/// surfaces as: an expired deadline is a `timeout`; a panicked worker job
/// (caught; the worker keeps serving) and a shut-down pool are `internal` —
/// transient, never cached, and retryable by the caller.
fn job_error(err: JobError) -> RequestError {
    match err {
        JobError::DeadlineExpired => RequestError {
            kind: ErrorKind::Timeout,
            message: "deadline expired before the search completed".into(),
        },
        JobError::Panicked(message) => RequestError {
            kind: ErrorKind::Internal,
            message: format!("the worker executing this request panicked: {message}"),
        },
        JobError::Shutdown => RequestError {
            kind: ErrorKind::Internal,
            message: "the worker pool shut down before the search completed".into(),
        },
    }
}

/// Runs one search on a worker thread and (when `cache_insert` is set)
/// populates the cache. Requests whose deadline already passed are dropped
/// without executing (their waiter has moved on; starting the search would
/// waste the pool). Scatter sub-jobs pass `cache_insert: false` — their
/// inserts replay on the gather side, in plan order, so cache state stays
/// deterministic across worker counts.
fn execute(
    entry: &GraphEntry,
    method: Method,
    normalized: &Normalized,
    key: CacheKey,
    deadline: Option<Instant>,
    cache_insert: bool,
    shared: &ExecShared,
) -> Result<QueryOutcome, RequestError> {
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            return Err(RequestError {
                kind: ErrorKind::Timeout,
                message: "deadline expired before the search started".into(),
            });
        }
    }
    // The query path's fault site. An injected error is transient (never
    // cached) by early return here, before the insert below.
    if shared.faults.perturb(FaultSite::WorkerExecute) {
        return Err(RequestError {
            kind: ErrorKind::Internal,
            message: "injected fault at worker_execute".into(),
        });
    }
    let started = Instant::now();
    let graph = entry.graph();
    let result = if normalized.multi {
        let query = MbccQuery::new(normalized.vertices.clone());
        let params = MbccParams::new(normalized.ks.clone(), normalized.b);
        let searcher = MultiLabelBcc::with_strategy(method.multi_strategy())
            .with_query_threads(shared.query_threads);
        let index = match method {
            Method::L2p => Some(&entry.index().index),
            _ => None,
        };
        searcher.search(graph, index, &query, &params)
    } else {
        let query = BccQuery::pair(normalized.vertices[0], normalized.vertices[1]);
        let params = BccParams::new(normalized.ks[0], normalized.ks[1], normalized.b);
        match method {
            Method::Online => OnlineBcc::default()
                .with_query_threads(shared.query_threads)
                .search(graph, &query, &params),
            Method::Lp => LpBcc::default()
                .with_query_threads(shared.query_threads)
                .search(graph, &query, &params),
            Method::L2p => L2pBcc::default()
                .with_query_threads(shared.query_threads)
                .search(graph, &entry.index().index, &query, &params),
        }
    };
    let elapsed = started.elapsed();
    // Telemetry is out-of-band: phase replay and the slow-query log read
    // the result's stats here, where they still exist — the response JSON
    // built from the outcome below never carries them.
    let verb = if normalized.multi { Verb::Msearch } else { Verb::Search };
    if let Ok(r) = &result {
        r.stats.record_phases(&*shared.metrics);
        shared.metrics.note_query(verb, entry.name(), elapsed, Some(&r.stats));
    } else {
        shared.metrics.note_query(verb, entry.name(), elapsed, None);
    }
    let outcome = result
        .map(|r| outcome_from_result(&r, &normalized.ks, normalized.b))
        .map_err(|e| RequestError {
            kind: ErrorKind::Search,
            message: e.to_string(),
        });
    let m = &*shared.metrics;
    m.searches_executed.inc();
    m.search_time_ns.add(elapsed.as_nanos() as u64);
    if outcome.is_err() {
        m.search_errors.inc();
    }
    // Search outcomes — including deterministic search errors — are
    // cacheable; timeouts and panics never reach this point.
    if cache_insert {
        let weight = scatter::outcome_weight(&outcome);
        lock_unpoisoned(&shared.cache).insert_weighted(key, outcome.clone(), weight);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::GraphBuilder;

    /// Two labeled 4-cliques bridged by a butterfly (a (3,3,1)-BCC).
    fn butterfly_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let l: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("l{i}"), "L")).collect();
        let r: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("r{i}"), "R")).collect();
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
        b.build()
    }

    fn service() -> BccService {
        BccService::with_graph(
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
            butterfly_graph(),
        )
    }

    #[test]
    fn end_to_end_search_line() {
        let service = service();
        let LineOutcome::Output(line) = service.process_line("search ql=l0 qr=r0") else {
            panic!("expected output");
        };
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"size\":8"), "{line}");
        assert!(line.contains("\"method\":\"lp\""), "{line}");
    }

    #[test]
    fn symmetric_queries_share_cache_and_answers() {
        let service = service();
        let LineOutcome::Output(a) = service.process_line("search ql=l0 qr=r0") else {
            panic!();
        };
        let LineOutcome::Output(b) = service.process_line("search ql=r0 qr=l0") else {
            panic!();
        };
        // Identical payloads modulo the sequence number.
        let payload = |s: &str| s.split(",\"graph\"").nth(1).unwrap().to_string();
        assert_eq!(payload(&a), payload(&b), "symmetric pair serves the identical answer");
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.searches_executed, 1);
    }

    #[test]
    fn methods_cache_separately() {
        let service = service();
        service.process_line("search ql=l0 qr=r0 method=online");
        service.process_line("search ql=l0 qr=r0 method=lp");
        assert_eq!(service.stats().searches_executed, 2);
    }

    #[test]
    fn search_errors_are_structured_and_cached() {
        let service = service();
        // b=100 is unsatisfiable → SearchError::NoCandidate.
        let LineOutcome::Output(first) = service.process_line("search ql=l0 qr=r0 b=100")
        else {
            panic!();
        };
        assert!(first.contains("\"ok\":false"), "{first}");
        assert!(first.contains("\"error\":\"search\""), "{first}");
        service.process_line("search ql=l0 qr=r0 b=100");
        let stats = service.stats();
        assert_eq!(stats.searches_executed, 1, "error outcome is cached");
        assert_eq!(stats.search_errors, 1);
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn resolve_and_parse_errors() {
        let service = service();
        let LineOutcome::Output(bad_vertex) = service.process_line("search ql=zz qr=r0")
        else {
            panic!();
        };
        assert!(bad_vertex.contains("\"error\":\"resolve\""), "{bad_vertex}");
        let LineOutcome::Output(bad_graph) =
            service.process_line("search ql=l0 qr=r0 graph=missing")
        else {
            panic!();
        };
        assert!(bad_graph.contains("no graph registered"), "{bad_graph}");
        let LineOutcome::Output(bad_line) = service.process_line("nonsense !!") else {
            panic!();
        };
        assert!(bad_line.contains("\"error\":\"parse\""), "{bad_line}");
        let stats = service.stats();
        assert_eq!(stats.resolve_errors, 2);
        assert_eq!(stats.parse_errors, 1);
    }

    #[test]
    fn msearch_line_works() {
        let service = service();
        let LineOutcome::Output(line) = service.process_line("msearch q=l0,r0 k=3") else {
            panic!();
        };
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    #[test]
    fn explicit_params_keep_index_unbuilt_for_lp() {
        let service = service();
        service.process_line("search ql=l0 qr=r0 k1=3 k2=3 b=1 method=lp");
        let entry = service.registry().get("default").unwrap();
        assert!(
            entry.index_if_built().is_none(),
            "explicit params + lp must not force the index build"
        );
        service.process_line("search ql=l0 qr=r0 k1=3 k2=3 b=1 method=l2p");
        assert!(entry.index_if_built().is_some(), "l2p builds it");
    }

    #[test]
    fn reregistering_a_graph_invalidates_its_cached_results() {
        let service = service();
        let LineOutcome::Output(first) = service.process_line("search ql=0 qr=4") else {
            panic!();
        };
        assert!(first.contains("\"size\":8"), "{first}");
        // Replace the default graph with one where vertices 0 and 4 share a
        // label: the old cached answer must not be served for the new
        // snapshot (keys carry the snapshot generation, not the name).
        let mut b = GraphBuilder::new();
        let x = b.add_vertex("L");
        let y = b.add_vertex("L");
        for _ in 0..6 {
            b.add_vertex("L");
        }
        b.add_edge(x, y);
        service.registry().insert("default", b.build());
        let LineOutcome::Output(second) = service.process_line("search ql=0 qr=4") else {
            panic!();
        };
        assert!(
            second.contains("\"error\":\"search\""),
            "stale cache served for a replaced snapshot: {second}"
        );
    }

    #[test]
    fn session_loop_answers_and_quits() {
        let service = service();
        let input = b"# warmup\nsearch ql=l0 qr=r0\nstats\nquit\nsearch ql=l1 qr=r1\n";
        let mut output = Vec::new();
        service.run_session(&input[..], &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "comment silent, quit stops the session: {text}");
        assert!(lines[0].contains("\"ok\":true"));
        assert!(lines[1].contains("\"requests\":1"));
    }

    #[test]
    fn batch_preserves_input_order() {
        let service = service();
        let lines = [
            "search ql=l0 qr=r0",
            "bogus line",
            "search ql=l1 qr=r1 method=online",
            "",
            "search ql=l0 qr=r0",
        ];
        let out = service.run_batch(&lines);
        assert_eq!(out.len(), 4, "empty line emits nothing");
        assert!(out[0].contains("\"seq\":0"));
        assert!(out[1].contains("\"error\":\"parse\""));
        assert!(out[2].contains("\"method\":\"online\""));
        assert!(out[3].contains("\"seq\":3"));
    }

    #[test]
    fn msearch_duplicates_normalize_to_one_slot() {
        let service = service();
        let LineOutcome::Output(a) = service.process_line("msearch q=l0,l0,r0 k=3") else {
            panic!();
        };
        assert!(a.contains("\"ok\":true"), "{a}");
        let LineOutcome::Output(b) = service.process_line("msearch q=l0,r0 k=3") else {
            panic!();
        };
        // Same answer, one execution, one hit: the duplicate collapsed.
        let payload = |s: &str| s.split(",\"graph\"").nth(1).unwrap().to_string();
        assert_eq!(payload(&a), payload(&b));
        let stats = service.stats();
        assert_eq!(stats.searches_executed, 1, "q=l0,l0,r0 and q=l0,r0 share a slot");
        assert_eq!(stats.cache.hits, 1);
        // All-duplicates degenerates below two distinct vertices: structured
        // resolve error, not a panic.
        let LineOutcome::Output(bad) = service.process_line("msearch q=l0,l0 k=3") else {
            panic!();
        };
        assert!(bad.contains("\"error\":\"resolve\""), "{bad}");
        assert!(bad.contains("distinct"), "{bad}");
    }

    #[test]
    fn mutate_stage_and_commit_line_flow() {
        let service = service();
        let LineOutcome::Output(staged) = service.process_line("add_edge u=l3 v=r3") else {
            panic!();
        };
        assert_eq!(
            staged,
            "{\"ok\":true,\"op\":\"add_edge\",\"graph\":\"default\",\"staged\":1}"
        );
        let LineOutcome::Output(second) = service.process_line("remove_edge u=l0 v=r1") else {
            panic!();
        };
        assert!(second.contains("\"staged\":2"), "{second}");
        let LineOutcome::Output(committed) = service.process_line("commit") else { panic!() };
        assert!(committed.contains("\"ok\":true"), "{committed}");
        assert!(committed.contains("\"applied\":2"), "{committed}");
        assert!(committed.contains("\"edges\":16"), "{committed}");
        assert!(committed.contains("\"index_patched\":false"), "{committed}");
        // The committed snapshot serves subsequent searches: l3–r3 exists.
        let current = service.registry().get("default").unwrap();
        assert!(current.graph().has_edge(VertexId(3), VertexId(7)));
        assert!(!current.graph().has_edge(VertexId(0), VertexId(5)));
        let stats = service.stats();
        assert_eq!(stats.mutations_staged, 2);
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn mutate_errors_are_structured() {
        let service = service();
        for (line, needle) in [
            ("commit", "nothing staged"),
            ("add_edge u=l0 v=l1", "already exists"),
            ("remove_edge u=l0 v=r3", "does not exist"),
            ("add_edge u=l0 v=l0", "self-loop"),
            ("add_edge u=nobody v=l0", "neither a vertex name nor an id"),
            ("add_edge u=l0 v=l1 graph=missing", "no graph registered"),
        ] {
            let LineOutcome::Output(out) = service.process_line(line) else { panic!() };
            assert!(out.contains("\"ok\":false"), "{line}: {out}");
            assert!(out.contains("\"error\":\"mutate\""), "{line}: {out}");
            assert!(out.contains(needle), "{line}: {out}");
        }
        assert_eq!(service.stats().mutate_errors, 6);
        assert_eq!(service.stats().mutations_staged, 0);
    }

    /// Two disconnected butterfly communities; mutating one must leave the
    /// other's warm cache entry hitting across the commit.
    fn two_component_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        for comp in ["x", "y"] {
            let l: Vec<_> =
                (0..4).map(|i| b.add_named_vertex(&format!("{comp}l{i}"), "L")).collect();
            let r: Vec<_> =
                (0..4).map(|i| b.add_named_vertex(&format!("{comp}r{i}"), "R")).collect();
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
        }
        b.build()
    }

    #[test]
    fn commit_invalidation_is_community_scoped() {
        let service = BccService::with_graph(
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
            two_component_graph(),
        );
        // Build the index so the commit takes the scoped (patched) path.
        service.registry().get("default").unwrap().index();
        // Warm both components.
        service.process_line("search ql=xl0 qr=xr0 k1=3 k2=3 b=1");
        service.process_line("search ql=yl0 qr=yr0 k1=3 k2=3 b=1");
        assert_eq!(service.stats().searches_executed, 2);

        // Mutate component x only.
        service.process_line("add_edge u=xl3 v=xr3");
        let LineOutcome::Output(committed) = service.process_line("commit") else { panic!() };
        assert!(committed.contains("\"index_patched\":true"), "{committed}");
        assert!(committed.contains("\"invalidated\":1"), "{committed}");
        assert!(committed.contains("\"retained\":1"), "{committed}");

        // Component y's entry survived the generation bump: a pure hit.
        let LineOutcome::Output(y) = service.process_line("search ql=yl0 qr=yr0 k1=3 k2=3 b=1")
        else {
            panic!();
        };
        assert!(y.contains("\"ok\":true"), "{y}");
        let stats = service.stats();
        assert_eq!(stats.searches_executed, 2, "the y community was never re-executed");
        assert_eq!(stats.cache.hits, 1);
        // Component x re-executes against the patched snapshot.
        service.process_line("search ql=xl0 qr=xr0 k1=3 k2=3 b=1");
        assert_eq!(service.stats().searches_executed, 3);
    }

    #[test]
    fn hostile_names_stay_valid_json() {
        // The line parser splits on whitespace only, so `ali"ce` is a legal
        // vertex token and `no"such` a legal graph name; both flow into
        // response strings and must be escaped.
        let service = service();
        let LineOutcome::Output(bad_vertex) = service.process_line("search ql=ali\"ce qr=r0")
        else {
            panic!();
        };
        assert!(bad_vertex.contains("ali\\\"ce"), "{bad_vertex}");
        let LineOutcome::Output(bad_graph) =
            service.process_line("search ql=l0 qr=r0 graph=no\"such")
        else {
            panic!();
        };
        assert!(bad_graph.contains("no\\\"such"), "{bad_graph}");
        let LineOutcome::Output(bad_mutate) = service.process_line("add_edge u=ali\"ce v=l0")
        else {
            panic!();
        };
        assert!(bad_mutate.contains("ali\\\"ce"), "{bad_mutate}");
        for line in [&bad_vertex, &bad_graph, &bad_mutate] {
            // Minimal structural check: even quote count ⇒ the name did not
            // terminate the JSON string early.
            let unescaped = line.replace("\\\"", "");
            assert_eq!(unescaped.matches('"').count() % 2, 0, "{line}");
        }
    }

    fn service_with_faults(specs: &[&str]) -> BccService {
        BccService::with_graph(
            ServiceConfig {
                workers: 1,
                faults: specs.iter().map(|s| s.to_string()).collect(),
                ..ServiceConfig::default()
            },
            butterfly_graph(),
        )
    }

    #[test]
    fn injected_worker_panic_is_contained_and_typed() {
        let service = service_with_faults(&["worker_execute:panic:1:1"]);
        let LineOutcome::Output(first) = service.process_line("search ql=l0 qr=r0") else {
            panic!();
        };
        assert!(first.contains("\"error\":\"internal\""), "{first}");
        assert!(first.contains("panicked"), "{first}");
        // The panicked query was never cached; the retry executes on the
        // same worker (submit containment keeps it alive) and succeeds.
        let LineOutcome::Output(second) = service.process_line("search ql=l0 qr=r0") else {
            panic!();
        };
        assert!(second.contains("\"ok\":true"), "{second}");
        assert!(second.contains("\"size\":8"), "{second}");
        assert!(!second.contains("\"cached\""), "sanity: cached is not serialized");
        let stats = service.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.workers, 1, "pool capacity intact");
    }

    #[test]
    fn injected_error_is_transient_and_never_cached() {
        let service = service_with_faults(&["worker_execute:error:1:1"]);
        let LineOutcome::Output(first) = service.process_line("search ql=l0 qr=r0") else {
            panic!();
        };
        assert!(first.contains("\"error\":\"internal\""), "{first}");
        assert!(first.contains("injected fault at worker_execute"), "{first}");
        let LineOutcome::Output(second) = service.process_line("search ql=l0 qr=r0") else {
            panic!();
        };
        assert!(second.contains("\"ok\":true"), "{second}");
        let stats = service.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.cache.hits, 0, "the injected failure must not be served again");
        assert_eq!(stats.searches_executed, 1, "only the retry reached the engine");
    }

    #[test]
    fn injected_delay_leaves_response_bytes_identical() {
        let faulty = service_with_faults(&["worker_execute:delay5ms:1:1"]);
        let clean = service_with_faults(&[]);
        let line = "search ql=l0 qr=r0";
        let LineOutcome::Output(a) = faulty.process_line(line) else { panic!() };
        let LineOutcome::Output(b) = clean.process_line(line) else { panic!() };
        assert_eq!(a, b, "a delay perturbs timing, never bytes");
        assert_eq!(faulty.stats().faults_injected, 1);
    }

    #[test]
    fn commit_phase_fault_leaves_staged_batch_intact() {
        let service = service_with_faults(&["commit:error:1:1"]);
        service.process_line("add_edge u=l3 v=r3");
        let LineOutcome::Output(failed) = service.process_line("commit") else { panic!() };
        assert!(failed.contains("\"ok\":false"), "{failed}");
        assert!(failed.contains("\"error\":\"internal\""), "{failed}");
        assert!(failed.contains("injected fault at commit"), "{failed}");
        // The batch was never consumed: the next commit applies it.
        let LineOutcome::Output(committed) = service.process_line("commit") else { panic!() };
        assert!(committed.contains("\"ok\":true"), "{committed}");
        assert!(committed.contains("\"applied\":1"), "{committed}");
        let stats = service.stats();
        assert_eq!(stats.mutate_errors, 1);
        assert_eq!(stats.commits, 1);
    }

    /// The fault site sits just before the publish: an injected panic or
    /// error there fails that commit only — the old generation stays live,
    /// the whole batch stays staged, and the next commit applies it.
    #[test]
    fn commit_fault_before_publish_keeps_the_batch_staged() {
        for spec in ["commit:panic:1:1", "commit:error:1:1"] {
            let service = service_with_faults(&[spec]);
            service.process_line("add_edge u=l3 v=r3");
            service.process_line("remove_edge u=l0 v=r1");
            let before = service.registry().get("default").unwrap().generation();
            let LineOutcome::Output(failed) = service.process_line("commit") else { panic!() };
            assert!(failed.contains("\"error\":\"internal\""), "{spec}: {failed}");
            assert!(failed.contains("at commit"), "{spec}: {failed}");
            let live = service.registry().get("default").unwrap();
            assert_eq!(live.generation(), before, "{spec}: the old generation stays live");
            assert_eq!(service.registry().pending_len("default"), 2, "{spec}");
            let LineOutcome::Output(committed) = service.process_line("commit") else { panic!() };
            assert!(committed.contains("\"ok\":true"), "{spec}: {committed}");
            assert!(committed.contains("\"applied\":2"), "{spec}: {committed}");
            assert!(committed.contains("\"edges\":16"), "{spec}: {committed}");
            let stats = service.stats();
            assert_eq!((stats.mutate_errors, stats.commits, stats.faults_injected), (1, 1, 1));
        }
    }

    /// Three labeled 4-cliques chained A–B–C by butterflies (the
    /// scatter topology of the concurrency and chaos suites).
    fn three_group_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
        let bb: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("C")).collect();
        for grp in [&a, &bb, &c] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(grp[i], grp[j]);
                }
            }
        }
        for (left, right) in [(&a, &bb), (&bb, &c)] {
            for &x in &left[..2] {
                for &y in &right[..2] {
                    b.add_edge(x, y);
                }
            }
        }
        b.build()
    }

    #[test]
    fn scatter_pair_fault_is_retried_within_the_gather() {
        let service = BccService::with_graph(
            ServiceConfig {
                workers: 1,
                faults: vec!["scatter_pair:error:1:1".into()],
                ..ServiceConfig::default()
            },
            three_group_graph(),
        );
        // Three distinct labels ⇒ the scatter path (one assembly + three
        // pair sub-queries). The first pair submission eats the injected
        // error; the gather-side retry re-executes it cleanly.
        let LineOutcome::Output(line) = service.process_line("msearch q=0,4,8 k=3 b=1") else {
            panic!();
        };
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(!line.contains("internal"), "retry absorbed the fault: {line}");
        let stats = service.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.pair_retries, 1);
    }

    #[test]
    fn stats_and_prometheus_surface_fault_counters() {
        let service = service();
        let stats = service.stats_json();
        assert!(
            stats.ends_with(",\"faults\":{\"injected\":0,\"worker_panics\":0,\"pair_retries\":0}}"),
            "{stats}"
        );
        let prom = service.prometheus();
        assert!(prom.contains("bcc_faults_injected_total 0"), "{prom}");
        assert!(prom.contains("\nbcc_pool_worker_panics_total 0\n"), "{prom}");
        assert!(!prom.contains("respawn"), "{prom}");
        let metrics = service.metrics_json();
        assert!(metrics.ends_with(",\"faults\":{\"injected\":0,\"pair_retries\":0}}"), "{metrics}");
    }

    #[test]
    fn timeout_returns_structured_error() {
        // One worker: submit two uncached requests back-to-back, the second
        // with an already-expired (0 ms) deadline. Whichever side notices —
        // the waiter's deadline or the worker's pre-execution drop — the
        // response is a structured timeout, exactly once in the stats.
        let service = BccService::with_graph(
            ServiceConfig { workers: 1, ..ServiceConfig::default() },
            butterfly_graph(),
        );
        let pair = |ql: &str, qr: &str, timeout_ms: Option<u64>| QueryRequest {
            graph: None,
            kind: QueryKind::Pair {
                ql: ql.into(),
                qr: qr.into(),
                k1: Some(3),
                k2: Some(3),
                b: Some(1),
            },
            method: Method::Lp,
            timeout_ms,
            priority: crate::request::Priority::Normal,
        };
        let first = service.submit(pair("l0", "r0", None));
        let second = service.submit(pair("l1", "r1", Some(0)));
        let err = service.wait(second).outcome.unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
        assert!(service.wait(first).is_ok());
        assert_eq!(service.stats().timeouts, 1);
        // The dropped request was never executed, so it is not cached: a
        // retry without a deadline succeeds.
        let retry = service.handle(pair("l1", "r1", None));
        assert!(retry.is_ok());
        assert!(!retry.cached);
    }
}
