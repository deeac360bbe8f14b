//! The service's one counter store: per-verb request counters and latency
//! histograms, the service and transport counters behind the `stats` verb,
//! per-phase histograms fed by [`bcc_core::SearchStats`] replays and
//! commit-stage timers, queue-wait distribution, and a slow-query log.
//!
//! Telemetry is strictly **out-of-band**: nothing here ever changes a
//! protocol response byte. The registry implements [`Recorder`], so the
//! same `record_phases` call that feeds a figure binary's
//! [`bcc_obs::QueryTrace`] feeds the live histograms here. All recording
//! is lock-free (atomics only); the only formatting work happens in the
//! cold `snapshot_json` / `prometheus` renderers and in the (rare, gated)
//! slow-query log line.
//!
//! Two tiers of cost:
//!
//! * **counters** are always on — single relaxed `fetch_add`s, written by
//!   the service, the worker jobs, the admission gate, the accept loop and
//!   every session, and read one by one into [`crate::ServiceStats`];
//! * **histograms, phase recording, queue-wait, and the slow-query log**
//!   are gated on [`ServiceConfig::metrics`](crate::ServiceConfig) — the
//!   `metrics off` configuration is the baseline the ≤5 % overhead gate in
//!   `load_bench` compares against.
//!
//! Three counts live with their single writers instead: the worker pool's
//! executed/panic counters, [`crate::FaultPlan::injected`], and the
//! result cache's [`crate::CacheCounters`].

use std::time::Duration;

use bcc_obs::{duration_to_micros, Counter, Gauge, Histogram, HistogramSnapshot, Phase, Recorder};

/// Protocol verbs, as counted/timed by the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `search` — pair query.
    Search,
    /// `msearch` — multi-vertex query.
    Msearch,
    /// `add_edge` — stage an insertion.
    AddEdge,
    /// `remove_edge` — stage a removal.
    RemoveEdge,
    /// `commit` — apply the staged batch.
    Commit,
    /// `stats` — service counters snapshot.
    Stats,
    /// `graphs` — registry listing.
    Graphs,
    /// `metrics` — this registry's own snapshot.
    Metrics,
}

impl Verb {
    /// Number of verbs.
    pub const COUNT: usize = 8;

    /// Every verb, in display order (stable: JSON + Prometheus rely on it).
    pub const ALL: [Verb; Verb::COUNT] = [
        Verb::Search,
        Verb::Msearch,
        Verb::AddEdge,
        Verb::RemoveEdge,
        Verb::Commit,
        Verb::Stats,
        Verb::Graphs,
        Verb::Metrics,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Protocol spelling, used as JSON key and Prometheus label value.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Search => "search",
            Verb::Msearch => "msearch",
            Verb::AddEdge => "add_edge",
            Verb::RemoveEdge => "remove_edge",
            Verb::Commit => "commit",
            Verb::Stats => "stats",
            Verb::Graphs => "graphs",
            Verb::Metrics => "metrics",
        }
    }
}

/// The registry. One instance per [`crate::BccService`], shared (behind
/// `Arc`) with every worker and session thread.
///
/// The crate-visible counters carry the [`crate::ServiceStats`] field of the
/// same name, except `search_time_ns`, which `stats` renders as
/// `total_search_time_us`.
#[derive(Debug, Default)]
pub struct Metrics {
    enabled: bool,
    slow_query_micros: u64,
    requests: [Counter; Verb::COUNT],
    latency: [Histogram; Verb::COUNT],
    phases: [Histogram; Phase::COUNT],
    queue_wait: Histogram,
    slow_queries: Counter,
    pub(crate) searches_executed: Counter,
    pub(crate) search_time_ns: Counter,
    pub(crate) search_errors: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) parse_errors: Counter,
    pub(crate) resolve_errors: Counter,
    pub(crate) mutations_staged: Counter,
    pub(crate) commits: Counter,
    pub(crate) mutate_errors: Counter,
    pub(crate) cache_invalidated: Counter,
    pub(crate) cache_retained: Counter,
    pub(crate) pair_retries: Counter,
    pub(crate) connections_accepted: Counter,
    pub(crate) connections_rejected: Counter,
    pub(crate) active_sessions: Gauge,
    pub(crate) admitted: Counter,
    pub(crate) rejected_overloaded: Counter,
    pub(crate) admission_timeouts: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
}

impl Metrics {
    /// `enabled = false` turns every histogram/log path into a branch on a
    /// bool; the counters stay live either way.
    pub fn new(enabled: bool, slow_query_ms: u64) -> Metrics {
        Metrics {
            enabled,
            slow_query_micros: slow_query_ms.saturating_mul(1000),
            ..Metrics::default()
        }
    }

    /// Counts one request for `verb`. Always on.
    #[inline]
    pub fn count_request(&self, verb: Verb) {
        self.requests[verb.index()].inc();
    }

    /// Requests counted so far for `verb`.
    #[inline]
    pub fn requests(&self, verb: Verb) -> u64 {
        self.requests[verb.index()].get()
    }

    /// Records end-to-end latency for `verb`. Gated.
    #[inline]
    pub fn record_latency(&self, verb: Verb, elapsed: Duration) {
        if self.enabled {
            self.latency[verb.index()].record_duration(elapsed);
        }
    }

    /// Records time a request spent waiting for an admission permit. Gated.
    #[inline]
    pub fn record_queue_wait(&self, elapsed: Duration) {
        if self.enabled {
            self.queue_wait.record_duration(elapsed);
        }
    }

    /// Slow queries flagged so far.
    #[inline]
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries.get()
    }

    /// If `elapsed` exceeds the configured threshold, counts it and writes
    /// one structured JSON line to **stderr** (stdout is the protocol
    /// stream; responses must stay byte-identical with metrics on or off).
    /// Gated; a threshold of 0 ms flags every query with `elapsed > 0`.
    pub fn note_query(
        &self,
        verb: Verb,
        graph: &str,
        elapsed: Duration,
        stats: Option<&bcc_core::SearchStats>,
    ) {
        if !self.enabled {
            return;
        }
        let micros = duration_to_micros(elapsed);
        if micros <= self.slow_query_micros {
            return;
        }
        self.slow_queries.inc();
        eprintln!("{}", slow_query_line(verb, graph, micros, stats));
    }

    /// Point-in-time copy of one phase histogram.
    pub fn phase_snapshot(&self, phase: Phase) -> HistogramSnapshot {
        self.phases[phase.index()].snapshot()
    }

    /// Point-in-time copy of one verb's latency histogram.
    pub fn latency_snapshot(&self, verb: Verb) -> HistogramSnapshot {
        self.latency[verb.index()].snapshot()
    }

    /// Point-in-time copy of the queue-wait histogram.
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.queue_wait.snapshot()
    }

    /// The full registry as one deterministic JSON line (fixed key order,
    /// integers only) — the `metrics` protocol verb's response, closed by
    /// the `faults` object (`faults_injected` comes from the fault plan).
    pub fn snapshot_json(&self, faults_injected: u64) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(&format!(
            "{{\"ok\":true,\"metrics_enabled\":{},\"slow_queries\":{}",
            self.enabled,
            self.slow_queries.get()
        ));
        out.push_str(",\"verbs\":{");
        for (i, verb) in Verb::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = self.latency[verb.index()].snapshot();
            out.push_str(&format!(
                "\"{}\":{{\"requests\":{},{}}}",
                verb.name(),
                self.requests[verb.index()].get(),
                histogram_json_fields(&snap)
            ));
        }
        out.push_str("},\"phases\":{");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = self.phases[phase.index()].snapshot();
            out.push_str(&format!("\"{}\":{{{}}}", phase.name(), histogram_json_fields(&snap)));
        }
        out.push_str(&format!(
            "}},\"queue_wait\":{{{}}},\"faults\":{{\"injected\":{faults_injected},\
             \"pair_retries\":{}}}}}",
            histogram_json_fields(&self.queue_wait.snapshot()),
            self.pair_retries.get()
        ));
        out
    }

    /// Prometheus text exposition (format 0.0.4), summary-style: quantiles
    /// as `quantile` labels plus `_sum`/`_count`, all in microseconds.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP bcc_metrics_enabled Whether the gated metrics tier is live.\n");
        out.push_str("# TYPE bcc_metrics_enabled gauge\n");
        out.push_str(&format!("bcc_metrics_enabled {}\n", u64::from(self.enabled)));
        out.push_str("# HELP bcc_requests_total Requests received, by protocol verb.\n");
        out.push_str("# TYPE bcc_requests_total counter\n");
        for verb in Verb::ALL {
            out.push_str(&format!(
                "bcc_requests_total{{verb=\"{}\"}} {}\n",
                verb.name(),
                self.requests[verb.index()].get()
            ));
        }
        out.push_str("# HELP bcc_slow_queries_total Queries over the slow-query threshold.\n");
        out.push_str("# TYPE bcc_slow_queries_total counter\n");
        out.push_str(&format!("bcc_slow_queries_total {}\n", self.slow_queries.get()));
        out.push_str(
            "# HELP bcc_verb_latency_microseconds End-to-end request latency, by verb.\n",
        );
        out.push_str("# TYPE bcc_verb_latency_microseconds summary\n");
        for verb in Verb::ALL {
            let snap = self.latency[verb.index()].snapshot();
            prometheus_summary(
                &mut out,
                "bcc_verb_latency_microseconds",
                &format!("verb=\"{}\"", verb.name()),
                &snap,
            );
        }
        out.push_str(
            "# HELP bcc_phase_latency_microseconds Time spent per engine phase.\n",
        );
        out.push_str("# TYPE bcc_phase_latency_microseconds summary\n");
        for phase in Phase::ALL {
            let snap = self.phases[phase.index()].snapshot();
            prometheus_summary(
                &mut out,
                "bcc_phase_latency_microseconds",
                &format!("phase=\"{}\"", phase.name()),
                &snap,
            );
        }
        out.push_str(
            "# HELP bcc_queue_wait_microseconds Time requests waited for an admission permit.\n",
        );
        out.push_str("# TYPE bcc_queue_wait_microseconds summary\n");
        prometheus_summary(&mut out, "bcc_queue_wait_microseconds", "", &self.queue_wait.snapshot());
        out
    }
}

impl Recorder for Metrics {
    /// Feeds the per-phase histograms. Gated: with metrics off this is a
    /// single predictable branch.
    #[inline]
    fn record_phase(&self, phase: Phase, elapsed: Duration) {
        if self.enabled {
            self.phases[phase.index()].record_duration(elapsed);
        }
    }
}

/// The slow-query log line: one JSON object, the graph name escaped like
/// every other string the service emits.
fn slow_query_line(
    verb: Verb,
    graph: &str,
    micros: u64,
    stats: Option<&bcc_core::SearchStats>,
) -> String {
    let mut line = String::with_capacity(160);
    line.push_str("{\"slow_query\":true,\"verb\":\"");
    line.push_str(verb.name());
    line.push_str("\",\"graph\":");
    bcc_graph::json::push_json_string(&mut line, graph);
    line.push_str(&format!(",\"elapsed_us\":{micros}"));
    if let Some(s) = stats {
        line.push_str(&format!(
            ",\"query_distance_us\":{},\"core_decomp_us\":{},\
             \"butterfly_counting_us\":{},\"leader_pairing_us\":{}",
            duration_to_micros(s.time_query_distance),
            duration_to_micros(s.time_core_decomp),
            duration_to_micros(s.time_butterfly_counting),
            duration_to_micros(s.time_leader_update),
        ));
    }
    line.push('}');
    line
}

/// Shared histogram fields for `snapshot_json` (no surrounding braces).
fn histogram_json_fields(snap: &HistogramSnapshot) -> String {
    format!(
        "\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}",
        snap.count,
        snap.sum,
        snap.quantile(0.50),
        snap.quantile(0.90),
        snap.quantile(0.99)
    )
}

/// One summary family member: three quantiles + `_sum` + `_count`.
fn prometheus_summary(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, label) in [(0.50, "0.5"), (0.90, "0.9"), (0.99, "0.99")] {
        out.push_str(&format!(
            "{name}{{{labels}{sep}quantile=\"{label}\"}} {}\n",
            snap.quantile(q)
        ));
    }
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braces} {}\n", snap.sum));
    out.push_str(&format!("{name}_count{braces} {}\n", snap.count));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine phases every snapshot and exposition lists, in order: the
    /// four query phases, then the four commit stages.
    const PHASE_NAMES: [&str; 8] = [
        "query_distance",
        "core_decomp",
        "butterfly_counting",
        "leader_pairing",
        "overlay_apply",
        "cascade",
        "chi_delta",
        "cache_invalidate",
    ];

    #[test]
    fn verb_names_are_stable_and_distinct() {
        let mut names: Vec<_> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Verb::COUNT);
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn counters_always_on_histograms_gated() {
        let off = Metrics::new(false, 250);
        off.count_request(Verb::Search);
        off.record_latency(Verb::Search, Duration::from_millis(3));
        off.record_phase(Phase::Cascade, Duration::from_millis(1));
        off.record_queue_wait(Duration::from_millis(1));
        assert_eq!(off.requests(Verb::Search), 1);
        assert!(off.latency_snapshot(Verb::Search).is_empty());
        assert!(off.phase_snapshot(Phase::Cascade).is_empty());
        assert!(off.queue_wait_snapshot().is_empty());

        let on = Metrics::new(true, 250);
        on.count_request(Verb::Search);
        on.record_latency(Verb::Search, Duration::from_millis(3));
        on.record_phase(Phase::Cascade, Duration::from_millis(1));
        on.record_queue_wait(Duration::from_millis(1));
        assert_eq!(on.latency_snapshot(Verb::Search).count, 1);
        assert_eq!(on.phase_snapshot(Phase::Cascade).count, 1);
        assert_eq!(on.queue_wait_snapshot().count, 1);
    }

    #[test]
    fn slow_query_threshold() {
        let m = Metrics::new(true, 10);
        m.note_query(Verb::Search, "g", Duration::from_millis(5), None);
        assert_eq!(m.slow_queries(), 0);
        m.note_query(Verb::Search, "g", Duration::from_millis(50), None);
        assert_eq!(m.slow_queries(), 1);
        let with_stats = bcc_core::SearchStats {
            time_query_distance: Duration::from_micros(17),
            ..Default::default()
        };
        m.note_query(Verb::Msearch, "g", Duration::from_millis(11), Some(&with_stats));
        assert_eq!(m.slow_queries(), 2);
        // Disabled registries never flag.
        let off = Metrics::new(false, 0);
        off.note_query(Verb::Search, "g", Duration::from_secs(1), None);
        assert_eq!(off.slow_queries(), 0);
    }

    #[test]
    fn slow_query_line_escapes_graph_names_as_json() {
        for (graph, rendered) in [
            ("o'brien-é", "\"o'brien-é\""),
            ("a\"b", "\"a\\\"b\""),
            ("tab\there", "\"tab\\there\""),
        ] {
            assert_eq!(
                slow_query_line(Verb::Search, graph, 1234, None),
                format!(
                    "{{\"slow_query\":true,\"verb\":\"search\",\"graph\":{rendered},\
                     \"elapsed_us\":1234}}"
                )
            );
        }
        let stats = bcc_core::SearchStats {
            time_query_distance: Duration::from_micros(1),
            time_core_decomp: Duration::from_micros(2),
            time_butterfly_counting: Duration::from_micros(3),
            time_leader_update: Duration::from_micros(4),
            ..Default::default()
        };
        assert_eq!(
            slow_query_line(Verb::Msearch, "g", 10, Some(&stats)),
            "{\"slow_query\":true,\"verb\":\"msearch\",\"graph\":\"g\",\"elapsed_us\":10,\
             \"query_distance_us\":1,\"core_decomp_us\":2,\"butterfly_counting_us\":3,\
             \"leader_pairing_us\":4}"
        );
    }

    #[test]
    fn snapshot_json_shape_is_deterministic() {
        let m = Metrics::new(true, 250);
        m.count_request(Verb::Search);
        m.record_latency(Verb::Search, Duration::from_micros(100));
        let json = m.snapshot_json(0);
        assert!(json.starts_with("{\"ok\":true,\"metrics_enabled\":true,\"slow_queries\":0"));
        assert!(json.contains("\"verbs\":{\"search\":{\"requests\":1,\"count\":1,"));
        assert!(json.contains("\"phases\":{\"query_distance\":{"));
        assert!(json.contains("\"queue_wait\":{\"count\":0,"));
        assert!(json.ends_with("},\"faults\":{\"injected\":0,\"pair_retries\":0}}"), "{json}");
        assert!(!json.contains('\n'));
        // Rendering twice with no traffic in between is byte-identical.
        assert_eq!(json, m.snapshot_json(0));
        // Every verb and phase appears exactly once.
        for v in Verb::ALL {
            assert_eq!(json.matches(&format!("\"{}\":{{", v.name())).count(), 1, "{}", v.name());
        }
        assert_eq!(Phase::ALL.map(Phase::name), PHASE_NAMES);
        let start = json.find("\"phases\":{").expect("phases object") + "\"phases\":{".len();
        let end = json.find("},\"queue_wait\"").expect("phases object closes");
        let phases: Vec<&str> = json[start..end]
            .split("},")
            .map(|entry| entry.split('"').nth(1).expect("phase key"))
            .collect();
        assert_eq!(phases, PHASE_NAMES, "{json}");
        assert!(!json.contains("query_dist_"), "{json}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = Metrics::new(true, 250);
        m.count_request(Verb::Commit);
        m.record_latency(Verb::Commit, Duration::from_micros(64));
        m.record_phase(Phase::OverlayApply, Duration::from_micros(10));
        m.record_queue_wait(Duration::from_micros(5));
        let text = m.prometheus();
        assert!(text.contains("# TYPE bcc_requests_total counter"));
        assert!(text.contains("bcc_requests_total{verb=\"commit\"} 1"));
        assert!(text.contains("# TYPE bcc_verb_latency_microseconds summary"));
        assert!(text.contains("bcc_verb_latency_microseconds{verb=\"commit\",quantile=\"0.5\"}"));
        assert!(text.contains("bcc_verb_latency_microseconds_count{verb=\"commit\"} 1"));
        assert!(text.contains("bcc_phase_latency_microseconds{phase=\"overlay_apply\",quantile=\"0.99\"}"));
        assert!(text.contains("bcc_queue_wait_microseconds{quantile=\"0.5\"}"));
        assert!(text.contains("bcc_queue_wait_microseconds_count 1"));
        assert!(text.ends_with('\n'));
        let phases: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("bcc_phase_latency_microseconds_count{phase=\""))
            .map(|rest| rest.split('"').next().expect("phase label"))
            .collect();
        assert_eq!(phases, PHASE_NAMES, "{text}");
        assert!(!text.contains("query_dist_"), "{text}");
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<u64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn metrics_recorder_accepts_search_stats_replay() {
        let m = Metrics::new(true, 250);
        let stats = bcc_core::SearchStats {
            time_query_distance: Duration::from_micros(10),
            time_core_decomp: Duration::from_micros(20),
            time_butterfly_counting: Duration::from_micros(30),
            time_leader_update: Duration::from_micros(40),
            ..Default::default()
        };
        stats.record_phases(&m);
        assert_eq!(m.phase_snapshot(Phase::QueryDistance).count, 1);
        assert_eq!(m.phase_snapshot(Phase::CoreDecomp).sum, 20);
        assert_eq!(m.phase_snapshot(Phase::ButterflyCounting).sum, 30);
        assert_eq!(m.phase_snapshot(Phase::LeaderPairing).sum, 40);
    }
}
