//! `bcc-obs` — zero-dependency observability primitives.
//!
//! The paper's own evaluation is phase-oriented: Table 4 splits query time
//! into distance computation, core decomposition, butterfly counting
//! (Algorithm 3), and leader pairing (Algorithms 6–7). This crate turns that
//! breakdown into a first-class, always-on instrumentation layer shared by
//! the figure binaries and the live server:
//!
//! * [`Counter`] / [`Gauge`] — lock-free [`AtomicU64`] scalars;
//! * [`Histogram`] — a 64-bucket log₂ latency histogram with lock-free
//!   recording, mergeable [`HistogramSnapshot`]s, and quantile extraction
//!   whose error is bounded by the bucket width;
//! * [`Phase`] — the paper's query phases plus the mutation commit stages;
//! * [`Recorder`] — the trait search/commit code records phase spans
//!   through. [`QueryTrace`] accumulates per-phase totals for one query or
//!   one workload.
//!
//! Everything is `&self` + atomics: one registry instance can be shared
//! across every worker thread with no locks on the record path. The crate
//! deliberately has **no dependencies** (it sits under `bcc-core`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Maps a recorded value to its bucket.
///
/// Bucket 0 holds exactly the value 0; bucket `i` (1 ≤ i ≤ 62) holds
/// `[2^(i-1), 2^i - 1]`; bucket 63 saturates, holding everything from
/// `2^62` up to `u64::MAX`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Largest value that lands in bucket `index` — the value quantile
/// extraction reports for samples in that bucket.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// Saturating `Duration` → whole microseconds (the unit every histogram
/// and trace in this crate records).
#[inline]
pub fn duration_to_micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement (a gauge never wraps below zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram with lock-free recording.
///
/// Values are whole numbers (this workspace records **microseconds**).
/// Recording is one `fetch_add` per bucket plus count/sum bookkeeping — no
/// locks, shareable across worker threads behind `&self`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(duration_to_micros(d));
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy. Buckets are read individually (relaxed),
    /// so a snapshot taken concurrently with recording may be off by the
    /// in-flight samples — fine for telemetry, and exact once writers stop.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]: mergeable, queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another snapshot in. Merging is associative and commutative
    /// (element-wise saturating addition), so shard-local histograms can be
    /// combined in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The value at quantile `p` (0.0 ..= 1.0), reported as the upper bound
    /// of the bucket holding the rank-⌈p·count⌉ sample. The error is
    /// bounded by that bucket's width. Returns 0 on an empty snapshot.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean of the recorded values (exact — the sum is kept alongside the
    /// buckets), 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The instrumented phases: the paper's four query phases (Table 4) plus
/// the four mutation commit stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// BFS / incremental query-distance computation (Algorithms 1 and 5).
    QueryDistance,
    /// Label-core decomposition / reduction to the (k1,k2)-core.
    CoreDecomp,
    /// Full butterfly counting (Algorithm 3).
    ButterflyCounting,
    /// Leader butterfly-degree updates + leader pairing (Algorithms 6–7).
    LeaderPairing,
    /// Commit: staged delta applied onto the CSR snapshot (overlay apply).
    OverlayApply,
    /// Commit: Algorithm 4 label-core cascades for coreness δ.
    Cascade,
    /// Commit: Algorithm 7 butterfly-degree deltas for χ.
    ChiDelta,
    /// Commit: community-scoped result-cache invalidation / rekeying.
    CacheInvalidate,
    /// Sub-phase of [`Phase::QueryDistance`] on the parallel online path:
    /// frontier expansion (neighbor relaxation) of the level-synchronous
    /// BFS. Zero / unrecorded on the sequential reference path.
    QueryDistExpand,
    /// Sub-phase of [`Phase::QueryDistance`] on the parallel online path:
    /// merging per-worker discovery buffers into the next frontier.
    QueryDistMerge,
}

impl Phase {
    pub const COUNT: usize = 10;

    /// All phases, in display order (query phases, commit stages, then the
    /// parallel-path sub-phases — appended last so historical snapshot
    /// consumers keep their positional prefix).
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::QueryDistance,
        Phase::CoreDecomp,
        Phase::ButterflyCounting,
        Phase::LeaderPairing,
        Phase::OverlayApply,
        Phase::Cascade,
        Phase::ChiDelta,
        Phase::CacheInvalidate,
        Phase::QueryDistExpand,
        Phase::QueryDistMerge,
    ];

    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSON snapshots and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::QueryDistance => "query_distance",
            Phase::CoreDecomp => "core_decomp",
            Phase::ButterflyCounting => "butterfly_counting",
            Phase::LeaderPairing => "leader_pairing",
            Phase::OverlayApply => "overlay_apply",
            Phase::Cascade => "cascade",
            Phase::ChiDelta => "chi_delta",
            Phase::CacheInvalidate => "cache_invalidate",
            Phase::QueryDistExpand => "query_dist_expand",
            Phase::QueryDistMerge => "query_dist_merge",
        }
    }
}

/// The hook instrumented code records phase spans through. Takes `&self`
/// so implementations are shared across threads; the intended contract is
/// lock-free recording (every implementation here uses atomics).
pub trait Recorder {
    fn record_phase(&self, phase: Phase, elapsed: Duration);
}

/// Forward through references so `&impl Recorder` works everywhere.
impl<R: Recorder + ?Sized> Recorder for &R {
    #[inline]
    fn record_phase(&self, phase: Phase, elapsed: Duration) {
        (**self).record_phase(phase, elapsed);
    }
}

/// Per-phase accumulated totals (microseconds) for one query — or, merged,
/// for a whole workload. Lock-free; shareable across threads.
#[derive(Debug, Default)]
pub struct QueryTrace {
    phases: [AtomicU64; Phase::COUNT],
}

impl QueryTrace {
    pub fn new() -> QueryTrace {
        QueryTrace::default()
    }

    /// Accumulated time in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_micros(self.phases[phase.index()].load(Ordering::Relaxed))
    }

    /// All per-phase totals in [`Phase::ALL`] order, in microseconds.
    pub fn snapshot_micros(&self) -> [u64; Phase::COUNT] {
        std::array::from_fn(|i| self.phases[i].load(Ordering::Relaxed))
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        Duration::from_micros(
            self.snapshot_micros().iter().fold(0u64, |a, &b| a.saturating_add(b)),
        )
    }
}

impl Recorder for QueryTrace {
    #[inline]
    fn record_phase(&self, phase: Phase, elapsed: Duration) {
        self.phases[phase.index()].fetch_add(duration_to_micros(elapsed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 10) - 1), 10);
        assert_eq!(bucket_index(1 << 10), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
    }

    #[test]
    fn upper_bounds_bracket_their_bucket() {
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
        }
        // The upper bound of bucket i-1 is strictly below bucket i's range.
        for i in 2..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_upper_bound(i - 1) + 1, 1u64 << (i - 1));
        }
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(12);
        assert_eq!(g.get(), 3);
        g.sub(100); // saturates, never wraps
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_quantiles_on_known_data() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // p50: rank 50 → value 50 lives in bucket 6 ([32,63]).
        assert_eq!(s.quantile(0.50), 63);
        // p99: rank 99 → value 99 lives in bucket 7 ([64,127]).
        assert_eq!(s.quantile(0.99), 127);
        // p0 clamps to rank 1 → value 1, bucket 1.
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 127);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_benign() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_is_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(3);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let all = Histogram::new();
        for v in [3, 100, 3] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn saturation_at_extremes() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[63], 2);
        assert_eq!(s.quantile(0.5), u64::MAX);
        // The sum saturates on merge rather than wrapping.
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m.sum, u64::MAX);
        assert_eq!(m.count, 4);
    }

    #[test]
    fn query_trace_accumulates_per_phase() {
        let trace = QueryTrace::new();
        trace.record_phase(Phase::Cascade, Duration::from_micros(7));
        trace.record_phase(Phase::Cascade, Duration::from_micros(5));
        assert_eq!(trace.get(Phase::Cascade), Duration::from_micros(12));
        trace.record_phase(Phase::CoreDecomp, Duration::from_micros(3));
        assert_eq!(trace.get(Phase::CoreDecomp), Duration::from_micros(3));
        assert_eq!(trace.total(), Duration::from_micros(15));
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Phase::COUNT);
        assert_eq!(Phase::ALL[0].name(), "query_distance");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
