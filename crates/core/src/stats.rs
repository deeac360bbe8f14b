//! Instrumentation counters and phase timers.
//!
//! Table 4 of the paper compares Online-BCC and LP-BCC by the time spent on
//! query-distance calculation, the time spent updating leader pairs, and the
//! *number of invocations* of the butterfly-counting procedure (Algorithm 3).
//! Every search algorithm in this crate threads a [`SearchStats`] through its
//! phases so the harness can regenerate that table.

use std::time::Duration;

use bcc_obs::{Phase, Recorder};

/// Counters and timers collected during one (or many, summed) searches.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Invocations of the full butterfly-counting procedure (Algorithm 3)
    /// — the `#butterfly counting` row of Table 4.
    pub butterfly_countings: u64,
    /// Leader butterfly-degree refreshes (Algorithm 7, applied once per
    /// deletion batch): after every LP batch, two for each live label pair
    /// whose leaders both survived it.
    pub leader_updates: u64,
    /// Full single-source BFS traversals performed for query distances.
    pub full_bfs_runs: u64,
    /// Partial-update rounds of the fast query-distance computation
    /// (Algorithm 5).
    pub incremental_dist_updates: u64,
    /// Vertices deleted across all peeling iterations.
    pub vertices_deleted: u64,
    /// Peeling iterations executed (the `t` of Theorem 4).
    pub iterations: u64,
    /// Wall time spent computing/updating query distances.
    pub time_query_distance: Duration,
    /// Sub-span of `time_query_distance` on the parallel online path:
    /// frontier expansion (neighbor relaxation) of the level-synchronous
    /// BFS. Zero on the sequential reference path.
    pub time_dist_expand: Duration,
    /// Sub-span of `time_query_distance` on the parallel online path:
    /// merging per-worker discovery buffers into the next frontier.
    pub time_dist_merge: Duration,
    /// Wall time spent in label-core decomposition / reduction to the
    /// per-label cores (Algorithm 2 lines 1–3).
    pub time_core_decomp: Duration,
    /// Wall time spent in full butterfly counting.
    pub time_butterfly_counting: Duration,
    /// Wall time spent refreshing leader butterfly degrees after each
    /// deletion batch (Algorithm 7) and re-identifying leaders
    /// (Algorithm 6).
    pub time_leader_update: Duration,
    /// End-to-end wall time of the search.
    pub time_total: Duration,
}

impl SearchStats {
    /// Accumulates `other` into `self` (for averaging over query workloads).
    pub fn merge(&mut self, other: &SearchStats) {
        self.butterfly_countings += other.butterfly_countings;
        self.leader_updates += other.leader_updates;
        self.full_bfs_runs += other.full_bfs_runs;
        self.incremental_dist_updates += other.incremental_dist_updates;
        self.vertices_deleted += other.vertices_deleted;
        self.iterations += other.iterations;
        self.time_query_distance += other.time_query_distance;
        self.time_dist_expand += other.time_dist_expand;
        self.time_dist_merge += other.time_dist_merge;
        self.time_core_decomp += other.time_core_decomp;
        self.time_butterfly_counting += other.time_butterfly_counting;
        self.time_leader_update += other.time_leader_update;
        self.time_total += other.time_total;
    }

    /// Replays the collected phase timings into a [`Recorder`] — the bridge
    /// between this crate's per-search accounting and the observability
    /// layer (`bcc-obs` histograms, the service metrics registry, the
    /// Table 4 figure binary).
    pub fn record_phases(&self, recorder: &impl Recorder) {
        recorder.record_phase(Phase::QueryDistance, self.time_query_distance);
        recorder.record_phase(Phase::CoreDecomp, self.time_core_decomp);
        recorder.record_phase(Phase::ButterflyCounting, self.time_butterfly_counting);
        recorder.record_phase(Phase::LeaderPairing, self.time_leader_update);
        // The distance sub-phases exist only where the parallel BFS ran;
        // recording them unconditionally would flood the histograms with
        // zero samples from every sequential query.
        if !self.time_dist_expand.is_zero() || !self.time_dist_merge.is_zero() {
            recorder.record_phase(Phase::QueryDistExpand, self.time_dist_expand);
            recorder.record_phase(Phase::QueryDistMerge, self.time_dist_merge);
        }
    }
}

/// Times a closure into the given duration slot.
pub(crate) fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters() {
        let mut a = SearchStats {
            butterfly_countings: 2,
            iterations: 5,
            time_total: Duration::from_millis(10),
            ..Default::default()
        };
        let b = SearchStats {
            butterfly_countings: 3,
            iterations: 1,
            time_total: Duration::from_millis(5),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.butterfly_countings, 5);
        assert_eq!(a.iterations, 6);
        assert_eq!(a.time_total, Duration::from_millis(15));
    }

    #[test]
    fn record_phases_maps_fields_to_phases() {
        let stats = SearchStats {
            time_query_distance: Duration::from_micros(10),
            time_core_decomp: Duration::from_micros(20),
            time_butterfly_counting: Duration::from_micros(30),
            time_leader_update: Duration::from_micros(40),
            time_total: Duration::from_micros(999), // not a phase: derived
            ..Default::default()
        };
        let trace = bcc_obs::QueryTrace::new();
        stats.record_phases(&trace);
        assert_eq!(trace.get(Phase::QueryDistance), Duration::from_micros(10));
        assert_eq!(trace.get(Phase::CoreDecomp), Duration::from_micros(20));
        assert_eq!(trace.get(Phase::ButterflyCounting), Duration::from_micros(30));
        assert_eq!(trace.get(Phase::LeaderPairing), Duration::from_micros(40));
        assert_eq!(trace.total(), Duration::from_micros(100));
    }

    #[test]
    fn timed_accumulates() {
        let mut slot = Duration::ZERO;
        let out = timed(&mut slot, || 42);
        assert_eq!(out, 42);
        let first = slot;
        timed(&mut slot, || ());
        assert!(slot >= first);
    }
}
