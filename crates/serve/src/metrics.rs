//! Service counters: lock-free atomics, snapshotted into a
//! [`MetricsResponse`] on `GET /metrics`.

use pmt_api::{CorrectorMetrics, MemoMetrics, MetricsResponse, WIRE_SCHEMA_VERSION};
use pmt_core::MemoStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// The two kinds of request that run through flights.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// `POST /v1/predict`.
    Predict,
    /// `POST /v1/explore`.
    Explore,
}

/// How one predict or explore request ended: exactly one per request,
/// recorded through [`Metrics::record`].
#[derive(Clone, Copy)]
pub(crate) enum Outcome {
    /// Answered from the response cache.
    CacheHit,
    /// Answered from a flight another request led.
    Joined,
    /// Led a flight to completion.
    Led,
    /// Led an explore flight the in-flight sweep cap refused (429).
    Rejected,
    /// Its flight's computation panicked (500).
    Failed,
}

/// Cumulative counters since daemon start. All counters are relaxed —
/// they are monotone telemetry, not synchronization; the coalescing and
/// backpressure decisions use their own synchronized state.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total HTTP requests handled.
    pub requests: AtomicU64,
    /// `POST /v1/predict` requests handled.
    pub predict_requests: AtomicU64,
    /// `POST /v1/explore` requests handled.
    pub explore_requests: AtomicU64,
    /// Requests answered with any error status (every response is
    /// written through one helper, which counts this).
    pub errors: AtomicU64,
    /// Requests rejected with 429.
    pub rejected_busy: AtomicU64,
    /// Explore requests that joined an identical in-flight computation.
    pub coalesced_requests: AtomicU64,
    /// Predict requests answered from a batch flight another caller led.
    pub batched_requests: AtomicU64,
    /// Batch flights evaluated (one `BatchPredictor` pass each).
    pub batch_flights: AtomicU64,
    /// Design points evaluated inside batch flights.
    pub batch_points: AtomicU64,
    /// Requests whose flight panicked and answered a 500 (the leader and
    /// every member it failed).
    pub failed_requests: AtomicU64,
    /// Requests that led a flight to completion (predict and explore
    /// leaders; a flight of one is led by its only member).
    pub flight_leaders: AtomicU64,
    /// Predict requests currently inside `handle_predict` — the
    /// idle-close signal for the batch window (when every in-flight
    /// predict is already aboard a batch and nothing is queued, waiting
    /// longer cannot grow it).
    pub predict_inflight: AtomicU64,
    /// Cumulative `BatchPredictor` memo tallies across batch flights (one
    /// predictor per flight).
    pub memo_cache_entries: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_cache_hits: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_cache_misses: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_stride_entries: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_stride_hits: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_stride_misses: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_cp_entries: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_cp_hits: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_cp_misses: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_branch_entries: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_branch_hits: AtomicU64,
    /// See [`MemoMetrics`].
    pub memo_branch_misses: AtomicU64,
    /// Requests answered from the response cache.
    pub response_cache_hits: AtomicU64,
    /// Cache lookups whose 64-bit key matched but whose stored request
    /// bytes did not — verified hash collisions, served as misses.
    pub response_cache_collisions: AtomicU64,
    /// Responses currently held by the cache.
    pub response_cache_entries: AtomicU64,
    /// Design points actually predicted.
    pub points_predicted: AtomicU64,
    /// Nanoseconds spent inside sweep/predict computation.
    pub predict_nanos: AtomicU64,
    /// Sweeps executing right now.
    pub inflight_sweeps: AtomicU64,
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: AtomicU64,
    /// Predictions the loaded residual corrector adjusted.
    pub corrected_requests: AtomicU64,
    /// Predictions a loaded corrector skipped (uncovered profile).
    pub corrector_skipped: AtomicU64,
}

impl Metrics {
    /// A zeroed counter set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Add one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one request's [`Outcome`]. This is the only writer of the
    /// six partition counters, so every predict or explore request that
    /// records an outcome lands in exactly one of them:
    /// `response_cache_hits + coalesced_requests + batched_requests +
    /// rejected_busy + failed_requests + flight_leaders` is the number of
    /// such requests served.
    pub(crate) fn record(&self, kind: Kind, outcome: Outcome) {
        Metrics::bump(match (outcome, kind) {
            (Outcome::CacheHit, _) => &self.response_cache_hits,
            (Outcome::Joined, Kind::Explore) => &self.coalesced_requests,
            (Outcome::Joined, Kind::Predict) => &self.batched_requests,
            (Outcome::Led, _) => &self.flight_leaders,
            (Outcome::Rejected, _) => &self.rejected_busy,
            (Outcome::Failed, _) => &self.failed_requests,
        });
    }

    /// Fold one batch flight's memo snapshot into the cumulative
    /// tallies.
    pub fn absorb_memo_stats(&self, stats: &MemoStats) {
        Metrics::add(&self.memo_cache_entries, stats.cache_entries);
        Metrics::add(&self.memo_cache_hits, stats.cache_hits);
        Metrics::add(&self.memo_cache_misses, stats.cache_misses);
        Metrics::add(&self.memo_stride_entries, stats.stride_entries);
        Metrics::add(&self.memo_stride_hits, stats.stride_hits);
        Metrics::add(&self.memo_stride_misses, stats.stride_misses);
        Metrics::add(&self.memo_cp_entries, stats.cp_entries);
        Metrics::add(&self.memo_cp_hits, stats.cp_hits);
        Metrics::add(&self.memo_cp_misses, stats.cp_misses);
        Metrics::add(&self.memo_branch_entries, stats.branch_entries);
        Metrics::add(&self.memo_branch_hits, stats.branch_hits);
        Metrics::add(&self.memo_branch_misses, stats.branch_misses);
    }

    /// Snapshot into the wire type. `profiles`, `max_inflight_sweeps`,
    /// `worker_threads` and `corrector_loaded` are configuration the
    /// counters don't know.
    pub fn snapshot(
        &self,
        profiles: usize,
        max_inflight_sweeps: u64,
        worker_threads: u64,
        corrector_loaded: bool,
    ) -> MetricsResponse {
        let points = self.points_predicted.load(Ordering::Relaxed);
        let secs = self.predict_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let batch_flights = self.batch_flights.load(Ordering::Relaxed);
        let batch_points = self.batch_points.load(Ordering::Relaxed);
        MetricsResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            profiles,
            requests: self.requests.load(Ordering::Relaxed),
            predict_requests: self.predict_requests.load(Ordering::Relaxed),
            explore_requests: self.explore_requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced_requests.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batch_flights,
            batch_points,
            batch_mean_size: if batch_flights > 0 {
                batch_points as f64 / batch_flights as f64
            } else {
                0.0
            },
            failed_requests: self.failed_requests.load(Ordering::Relaxed),
            flight_leaders: self.flight_leaders.load(Ordering::Relaxed),
            response_cache_hits: self.response_cache_hits.load(Ordering::Relaxed),
            response_cache_collisions: self.response_cache_collisions.load(Ordering::Relaxed),
            response_cache_entries: self.response_cache_entries.load(Ordering::Relaxed),
            points_predicted: points,
            predict_seconds: secs,
            points_per_s: if secs > 0.0 {
                points as f64 / secs
            } else {
                0.0
            },
            inflight_sweeps: self.inflight_sweeps.load(Ordering::Relaxed),
            max_inflight_sweeps,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            worker_threads,
            memo: MemoMetrics {
                cache_entries: self.memo_cache_entries.load(Ordering::Relaxed),
                cache_hits: self.memo_cache_hits.load(Ordering::Relaxed),
                cache_misses: self.memo_cache_misses.load(Ordering::Relaxed),
                stride_entries: self.memo_stride_entries.load(Ordering::Relaxed),
                stride_hits: self.memo_stride_hits.load(Ordering::Relaxed),
                stride_misses: self.memo_stride_misses.load(Ordering::Relaxed),
                cp_entries: self.memo_cp_entries.load(Ordering::Relaxed),
                cp_hits: self.memo_cp_hits.load(Ordering::Relaxed),
                cp_misses: self.memo_cp_misses.load(Ordering::Relaxed),
                branch_entries: self.memo_branch_entries.load(Ordering::Relaxed),
                branch_hits: self.memo_branch_hits.load(Ordering::Relaxed),
                branch_misses: self.memo_branch_misses.load(Ordering::Relaxed),
            },
            corrector: CorrectorMetrics {
                loaded: corrector_loaded,
                corrected_requests: self.corrected_requests.load(Ordering::Relaxed),
                skipped_requests: self.corrector_skipped.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_counters_and_derived_rate() {
        let m = Metrics::new();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.requests);
        Metrics::add(&m.points_predicted, 1000);
        Metrics::add(&m.predict_nanos, 500_000_000); // 0.5 s
        let snap = m.snapshot(3, 2, 4, true);
        assert_eq!(snap.schema_version, WIRE_SCHEMA_VERSION);
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.profiles, 3);
        assert_eq!(snap.max_inflight_sweeps, 2);
        assert_eq!(snap.worker_threads, 4);
        assert!(snap.corrector.loaded);
        assert_eq!(snap.corrector.corrected_requests, 0);
        assert!((snap.points_per_s - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_means_zero_rate_not_nan() {
        let snap = Metrics::new().snapshot(0, 1, 1, false);
        assert_eq!(snap.points_per_s, 0.0);
        assert_eq!(snap.predict_seconds, 0.0);
        assert!(!snap.corrector.loaded);
    }
}
