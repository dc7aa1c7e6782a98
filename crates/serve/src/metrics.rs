//! Service counters: lock-free atomics, snapshotted into a
//! [`MetricsResponse`] on `GET /metrics`.

use pmt_api::{CorrectorMetrics, MetricsResponse, WIRE_SCHEMA_VERSION};
use pmt_core::MemoStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Declares [`Metrics`] from two lists of counter names.
///
/// A `wire` counter shares its name with a [`MetricsResponse`] field,
/// where its documentation lives; [`Metrics::snapshot`] copies it there
/// through the generated `copy_wire_counters`. Adding a wire counter
/// means naming it here and adding its field to `MetricsResponse`,
/// nothing else. A `local` counter is read by hand (a gauge the wire
/// does not carry, or one feeding a derived or nested field).
macro_rules! metrics {
    (
        wire: [$($wire:ident),* $(,)?],
        local: [$($(#[doc = $doc:literal])* $local:ident),* $(,)?] $(,)?
    ) => {
        /// Cumulative counters since daemon start. All counters are
        /// relaxed — they are monotone telemetry, not synchronization;
        /// the coalescing and backpressure decisions use their own
        /// synchronized state.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(
                #[doc = concat!("See [`MetricsResponse::", stringify!($wire), "`].")]
                pub $wire: AtomicU64,
            )*
            $(
                $(#[doc = $doc])*
                pub $local: AtomicU64,
            )*
            /// Cumulative `BatchPredictor` memo tallies across batch
            /// flights: each flight's change, so entries a warm memo
            /// carried in are counted once.
            memo: Mutex<MemoStats>,
        }

        impl Metrics {
            /// Copy every wire counter into its `response` field.
            fn copy_wire_counters(&self, response: &mut MetricsResponse) {
                $(response.$wire = self.$wire.load(Ordering::Relaxed);)*
            }
        }
    };
}

metrics! {
    wire: [
        requests, predict_requests, explore_requests, errors, rejected_busy,
        coalesced_requests, batched_requests, batch_flights, batch_points,
        failed_requests, flight_leaders,
        response_cache_hits, response_cache_collisions, response_cache_entries,
        points_predicted, inflight_sweeps, queue_depth,
    ],
    local: [
        /// Predict requests currently inside `handle_predict` — the
        /// idle-close signal for the batch window (when every in-flight
        /// predict is already aboard a batch and nothing is queued,
        /// waiting longer cannot grow it).
        predict_inflight,
        /// Nanoseconds spent inside sweep/predict computation.
        predict_nanos,
        /// Predictions the loaded residual corrector adjusted.
        corrected_requests,
        /// Predictions a loaded corrector skipped (uncovered profile).
        corrector_skipped,
    ],
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

    /// Fold one batch flight's memo change
    /// ([`MemoStats::since`](pmt_core::MemoStats::since)) into the
    /// cumulative tallies.
    pub fn absorb_memo_stats(&self, stats: &MemoStats) {
        *self.memo.lock().expect("memo lock") += *stats;
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
        let mut m = MetricsResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            profiles,
            predict_seconds: self.predict_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            max_inflight_sweeps,
            worker_threads,
            memo: *self.memo.lock().expect("memo lock"),
            corrector: CorrectorMetrics {
                loaded: corrector_loaded,
                corrected_requests: self.corrected_requests.load(Ordering::Relaxed),
                skipped_requests: self.corrector_skipped.load(Ordering::Relaxed),
            },
            ..MetricsResponse::default()
        };
        self.copy_wire_counters(&mut m);
        if m.batch_flights > 0 {
            m.batch_mean_size = m.batch_points as f64 / m.batch_flights as f64;
        }
        if m.predict_seconds > 0.0 {
            m.points_per_s = m.points_predicted as f64 / m.predict_seconds;
        }
        m
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
    fn metrics_snapshot_keeps_its_bytes() {
        let m = Metrics::new();
        let counters = [
            &m.requests,
            &m.predict_requests,
            &m.explore_requests,
            &m.errors,
            &m.rejected_busy,
            &m.coalesced_requests,
            &m.batched_requests,
            &m.batch_flights,
            &m.batch_points,
            &m.failed_requests,
            &m.flight_leaders,
            &m.response_cache_hits,
            &m.response_cache_collisions,
            &m.response_cache_entries,
            &m.points_predicted,
            &m.inflight_sweeps,
            &m.queue_depth,
            &m.corrected_requests,
            &m.corrector_skipped,
            &m.predict_inflight,
        ];
        for (i, counter) in counters.into_iter().enumerate() {
            Metrics::add(counter, 101 + 7 * i as u64);
        }
        Metrics::add(&m.predict_nanos, 1_250_000_000);
        let flight = MemoStats {
            cache_entries: 1,
            cache_hits: 2,
            cache_misses: 3,
            stride_entries: 4,
            stride_hits: 5,
            stride_misses: 6,
            cp_entries: 7,
            cp_hits: 8,
            cp_misses: 9,
            branch_entries: 10,
            branch_hits: 11,
            branch_misses: 12,
        };
        m.absorb_memo_stats(&flight);
        m.absorb_memo_stats(&flight);
        let json = serde_json::to_string(&m.snapshot(5, 6, 7, true)).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"schema_version":1,"profiles":5,"requests":101,"predict_requests":108,"#,
                r#""explore_requests":115,"errors":122,"rejected_busy":129,"#,
                r#""coalesced_requests":136,"batched_requests":143,"batch_flights":150,"#,
                r#""batch_points":157,"batch_mean_size":1.0466666666666666,"#,
                r#""failed_requests":164,"flight_leaders":171,"response_cache_hits":178,"#,
                r#""response_cache_collisions":185,"response_cache_entries":192,"#,
                r#""points_predicted":199,"predict_seconds":1.25,"points_per_s":159.2,"#,
                r#""inflight_sweeps":206,"max_inflight_sweeps":6,"queue_depth":213,"#,
                r#""worker_threads":7,"memo":{"cache_entries":2,"cache_hits":4,"#,
                r#""cache_misses":6,"stride_entries":8,"stride_hits":10,"stride_misses":12,"#,
                r#""cp_entries":14,"cp_hits":16,"cp_misses":18,"branch_entries":20,"#,
                r#""branch_hits":22,"branch_misses":24},"corrector":{"loaded":true,"#,
                r#""corrected_requests":220,"skipped_requests":227}}"#
            )
        );
    }

    #[test]
    fn zero_time_means_zero_rate_not_nan() {
        let snap = Metrics::new().snapshot(0, 1, 1, false);
        assert_eq!(snap.points_per_s, 0.0);
        assert_eq!(snap.predict_seconds, 0.0);
        assert!(!snap.corrector.loaded);
    }
}
