//! The request/response types themselves. Every type carries
//! `schema_version`; see the crate docs for the versioning discipline.

use crate::machine::MachineSpec;
use crate::space::SpaceSpec;
use crate::{check_schema_version, ApiError, WIRE_SCHEMA_VERSION};
use pmt_core::MemoStats;
use pmt_dse::{DesignConstraints, StreamingSummary};
use pmt_profiler::ApplicationProfile;
use serde::{Deserialize, Serialize};

/// `POST /v1/predict`: predict one (profile, machine) point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Must equal [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Name of a registered profile (CLI: the profile being predicted).
    pub profile: String,
    /// The machine to predict on.
    pub machine: MachineSpec,
}

impl PredictRequest {
    /// A request at the current schema version.
    pub fn new(profile: &str, machine: MachineSpec) -> PredictRequest {
        PredictRequest {
            schema_version: WIRE_SCHEMA_VERSION,
            profile: profile.to_string(),
            machine,
        }
    }

    /// Refuse version-skewed requests.
    pub fn check_version(&self) -> Result<(), ApiError> {
        check_schema_version(self.schema_version)
    }
}

/// One CPI-stack component of a [`PredictResponse`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StackEntry {
    /// Component label (`base`, `branch`, `dram`, ...).
    pub label: String,
    /// CPI contribution of the component.
    pub cpi: f64,
}

/// The answer to a [`PredictRequest`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Workload (profile) name.
    pub workload: String,
    /// Resolved machine name.
    pub machine: String,
    /// Core clock the prediction ran at.
    pub frequency_ghz: f64,
    /// Predicted cycles per instruction.
    pub cpi: f64,
    /// Predicted instructions per cycle.
    pub ipc: f64,
    /// Predicted execution time in seconds.
    pub seconds: f64,
    /// Miss-weighted average memory-level parallelism.
    pub mlp: f64,
    /// Branch-weighted misprediction rate.
    pub branch_miss_rate: f64,
    /// CPI stack, in display order (sums to `cpi`).
    pub cpi_stack: Vec<StackEntry>,
    /// Predicted total power in watts.
    pub power_w: f64,
    /// Leakage share of `power_w`.
    pub static_w: f64,
    /// Whether a learned residual corrector adjusted this prediction.
    /// `false` when the daemon has no corrector loaded *or* the loaded
    /// corrector does not cover this profile's fingerprint (the
    /// analytical answer is served unmodified either way).
    pub corrected: bool,
    /// Corrector-fused CPI (null unless `corrected`). The analytical
    /// `cpi` is always reported alongside — correction is an overlay,
    /// never a replacement.
    pub corrected_cpi: Option<f64>,
    /// Corrector-fused total power in watts (null unless `corrected`).
    pub corrected_power_w: Option<f64>,
}

/// `POST /v1/explore` and the JSON `pmt explore --out` writes: stream a
/// design space through the prepared profile, keep frontier + top-K.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExploreRequest {
    /// Must equal [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Name of a registered profile (CLI: the workload being explored).
    pub profile: String,
    /// The space to sweep.
    pub space: SpaceSpec,
    /// Top-K ranking objective (`seconds|cpi|power|energy|edp|ed2p`).
    pub objective: String,
    /// How many best-by-objective points to keep.
    pub top_k: usize,
    /// Machine-description pre-filter (null → admit everything).
    pub constraints: Option<DesignConstraints>,
    /// Post-prediction power budget in watts (null → none).
    pub max_power_w: Option<f64>,
    /// Post-prediction delay budget in seconds (null → none).
    pub max_seconds: Option<f64>,
}

impl ExploreRequest {
    /// A request at the current schema version with the CLI defaults:
    /// objective `seconds`, top-10, no constraints or budgets.
    pub fn new(profile: &str, space: SpaceSpec) -> ExploreRequest {
        ExploreRequest {
            schema_version: WIRE_SCHEMA_VERSION,
            profile: profile.to_string(),
            space,
            objective: "seconds".to_string(),
            top_k: 10,
            constraints: None,
            max_power_w: None,
            max_seconds: None,
        }
    }

    /// Refuse version-skewed requests.
    pub fn check_version(&self) -> Result<(), ApiError> {
        check_schema_version(self.schema_version)
    }
}

/// The answer to an [`ExploreRequest`] — and, byte for byte, the file the
/// equivalent `pmt explore --out` run writes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExploreResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Workload (profile) name.
    pub workload: String,
    /// Human-readable space label ([`SpaceSpec::label`]).
    pub space: String,
    /// The top-K ranking objective.
    pub objective: String,
    /// The bounded streaming summary: frontier, top-K, moments.
    pub summary: StreamingSummary,
    /// Machine names of the frontier entries, in `summary.frontier`
    /// order.
    pub frontier_machines: Vec<String>,
    /// Machine names of the top-K entries, in `summary.top` order.
    pub top_machines: Vec<String>,
}

/// `POST /v1/profiles`: ship a profile to the daemon's registry. The
/// registry key is the profile's own `name`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegisterProfileRequest {
    /// Must equal [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// The full application profile to register.
    pub profile: ApplicationProfile,
}

impl RegisterProfileRequest {
    /// A request at the current schema version.
    pub fn new(profile: ApplicationProfile) -> RegisterProfileRequest {
        RegisterProfileRequest {
            schema_version: WIRE_SCHEMA_VERSION,
            profile,
        }
    }

    /// Refuse version-skewed requests.
    pub fn check_version(&self) -> Result<(), ApiError> {
        check_schema_version(self.schema_version)
    }
}

/// The answer to a [`RegisterProfileRequest`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegisterProfileResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Registry key (the profile's `name`).
    pub name: String,
    /// Instructions the profile covers.
    pub total_instructions: u64,
    /// Number of micro-traces in the profile.
    pub micro_traces: usize,
    /// Whether an identically-named profile was already registered (the
    /// registration is idempotent for identical content).
    pub replaced: bool,
}

/// One registry entry of a [`ProfilesResponse`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileInfo {
    /// Registry key.
    pub name: String,
    /// Instructions the profile covers.
    pub total_instructions: u64,
    /// Number of micro-traces in the profile.
    pub micro_traces: usize,
}

/// `GET /v1/profiles`: the registry listing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfilesResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Registered profiles, in registration order.
    pub profiles: Vec<ProfileInfo>,
}

/// `GET /healthz`: liveness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Always `"ok"` when the daemon can answer at all.
    pub status: String,
    /// Number of registered profiles.
    pub profiles: usize,
}

/// `GET /metrics`: service counters since start. Counts are cumulative;
/// rates are derived (`points_per_s` = `points_predicted` /
/// `predict_seconds`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Echoes [`WIRE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Registered profiles.
    pub profiles: usize,
    /// Total HTTP requests handled.
    pub requests: u64,
    /// `POST /v1/predict` requests handled.
    pub predict_requests: u64,
    /// `POST /v1/explore` requests handled.
    pub explore_requests: u64,
    /// Requests answered with any error status.
    pub errors: u64,
    /// Requests rejected with 429 (at in-flight sweep capacity).
    pub rejected_busy: u64,
    /// Explore requests that joined an identical in-flight computation
    /// instead of computing.
    pub coalesced_requests: u64,
    /// Predict requests that rode another caller's batch flight and were
    /// answered from its demultiplexed result (the leaders themselves
    /// count under `flight_leaders`).
    pub batched_requests: u64,
    /// Batch flights evaluated (each one `BatchPredictor` pass over the
    /// admitted window, size ≥ 1).
    pub batch_flights: u64,
    /// Design points evaluated inside batch flights (leaders + riders).
    pub batch_points: u64,
    /// Derived: `batch_points / batch_flights` (0 before any flight).
    pub batch_mean_size: f64,
    /// Requests that ended in a panic-shaped structured 500: panicking
    /// leaders, plus every rider/follower such a flight failed.
    pub failed_requests: u64,
    /// Requests that led a flight to completion themselves: solo
    /// predicts, batch leaders, and explore leaders (even when the
    /// computation answered a structured 4xx).
    pub flight_leaders: u64,
    /// Explore/predict requests answered from the response cache.
    pub response_cache_hits: u64,
    /// Cache lookups whose 64-bit key matched but whose stored request
    /// bytes did not — a verified hash collision, served as a miss.
    pub response_cache_collisions: u64,
    /// Responses currently held by the cache.
    pub response_cache_entries: u64,
    /// Design points actually predicted (cache hits and coalesced
    /// followers add nothing here).
    pub points_predicted: u64,
    /// Wall seconds spent inside sweep/predict computation.
    pub predict_seconds: f64,
    /// Derived throughput: `points_predicted / predict_seconds`.
    pub points_per_s: f64,
    /// Sweeps executing right now.
    pub inflight_sweeps: u64,
    /// The configured in-flight sweep bound.
    pub max_inflight_sweeps: u64,
    /// Connections accepted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Worker threads serving requests.
    pub worker_threads: u64,
    /// Cumulative `BatchPredictor` memo efficacy: every batch flight's
    /// `memo_stats()` snapshot since daemon start, summed. Entries equal
    /// misses by construction (every miss inserts exactly one entry);
    /// both are reported so the invariant is checkable over the wire.
    pub memo: MemoStats,
    /// Learned-residual-corrector activity since daemon start.
    pub corrector: CorrectorMetrics,
}

/// Corrector counters of a [`MetricsResponse`]: whether a
/// [`ResidualModel`](crate::ResidualModel) rode along at boot and how
/// many predictions it actually touched. `skipped_requests` counts
/// predictions a loaded corrector declined because the requested
/// profile's fingerprint was outside its training coverage — those
/// answers stayed purely analytical.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CorrectorMetrics {
    /// Whether a corrector was loaded at boot.
    pub loaded: bool,
    /// Predictions the corrector adjusted.
    pub corrected_requests: u64,
    /// Predictions a loaded corrector skipped (uncovered profile).
    pub skipped_requests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AxisSpec;

    #[test]
    fn explore_request_defaults_match_the_cli() {
        let req = ExploreRequest::new("mcf", SpaceSpec::named("big"));
        assert_eq!(req.schema_version, WIRE_SCHEMA_VERSION);
        assert_eq!(req.objective, "seconds");
        assert_eq!(req.top_k, 10);
        assert!(req.constraints.is_none());
        assert!(req.check_version().is_ok());
    }

    #[test]
    fn version_skew_is_refused_per_request_type() {
        let mut predict = PredictRequest::new("mcf", MachineSpec::named("nehalem"));
        predict.schema_version = 0;
        assert_eq!(
            predict.check_version().unwrap_err().body.code,
            "bad_schema_version"
        );
        let mut explore = ExploreRequest::new("mcf", SpaceSpec::named("small"));
        explore.schema_version = 2;
        assert!(explore.check_version().is_err());
    }

    #[test]
    fn requests_round_trip_with_constraints_aboard() {
        let mut req = ExploreRequest::new(
            "astar",
            SpaceSpec::product(None, vec![AxisSpec::new("w", &[2.0, 4.0])]),
        );
        req.constraints = Some(
            DesignConstraints::new()
                .max_rob(128)
                .max_frequency_ghz(2.66),
        );
        req.max_power_w = Some(40.0);
        let json = serde_json::to_string(&req).unwrap();
        let back: ExploreRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }
}
