//! The versioned wire schema of the `pmt` toolkit: one set of
//! request/response types spoken by both the `pmt` CLI and the
//! [`pmt serve` daemon](../pmt_serve/index.html).
//!
//! # Why a schema crate
//!
//! The CLI grew JSON outputs organically (`pmt explore --out`,
//! `pmt validate --out`), and the prediction service needs JSON inputs.
//! Keeping both behind **one** crate of serde types guarantees the two can
//! never drift: a served [`ExploreResponse`] is byte-identical to the file
//! the equivalent `pmt explore --out` run writes, because both sides
//! construct the same struct through the same engine and serialize it with
//! the same (deterministic) vendored serde.
//!
//! # Versioning discipline
//!
//! Every request and response carries a `schema_version` field, following
//! the convention established by [`ValidationReport`]:
//!
//! * [`WIRE_SCHEMA_VERSION`] is bumped on any breaking change — a field
//!   rename, removal, or semantic change. Additive changes (new endpoint,
//!   new optional-null field) do not bump it.
//! * Servers **refuse** requests carrying any other version with a
//!   structured [`ErrorBody`] (`code: "bad_schema_version"`) rather than
//!   guessing — a version-skewed client must fail loudly, not subtly.
//! * Responses echo the version so clients can assert it.
//!
//! [`ValidationReport`] is re-exported
//! here as part of the wire family (it is the JSON `pmt validate --out`
//! emits); it keeps its own independent
//! [`SCHEMA_VERSION`](pmt_validate::SCHEMA_VERSION) counter since its
//! lifecycle predates this crate.
//!
//! # The types
//!
//! | Wire type | Travels | Purpose |
//! |:--|:--|:--|
//! | [`PredictRequest`] / [`PredictResponse`] | `POST /v1/predict` | one (profile, machine) prediction |
//! | [`ExploreRequest`] / [`ExploreResponse`] | `POST /v1/explore`, `pmt explore --out` | streaming sweep: Pareto frontier + top-K |
//! | [`RegisterProfileRequest`] / [`RegisterProfileResponse`] | `POST /v1/profiles` | ship a profile to the daemon |
//! | [`ProfilesResponse`] | `GET /v1/profiles` | registry listing |
//! | [`MetricsResponse`] | `GET /metrics` | service counters |
//! | [`HealthResponse`] | `GET /healthz` | liveness |
//! | [`ErrorBody`] | any error status | structured failure |
//!
//! Plus the serde round-trip forms of the modeling inputs: a
//! [`MachineSpec`] names or inlines a full machine description
//! (requests stay machine-description-driven — a new core is data, not
//! code), and a [`SpaceSpec`] names a canned design space or declares a
//! [`ProductSpace`](pmt_dse::ProductSpace) axis by axis.
//! [`DesignConstraints`](pmt_dse::DesignConstraints) already round-trips
//! and rides along verbatim.
//!
//! The vendored serde requires **every field to be present** (use `null`
//! for unset options); unknown fields are ignored.

mod error;
mod machine;
mod space;
mod wire;

pub use error::{ApiError, ErrorBody};
pub use machine::{machine_by_name, MachineSpec, MACHINE_NAMES};
pub use space::{AxisSpec, SpaceSpec, AXIS_NAMES, SPACE_NAMES};
pub use wire::{
    CorrectorMetrics, ExploreRequest, ExploreResponse, HealthResponse, MetricsResponse,
    PredictRequest, PredictResponse, ProfileInfo, ProfilesResponse, RegisterProfileRequest,
    RegisterProfileResponse, StackEntry,
};

// `pmt validate --out` output is part of the wire family; see the
// crate-level discussion of its independent schema counter.
pub use pmt_validate::ValidationReport;

// The corrector artifact travels with the wire family too: `pmt train`
// writes it, `pmt validate --corrector` and `pmt serve --corrector`
// read it, and it keeps its own independent schema counter just like
// [`ValidationReport`].
pub use pmt_ml::{MlError, ResidualModel, ML_SCHEMA_VERSION};

/// Version of the request/response wire schema. Bump on any breaking
/// change; servers refuse mismatched requests with
/// [`ApiError::wrong_schema_version`].
pub const WIRE_SCHEMA_VERSION: u32 = 1;

/// Check a request's claimed schema version against
/// [`WIRE_SCHEMA_VERSION`].
pub fn check_schema_version(got: u32) -> Result<(), ApiError> {
    if got == WIRE_SCHEMA_VERSION {
        Ok(())
    } else {
        Err(ApiError::wrong_schema_version(got))
    }
}

/// FNV-1a over length-prefixed parts — the stable 64-bit content hash the
/// service uses for request-coalescing and response-cache keys (same
/// construction as `pmt_sim::CacheKey`, duplicated here so the wire crate
/// stays independent of the simulator).
pub fn fnv1a(parts: &[&str]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for part in parts {
        eat(&(part.len() as u64).to_le_bytes());
        eat(part.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_check_accepts_current_and_names_the_mismatch() {
        assert!(check_schema_version(WIRE_SCHEMA_VERSION).is_ok());
        let err = check_schema_version(99).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.body.code, "bad_schema_version");
        assert!(err.body.message.contains("99"));
        assert!(err.body.message.contains(&WIRE_SCHEMA_VERSION.to_string()));
    }

    #[test]
    fn fnv_is_domain_separated_and_stable() {
        assert_ne!(fnv1a(&["ab", "c"]), fnv1a(&["a", "bc"]));
        assert_ne!(fnv1a(&[]), fnv1a(&[""]));
        // Pinned: persisted keys must never change meaning.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
