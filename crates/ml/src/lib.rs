//! Analytical-ML fusion: a learned residual corrector on top of the
//! interval model (ROADMAP item 4, after Concorde's analytical-ML split).
//!
//! The interval model is fast and mechanistic but systematically biased
//! on some (workload, design-point) regions; the differential validation
//! subsystem measures that bias precisely. This crate closes the loop: a
//! hand-rolled **ridge regression** is trained on `pmt validate` outputs
//! — per-(workload, design point) relative residuals of CPI and power
//! versus the reference simulator — over machine-config + profile
//! features, and applied as an *optional* correction layer:
//!
//! ```text
//! corrected = analytical × (1 + ŷ)        ŷ = wᵀ·z(features)
//! ```
//!
//! # Determinism contract
//!
//! Training is bit-deterministic: the train/test split is a Fisher–Yates
//! shuffle of a seeded [`rand::rngs::StdRng`], feature standardization
//! and the XᵀX/Xᵀy normal-equation accumulation run in fixed chunk
//! order, and the solver is a partial-pivot Gaussian elimination using
//! only IEEE-exact `+ − × ÷ √`. Training twice from the same rows
//! produces a byte-identical [`ResidualModel`] artifact, which is what
//! lets the fused validation goldens and the CI `fusion-smoke`
//! byte-reproducibility gates exist.
//!
//! Correction never touches the sweep accumulators: `StreamingSweep`
//! folds analytical predictions exactly as before (preserving the
//! serial==parallel byte-identity contract), and the
//! corrector is applied **post-fold** to the handful of surviving
//! entries (see `pmt_dse::corrected`). A zero-weight model corrects to
//! the analytical value *bit-exactly* (`x * 1.0 == x`), so "corrector
//! loaded but learned nothing" is indistinguishable from "no corrector".
//!
//! # Artifact discipline
//!
//! [`ResidualModel`] serializes through the vendored serde with
//! [`ML_SCHEMA_VERSION`] and the profile fingerprints it was trained
//! over; appliers refuse wrong versions (`bad_corrector_version`) and
//! mismatched profiles (`corrector_profile_mismatch`) with structured
//! errors, mirroring the `ValidationReport` schema-version
//! discipline.

mod features;
mod model;
pub mod ridge;

pub use features::{feature_names, features, FEATURE_COUNT, FEATURE_NAMES};
pub use model::{
    split_indices, train, Corrected, CorrectedPoint, MlError, ResidualModel, TrainOptions,
    TrainingRow, WorkloadFingerprint, ML_SCHEMA_VERSION,
};

use pmt_profiler::ApplicationProfile;

/// The canonical profile fingerprint: FNV-1a (length-prefixed, the
/// workspace-wide construction) over the profile's canonical JSON,
/// rendered as 16 lowercase hex digits.
///
/// This is *the* definition — the serve registry's `content_hash` is
/// the same hash before hex rendering — so a corrector trained from
/// `pmt validate` outputs matches the fingerprints every other subsystem
/// computes.
pub fn profile_fingerprint(profile: &ApplicationProfile) -> String {
    let mut json = String::new();
    serde::Serialize::to_json(profile, &mut json);
    format!("{:016x}", fnv1a(&[&json]))
}

/// FNV-1a over length-prefixed parts (same construction as
/// `pmt_api::fnv1a` / `pmt_sim::CacheKey`; duplicated so the ml crate
/// stays below the api crate in the DAG).
fn fnv1a(parts: &[&str]) -> u64 {
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
