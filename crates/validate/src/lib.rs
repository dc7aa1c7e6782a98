//! Differential validation of the analytical model against the simulator.
//!
//! The paper's central claim (Table 6.1, Fig 7.10) is that the
//! micro-architecture independent interval model tracks detailed
//! cycle-level simulation within a few percent average CPI/power error
//! across the 243-point design space of Table 6.3. This crate turns that
//! claim into a first-class, regression-guarded product:
//!
//! * [`Validator`] fans a set of profiled workloads across a
//!   [`DesignSpace`](pmt_uarch::DesignSpace), evaluating the interval
//!   model *and* the reference simulator at every point (one
//!   [`SpaceEvaluation`](pmt_dse::SpaceEvaluation) per workload),
//! * [`ErrorStats`] reports error as a **distribution** — signed bias,
//!   mean/p95/max magnitude — not a single flattering average, and
//!   [`spearman`] checks that the model *orders* design points the way
//!   the simulator does, which is what design-space pruning decisions
//!   actually rely on,
//! * [`ValidationReport`] serializes it all with a stable JSON schema
//!   ([`SCHEMA_VERSION`]) so golden tests and CI thresholds can guard
//!   both the model and the simulator against silent drift,
//! * simulation — the slow side — is memoized in a content-keyed
//!   [`SimCache`](pmt_sim::SimCache): repeated validations over
//!   overlapping grids perform **zero** new simulations, and the report's
//!   [`CacheActivity`] counters prove it.
//!
//! # Example
//!
//! ```
//! use pmt_uarch::DesignSpace;
//! use pmt_validate::{ValidationConfig, Validator};
//!
//! let validator = Validator::new(ValidationConfig::smoke())
//!     .space(&DesignSpace::validation_subspace())
//!     .workload_named("astar")
//!     .unwrap();
//! let cold = validator.run();
//! let warm = validator.run(); // same grid, same shared cache
//! assert_eq!(cold.cache.misses, 27);
//! assert_eq!(warm.cache.misses, 0); // memoized: zero new simulations
//! assert_eq!(cold.cpi, warm.cpi); // and bit-identical statistics
//! ```

mod report;
mod run;
mod stats;

pub use report::{
    CacheActivity, CorrectorInfo, FusedValidation, FusedWorkload, ValidationReport,
    WorkloadValidation, SCHEMA_VERSION,
};
pub use run::{TrainingData, ValidationConfig, Validator};
pub use stats::{
    relative_error, series_agreement, signed_errors, spearman, ErrorStats, SeriesAgreement,
};
