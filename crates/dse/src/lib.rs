//! Design-space exploration (thesis Ch 7).
//!
//! The point of a micro-architecture independent model is sweeping large
//! design spaces from one profile. This crate provides:
//!
//! * [`SpaceEvaluation`] — the one materializing sweep: evaluate the
//!   interval model (and, given the workload's spec, the reference
//!   simulator) for one profiled workload over a list of design points,
//!   one [`PointOutcome`] per point, rayon-parallel with deterministic,
//!   serially bit-identical results,
//! * [`StreamingSweep`] — the large-scale path: points come lazily from
//!   any [`LazyDesignSpace`] (the thesis grid, or a [`ProductSpace`] of
//!   user-defined axes, easily 10⁶+ points) and fold into **online
//!   accumulators** — an incremental Pareto frontier
//!   ([`ParetoAccumulator`]), a bounded top-K ([`TopK`]) and streaming
//!   moments — so memory stays bounded by the *answer*, not the space,
//! * [`corrected_top`] / [`corrected_frontier`] — the optional learned
//!   residual layer: apply a trained `pmt_ml` corrector to a summary's
//!   survivors **after** the fold, leaving the accumulator bytes (and
//!   every byte-identity contract built on them) untouched,
//! * [`ParetoFront`] — non-dominated (delay, power) extraction plus the
//!   pruning-quality metrics of §7.4: sensitivity, specificity, accuracy
//!   and the hypervolume ratio (HVR, Fig 7.8),
//! * [`dvfs`] — voltage/frequency sweeps and ED²P optimization (§7.3);
//!   a dense DVFS sweep is a [`ProductSpace`] frequency or
//!   operating-point axis,
//! * [`constrain`] — cheap pre-prediction machine filters
//!   ([`constrain::DesignConstraints`]) and optimal-design selection
//!   under power or performance budgets (§7.2, Table 7.1),
//! * [`EmpiricalModel`] — the ridge-regression comparator of §7.5.
//!
//! # Example
//!
//! ```
//! use pmt_dse::ParetoFront;
//!
//! // Three designs: two non-dominated, one dominated.
//! let pts = vec![(1.0, 10.0), (2.0, 5.0), (2.5, 11.0)];
//! let front = ParetoFront::of(&pts);
//! assert!(front.is_optimal(0) && front.is_optimal(1) && !front.is_optimal(2));
//! ```
//!
//! Sweeping a space too large to materialize:
//!
//! ```
//! use pmt_dse::{LazyDesignSpace, Objective, ProductSpace, StreamingSweep};
//! use pmt_profiler::{Profiler, ProfilerConfig};
//! use pmt_uarch::MachineConfig;
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("gcc").unwrap();
//! let profile =
//!     Profiler::new(ProfilerConfig::fast_test()).profile_named("gcc", &mut spec.trace(20_000));
//! // Declare the space lazily; only visited points ever exist.
//! let space = ProductSpace::new(MachineConfig::nehalem())
//!     .dispatch_widths(&[2, 4, 6])
//!     .rob_sizes(&[64, 128, 256])
//!     .mshr_entries(&[8, 16]);
//! let summary = StreamingSweep::new(&profile)
//!     .objective(Objective::Energy)
//!     .top_k(3)
//!     .run(&space);
//! assert_eq!(summary.evaluated, space.len());
//! assert!(summary.frontier.len() < space.len());
//! ```

pub mod constrain;
mod corrected;
pub mod dvfs;
mod empirical;
mod pareto;
mod space;
mod streaming;
mod sweep;

pub use constrain::DesignConstraints;
pub use corrected::{corrected_frontier, corrected_top, CorrectedEntry};
pub use empirical::EmpiricalModel;
pub use pareto::{FrontEntry, ParetoAccumulator, ParetoFront, PruningQuality};
pub use space::{Axis, LazyDesignSpace, LazyPoints, ProductSpace};
pub use streaming::{
    Objective, RankedEntry, StreamPoint, StreamingSummary, StreamingSweep, TopK, DEFAULT_CHUNK,
};
pub use sweep::{sim_cache_key, PointOutcome, SpaceEvaluation, SweepConfig};
