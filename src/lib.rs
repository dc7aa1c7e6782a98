//! # PMT — Processor Modeling Toolkit
//!
//! A from-scratch Rust reproduction of *"Micro-architecture independent
//! analytical processor performance and power modeling"* (Van den Steen et
//! al., ISPASS 2015; extended in the 2018 PhD thesis of the same name).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`trace`] — dynamic μop trace IR and micro-trace sampling,
//! * [`uarch`] — machine configurations, the Nehalem reference and the
//!   243-point design space,
//! * [`workloads`] — 29 synthetic SPEC CPU 2006 stand-ins,
//! * [`profiler`] — the micro-architecture independent profiler (AIP),
//! * [`statstack`] — the StatStack statistical cache model,
//! * [`branch`] — branch predictors and the linear branch entropy model,
//! * [`cachesim`] — functional cache hierarchy simulation,
//! * [`sim`] — the cycle-level out-of-order reference simulator,
//! * [`model`] — the micro-architecture independent interval model (the
//!   paper's contribution),
//! * [`power`] — the McPAT-style power model,
//! * [`ml`] — the learned residual corrector: hand-rolled ridge
//!   regression over machine + profile features, trained from
//!   validation outputs and applied on top of the analytical model,
//! * [`dse`] — design-space exploration: materializing and streaming
//!   sweeps, lazy spaces, Pareto pruning and DVFS,
//! * [`validate`] — differential model-vs-simulator validation with
//!   memoized reference runs and serializable accuracy reports,
//! * [`report`] — deterministic figure rendering (typed figures to
//!   text, Markdown and hand-rolled SVG) behind `docs/REPRODUCTION.md`,
//! * [`mod@bench`] — the experiment harness, the figure registry behind
//!   `pmt figure`, and the `pmt report` generator,
//! * [`api`] — the versioned wire schema (requests, responses,
//!   structured errors) spoken by both the CLI's JSON outputs and the
//!   daemon,
//! * [`serve`] — the `pmt serve` prediction service: prepared-profile
//!   registry, hand-rolled HTTP, request coalescing and backpressure.
//!
//! # Quickstart
//!
//! ```
//! use pmt::prelude::*;
//!
//! // Profile a workload once, micro-architecture independently...
//! let workload = WorkloadSpec::by_name("gcc").unwrap();
//! let profile = Profiler::new(ProfilerConfig::fast_test())
//!     .profile(&mut workload.trace(200_000));
//!
//! // ...then predict performance for any machine in seconds.
//! let machine = MachineConfig::nehalem();
//! let prediction = IntervalModel::new(&machine).predict(&profile);
//! assert!(prediction.cpi() > 0.0);
//!
//! // Or sweep a whole design space, rayon-parallel, from the same profile.
//! let points = DesignSpace::small().enumerate();
//! let eval = SpaceEvaluation::run(&points, &profile, None, &SweepConfig::default());
//! let front = ParetoFront::of(&eval.model_points());
//! assert!(!front.indices().is_empty());
//! ```
//!
//! # Exploring large design spaces
//!
//! Spaces far beyond the thesis grid are declared lazily and **streamed**
//! — points decode on demand, predictions fold into online accumulators
//! (Pareto frontier, top-K, moments), and memory stays bounded by the
//! answer rather than the space
//! (see [`dse`] and `docs/ARCHITECTURE.md`):
//!
//! ```
//! use pmt::prelude::*;
//!
//! let workload = WorkloadSpec::by_name("mcf").unwrap();
//! let profile = Profiler::new(ProfilerConfig::fast_test())
//!     .profile(&mut workload.trace(50_000));
//!
//! // Five axes in five lines; nothing materialized up front.
//! let space = ProductSpace::new(MachineConfig::nehalem())
//!     .dispatch_widths(&[2, 4, 6, 8])
//!     .rob_sizes(&[64, 128, 256, 512])
//!     .l3_kb(&[2048, 8192])
//!     .mshr_entries(&[8, 16, 32])
//!     .frequency_ghz(&[2.0, 2.66, 3.2]);
//! assert_eq!(space.len(), 288);
//!
//! let summary = StreamingSweep::new(&profile)
//!     .objective(Objective::Energy)
//!     .top_k(5)
//!     .run(&space);
//! assert_eq!(summary.evaluated, 288);
//! assert!(!summary.frontier.is_empty()); // non-dominated designs only
//! assert_eq!(summary.top.len(), 5); // 5 lowest-energy designs
//! ```

pub use pmt_api as api;
pub use pmt_bench as bench;
pub use pmt_branch as branch;
pub use pmt_cachesim as cachesim;
pub use pmt_core as model;
pub use pmt_dse as dse;
pub use pmt_ml as ml;
pub use pmt_power as power;
pub use pmt_profiler as profiler;
pub use pmt_report as report;
pub use pmt_serve as serve;
pub use pmt_sim as sim;
pub use pmt_statstack as statstack;
pub use pmt_trace as trace;
pub use pmt_uarch as uarch;
pub use pmt_validate as validate;
pub use pmt_workloads as workloads;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use pmt_api::{
        ApiError, ErrorBody, ExploreRequest, ExploreResponse, MachineSpec, PredictRequest,
        PredictResponse, SpaceSpec, WIRE_SCHEMA_VERSION,
    };
    pub use pmt_core::{
        IntervalModel, ModelConfig, Moments, Prediction, PredictionSummary, PreparedProfile,
    };
    pub use pmt_dse::{
        DesignConstraints, LazyDesignSpace, Objective, ParetoAccumulator, ParetoFront,
        ProductSpace, SpaceEvaluation, StreamingSummary, StreamingSweep, SweepConfig, TopK,
    };
    pub use pmt_power::{PowerBreakdown, PowerModel};
    pub use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
    pub use pmt_report::{Figure, FigureKind, Report};
    pub use pmt_sim::{OooSimulator, SimCache, SimConfig, SimResult};
    pub use pmt_trace::{MicroOp, SamplingConfig, TraceSource, UopClass};
    pub use pmt_uarch::{DesignSpace, MachineConfig};
    pub use pmt_validate::{ErrorStats, ValidationConfig, ValidationReport, Validator};
    pub use pmt_workloads::{WorkloadSpec, SUITE};
}
