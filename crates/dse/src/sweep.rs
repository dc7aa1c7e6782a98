//! Parallel design-space sweeps (thesis §6.2.4, §7.4).

use pmt_core::{BatchPredictor, ModelConfig, PreparedProfile};
use pmt_power::PowerModel;
use pmt_profiler::ApplicationProfile;
use pmt_sim::{CacheKey, OooSimulator, SimCache, SimConfig, SimResult};
use pmt_uarch::{DesignPoint, DesignSpace, MachineConfig};
use pmt_workloads::WorkloadSpec;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One (design, workload) evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PointOutcome {
    /// Design point id.
    pub design_id: usize,
    /// Workload name.
    pub workload: String,
    /// Model-predicted CPI.
    pub model_cpi: f64,
    /// Model-predicted total power (W).
    pub model_power: f64,
    /// Model-predicted execution seconds.
    pub model_seconds: f64,
    /// Simulator CPI (None if the sweep was model-only).
    pub sim_cpi: Option<f64>,
    /// Simulator power (W).
    pub sim_power: Option<f64>,
    /// Simulator execution seconds.
    pub sim_seconds: Option<f64>,
}

impl PointOutcome {
    /// Model (delay, power) coordinates for Pareto analysis.
    pub fn model_coords(&self) -> (f64, f64) {
        (self.model_seconds, self.model_power)
    }

    /// Simulator (delay, power) coordinates, if simulated.
    pub fn sim_coords(&self) -> Option<(f64, f64)> {
        Some((self.sim_seconds?, self.sim_power?))
    }

    /// **Signed** relative CPI error, if simulated:
    /// `(model − sim) / sim`. Positive means the model over-predicts.
    ///
    /// This is the error convention everywhere in the workspace (see
    /// [`pmt_core::Prediction::cpi_error_vs`]): errors are signed so that
    /// systematic bias survives averaging; use
    /// [`abs_cpi_error`](Self::abs_cpi_error) when only the magnitude
    /// matters.
    pub fn cpi_error(&self) -> Option<f64> {
        let s = self.sim_cpi?;
        Some((self.model_cpi - s) / s)
    }

    /// Magnitude of [`cpi_error`](Self::cpi_error).
    pub fn abs_cpi_error(&self) -> Option<f64> {
        self.cpi_error().map(f64::abs)
    }

    /// **Signed** relative IPC error, if simulated: `(model − sim)/sim`
    /// in IPC terms, i.e. `sim_cpi/model_cpi − 1`.
    pub fn ipc_error(&self) -> Option<f64> {
        let s = self.sim_cpi?;
        if self.model_cpi == 0.0 {
            return None;
        }
        Some(s / self.model_cpi - 1.0)
    }

    /// Magnitude of [`ipc_error`](Self::ipc_error).
    pub fn abs_ipc_error(&self) -> Option<f64> {
        self.ipc_error().map(f64::abs)
    }

    /// **Signed** relative power error, if simulated:
    /// `(model − sim) / sim`. Positive means the model over-predicts.
    pub fn power_error(&self) -> Option<f64> {
        let s = self.sim_power?;
        Some((self.model_power - s) / s)
    }

    /// Magnitude of [`power_error`](Self::power_error).
    pub fn abs_power_error(&self) -> Option<f64> {
        self.power_error().map(f64::abs)
    }
}

/// The content key memoizing one reference simulation: the full workload
/// spec, the full machine configuration and the instruction budget, each
/// rendered to canonical JSON. Any field change — a cache size, the ROB
/// depth, the workload seed, the budget — changes the key.
pub fn sim_cache_key(
    spec: &WorkloadSpec,
    machine: &MachineConfig,
    sim_instructions: u64,
) -> CacheKey {
    CacheKey::of_parts(&[
        &serde_json::to_string(spec).expect("workload specs serialize"),
        &serde_json::to_string(machine).expect("machine configs serialize"),
        &sim_instructions.to_string(),
    ])
}

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Model configuration (entropy model etc.).
    pub model: ModelConfig,
    /// Also run the cycle-level simulator for ground truth.
    pub with_simulation: bool,
    /// Instructions per simulation (ignored for the model, which uses the
    /// profile).
    pub sim_instructions: u64,
    /// Optional shared memoization cache for simulation results, keyed by
    /// [`sim_cache_key`]. Repeated sweeps over overlapping (workload,
    /// point, budget) grids — e.g. successive `pmt_validate` runs — skip
    /// already-simulated points; the simulator is deterministic, so cached
    /// results are bit-identical to fresh ones.
    pub sim_cache: Option<Arc<SimCache>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            model: ModelConfig::default(),
            with_simulation: false,
            sim_instructions: 200_000,
            sim_cache: None,
        }
    }
}

/// A design-space × workload evaluation.
#[derive(Clone, Debug, Default)]
pub struct SpaceEvaluation {
    /// All outcomes, grouped by workload-major order.
    pub outcomes: Vec<PointOutcome>,
}

impl SpaceEvaluation {
    /// Evaluate the model for one profiled workload over all design
    /// points; optionally simulate for truth.
    ///
    /// Profile once, **prepare once**, predict many: the machine-independent
    /// StatStack fits are compiled once ([`PreparedProfile`]), shared
    /// read-only across the rayon workers, and the design points pay only
    /// for the machine-dependent queries — answered per chunk through the
    /// batched kernels ([`pmt_core::BatchPredictor`]), bit-identical to
    /// the one-point [`pmt_core::IntervalModel::predict_summary`]. Results
    /// come back in design-point order, so a parallel sweep is
    /// **bit-identical** to [`run_serial`](Self::run_serial).
    pub fn run(
        points: &[DesignPoint],
        profile: &ApplicationProfile,
        spec: Option<&WorkloadSpec>,
        cfg: &SweepConfig,
    ) -> SpaceEvaluation {
        Self::evaluate(points, profile, spec, cfg, true)
    }

    /// The sequential reference path: identical arithmetic to
    /// [`run`](Self::run),
    /// one point at a time. Kept public so benchmarks and equivalence
    /// tests can measure the parallel speedup against it.
    pub fn run_serial(
        points: &[DesignPoint],
        profile: &ApplicationProfile,
        spec: Option<&WorkloadSpec>,
        cfg: &SweepConfig,
    ) -> SpaceEvaluation {
        Self::evaluate(points, profile, spec, cfg, false)
    }

    /// The single evaluation core behind [`run`](Self::run) and
    /// [`run_serial`](Self::run_serial): one prepared profile, the model
    /// half batched per chunk, the simulation half per point — the
    /// serial and parallel paths differ *only* in the iterators driving
    /// both halves, so their equivalence is structural rather than
    /// maintained by hand.
    fn evaluate(
        points: &[DesignPoint],
        profile: &ApplicationProfile,
        spec: Option<&WorkloadSpec>,
        cfg: &SweepConfig,
        parallel: bool,
    ) -> SpaceEvaluation {
        assert!(
            !cfg.with_simulation || spec.is_some(),
            "simulation needs the workload spec"
        );
        let prepared = PreparedProfile::new(profile);
        let model = Self::predict_model_points(points, &prepared, cfg, parallel);
        let eval = |i: usize| Self::finish_point(&points[i], model[i], &prepared, spec, cfg);
        let outcomes = if parallel {
            (0..points.len()).into_par_iter().map(eval).collect()
        } else {
            (0..points.len()).map(eval).collect()
        };
        SpaceEvaluation { outcomes }
    }

    /// The model half of a sweep: every point's (cpi, seconds, power),
    /// in point order, evaluated through the batched kernels
    /// ([`crate::streaming::evaluate_stream_points_batched`] — the same
    /// per-point steps the streaming engine folds, so a streamed sweep is
    /// bit-identical to a materialized one by construction). Chunks run
    /// in parallel when asked; order-preserving either way.
    fn predict_model_points(
        points: &[DesignPoint],
        prepared: &PreparedProfile<'_>,
        cfg: &SweepConfig,
        parallel: bool,
    ) -> Vec<crate::streaming::StreamPoint> {
        let chunk = crate::streaming::DEFAULT_CHUNK;
        let chunks: Vec<&[DesignPoint]> = points.chunks(chunk).collect();
        let worker = || BatchPredictor::bounded(prepared, &cfg.model, chunk);
        let eval = |predictor: &mut BatchPredictor<'_, '_>, c: &&[DesignPoint]| {
            crate::streaming::evaluate_stream_points_batched(c, predictor)
        };
        let per_chunk: Vec<Vec<crate::streaming::StreamPoint>> = if parallel {
            chunks.par_iter().map_init(worker, eval).collect()
        } else {
            let mut predictor = worker();
            chunks.iter().map(|c| eval(&mut predictor, c)).collect()
        };
        per_chunk.into_iter().flatten().collect()
    }

    /// Finish one design point: attach the precomputed model prediction
    /// and (optionally) the memoized reference simulation.
    fn finish_point(
        point: &DesignPoint,
        p: crate::streaming::StreamPoint,
        prepared: &PreparedProfile<'_>,
        spec: Option<&WorkloadSpec>,
        cfg: &SweepConfig,
    ) -> PointOutcome {
        let machine = &point.machine;
        let (sim_cpi, sim_power, sim_seconds) = if cfg.with_simulation {
            let spec = spec.expect("checked in run()");
            let simulate = || {
                OooSimulator::new(SimConfig::new(machine.clone()))
                    .run(&mut spec.trace(cfg.sim_instructions))
            };
            let r: Arc<SimResult> = match &cfg.sim_cache {
                Some(cache) => {
                    let key = sim_cache_key(spec, machine, cfg.sim_instructions);
                    cache.get_or_run(key, simulate)
                }
                None => Arc::new(simulate()),
            };
            let sim_power = PowerModel::new(machine).power(&r.activity).total();
            (
                Some(r.cpi()),
                Some(sim_power),
                Some(r.seconds_at(machine.core.frequency_ghz)),
            )
        } else {
            (None, None, None)
        };

        PointOutcome {
            design_id: point.id,
            workload: prepared.profile().name.clone(),
            model_cpi: p.cpi,
            model_power: p.power,
            model_seconds: p.seconds,
            sim_cpi,
            sim_power,
            sim_seconds,
        }
    }

    /// Model (delay, power) coordinates in design-id order.
    pub fn model_points(&self) -> Vec<(f64, f64)> {
        self.outcomes.iter().map(|o| o.model_coords()).collect()
    }

    /// Simulator coordinates (empty if not simulated).
    pub fn sim_points(&self) -> Vec<(f64, f64)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.sim_coords())
            .collect()
    }
}

/// A batch design-space sweep: many profiled workloads × one design space,
/// evaluated as a single rayon-parallel job.
///
/// This is the facade-level entry point for the paper's headline workflow
/// (profile once per workload, then predict the whole space "in seconds"):
///
/// ```
/// use pmt_dse::SweepBuilder;
/// use pmt_profiler::{Profiler, ProfilerConfig};
/// use pmt_uarch::DesignSpace;
/// use pmt_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("astar").unwrap();
/// let profile =
///     Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
/// let batch = SweepBuilder::new()
///     .space(DesignSpace::small())
///     .profile(&profile)
///     .run();
/// assert_eq!(batch.evaluations.len(), 1);
/// assert_eq!(batch.evaluations[0].outcomes.len(), 32);
/// ```
#[derive(Default)]
pub struct SweepBuilder<'a> {
    points: Vec<DesignPoint>,
    /// Which setter provided `points` — [`space`](Self::space) and
    /// [`points`](Self::points) are mutually exclusive, and mixing them
    /// is a hard error rather than a silent last-call-wins.
    points_source: Option<&'static str>,
    jobs: Vec<(&'a ApplicationProfile, Option<&'a WorkloadSpec>)>,
    config: SweepConfig,
    serial: bool,
}

impl<'a> SweepBuilder<'a> {
    /// An empty sweep over no points and no workloads.
    pub fn new() -> SweepBuilder<'a> {
        SweepBuilder::default()
    }

    fn set_points(&mut self, source: &'static str, points: Vec<DesignPoint>) {
        if let Some(prev) = self.points_source {
            if prev != source {
                panic!(
                    "SweepBuilder::{source}(...) conflicts with the earlier \
                     ::{prev}(...) call: a sweep takes its points from either \
                     a DesignSpace or an explicit list, never both"
                );
            }
        }
        self.points_source = Some(source);
        self.points = points;
    }

    /// Sweep every point of `space`.
    ///
    /// Mutually exclusive with [`points`](Self::points): calling both on
    /// one builder panics (repeating the *same* setter replaces the
    /// previous value). A silent last-call-wins here used to discard a
    /// carefully constructed point list without a trace.
    pub fn space(mut self, space: DesignSpace) -> Self {
        self.set_points("space", space.enumerate());
        self
    }

    /// Sweep an explicit list of design points.
    ///
    /// Mutually exclusive with [`space`](Self::space) — see there.
    pub fn points(mut self, points: Vec<DesignPoint>) -> Self {
        self.set_points("points", points);
        self
    }

    /// Add a profiled workload (model-only evaluation).
    pub fn profile(mut self, profile: &'a ApplicationProfile) -> Self {
        self.jobs.push((profile, None));
        self
    }

    /// Add a profiled workload together with its generator spec so the
    /// sweep can also run the cycle-level simulator for ground truth.
    pub fn profile_with_spec(
        mut self,
        profile: &'a ApplicationProfile,
        spec: &'a WorkloadSpec,
    ) -> Self {
        self.jobs.push((profile, Some(spec)));
        self
    }

    /// Replace the sweep configuration.
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Also simulate every point (requires specs via
    /// [`profile_with_spec`](Self::profile_with_spec)).
    pub fn with_simulation(mut self, sim_instructions: u64) -> Self {
        self.config.with_simulation = true;
        self.config.sim_instructions = sim_instructions;
        self
    }

    /// Memoize simulation results in `cache` (shared; see
    /// [`SweepConfig::sim_cache`]).
    pub fn sim_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.config.sim_cache = Some(cache);
        self
    }

    /// Force the sequential path (for measurement and debugging).
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Evaluate all (workload × design point) pairs.
    ///
    /// Each workload is **prepared once** ([`PreparedProfile`]) and shared
    /// read-only across the whole grid. The model half runs through the
    /// batched kernels per (workload, chunk); the finishing half runs the
    /// identical flat (job, point) grid through the identical per-pair
    /// closure. The serial and parallel paths differ only in the driving
    /// iterators, so a parallel batch is structurally bit-identical to a
    /// serial one; outcomes are regrouped per workload in input order.
    pub fn run(&self) -> BatchEvaluation {
        assert!(
            !self.config.with_simulation || self.jobs.iter().all(|(_, s)| s.is_some()),
            "simulation sweeps need every workload added via profile_with_spec"
        );
        let n_points = self.points.len();
        // The machine-independent compilation, hoisted out of the grid:
        // one preparation per workload, not one per (workload, point) —
        // rayon-parallel (order-preserving collect) since each workload's
        // fits are independent; the `serial` flag only pins the point
        // evaluation order, which preparation does not touch.
        let prepared: Vec<PreparedProfile<'_>> = self
            .jobs
            .par_iter()
            .map(|(profile, _)| PreparedProfile::new(profile))
            .collect();
        // The batched model half, one prediction list per workload (the
        // inner call parallelizes over chunks unless `serial`).
        let model: Vec<Vec<crate::streaming::StreamPoint>> = prepared
            .iter()
            .map(|prep| {
                SpaceEvaluation::predict_model_points(
                    &self.points,
                    prep,
                    &self.config,
                    !self.serial,
                )
            })
            .collect();
        let grid: Vec<(usize, usize)> = (0..self.jobs.len())
            .flat_map(|j| (0..n_points).map(move |p| (j, p)))
            .collect();
        let eval = |&(j, p): &(usize, usize)| {
            let (_, spec) = self.jobs[j];
            SpaceEvaluation::finish_point(
                &self.points[p],
                model[j][p],
                &prepared[j],
                spec,
                &self.config,
            )
        };
        let mut outcomes: Vec<PointOutcome> = if self.serial {
            grid.iter().map(eval).collect()
        } else {
            grid.par_iter().map(eval).collect()
        };
        let mut evals = Vec::with_capacity(self.jobs.len());
        for _ in 0..self.jobs.len() {
            let rest = outcomes.split_off(n_points.min(outcomes.len()));
            evals.push(SpaceEvaluation { outcomes });
            outcomes = rest;
        }
        BatchEvaluation {
            workloads: self.jobs.iter().map(|(p, _)| p.name.clone()).collect(),
            evaluations: evals,
        }
    }
}

/// The result of a [`SweepBuilder`] run: one [`SpaceEvaluation`] per added
/// workload, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct BatchEvaluation {
    /// Workload names, parallel to `evaluations` (recorded at build time so
    /// lookups work even for empty point sets).
    pub workloads: Vec<String>,
    /// Per-workload space evaluations.
    pub evaluations: Vec<SpaceEvaluation>,
}

impl BatchEvaluation {
    /// The evaluation for the first workload added as `workload`.
    pub fn for_workload(&self, workload: &str) -> Option<&SpaceEvaluation> {
        self.workloads
            .iter()
            .position(|w| w == workload)
            .map(|i| &self.evaluations[i])
    }

    /// All outcomes across workloads, workload-major.
    pub fn outcomes(&self) -> impl Iterator<Item = &PointOutcome> {
        self.evaluations.iter().flat_map(|e| e.outcomes.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_uarch::DesignSpace;

    fn profile() -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(30_000))
    }

    #[test]
    fn model_only_sweep_covers_space() {
        let points = DesignSpace::small().enumerate();
        let eval = SpaceEvaluation::run(&points, &profile(), None, &SweepConfig::default());
        assert_eq!(eval.outcomes.len(), 32);
        for o in &eval.outcomes {
            assert!(o.model_cpi > 0.0);
            assert!(o.model_power > 0.0);
            assert!(o.sim_cpi.is_none());
        }
    }

    #[test]
    fn bigger_machines_predictably_cost_power() {
        let points = DesignSpace::small().enumerate();
        let eval = SpaceEvaluation::run(&points, &profile(), None, &SweepConfig::default());
        // The smallest and largest configurations by resources.
        let small = &eval.outcomes[0];
        let big = eval.outcomes.last().unwrap();
        assert!(big.model_power > small.model_power);
    }

    #[test]
    fn simulated_sweep_fills_truth() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let points = DesignSpace::small().enumerate()[..4].to_vec();
        let cfg = SweepConfig {
            with_simulation: true,
            sim_instructions: 10_000,
            ..Default::default()
        };
        let eval = SpaceEvaluation::run(&points, &profile(), Some(&spec), &cfg);
        for o in &eval.outcomes {
            assert!(o.sim_cpi.unwrap() > 0.0);
            assert!(o.cpi_error().is_some());
        }
    }

    /// The tentpole guarantee: a rayon-parallel sweep returns exactly the
    /// bytes the serial sweep does, in the same order.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let points = DesignSpace::small().enumerate();
        let profile = profile();
        let cfg = SweepConfig::default();
        let par = SpaceEvaluation::run(&points, &profile, None, &cfg);
        let ser = SpaceEvaluation::run_serial(&points, &profile, None, &cfg);
        assert_eq!(par.outcomes.len(), ser.outcomes.len());
        for (p, s) in par.outcomes.iter().zip(&ser.outcomes) {
            assert_eq!(p.design_id, s.design_id);
            assert_eq!(p.workload, s.workload);
            assert_eq!(p.model_cpi.to_bits(), s.model_cpi.to_bits());
            assert_eq!(p.model_power.to_bits(), s.model_power.to_bits());
            assert_eq!(p.model_seconds.to_bits(), s.model_seconds.to_bits());
        }
    }

    /// The workspace error convention: signed relative errors, magnitude
    /// via the `abs_*` helpers, zero for a perfect model.
    #[test]
    fn error_helpers_are_signed_with_abs_variants() {
        let mut o = PointOutcome {
            design_id: 0,
            workload: "w".into(),
            model_cpi: 1.2,
            model_power: 8.0,
            model_seconds: 1.0,
            sim_cpi: Some(1.0),
            sim_power: Some(10.0),
            sim_seconds: Some(1.0),
        };
        // Over-predicted CPI: positive error; under-predicted power:
        // negative error — but both abs_* helpers are non-negative.
        assert!((o.cpi_error().unwrap() - 0.2).abs() < 1e-12);
        assert!((o.power_error().unwrap() + 0.2).abs() < 1e-12);
        assert!((o.abs_cpi_error().unwrap() - 0.2).abs() < 1e-12);
        assert!((o.abs_power_error().unwrap() - 0.2).abs() < 1e-12);
        // IPC error has the opposite sign of the CPI error.
        assert!(o.ipc_error().unwrap() < 0.0);
        assert!((o.ipc_error().unwrap() + 1.0 / 6.0).abs() < 1e-12);

        // A perfect model has exactly zero error on every metric.
        o.model_cpi = 1.0;
        o.model_power = 10.0;
        assert_eq!(o.cpi_error(), Some(0.0));
        assert_eq!(o.ipc_error(), Some(0.0));
        assert_eq!(o.power_error(), Some(0.0));

        // Model-only outcomes have no error to report.
        o.sim_cpi = None;
        o.sim_power = None;
        assert_eq!(o.cpi_error(), None);
        assert_eq!(o.abs_cpi_error(), None);
        assert_eq!(o.ipc_error(), None);
        assert_eq!(o.power_error(), None);
        assert_eq!(o.abs_power_error(), None);
    }

    /// Every machine knob the design space sweeps, the workload identity
    /// and the budget must all feed the memoization key.
    #[test]
    fn cache_key_is_sensitive_to_every_input() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let base = DesignSpace::small().enumerate()[0].clone();
        let mut keys = vec![sim_cache_key(&spec, &base.machine, 10_000)];

        // Budget.
        keys.push(sim_cache_key(&spec, &base.machine, 20_000));
        // Workload identity (a different seed alone must re-simulate).
        let mut reseeded = spec.clone();
        reseeded.seed ^= 1;
        keys.push(sim_cache_key(&reseeded, &base.machine, 10_000));
        // Each swept DesignPoint coordinate.
        for p in DesignSpace::small().enumerate().iter().skip(1) {
            keys.push(sim_cache_key(&spec, &p.machine, 10_000));
        }

        let mut unique: Vec<u64> = keys.iter().map(|k| k.0).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "cache key collision");
    }

    /// A cached simulated sweep is bit-identical to an uncached one, and a
    /// second run over the same grid performs zero new simulations.
    #[test]
    fn cached_sweep_matches_uncached_and_warm_run_is_free() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let points = DesignSpace::small().enumerate()[..4].to_vec();
        let profile = profile();
        let cold_cfg = SweepConfig {
            with_simulation: true,
            sim_instructions: 5_000,
            ..Default::default()
        };
        let uncached = SpaceEvaluation::run_serial(&points, &profile, Some(&spec), &cold_cfg);

        let cache = SimCache::shared();
        let cached_cfg = SweepConfig {
            sim_cache: Some(cache.clone()),
            ..cold_cfg
        };
        let cold = SpaceEvaluation::run(&points, &profile, Some(&spec), &cached_cfg);
        assert_eq!(cache.stats().misses, points.len() as u64);
        let warm = SpaceEvaluation::run(&points, &profile, Some(&spec), &cached_cfg);
        assert_eq!(
            cache.stats().misses,
            points.len() as u64,
            "warm run re-simulated"
        );
        assert_eq!(cache.stats().hits, points.len() as u64);

        for ((u, c), w) in uncached
            .outcomes
            .iter()
            .zip(&cold.outcomes)
            .zip(&warm.outcomes)
        {
            assert_eq!(u.sim_cpi.unwrap().to_bits(), c.sim_cpi.unwrap().to_bits());
            assert_eq!(c.sim_cpi.unwrap().to_bits(), w.sim_cpi.unwrap().to_bits());
            assert_eq!(
                c.sim_power.unwrap().to_bits(),
                w.sim_power.unwrap().to_bits()
            );
        }
    }

    #[test]
    fn builder_batches_workloads_in_order() {
        let spec_a = WorkloadSpec::by_name("astar").unwrap();
        let spec_b = WorkloadSpec::by_name("gcc").unwrap();
        let prof = Profiler::new(ProfilerConfig::fast_test());
        let pa = prof.profile_named("astar", &mut spec_a.trace(20_000));
        let pb = prof.profile_named("gcc", &mut spec_b.trace(20_000));
        let batch = SweepBuilder::new()
            .space(DesignSpace::small())
            .profile(&pa)
            .profile(&pb)
            .run();
        assert_eq!(batch.evaluations.len(), 2);
        assert!(batch.evaluations.iter().all(|e| e.outcomes.len() == 32));
        assert_eq!(batch.evaluations[0].outcomes[0].workload, "astar");
        assert_eq!(batch.evaluations[1].outcomes[0].workload, "gcc");
        assert!(batch.for_workload("gcc").is_some());
        assert!(batch.for_workload("milc").is_none());
        assert_eq!(batch.outcomes().count(), 64);

        // Lookup works even when the point set is empty (names are
        // recorded at build time, not inferred from outcome rows).
        let empty = SweepBuilder::new().points(Vec::new()).profile(&pa).run();
        assert!(empty.for_workload("astar").is_some());
        assert_eq!(empty.for_workload("astar").unwrap().outcomes.len(), 0);

        // Batch = per-workload sweeps, bit for bit.
        let lone = SpaceEvaluation::run_serial(
            &DesignSpace::small().enumerate(),
            &pb,
            None,
            &SweepConfig::default(),
        );
        for (a, b) in batch.evaluations[1].outcomes.iter().zip(&lone.outcomes) {
            assert_eq!(a.model_cpi.to_bits(), b.model_cpi.to_bits());
        }
    }

    /// `.space(...)` and `.points(...)` used to overwrite each other
    /// silently (last-call-wins); the combination is now a hard error in
    /// both orders, while repeating one setter still replaces.
    #[test]
    #[should_panic(expected = "conflicts with the earlier")]
    fn points_then_space_is_an_error() {
        let _ = SweepBuilder::new()
            .points(DesignSpace::small().enumerate()[..2].to_vec())
            .space(DesignSpace::small());
    }

    #[test]
    #[should_panic(expected = "conflicts with the earlier")]
    fn space_then_points_is_an_error() {
        let _ = SweepBuilder::new()
            .space(DesignSpace::small())
            .points(Vec::new());
    }

    #[test]
    fn repeating_the_same_points_setter_replaces() {
        let points = DesignSpace::small().enumerate();
        let b = SweepBuilder::new()
            .points(points[..4].to_vec())
            .points(points[..2].to_vec());
        assert_eq!(b.points.len(), 2);
        let b = SweepBuilder::new()
            .space(DesignSpace::small())
            .space(DesignSpace::validation_subspace());
        assert_eq!(b.points.len(), 27);
    }
}
