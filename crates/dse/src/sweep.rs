//! Parallel design-space sweeps (thesis §6.2.4, §7.4).

use pmt_core::{BatchPredictor, ModelConfig, PreparedProfile};
use pmt_power::PowerModel;
use pmt_profiler::ApplicationProfile;
use pmt_sim::{CacheKey, OooSimulator, SimCache, SimConfig, SimResult};
use pmt_uarch::{DesignPoint, MachineConfig};
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
    /// Instructions per reference simulation. A sweep simulates exactly
    /// when it is given the workload's spec; the model uses the profile.
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
            sim_instructions: 200_000,
            sim_cache: None,
        }
    }
}

/// One workload's evaluation over a design space.
#[derive(Clone, Debug, Default)]
pub struct SpaceEvaluation {
    /// All outcomes, in design-point order.
    pub outcomes: Vec<PointOutcome>,
}

impl SpaceEvaluation {
    /// Evaluate the model for one profiled workload over all design
    /// points; given the workload's `spec`, also simulate every point for
    /// truth (memoized through [`SweepConfig::sim_cache`]).
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
    /// and, given a spec, the memoized reference simulation.
    fn finish_point(
        point: &DesignPoint,
        p: crate::streaming::StreamPoint,
        prepared: &PreparedProfile<'_>,
        spec: Option<&WorkloadSpec>,
        cfg: &SweepConfig,
    ) -> PointOutcome {
        let machine = &point.machine;
        let (sim_cpi, sim_power, sim_seconds) = if let Some(spec) = spec {
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
}
