//! The differential validation runner.

use crate::report::{
    CacheActivity, CorrectorInfo, FusedValidation, FusedWorkload, ValidationReport,
    WorkloadValidation, SCHEMA_VERSION,
};
use crate::stats::{series_agreement, ErrorStats};
use pmt_core::ModelConfig;
use pmt_dse::{LazyDesignSpace, PointOutcome, SpaceEvaluation, SweepConfig};
use pmt_ml::{MlError, ResidualModel, TrainingRow};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_sim::SimCache;
use pmt_trace::SamplingConfig;
use pmt_uarch::{DesignPoint, DesignSpace};
use pmt_workloads::WorkloadSpec;
use std::sync::Arc;

/// Budgets and model/profiler settings for one validation run.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Instructions profiled per workload (the model's input).
    pub profile_instructions: u64,
    /// Instructions simulated per (workload, design point) reference run.
    pub sim_instructions: u64,
    /// Profiler configuration.
    pub profiler: ProfilerConfig,
    /// Interval-model configuration.
    pub model: ModelConfig,
}

impl ValidationConfig {
    /// Full-accuracy scale: 200k-instruction windows, thesis profiler
    /// sampling.
    ///
    /// Profile and simulation budgets default to the **same** window: a
    /// differential comparison is only fair when both sides see the same
    /// instructions — profiling 1M instructions but simulating the first
    /// 20k would score the model against a different (cache-cold) phase
    /// of the workload and report phantom error. Override the fields
    /// separately only when that mismatch is the thing under study.
    pub fn default_scale() -> ValidationConfig {
        let mut profiler = ProfilerConfig::thesis_default();
        profiler.sampling = SamplingConfig {
            micro_trace_instructions: 1_000,
            window_instructions: 10_000,
        };
        ValidationConfig {
            profile_instructions: 200_000,
            sim_instructions: 200_000,
            profiler,
            model: ModelConfig::default(),
        }
    }

    /// Tiny budgets for CI smoke runs and golden tests: the whole
    /// pipeline end-to-end on a toy trace (windows aligned, like
    /// [`default_scale`](Self::default_scale)).
    pub fn smoke() -> ValidationConfig {
        ValidationConfig {
            profile_instructions: 10_000,
            sim_instructions: 10_000,
            profiler: ProfilerConfig::fast_test(),
            model: ModelConfig::default(),
        }
    }
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig::default_scale()
    }
}

/// Differential validation of the analytical model against the
/// cycle-level simulator: workloads × design points, both sides
/// evaluated, errors reported as distributions.
///
/// Reference simulations are memoized in a shared [`SimCache`]: rerunning
/// a validator (or a second validator given the same cache via
/// [`cache`](Self::cache)) performs **zero** new simulations for points
/// already covered, which the emitted [`CacheActivity`] counters prove.
///
/// ```
/// use pmt_uarch::DesignSpace;
/// use pmt_validate::{ValidationConfig, Validator};
///
/// let report = Validator::new(ValidationConfig::smoke())
///     .space(&DesignSpace::small())
///     .workload_named("astar")
///     .unwrap()
///     .run();
/// assert_eq!(report.design_points, 32);
/// assert_eq!(report.cache.misses, 32); // cold: every point simulated
/// assert!(report.cpi.max_abs >= report.cpi.mean_abs);
/// ```
pub struct Validator {
    points: Vec<DesignPoint>,
    specs: Vec<WorkloadSpec>,
    config: ValidationConfig,
    cache: Arc<SimCache>,
}

impl Validator {
    /// A validator over the full 243-point Table 6.3 space with no
    /// workloads yet; add them with [`workload`](Self::workload) /
    /// [`workload_named`](Self::workload_named).
    pub fn new(config: ValidationConfig) -> Validator {
        Validator {
            points: DesignSpace::thesis_table_6_3().enumerate(),
            specs: Vec::new(),
            config,
            cache: SimCache::shared(),
        }
    }

    /// Validate over every point of `space` instead.
    pub fn space(mut self, space: &DesignSpace) -> Validator {
        self.points = space.enumerate();
        self
    }

    /// Validate over every `stride`-th point of a *lazy* space — the
    /// tractable slice of a space too large to enumerate. Points decode
    /// on demand ([`LazyDesignSpace::point_at`]); only the subsample is
    /// ever materialized (validation simulates each kept point, so the
    /// kept set is small by construction).
    ///
    /// ```
    /// use pmt_dse::ProductSpace;
    /// use pmt_uarch::DesignSpace;
    /// use pmt_validate::{ValidationConfig, Validator};
    ///
    /// // Every 12960th point of the 103,680-point demo space: 8 points.
    /// let report = Validator::new(ValidationConfig::smoke())
    ///     .sampled_space(&ProductSpace::frontier_demo(), 12_960)
    ///     .workload_named("astar")
    ///     .unwrap()
    ///     .run();
    /// assert_eq!(report.design_points, 8);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on a stride of zero.
    pub fn sampled_space<S: LazyDesignSpace>(mut self, space: &S, stride: usize) -> Validator {
        assert!(stride > 0, "stride must be positive");
        self.points = space.iter_points().step_by(stride).collect();
        self
    }

    /// Validate over an explicit point list instead.
    pub fn points(mut self, points: Vec<DesignPoint>) -> Validator {
        self.points = points;
        self
    }

    /// Add a workload by spec.
    pub fn workload(mut self, spec: WorkloadSpec) -> Validator {
        self.specs.push(spec);
        self
    }

    /// Add a suite workload by SPEC name.
    pub fn workload_named(self, name: &str) -> Result<Validator, String> {
        let spec = WorkloadSpec::by_name(name)
            .ok_or_else(|| format!("unknown workload `{name}` — try `pmt list`"))?;
        Ok(self.workload(spec))
    }

    /// Share (or restore) a simulation cache. Runs only *add* entries;
    /// passing the same cache to successive validators turns overlapping
    /// grids into pure lookups.
    pub fn cache(mut self, cache: Arc<SimCache>) -> Validator {
        self.cache = cache;
        self
    }

    /// The simulation cache this validator will use.
    pub fn shared_cache(&self) -> Arc<SimCache> {
        self.cache.clone()
    }

    /// Profile every workload once, evaluate model and simulator over the
    /// whole (workload × point) grid — each sweep parallel over its points —
    /// and distill the error distributions into a [`ValidationReport`].
    pub fn run(&self) -> ValidationReport {
        self.run_corrected(None)
            .expect("uncorrected validation cannot fail")
    }

    /// [`run`](Self::run), optionally fusing a trained
    /// [`ResidualModel`] on top of the analytical predictions.
    ///
    /// With a corrector the report gains a [`FusedValidation`] section:
    /// per-workload and pooled corrected-vs-simulator error
    /// distributions plus the Spearman-ρ delta versus the purely
    /// analytical columns. Correction is applied **after** the sweep —
    /// the simulated references, the analytical columns and the cache
    /// counters are byte-identical to an uncorrected run over the same
    /// grid.
    ///
    /// # Errors
    ///
    /// Fails with a structured [`MlError`] when the corrector's schema
    /// version or feature layout is unknown
    /// (`bad_corrector_version`), or when any validated workload's
    /// profile fingerprint is absent from the corrector's training
    /// coverage (`corrector_profile_mismatch`) — a corrector trained on
    /// different profiles would silently grade itself on its own
    /// training mistakes.
    pub fn run_corrected(
        &self,
        corrector: Option<&ResidualModel>,
    ) -> Result<ValidationReport, MlError> {
        let before = self.cache.stats();
        let (profiles, evaluations) = self.evaluate();
        let after = self.cache.stats();

        let fused = match corrector {
            Some(model) => Some(self.fuse(model, &profiles, &evaluations)?),
            None => None,
        };

        let workloads: Vec<WorkloadValidation> = evaluations
            .iter()
            .zip(&profiles)
            .map(|(eval, profile)| Self::summarize_workload(&profile.name, &eval.outcomes))
            .collect();

        let all: Vec<&PointOutcome> = evaluations.iter().flat_map(|e| &e.outcomes).collect();
        let pooled = |f: fn(&PointOutcome) -> Option<f64>| {
            ErrorStats::of_signed(&all.iter().filter_map(|o| f(o)).collect::<Vec<f64>>())
        };
        let rhos: Vec<f64> = workloads.iter().map(|w| w.cpi_rank_correlation).collect();

        Ok(ValidationReport {
            schema_version: SCHEMA_VERSION,
            design_points: self.points.len(),
            profile_instructions: self.config.profile_instructions,
            sim_instructions: self.config.sim_instructions,
            workloads,
            cpi: pooled(PointOutcome::cpi_error),
            ipc: pooled(PointOutcome::ipc_error),
            power: pooled(PointOutcome::power_error),
            mean_cpi_rank_correlation: rhos.iter().sum::<f64>() / rhos.len() as f64,
            min_cpi_rank_correlation: rhos.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
            cache: CacheActivity {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                entries: after.entries,
            },
            fused,
        })
    }

    /// Evaluate the grid and emit one [`TrainingRow`] per simulated
    /// (workload, point) pair, plus the profiles the rows were predicted
    /// from — exactly the inputs [`pmt_ml::train`] wants. Rows come out
    /// in deterministic workload-major, point-order traversal, so a
    /// fixed grid always yields the byte-identical training set.
    pub fn training_data(&self) -> TrainingData {
        let (profiles, evaluations) = self.evaluate();
        let mut rows = Vec::new();
        for (eval, profile) in evaluations.iter().zip(&profiles) {
            debug_assert_eq!(eval.outcomes.len(), self.points.len());
            for (outcome, point) in eval.outcomes.iter().zip(&self.points) {
                let (Some(sim_cpi), Some(sim_power)) = (outcome.sim_cpi, outcome.sim_power) else {
                    continue;
                };
                rows.push(TrainingRow {
                    workload: profile.name.clone(),
                    machine: point.machine.clone(),
                    model_cpi: outcome.model_cpi,
                    sim_cpi,
                    model_power: outcome.model_power,
                    sim_power,
                });
            }
        }
        TrainingData { rows, profiles }
    }

    /// The shared grid evaluation behind [`run_corrected`](Self::run_corrected)
    /// and [`training_data`](Self::training_data).
    fn evaluate(&self) -> (Vec<ApplicationProfile>, Vec<SpaceEvaluation>) {
        assert!(!self.specs.is_empty(), "add at least one workload");

        // The micro-architecture independent step: one profile per
        // workload, reused for every design point. (The sweep below also
        // *prepares* each profile once — fitting all StatStack models up
        // front — so the per-point model cost is queries only.) One
        // workload at a time, like the sweeps: each profile already
        // generates and analyses its trace on two threads.
        let profiles: Vec<ApplicationProfile> = self
            .specs
            .iter()
            .map(|spec| {
                Profiler::new(self.config.profiler.clone()).profile_named(
                    &spec.name,
                    &mut spec.trace(self.config.profile_instructions),
                )
            })
            .collect();

        let sweep_config = SweepConfig {
            model: self.config.model.clone(),
            sim_instructions: self.config.sim_instructions,
            sim_cache: Some(self.cache.clone()),
        };
        // One simulated sweep per workload, one workload at a time: each
        // sweep is already parallel over its points, and nesting a
        // parallel map around it would multiply threads, not share
        // them. Each sweep's model half runs through the batched
        // prediction kernels (bit-identical to per-point prediction).
        let evaluations = profiles
            .iter()
            .zip(&self.specs)
            .map(|(profile, spec)| {
                SpaceEvaluation::run(&self.points, profile, Some(spec), &sweep_config)
            })
            .collect();
        (profiles, evaluations)
    }

    /// Apply `model` on top of every simulated outcome and summarize the
    /// corrected-vs-simulator agreement per workload and pooled.
    fn fuse(
        &self,
        model: &ResidualModel,
        profiles: &[ApplicationProfile],
        evaluations: &[SpaceEvaluation],
    ) -> Result<FusedValidation, MlError> {
        model.check_version()?;
        for profile in profiles {
            model.check_profile(&profile.name, &pmt_ml::profile_fingerprint(profile))?;
        }

        let mut workloads = Vec::new();
        let mut pooled_fused_cpi = Vec::new();
        let mut pooled_sim_cpi = Vec::new();
        let mut pooled_fused_power = Vec::new();
        let mut pooled_sim_power = Vec::new();
        for (eval, profile) in evaluations.iter().zip(profiles) {
            debug_assert_eq!(eval.outcomes.len(), self.points.len());
            let mut fused_cpi = Vec::new();
            let mut sim_cpi = Vec::new();
            let mut fused_power = Vec::new();
            let mut sim_power = Vec::new();
            let mut analytical_cpi = Vec::new();
            for (outcome, point) in eval.outcomes.iter().zip(&self.points) {
                let (Some(s_cpi), Some(s_power)) = (outcome.sim_cpi, outcome.sim_power) else {
                    continue;
                };
                let corrected = model.correct(
                    &point.machine,
                    profile,
                    outcome.model_cpi,
                    outcome.model_power,
                );
                fused_cpi.push(corrected.cpi);
                fused_power.push(corrected.power_w);
                sim_cpi.push(s_cpi);
                sim_power.push(s_power);
                analytical_cpi.push(outcome.model_cpi);
            }
            let cpi = series_agreement(&fused_cpi, &sim_cpi);
            let power = series_agreement(&fused_power, &sim_power);
            let analytical = series_agreement(&analytical_cpi, &sim_cpi);
            workloads.push(FusedWorkload {
                workload: profile.name.clone(),
                cpi: cpi.errors,
                power: power.errors,
                cpi_rank_correlation: cpi.rank_correlation,
                cpi_rank_delta: cpi.rank_correlation - analytical.rank_correlation,
            });
            pooled_fused_cpi.extend(fused_cpi);
            pooled_sim_cpi.extend(sim_cpi);
            pooled_fused_power.extend(fused_power);
            pooled_sim_power.extend(sim_power);
        }

        let n = workloads.len() as f64;
        let mean = |f: fn(&FusedWorkload) -> f64| workloads.iter().map(f).sum::<f64>() / n;
        let min = |f: fn(&FusedWorkload) -> f64| {
            workloads.iter().map(f).fold(f64::INFINITY, |a, b| a.min(b))
        };
        let (mean_rho, min_rho) = (
            mean(|w| w.cpi_rank_correlation),
            min(|w| w.cpi_rank_correlation),
        );
        let (mean_delta, min_delta) = (mean(|w| w.cpi_rank_delta), min(|w| w.cpi_rank_delta));
        Ok(FusedValidation {
            corrector: CorrectorInfo {
                schema_version: model.schema_version,
                seed: model.seed,
                lambda: model.lambda,
                rows_train: model.rows_train,
                rows_test: model.rows_test,
            },
            workloads,
            cpi: series_agreement(&pooled_fused_cpi, &pooled_sim_cpi).errors,
            power: series_agreement(&pooled_fused_power, &pooled_sim_power).errors,
            mean_cpi_rank_correlation: mean_rho,
            min_cpi_rank_correlation: min_rho,
            mean_cpi_rank_delta: mean_delta,
            min_cpi_rank_delta: min_delta,
        })
    }

    fn summarize_workload(name: &str, outcomes: &[PointOutcome]) -> WorkloadValidation {
        let collect = |f: fn(&PointOutcome) -> Option<f64>| {
            ErrorStats::of_signed(&outcomes.iter().filter_map(f).collect::<Vec<f64>>())
        };
        let model_cpi: Vec<f64> = outcomes.iter().map(|o| o.model_cpi).collect();
        let sim_cpi: Vec<f64> = outcomes.iter().filter_map(|o| o.sim_cpi).collect();
        let model_power: Vec<f64> = outcomes.iter().map(|o| o.model_power).collect();
        let sim_power: Vec<f64> = outcomes.iter().filter_map(|o| o.sim_power).collect();
        // The per-workload CPI/power columns flow through the same
        // `series_agreement` path as the fused section — one convention,
        // one implementation — while IPC keeps its dedicated helper
        // (its error is defined on the *inverted* series).
        let cpi = series_agreement(&model_cpi, &sim_cpi);
        let power = series_agreement(&model_power, &sim_power);
        WorkloadValidation {
            workload: name.to_string(),
            points: outcomes.len(),
            cpi: cpi.errors,
            ipc: collect(PointOutcome::ipc_error),
            power: power.errors,
            cpi_rank_correlation: cpi.rank_correlation,
            power_rank_correlation: power.rank_correlation,
        }
    }
}

/// The per-(workload, point) rows and per-workload profiles emitted by
/// [`Validator::training_data`] — the inputs to [`pmt_ml::train`].
pub struct TrainingData {
    /// One row per simulated (workload, design point) pair, in
    /// deterministic workload-major order.
    pub rows: Vec<TrainingRow>,
    /// The profile each workload's rows were predicted from.
    pub profiles: Vec<ApplicationProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_validator() -> Validator {
        Validator::new(ValidationConfig::smoke())
            .points(DesignSpace::small().enumerate()[..4].to_vec())
            .workload_named("astar")
            .unwrap()
    }

    #[test]
    fn report_covers_the_grid() {
        let report = tiny_validator().run();
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.design_points, 4);
        assert_eq!(report.workloads.len(), 1);
        assert_eq!(report.cpi.n, 4);
        assert_eq!(report.cache.misses, 4);
        assert_eq!(report.cache.hits, 0);
        assert!(report.cpi.mean_abs <= report.cpi.max_abs);
        assert!(report.mean_cpi_rank_correlation >= -1.0);
        assert!(report.mean_cpi_rank_correlation <= 1.0);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = Validator::new(ValidationConfig::smoke()).workload_named("nope");
        assert!(err.is_err());
    }

    #[test]
    fn sampled_space_keeps_every_strided_point() {
        let space = DesignSpace::small();
        let report = Validator::new(ValidationConfig::smoke())
            .sampled_space(&space, 11)
            .workload_named("astar")
            .unwrap()
            .run();
        // Points 0, 11, 22 of the 32-point grid.
        assert_eq!(report.design_points, 3);
        assert_eq!(report.cache.misses, 3);
    }
}
