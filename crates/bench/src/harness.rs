//! Shared experiment plumbing.

use pmt_branch::{EntropyMissModel, EntropyProfiler, PredictorSim};
use pmt_core::{IntervalModel, ModelConfig, Prediction};
use pmt_dse::{sim_cache_key, SpaceEvaluation, SweepConfig};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_sim::{OooSimulator, SimCache, SimConfig, SimResult};
use pmt_trace::{collect_trace, UopClass};
use pmt_uarch::{DesignPoint, MachineConfig, PredictorConfig, PredictorKind};
use pmt_workloads::{suite, WorkloadSpec};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};

/// Common experiment knobs (overridable via env for quick sweeps).
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Instructions per workload.
    pub instructions: u64,
    /// Profiler configuration.
    pub profiler: ProfilerConfig,
    /// Model configuration.
    pub model: ModelConfig,
}

impl HarnessConfig {
    /// Whether this experiment run asked for smoke scale (`--smoke` on the
    /// command line, or `PMT_SMOKE=1` in the environment). CI uses this to
    /// run every experiment end-to-end with a tiny trace budget.
    pub fn smoke_requested() -> bool {
        std::env::args().any(|a| a == "--smoke")
            || std::env::var("PMT_SMOKE").is_ok_and(|v| v == "1" || v == "true")
    }

    /// Default experiment scale: 1M instructions, thesis sampling scaled
    /// down 10× (100/10k) so every workload yields ~100 micro-traces.
    /// In smoke mode ([`smoke_requested`](Self::smoke_requested)) the
    /// instruction budget drops to 30k so every experiment still
    /// exercises its whole pipeline, just on a toy trace.
    pub fn default_scale() -> HarnessConfig {
        let default_instructions = if Self::smoke_requested() {
            30_000
        } else {
            1_000_000
        };
        let instructions = std::env::var("PMT_INSTRUCTIONS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_instructions);
        let mut profiler = ProfilerConfig::thesis_default();
        profiler.sampling = pmt_trace::SamplingConfig {
            micro_trace_instructions: 1_000,
            window_instructions: 10_000,
        };
        HarnessConfig {
            instructions,
            profiler,
            model: ModelConfig::thesis_best(),
        }
    }

    /// Profile `spec` over `instructions` with this configuration's
    /// profiler.
    pub fn profile(&self, spec: &WorkloadSpec, instructions: u64) -> ApplicationProfile {
        Profiler::new(self.profiler.clone())
            .profile_named(&spec.name, &mut spec.trace(instructions))
    }
}

/// The process-wide reference-simulation cache every experiment's
/// ground truth goes through ([`simulate`], [`sweep`], the validator).
/// It is always present in memory, so within one process each
/// (workload, machine, budget) simulation runs once however many
/// figures ask for it. `PMT_SIM_CACHE` (`pmt report --cache`) only names
/// the file it is loaded from and that [`save_shared_sim_cache`]
/// persists it to, so a warm `pmt report` (or repeated `pmt figure`
/// run) re-runs none of these simulations. Only the runs
/// [`sim_cache_key`] cannot describe — perfect-mode and interval-sampled
/// `SimConfig`s, and the timed sample of the `speedup` table — call the
/// simulator directly.
pub fn shared_sim_cache() -> Arc<SimCache> {
    static CACHE: OnceLock<Arc<SimCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let cache = match std::env::var("PMT_SIM_CACHE") {
                Ok(path) if std::path::Path::new(&path).exists() => SimCache::load(&path)
                    .unwrap_or_else(|e| {
                        eprintln!("warning: ignoring PMT_SIM_CACHE={path}: {e}");
                        SimCache::new()
                    }),
                _ => SimCache::new(),
            };
            Arc::new(cache)
        })
        .clone()
}

/// Persist the [`shared_sim_cache`] to its `PMT_SIM_CACHE` file (a no-op
/// when the env var is unset).
pub fn save_shared_sim_cache() -> Result<(), String> {
    match std::env::var("PMT_SIM_CACHE") {
        Ok(path) => shared_sim_cache().save(&path),
        Err(_) => Ok(()),
    }
}

/// One reference simulation of `spec` on `machine` over `instructions`,
/// memoized in the [`shared_sim_cache`] under [`sim_cache_key`].
pub fn simulate(spec: &WorkloadSpec, machine: &MachineConfig, instructions: u64) -> Arc<SimResult> {
    shared_sim_cache().get_or_run(sim_cache_key(spec, machine, instructions), || {
        OooSimulator::new(SimConfig::new(machine.clone())).run(&mut spec.trace(instructions))
    })
}

/// The sweep configuration for simulated design-space figures: `cfg`'s
/// model and `sim_instructions` per reference simulation, memoized
/// through the [`shared_sim_cache`].
pub fn sweep(cfg: &HarnessConfig, sim_instructions: u64) -> SweepConfig {
    SweepConfig {
        model: cfg.model.clone(),
        sim_instructions,
        sim_cache: Some(shared_sim_cache()),
    }
}

/// Design-space subsampling stride for the sweep figures: the
/// `PMT_SPACE_STRIDE` override if set, else `default_stride`, tripled in
/// smoke mode so CI touches every pipeline without paying for the space.
pub fn space_stride(default_stride: usize) -> usize {
    std::env::var("PMT_SPACE_STRIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if HarnessConfig::smoke_requested() {
            default_stride * 3
        } else {
            default_stride
        })
}

/// Per-point simulation budget for the sweep figures: the
/// `PMT_SIM_INSTRUCTIONS` override if set, else `default_budget`.
pub fn sim_instructions(default_budget: u64) -> u64 {
    std::env::var("PMT_SIM_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_budget)
}

/// One workload evaluated by both the model and the simulator.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// Workload name.
    pub name: String,
    /// Model prediction.
    pub prediction: Prediction,
    /// Simulator ground truth.
    pub sim: Arc<SimResult>,
}

impl Evaluated {
    /// **Signed** relative CPI error `(model − sim)/sim` — the workspace
    /// convention (see [`Prediction::cpi_error_vs`]); positive means the
    /// model over-predicts.
    pub fn cpi_error(&self) -> f64 {
        self.prediction.cpi_error_vs(self.sim.cpi())
    }

    /// Magnitude of [`cpi_error`](Self::cpi_error).
    pub fn abs_cpi_error(&self) -> f64 {
        self.cpi_error().abs()
    }
}

/// Profile the whole suite over `cfg.instructions` (parallel).
pub fn profile_suite(cfg: &HarnessConfig) -> Vec<ApplicationProfile> {
    parallel_map(suite(), |spec| cfg.profile(&spec, cfg.instructions))
}

/// Simulate the whole suite on one machine over `instructions` each
/// (parallel, through [`simulate`]).
pub fn simulate_suite(machine: &MachineConfig, instructions: u64) -> Vec<Arc<SimResult>> {
    parallel_map(suite(), |spec| simulate(&spec, machine, instructions))
}

/// Every suite workload profiled over `instructions` and swept over
/// `points` with each point simulated for truth over the same budget
/// (through [`sweep`]), in suite order.
pub fn evaluate_space(
    points: &[DesignPoint],
    cfg: &HarnessConfig,
    instructions: u64,
) -> Vec<SpaceEvaluation> {
    let sweep = sweep(cfg, instructions);
    parallel_map(suite(), |spec| {
        let profile = cfg.profile(&spec, instructions);
        SpaceEvaluation::run(points, &profile, Some(&spec), &sweep)
    })
}

/// Train the entropy → miss-rate lines the way thesis Fig 3.8 does: per
/// workload, profile the linear branch entropy and simulate each predictor
/// family on the same branch stream, then fit one line per family.
pub fn train_entropy_model(instructions: u64) -> EntropyMissModel {
    let pts: Vec<(f64, Vec<f64>)> = parallel_map(suite(), |spec| {
        let uops = collect_trace(spec.trace(instructions), u64::MAX);
        let mut entropy = EntropyProfiler::new(8);
        let mut sims: Vec<PredictorSim> = PredictorKind::ALL
            .iter()
            .map(|&k| PredictorSim::from_config(&PredictorConfig::sized_4kb(k)))
            .collect();
        for u in uops.iter().filter(|u| u.class == UopClass::Branch) {
            entropy.record(u.static_id, u.taken);
            for s in sims.iter_mut() {
                s.predict_and_update(u.static_id, u.taken);
            }
        }
        (
            entropy.entropy(),
            sims.iter().map(|s| s.miss_rate()).collect(),
        )
    });
    let mut model = EntropyMissModel::new();
    for (i, kind) in PredictorKind::ALL.iter().enumerate() {
        let series: Vec<(f64, f64)> = pts.iter().map(|(e, m)| (*e, m[i])).collect();
        model.train(*kind, &series);
    }
    model
}

/// Model vs simulator on one machine for already-profiled workloads —
/// typically one [`profile_suite`] shared by every model variant a
/// figure compares. Each profile is predicted under `model` and
/// simulated through [`simulate`] over the instructions it profiled.
pub fn evaluate_suite(
    profiles: &[ApplicationProfile],
    machine: &MachineConfig,
    model: &ModelConfig,
) -> Vec<Evaluated> {
    let model = IntervalModel::with_config(machine, model.clone());
    parallel_map(profiles.iter().collect(), |profile| {
        let spec = WorkloadSpec::by_name(&profile.name).expect("profiles name suite workloads");
        Evaluated {
            name: profile.name.clone(),
            prediction: model.predict(profile),
            sim: simulate(&spec, machine, profile.total_instructions),
        }
    })
}

/// Order-preserving parallel map over owned items (rayon-backed).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// Mean absolute value of a series.
pub fn mean_abs_error(errors: &[f64]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
}
