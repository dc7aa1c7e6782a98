//! Shared experiment plumbing.

use pmt_branch::{EntropyMissModel, EntropyProfiler, PredictorSim};
use pmt_core::{IntervalModel, ModelConfig, Prediction};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_sim::{OooSimulator, SimConfig, SimResult};
use pmt_trace::{collect_trace, UopClass};
use pmt_uarch::MachineConfig;
use pmt_uarch::{PredictorConfig, PredictorKind};
use pmt_workloads::{suite, WorkloadSpec};
use rayon::prelude::*;

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

    /// Train the entropy model on the suite (one-time cost, thesis
    /// Fig 3.8) and install it.
    pub fn with_trained_entropy(mut self) -> HarnessConfig {
        let trained = train_entropy_model((self.instructions / 4).max(100_000));
        self.model = self.model.with_entropy_model(trained);
        self
    }
}

/// The process-wide memoized simulation cache behind `PMT_SIM_CACHE`:
/// when the env var names a file, every sweep/validation builder that
/// supports memoization shares this one cache, so a warm `pmt report`
/// (or repeated `pmt figure` run) performs zero new reference simulations.
/// Call [`save_shared_sim_cache`] before exit to persist it.
pub fn shared_sim_cache() -> Option<std::sync::Arc<pmt_sim::SimCache>> {
    use std::sync::{Arc, OnceLock};
    static CACHE: OnceLock<Option<Arc<pmt_sim::SimCache>>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let path = std::env::var("PMT_SIM_CACHE").ok()?;
            let cache = if std::path::Path::new(&path).exists() {
                match pmt_sim::SimCache::load(&path) {
                    Ok(cache) => cache,
                    Err(e) => {
                        eprintln!("warning: ignoring PMT_SIM_CACHE={path}: {e}");
                        pmt_sim::SimCache::new()
                    }
                }
            } else {
                pmt_sim::SimCache::new()
            };
            Some(Arc::new(cache))
        })
        .clone()
}

/// Persist the [`shared_sim_cache`] back to its `PMT_SIM_CACHE` path (a
/// no-op when the env var is unset).
pub fn save_shared_sim_cache() -> Result<(), String> {
    let (Some(cache), Ok(path)) = (shared_sim_cache(), std::env::var("PMT_SIM_CACHE")) else {
        return Ok(());
    };
    cache.save(&path)
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
    pub sim: SimResult,
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

/// Profile one workload.
pub fn profile_one(spec: &WorkloadSpec, cfg: &HarnessConfig) -> ApplicationProfile {
    Profiler::new(cfg.profiler.clone()).profile_named(&spec.name, &mut spec.trace(cfg.instructions))
}

/// Profile the whole suite (parallel).
pub fn profile_suite(cfg: &HarnessConfig) -> Vec<ApplicationProfile> {
    parallel_map(suite(), |spec| profile_one(&spec, cfg))
}

/// Simulate the whole suite on one machine (parallel).
pub fn simulate_suite(machine: &MachineConfig, cfg: &HarnessConfig) -> Vec<SimResult> {
    parallel_map(suite(), |spec| {
        OooSimulator::new(SimConfig::new(machine.clone())).run(&mut spec.trace(cfg.instructions))
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

/// Evaluate the whole suite: model vs simulator on one machine.
pub fn evaluate_suite(machine: &MachineConfig, cfg: &HarnessConfig) -> Vec<Evaluated> {
    let profiles = profile_suite(cfg);
    let sims = simulate_suite(machine, cfg);
    let model = IntervalModel::with_config(machine, cfg.model.clone());
    profiles
        .into_iter()
        .zip(sims)
        .map(|(profile, sim)| Evaluated {
            name: profile.name.clone(),
            prediction: model.predict(&profile),
            sim,
        })
        .collect()
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
