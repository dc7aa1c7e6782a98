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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The experiment scale every figure reads. `pmt figure` and `pmt
/// report` build it from their parsed `--smoke` switch and pass it
/// down; nothing else (no environment variable, no scan of the process
/// arguments) changes a deterministic figure.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Instructions per workload.
    pub instructions: u64,
    /// Profiler configuration.
    pub profiler: ProfilerConfig,
    /// Model configuration.
    pub model: ModelConfig,
    /// Smoke scale: a toy trace budget, sparser design-space sweeps and
    /// fewer validation workloads, so CI runs every experiment's whole
    /// pipeline in seconds.
    pub smoke: bool,
}

impl HarnessConfig {
    /// Full experiment scale: 1M instructions, thesis sampling scaled
    /// down 10× (100/10k) so every workload yields ~100 micro-traces.
    pub fn default_scale() -> HarnessConfig {
        let mut profiler = ProfilerConfig::thesis_default();
        profiler.sampling = pmt_trace::SamplingConfig {
            micro_trace_instructions: 1_000,
            window_instructions: 10_000,
        };
        HarnessConfig {
            instructions: 1_000_000,
            profiler,
            model: ModelConfig::thesis_best(),
            smoke: false,
        }
    }

    /// Smoke scale (`--smoke`): [`default_scale`](Self::default_scale)
    /// on a 30k-instruction budget, so every experiment still exercises
    /// its whole pipeline, just on a toy trace.
    pub fn smoke() -> HarnessConfig {
        HarnessConfig {
            instructions: 30_000,
            smoke: true,
            ..HarnessConfig::default_scale()
        }
    }

    /// Design-space subsampling stride for the sweep figures:
    /// `default_stride`, tripled at smoke scale so CI touches every
    /// pipeline without paying for the space.
    pub fn space_stride(&self, default_stride: usize) -> usize {
        if self.smoke {
            default_stride * 3
        } else {
            default_stride
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
/// figures ask for it. `--cache FILE` on `pmt figure` and `pmt report`
/// fills it from that file before the run ([`load_shared_sim_cache`])
/// and saves it back after, so a warm run re-runs none of these
/// simulations. Only the runs [`sim_cache_key`] cannot describe —
/// perfect-mode and interval-sampled `SimConfig`s, and the timed sample
/// of the `speedup` table — call the simulator directly.
pub fn shared_sim_cache() -> Arc<SimCache> {
    SHARED_SIM_CACHE.get_or_init(SimCache::shared).clone()
}

static SHARED_SIM_CACHE: OnceLock<Arc<SimCache>> = OnceLock::new();

/// Start the [`shared_sim_cache`] from the file at `path` (a no-op when
/// no such file exists yet: the run is cold and the save creates it).
/// Call it before anything simulates: a cache already in use is refused.
pub fn load_shared_sim_cache(path: &str) -> Result<(), String> {
    let json = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        read => read.map_err(|e| format!("reading {path}: {e}"))?,
    };
    let cache = SimCache::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
    SHARED_SIM_CACHE
        .set(Arc::new(cache))
        .map_err(|_| format!("{path}: the shared simulation cache is already in use"))
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

/// The whole suite profiled over `cfg.instructions` (see
/// [`suite_profiles`]).
pub fn profile_suite(cfg: &HarnessConfig) -> Arc<[ApplicationProfile]> {
    suite_profiles(cfg, cfg.instructions)
}

/// Every suite workload profiled over `instructions` with `cfg`'s
/// profiler, in suite order (parallel). A profile is a pure function of
/// the workload, the profiler configuration and the budget, so each
/// (configuration, budget) pair is profiled once per process and every
/// later figure that asks for it shares that pass — as [`simulate`]
/// shares one simulation per (workload, machine, budget).
pub fn suite_profiles(cfg: &HarnessConfig, instructions: u64) -> Arc<[ApplicationProfile]> {
    type Pass = Arc<OnceLock<Arc<[ApplicationProfile]>>>;
    static PASSES: Mutex<Vec<(ProfilerConfig, u64, Pass)>> = Mutex::new(Vec::new());
    let pass = {
        let mut passes = PASSES
            .lock()
            .expect("no profiling pass panics holding the lock");
        let found = passes
            .iter()
            .find(|(profiler, budget, _)| *profiler == cfg.profiler && *budget == instructions);
        match found {
            Some((_, _, pass)) => pass.clone(),
            None => {
                let pass = Pass::default();
                passes.push((cfg.profiler.clone(), instructions, pass.clone()));
                pass
            }
        }
    };
    pass.get_or_init(|| {
        SUITE_PROFILE_PASSES.fetch_add(1, Ordering::Relaxed);
        parallel_map(suite(), |spec| cfg.profile(&spec, instructions)).into()
    })
    .clone()
}

static SUITE_PROFILE_PASSES: AtomicUsize = AtomicUsize::new(0);

/// How many suite profiling passes [`suite_profiles`] has run in this
/// process.
pub fn suite_profile_passes() -> usize {
    SUITE_PROFILE_PASSES.load(Ordering::Relaxed)
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
    let profiles = suite_profiles(cfg, instructions);
    parallel_map(
        suite().into_iter().zip(profiles.iter()).collect(),
        |(spec, profile)| SpaceEvaluation::run(points, profile, Some(&spec), &sweep),
    )
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
