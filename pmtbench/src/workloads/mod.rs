//! The four workloads, plus the library calls more than one of them
//! makes under a span.

pub mod frontier;
pub mod serve;
pub mod suite;

use crate::trace::Tracer;
use pmt_api::ExploreRequest;
use pmt_core::{BatchPredictor, MemoStats, ModelConfig, PreparedProfile};
use pmt_dse::{LazyDesignSpace, Objective, StreamingSweep};
use pmt_power::PowerModel;
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_uarch::MachineConfig;
use pmt_workloads::WorkloadSpec;

/// Profile a suite workload the way `pmt profile` does:
/// 1,000-instruction micro-traces every n/100 instructions.
pub fn profile_cli(tracer: &Tracer, name: &str, instructions: u64, id: u64) -> ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).expect("suite workload names resolve");
    let mut config = ProfilerConfig::thesis_default();
    config.sampling = pmt_trace::SamplingConfig {
        micro_trace_instructions: 1_000,
        window_instructions: (instructions / 100).clamp(1_000, 1_000_000),
    };
    let mut span = tracer.span("profiler.profile", id);
    span.count(instructions);
    Profiler::new(config).profile_named(name, &mut spec.trace(instructions))
}

/// Leak a profile so a [`PreparedProfile`] borrowing it can live in a
/// workload struct. Bounded: one or two per setup, a few setups a run.
pub fn leak(profile: ApplicationProfile) -> &'static ApplicationProfile {
    Box::leak(Box::new(profile))
}

/// Memo lookups answered from / missing the `BatchPredictor` memos.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoTally {
    pub hits: u64,
    pub misses: u64,
}

impl MemoTally {
    pub fn add(&mut self, stats: &MemoStats) {
        self.hits += stats.hits();
        self.misses += stats.misses();
    }

    pub fn ratio(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            n => self.hits as f64 / n as f64,
        }
    }
}

/// Evaluate `machines` the way a sweep chunk does: one `BatchPredictor`,
/// batched prediction, then power per point. Returns each point's
/// (CPI, total power).
pub fn evaluate_batch(
    tracer: &Tracer,
    prepared: &PreparedProfile<'_>,
    machines: &[&MachineConfig],
    id: u64,
    memo: &mut MemoTally,
) -> Vec<(f64, f64)> {
    let mut predictor = tracer.time("core.batch_new", id, || {
        BatchPredictor::new(prepared, &ModelConfig::default())
    });
    let mut summaries = Vec::with_capacity(machines.len());
    {
        let mut span = tracer.span("core.predict_batch", id);
        span.count(machines.len() as u64);
        predictor.predict_batch_into(machines.iter().copied(), &mut summaries);
    }
    memo.add(&predictor.memo_stats());
    let mut span = tracer.span("power.batch", id);
    span.count(machines.len() as u64);
    machines
        .iter()
        .zip(&summaries)
        .map(|(m, s)| (s.cpi(), PowerModel::new(m).power(&s.activity).total()))
        .collect()
}

/// The streaming fold an explore request describes, forced serial —
/// the independent path explore outputs are checked against, and the
/// fold whose self time the traced run splits from the kernels'.
pub fn serial_sweep<'p>(
    profile: &'p ApplicationProfile,
    req: &ExploreRequest,
) -> StreamingSweep<'p> {
    let objective = Objective::from_name(&req.objective).expect("seeded objectives are valid");
    let mut sweep = StreamingSweep::new(profile)
        .top_k(req.top_k)
        .objective(objective)
        .serial();
    if let Some(watts) = req.max_power_w {
        sweep = sweep.max_power_w(watts);
    }
    if let Some(seconds) = req.max_seconds {
        sweep = sweep.max_seconds(seconds);
    }
    sweep
}

/// The fold's own share of a serial sweep: time the serial fold over
/// `count` consecutive points from `start`, then the kernels alone
/// (per-1,024-point `BatchPredictor` + power) over the same points,
/// twice each in turn, keeping each side's faster pass. Returns
/// `1 - kernels / fold`.
pub fn fold_self_frac(
    tracer: &Tracer,
    prepared: &PreparedProfile<'_>,
    req: &ExploreRequest,
    space: &dyn LazyDesignSpace,
    start: usize,
    count: usize,
    memo: &mut MemoTally,
) -> f64 {
    let end = (start + count).min(space.len());
    let points: Vec<_> = (start..end).map(|i| space.point_at(i)).collect();
    let sweep = serial_sweep(prepared.profile(), req);
    let (mut fold_s, mut kernel_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let started = std::time::Instant::now();
        tracer.time("dse.fold_serial", 0, || {
            std::hint::black_box(sweep.run_prepared(prepared, &points));
        });
        fold_s = fold_s.min(started.elapsed().as_secs_f64());
        let started = std::time::Instant::now();
        for (c, chunk) in points.chunks(1024).enumerate() {
            let machines: Vec<&MachineConfig> = chunk.iter().map(|p| &p.machine).collect();
            std::hint::black_box(evaluate_batch(tracer, prepared, &machines, c as u64, memo));
        }
        kernel_s = kernel_s.min(started.elapsed().as_secs_f64());
    }
    1.0 - kernel_s / fold_s
}
