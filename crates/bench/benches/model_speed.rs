//! Criterion benchmarks for the §6.2 speed claims: analytical evaluation
//! must be orders of magnitude faster than cycle-level simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_sim::{OooSimulator, SimConfig};
use pmt_uarch::MachineConfig;
use pmt_workloads::WorkloadSpec;

/// Shared fixture: one profiled workload at the benchmark budget.
fn fixture(name: &str, n: u64) -> (WorkloadSpec, ApplicationProfile) {
    let spec = WorkloadSpec::by_name(name).unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(n));
    (spec, profile)
}

fn bench_model_vs_sim(c: &mut Criterion) {
    let n = 50_000u64;
    let machine = MachineConfig::nehalem();
    let (spec, profile) = fixture("astar", n);

    let mut group = c.benchmark_group("design-point-evaluation");
    group.sample_size(20);
    // Legacy per-point cost: refit every machine-independent model.
    group.bench_function(BenchmarkId::new("interval-model", n), |b| {
        b.iter(|| {
            IntervalModel::with_config(&machine, ModelConfig::default())
                .predict(&profile)
                .cpi()
        })
    });
    // Prepared per-point cost: fit once outside the loop, query per point
    // — this is what a design-space sweep pays per configuration.
    let prepared = PreparedProfile::new(&profile);
    group.bench_function(BenchmarkId::new("interval-model-prepared", n), |b| {
        b.iter(|| {
            IntervalModel::with_config(&machine, ModelConfig::default())
                .predict_summary(&prepared)
                .cpi()
        })
    });
    // Batched steady-state per-point cost: one predictor held across the
    // loop, so the SoA curve queries and stride walks memoize — what a
    // chunked sweep pays per configuration after warm-up.
    let config = ModelConfig::default();
    group.bench_function(BenchmarkId::new("interval-model-batched", n), |b| {
        let mut batch = BatchPredictor::new(&prepared, &config);
        b.iter(|| batch.predict_summary(&machine).cpi())
    });
    // Per-flight cost: a fresh predictor (borrowing the profile's arena,
    // empty memos) and one point — what a served predict pays.
    group.bench_function(BenchmarkId::new("interval-model-flight-of-one", n), |b| {
        b.iter(|| {
            BatchPredictor::new(&prepared, &config)
                .predict_summary(&machine)
                .cpi()
        })
    });
    group.bench_function(BenchmarkId::new("cycle-level-sim", n), |b| {
        b.iter(|| {
            OooSimulator::new(SimConfig::new(machine.clone()))
                .run(&mut spec.trace(n))
                .cpi()
        })
    });
    group.finish();
}

fn bench_profiler(c: &mut Criterion) {
    let spec = WorkloadSpec::by_name("milc").unwrap();
    let mut group = c.benchmark_group("profiling");
    group.sample_size(10);
    group.bench_function("profile-50k-inst", |b| {
        b.iter(|| {
            Profiler::new(ProfilerConfig::fast_test())
                .profile_named("milc", &mut spec.trace(50_000))
                .total_instructions
        })
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let spec = WorkloadSpec::by_name("gcc").unwrap();
    let mut group = c.benchmark_group("substrate");
    group.sample_size(20);
    group.bench_function("generate-100k-inst", |b| {
        b.iter(|| pmt_trace::collect_trace(spec.trace(100_000), u64::MAX).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_model_vs_sim,
    bench_profiler,
    bench_trace_generation
);
criterion_main!(benches);
