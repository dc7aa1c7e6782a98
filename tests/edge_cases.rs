//! Failure injection and degenerate-input coverage across the pipeline.

use pmt::prelude::*;
use pmt::profiler::ProfilerConfig;
use pmt::trace::VecTrace;

#[test]
fn empty_trace_profiles_and_predicts_benignly() {
    let mut empty = VecTrace::new(Vec::new());
    let profile = Profiler::new(ProfilerConfig::fast_test()).profile_named("empty", &mut empty);
    assert_eq!(profile.total_instructions, 0);
    let p = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
    assert_eq!(p.cycles, 0.0);
    assert_eq!(p.cpi(), 0.0);
}

#[test]
fn single_instruction_trace_survives_the_pipeline() {
    let mut t = VecTrace::new(vec![MicroOp::compute(UopClass::IntAlu, 0x40, 0)]);
    let profile = Profiler::new(ProfilerConfig::fast_test()).profile_named("one", &mut t);
    assert_eq!(profile.total_instructions, 1);
    let p = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
    assert!(p.cycles > 0.0 && p.cycles.is_finite());
    t.rewind();
    let sim = OooSimulator::new(SimConfig::new(MachineConfig::nehalem())).run(&mut t);
    assert_eq!(sim.instructions, 1);
}

#[test]
fn branchless_trace_has_no_branch_penalty() {
    let uops: Vec<MicroOp> = (0..5_000)
        .map(|i| MicroOp::compute(UopClass::IntAlu, (i % 32) * 4, 0))
        .collect();
    let mut t = VecTrace::new(uops);
    let profile = Profiler::new(ProfilerConfig::fast_test()).profile_named("nobranch", &mut t);
    assert_eq!(profile.branch.branches, 0);
    let p = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
    assert_eq!(p.cpi_stack.get(pmt::uarch::CpiComponent::Branch), 0.0);
}

#[test]
fn loadless_trace_has_no_memory_penalty() {
    let uops: Vec<MicroOp> = (0..5_000)
        .map(|i| MicroOp::compute(UopClass::FpAlu, (i % 32) * 4, 0))
        .collect();
    let mut t = VecTrace::new(uops);
    let profile = Profiler::new(ProfilerConfig::fast_test()).profile_named("noload", &mut t);
    let p = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
    assert_eq!(p.cpi_stack.get(pmt::uarch::CpiComponent::Dram), 0.0);
    assert_eq!(p.mlp, 1.0);
}

#[test]
fn pathological_machine_configs_do_not_break_the_model() {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    // Tiny ROB, single MSHR, single-wide dispatch.
    let mut tiny = MachineConfig::nehalem();
    tiny.core = tiny.core.with_dispatch_width(1).with_rob(16);
    tiny.mem.mshr_entries = 1;
    let p = IntervalModel::new(&tiny).predict(&profile);
    assert!(p.cycles.is_finite() && p.cycles > 0.0);
    // The tiny machine must be slower than the reference.
    let r = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
    assert!(p.cycles > r.cycles);
}

#[test]
fn simulator_handles_mshr_starvation() {
    let spec = WorkloadSpec::by_name("libquantum").unwrap();
    let mut m = MachineConfig::nehalem();
    m.mem.mshr_entries = 1; // worst case: fully serialized misses
    let starved = OooSimulator::new(SimConfig::new(m)).run(&mut spec.trace(20_000));
    let normal =
        OooSimulator::new(SimConfig::new(MachineConfig::nehalem())).run(&mut spec.trace(20_000));
    assert!(starved.cycles > normal.cycles);
    assert!(starved.mlp <= normal.mlp + 1e-9);
}

#[test]
fn zero_weight_profile_classes_do_not_poison_power() {
    let machine = MachineConfig::nehalem();
    let power = PowerModel::new(&machine).power(&pmt::uarch::ActivityVector::default());
    assert!(power.total().is_finite());
    assert_eq!(power.dynamic_total(), 0.0);
}

#[test]
fn truncated_final_window_is_accounted() {
    // Budget that is not a multiple of the sampling window.
    let spec = WorkloadSpec::by_name("wrf").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("wrf", &mut spec.trace(12_345));
    assert_eq!(profile.total_instructions, 12_345);
    let covered: u64 = profile
        .micro_traces
        .iter()
        .map(|t| t.weight_instructions)
        .sum();
    assert_eq!(covered, 12_345);
}

/// 100,000 unclosed `[`, alone and as the value of an unknown field —
/// deeper than any parser recursion could survive on a thread's stack.
fn deep_inputs() -> [String; 2] {
    let deep = "[".repeat(100_000);
    [deep.clone(), format!("{{\"junk\":{deep}")]
}

/// Every file the toolkit reads back — a profile (`pmt profile --out`,
/// read by `--profile`), a corrector artifact (`--corrector`) and a
/// simulation cache (`--cache`) — must answer pathologically nested
/// JSON with an ordinary error, not abort the process on a stack
/// overflow.
#[test]
fn deep_input_gets_a_structured_error_from_every_file_loader() {
    for (i, deep) in deep_inputs().iter().enumerate() {
        let err = serde_json::from_str::<ApplicationProfile>(deep).unwrap_err();
        assert!(!err.to_string().is_empty(), "profile, input {i}");
        let err = pmt::ml::ResidualModel::from_json(deep).unwrap_err();
        assert_eq!(err.code, "bad_corrector", "corrector, input {i}");

        let path = std::env::temp_dir().join(format!(
            "pmt-deep-sim-cache-{}-{i}.json",
            std::process::id()
        ));
        std::fs::write(&path, deep).unwrap();
        let loaded = SimCache::load(path.to_str().unwrap());
        std::fs::remove_file(&path).unwrap();
        let err = loaded.unwrap_err();
        assert!(err.starts_with("sim cache:"), "sim cache, input {i}: {err}");
    }
    // A deep value inside an element the cache does parse: the unknown
    // field is skipped up to the parser's depth limit, then refused.
    let row = format!("[[1,{{\"junk\":{}}}]]", "[".repeat(100_000));
    assert!(SimCache::from_json(&row).is_err());
}
