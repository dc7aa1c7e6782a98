//! Non-figure experiments: the differential validation report, the
//! wall-clock speedup headline and the development accuracy probe.

use crate::harness::{
    evaluate_suite, mean_abs_error, profile_suite, shared_sim_cache, HarnessConfig,
};
use pmt_dse::{SpaceEvaluation, SweepConfig};
use pmt_report::{fmt, Figure, Table};
use pmt_sim::{OooSimulator, SimConfig};
use pmt_uarch::{CpiComponent, DesignSpace, MachineConfig};
use pmt_validate::{ValidationConfig, Validator};
use pmt_workloads::{suite, WorkloadSpec};
use std::time::{Duration, Instant};

/// The differential validation report (the Table 6.1 / Fig 7.10 claim):
/// model-vs-simulator error distributions plus design-ordering
/// agreement, workload by workload. Smoke shrinks to three workloads;
/// the reference simulations go through the [`shared_sim_cache`].
pub fn validation_report(cfg: &HarnessConfig) -> Vec<Figure> {
    // One budget for both sides: a differential comparison is only fair
    // when the model's profile and the reference simulation cover the
    // same instruction window.
    let budget = cfg.instructions.min(200_000);
    let config = ValidationConfig {
        profile_instructions: budget,
        sim_instructions: budget,
        profiler: cfg.profiler.clone(),
        model: cfg.model.clone(),
    };

    let space = DesignSpace::validation_subspace();
    let points: Vec<_> = space
        .enumerate()
        .into_iter()
        .step_by(cfg.space_stride(1))
        .collect();
    let specs: Vec<_> = if cfg.smoke {
        suite().into_iter().take(3).collect()
    } else {
        suite()
    };

    let n_specs = specs.len();
    let n_points = points.len();
    let mut validator = Validator::new(config.clone()).points(points);
    for spec in specs {
        validator = validator.workload(spec);
    }
    let report = validator.cache(shared_sim_cache()).run();
    vec![report
        .to_figure()
        .note(format!(
            "{n_specs} workloads x {n_points} points, {} sim instructions per point",
            config.sim_instructions
        ))
        .note("(thesis: 9.3% mean CPI error across the design space; a few percent for power)")]
}

/// §6.2 headline: design-space evaluation speedup — profile-once +
/// model versus per-point cycle-level simulation. Wall-clock timing, so
/// deliberately excluded from the deterministic report.
pub fn speedup(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(300_000);
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let points = DesignSpace::thesis_table_6_3().enumerate();
    let reps: u32 = if cfg.smoke { 2 } else { 3 };
    let sweep_cfg = SweepConfig {
        model: cfg.model.clone(),
        ..SweepConfig::default()
    };

    // One-time profiling cost.
    let t0 = Instant::now();
    let profile = cfg.profile(&spec, n);
    let t_profile = t0.elapsed();

    // The model over the whole space: `SpaceEvaluation` fits once per
    // run and issues only machine-dependent queries per point.
    let t1 = Instant::now();
    for _ in 0..reps {
        SpaceEvaluation::run_serial(&points, &profile, None, &sweep_cfg);
    }
    let t_model = t1.elapsed() / reps;

    // Simulation for a sample of the space, extrapolated.
    let sample = 8.min(points.len());
    let t2 = Instant::now();
    let mut sim_acc = 0.0;
    for p in points.iter().take(sample) {
        let r = OooSimulator::new(SimConfig::new(p.machine.clone())).run(&mut spec.trace(n));
        sim_acc += r.cpi();
    }
    let t_sim_sample = t2.elapsed();
    let t_sim_full = t_sim_sample * (points.len() as u32) / (sample as u32);
    let _ = sim_acc;

    let secs = |d: Duration| format!("{} ms", fmt::f64(d.as_secs_f64() * 1e3, 2));
    let speedup = t_sim_full.as_secs_f64() / (t_profile + t_model).as_secs_f64();
    vec![Figure::table(
        "speedup",
        "§6.2",
        format!(
            "design-space evaluation cost (astar, {n} instructions, {} points)",
            points.len()
        )
        .as_str(),
        Table {
            columns: vec!["step".into(), "wall-clock".into()],
            rows: vec![
                vec!["profiling (once)".into(), secs(t_profile)],
                vec!["model × space (prepared, serial)".into(), secs(t_model)],
                vec!["model total".into(), secs(t_profile + t_model)],
                vec![
                    format!("simulation × space (extrapolated from {sample} points)"),
                    secs(t_sim_full),
                ],
            ],
        },
    )
    .note(format!(
        "speedup: {}× (thesis: 315× vs detailed simulation)",
        fmt::f64(speedup, 1)
    ))]
}

/// Development aid: per-workload model-vs-simulator deltas on the
/// headline metrics (CPI, branch, DRAM, MLP, LLC misses).
pub fn accuracy_probe(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let results = evaluate_suite(&profile_suite(cfg), &machine, &cfg.model);
    let mut errors = Vec::new();
    let mut rows = Vec::new();
    for r in &results {
        let e = r.cpi_error();
        errors.push(e);
        let mod_misses: f64 = r
            .prediction
            .windows
            .iter()
            .map(|w| w.memory.llc_load_misses)
            .sum();
        rows.push(vec![
            r.name.clone(),
            fmt::f64(r.sim.cpi(), 3),
            fmt::f64(r.prediction.cpi(), 3),
            fmt::pct(e),
            fmt::f64(r.sim.cpi_stack.get(CpiComponent::Branch), 3),
            fmt::f64(r.prediction.cpi_stack.get(CpiComponent::Branch), 3),
            fmt::f64(r.sim.cpi_stack.get(CpiComponent::Dram), 3),
            fmt::f64(r.prediction.cpi_stack.get(CpiComponent::Dram), 3),
            fmt::f64(r.sim.mlp, 2),
            fmt::f64(r.prediction.mlp, 2),
            r.sim.cache_stats.l3.load_misses.to_string(),
            fmt::f64(mod_misses, 0),
        ]);
    }
    vec![Figure::table(
        "accuracy_probe",
        "probe",
        "model-vs-simulator accuracy probe (reference machine)",
        Table {
            columns: [
                "workload", "simCPI", "modCPI", "err", "simBr", "modBr", "simDRAM", "modDRAM",
                "simMLP", "modMLP", "simMiss", "modMiss",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows,
        },
    )
    .note(format!(
        "mean |CPI error| = {}",
        fmt::pct(mean_abs_error(&errors))
    ))]
}
