//! Chapter 4 figures: the memory hierarchy inputs — StatStack, miss
//! classification, MLP and LLC-hit chaining.

use crate::harness::{evaluate_suite, mean_abs_error, parallel_map, profile_suite, HarnessConfig};
use pmt_cachesim::HierarchySim;
use pmt_core::cache_model::CacheModel;
use pmt_core::IntervalModel;
use pmt_profiler::StrideCategory;
use pmt_report::{fmt, BarChart, Figure, LineChart, LineSeries, Series, Table};
use pmt_sim::{OooSimulator, SimConfig};
use pmt_trace::{collect_trace, UopClass};
use pmt_uarch::{CacheHierarchy, MachineConfig};
use pmt_workloads::{suite, WorkloadSpec};

/// Fig 4.2: StatStack-estimated vs simulated MPKI for the three-level
/// hierarchy.
pub fn fig4_2_cache_mpki(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions;
    let caches = CacheHierarchy::nehalem();
    let rows = parallel_map(suite(), |spec| {
        // Simulated truth.
        let uops = collect_trace(spec.trace(n), u64::MAX);
        let mut sim = HierarchySim::new(caches, None);
        let mut insts = 0u64;
        for u in &uops {
            if u.begins_instruction {
                insts += 1;
            }
            if u.class.is_memory() {
                sim.access_data(u.addr, u.class == UopClass::Store, u.static_id);
            }
        }
        let s = sim.stats();
        let ki = insts as f64 / 1000.0;
        let sim_mpki = [
            s.l1d.misses() as f64 / ki,
            s.l2.misses() as f64 / ki,
            s.l3.misses() as f64 / ki,
        ];
        // StatStack prediction from the profile.
        let profile = cfg.profile(&spec, n);
        let loads = CacheModel::fit(&profile.memory.loads, &caches);
        let stores = CacheModel::fit(&profile.memory.stores, &caches);
        let l = profile.memory.loads_per_uop * profile.total_uops;
        let st = profile.memory.stores_per_uop * profile.total_uops;
        let pred = |lr: f64, sr: f64| (lr * l + sr * st) / ki;
        let mod_mpki = [
            pred(loads.ratios.l1, stores.ratios.l1),
            pred(loads.ratios.l2, stores.ratios.l2),
            pred(loads.ratios.l3, stores.ratios.l3),
        ];
        (spec.name.clone(), sim_mpki, mod_mpki)
    });
    let mut errs = [Vec::new(), Vec::new(), Vec::new()];
    let mut table_rows = Vec::new();
    for (name, sim, model) in &rows {
        let mut row = vec![name.clone()];
        for i in 0..3 {
            row.push(fmt::f64(sim[i], 1));
            row.push(fmt::f64(model[i], 1));
            if sim[i] > 5.0 {
                errs[i].push((model[i] - sim[i]).abs() / sim[i]);
            }
        }
        table_rows.push(row);
    }
    let mut fig = Figure::table(
        "fig4_2",
        "Fig 4.2",
        "cache MPKI: simulated vs StatStack",
        Table {
            columns: [
                "workload", "L1 sim", "L1 mod", "L2 sim", "L2 mod", "L3 sim", "L3 mod",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: table_rows,
        },
    );
    for (i, level) in ["L1", "L2", "L3"].iter().enumerate() {
        let mean = if errs[i].is_empty() {
            0.0
        } else {
            errs[i].iter().sum::<f64>() / errs[i].len() as f64
        };
        fig = fig.note(format!(
            "{level} mean |err| over benchmarks with >5 MPKI: {}  ({} benchmarks)",
            fmt::pct(mean),
            errs[i].len()
        ));
    }
    vec![fig.note("(thesis: 4.1% / 6.7% / 3.5% for the three levels)")]
}

/// Fig 4.3: normalized execution time with and without MLP modeling.
pub fn fig4_3_no_mlp(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let results = evaluate_suite(&profile_suite(cfg), &machine, &cfg.model);
    let mut with_mlp = Vec::new();
    let mut without = Vec::new();
    let mut categories = Vec::new();
    let mut model_series = Vec::new();
    let mut no_mlp_series = Vec::new();
    for r in &results {
        // Re-evaluate the same profile with MLP forced to 1: scale the
        // DRAM component of each window back up by its MLP.
        let no_mlp_cycles: f64 = r
            .prediction
            .windows
            .iter()
            .map(|w| {
                let dram = w.stack.get(pmt_uarch::CpiComponent::Dram) * w.instructions;
                w.cycles + dram * (w.memory.mlp - 1.0)
            })
            .sum();
        let sim = r.sim.cycles as f64;
        categories.push(r.name.clone());
        model_series.push(r.prediction.cycles / sim);
        no_mlp_series.push(no_mlp_cycles / sim);
        with_mlp.push(r.prediction.cycles / sim - 1.0);
        without.push(no_mlp_cycles / sim - 1.0);
    }
    let chart = BarChart {
        categories,
        series: vec![
            Series {
                name: "model".into(),
                values: model_series,
            },
            Series {
                name: "no-MLP".into(),
                values: no_mlp_series,
            },
        ],
        stacked: false,
        y_label: "exec time / sim (1.0 = simulator)".into(),
        decimals: 3,
    };
    vec![Figure::bar(
        "fig4_3",
        "Fig 4.3",
        "impact of MLP modeling (exec time normalized to sim)",
        chart,
    )
    .note(format!(
        "mean |err|: with MLP {}, without MLP {}",
        fmt::pct(mean_abs_error(&with_mlp)),
        fmt::pct(mean_abs_error(&without))
    ))
    .note("(thesis: no-MLP error 24.6%, max 96%)")]
}

/// Fig 4.4: cold vs capacity LLC misses, short trace vs warmed-up
/// trace.
pub fn fig4_4_cold_capacity(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(500_000);
    let rows = parallel_map(suite(), |spec| {
        let run = |warmup: u64| {
            let mut sim = HierarchySim::new(CacheHierarchy::nehalem(), None);
            let mut trace = spec.trace(warmup + n);
            let mut buf = Vec::new();
            let mut seen = 0u64;
            let mut baseline = (0u64, 0u64, 0u64, 0u64);
            loop {
                buf.clear();
                if pmt_trace::TraceSource::fill(&mut trace, &mut buf, 8192) == 0 {
                    break;
                }
                for u in &buf {
                    if u.begins_instruction {
                        seen += 1;
                        if seen == warmup {
                            let s = sim.stats();
                            baseline = (
                                s.l3.cold_load_misses,
                                s.l3.capacity_load_misses(),
                                s.l3.cold_store_misses,
                                s.l3.capacity_store_misses(),
                            );
                        }
                    }
                    if u.class.is_memory() {
                        sim.access_data(u.addr, u.class == UopClass::Store, u.static_id);
                    }
                }
            }
            let s = sim.stats();
            (
                s.l3.cold_load_misses - baseline.0,
                s.l3.capacity_load_misses() - baseline.1,
                s.l3.cold_store_misses - baseline.2,
                s.l3.capacity_store_misses() - baseline.3,
            )
        };
        (spec.name.clone(), run(0), run(n))
    });
    let table_rows = rows
        .iter()
        .map(|(name, cold_run, warm_run)| {
            vec![
                name.clone(),
                cold_run.0.to_string(),
                cold_run.1.to_string(),
                cold_run.2.to_string(),
                cold_run.3.to_string(),
                warm_run.0.to_string(),
                warm_run.1.to_string(),
                warm_run.2.to_string(),
                warm_run.3.to_string(),
            ]
        })
        .collect();
    vec![Figure::table(
        "fig4_4",
        "Fig 4.4",
        format!("LLC miss breakdown: no warmup vs {n}-instruction warmup").as_str(),
        Table {
            columns: [
                "workload", "coldL", "capL", "coldS", "capS", "w.coldL", "w.capL", "w.coldS",
                "w.capS",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: table_rows,
        },
    )
    .note("(thesis: warmup shrinks the cold share for most, but not all, benchmarks)")]
}

/// Fig 4.7: per-workload ratios of the stride categories.
pub fn fig4_7_stride_classes(cfg: &HarnessConfig) -> Vec<Figure> {
    let profiles = profile_suite(cfg);
    let cats = [
        StrideCategory::SingleExact,
        StrideCategory::Filtered1,
        StrideCategory::Filtered2,
        StrideCategory::Filtered3,
        StrideCategory::Filtered4,
        StrideCategory::Random,
        StrideCategory::Unique,
    ];
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); cats.len()];
    for p in &profiles {
        let mut counts = vec![0u64; cats.len()];
        let mut total = 0u64;
        for t in &p.micro_traces {
            for l in &t.static_loads {
                let idx = cats.iter().position(|&c| c == l.category).unwrap();
                counts[idx] += 1;
                total += 1;
            }
        }
        for (i, c) in counts.iter().enumerate() {
            per_class[i].push(*c as f64 * 100.0 / total.max(1) as f64);
        }
    }
    let chart = BarChart {
        categories: profiles.iter().map(|p| p.name.clone()).collect(),
        series: cats
            .iter()
            .zip(per_class)
            .map(|(c, values)| Series {
                name: c.label().into(),
                values,
            })
            .collect(),
        stacked: true,
        y_label: "% of static load occurrences".into(),
        decimals: 1,
    };
    vec![Figure::bar(
        "fig4_7",
        "Fig 4.7",
        "stride class ratios (per static load occurrence)",
        chart,
    )
    .note("(thesis: one-stride loads dominate; cactusADM/omnetpp/xalancbmk >50% unique)")]
}

/// Fig 4.9: gcc CPI over time, with and without the LLC-hit chaining
/// component, against the simulator.
pub fn fig4_9_llc_chaining(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let spec = WorkloadSpec::by_name("gcc").unwrap();
    let interval = (cfg.instructions / 40).max(1);

    let sim = OooSimulator::new(SimConfig::new(machine.clone()).with_intervals(interval))
        .run(&mut spec.trace(cfg.instructions));
    let profile = cfg.profile(&spec, cfg.instructions);
    let with = IntervalModel::with_config(&machine, cfg.model.clone()).predict(&profile);
    let mut no_chain_cfg = cfg.model.clone();
    no_chain_cfg.llc_chaining = false;
    let without = IntervalModel::with_config(&machine, no_chain_cfg).predict(&profile);

    let windows_per_interval = (interval / profile.sampling.window_instructions).max(1) as usize;
    let mut sim_pts = Vec::new();
    let mut with_pts = Vec::new();
    let mut without_pts = Vec::new();
    for (i, s) in sim.intervals.iter().enumerate() {
        let lo = i * windows_per_interval;
        let hi = ((i + 1) * windows_per_interval).min(with.windows.len());
        if lo >= hi {
            break;
        }
        let avg = |p: &pmt_core::Prediction| {
            let c: f64 = p.windows[lo..hi].iter().map(|w| w.cycles).sum();
            let n: f64 = p.windows[lo..hi].iter().map(|w| w.instructions).sum();
            c / n
        };
        let x = s.instructions as f64;
        sim_pts.push((x, s.cpi));
        with_pts.push((x, avg(&with)));
        without_pts.push((x, avg(&without)));
    }
    let err = |p: &pmt_core::Prediction| (p.cycles - sim.cycles as f64) / sim.cycles as f64;
    let chart = LineChart {
        x_label: "instructions".into(),
        y_label: "CPI".into(),
        series: vec![
            LineSeries {
                name: "sim".into(),
                points: sim_pts,
            },
            LineSeries {
                name: "model".into(),
                points: with_pts,
            },
            LineSeries {
                name: "no-chain".into(),
                points: without_pts,
            },
        ],
        log_x: false,
        decimals: 3,
    };
    vec![Figure::line(
        "fig4_9",
        "Fig 4.9",
        "gcc CPI over time (model vs sim; LLC chaining on/off)",
        chart,
    )
    .note(format!(
        "total error: with chaining {}, without {}",
        fmt::pct(err(&with)),
        fmt::pct(err(&without))
    ))
    .note("(thesis gcc: -3.6% with vs -12.3% without)")]
}
