//! Chapter 3 figures: the interval model's micro-architecture
//! independent inputs.

use crate::harness::{mean_abs_error, parallel_map, profile_suite, HarnessConfig};
use pmt_branch::{EntropyMissModel, EntropyProfiler, LinearFit, PredictorSim};
use pmt_core::dispatch::effective_dispatch_rate;
use pmt_core::IntervalModel;
use pmt_report::{fmt, BarChart, Figure, LineSeries, ScatterPlot, ScatterSeries, Series, Table};
use pmt_sim::{OooSimulator, SimConfig};
use pmt_trace::{collect_trace, count_instructions, InstructionMix, UopClass};
use pmt_uarch::{MachineConfig, PredictorConfig, PredictorKind};
use pmt_workloads::suite;

/// Fig 3.1: μops per instruction for all benchmarks.
pub fn fig3_1_uops(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(200_000);
    let rows = parallel_map(suite(), |spec| {
        let uops = collect_trace(spec.trace(n), u64::MAX);
        let upi = InstructionMix::from_uops(&uops).uops_per_instruction();
        (spec.name.clone(), upi)
    });
    let (mut lo, mut hi) = (&rows[0], &rows[0]);
    for r in &rows {
        if r.1 < lo.1 {
            lo = r;
        }
        if r.1 > hi.1 {
            hi = r;
        }
    }
    let chart = BarChart {
        categories: rows.iter().map(|(name, _)| name.clone()).collect(),
        series: vec![Series {
            name: "uops/inst".into(),
            values: rows.iter().map(|(_, upi)| *upi).collect(),
        }],
        stacked: false,
        y_label: "uops per instruction".into(),
        decimals: 3,
    };
    vec![Figure::bar(
        "fig3_1",
        "Fig 3.1",
        "micro-operations per instruction",
        chart,
    )
    .note(format!(
        "min: {} {}   max: {} {}",
        lo.0,
        fmt::f64(lo.1, 3),
        hi.0,
        fmt::f64(hi.1, 3)
    ))
    .note("(thesis range: 1.07 lbm … 1.38 GemsFDTD)")]
}

/// Fig 3.4: AP / ABP / CP dependence chains at ROB 128.
pub fn fig3_4_chains(cfg: &HarnessConfig) -> Vec<Figure> {
    let profiles = profile_suite(cfg);
    let mut ap_sum = 0.0;
    let mut cp_sum = 0.0;
    let mut series = [Vec::new(), Vec::new(), Vec::new()];
    for p in profiles.iter() {
        let (ap, abp, cp) = (p.deps.ap(128), p.deps.abp(128), p.deps.cp(128));
        series[0].push(ap);
        series[1].push(abp);
        series[2].push(cp);
        ap_sum += ap;
        cp_sum += cp;
    }
    let chart = BarChart {
        categories: profiles.iter().map(|p| p.name.clone()).collect(),
        series: ["AP", "ABP", "CP"]
            .iter()
            .zip(series)
            .map(|(name, values)| Series {
                name: (*name).into(),
                values,
            })
            .collect(),
        stacked: false,
        y_label: "chain length (uops)".into(),
        decimals: 2,
    };
    vec![Figure::bar(
        "fig3_4",
        "Fig 3.4",
        "dependence chain lengths at ROB 128",
        chart,
    )
    .note(format!(
        "CP/AP ratio (thesis: ≈2.9 on average): {}",
        fmt::f64(cp_sum / ap_sum, 2)
    ))]
}

/// Fig 3.6: which factor limits the effective dispatch rate.
pub fn fig3_6_dispatch_limits(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let profiles = profile_suite(cfg);
    let mut rows = Vec::new();
    for p in profiles.iter() {
        let prediction = IntervalModel::with_config(&machine, cfg.model.clone()).predict(p);
        // Aggregate the per-window dispatch breakdowns (uop-weighted).
        let mut acc = [0.0f64; 4];
        let mut eff = 0.0;
        let mut weight = 0.0;
        let mut limiters = std::collections::BTreeMap::new();
        for w in &prediction.windows {
            let b = &w.dispatch;
            let wt = w.instructions;
            acc[0] += b.width_limit * wt;
            acc[1] += b.dependence_limit.min(99.0) * wt;
            acc[2] += b.port_limit.min(99.0) * wt;
            acc[3] += b.unit_limit.min(99.0) * wt;
            eff += b.effective * wt;
            weight += wt;
            *limiters.entry(b.limiter.label()).or_insert(0u64) += 1;
        }
        let dominant = limiters
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(l, _)| *l)
            .unwrap_or("-");
        rows.push(vec![
            p.name.clone(),
            fmt::f64(acc[0] / weight, 2),
            fmt::f64(acc[1] / weight, 2),
            fmt::f64(acc[2] / weight, 2),
            fmt::f64(acc[3] / weight, 2),
            fmt::f64(eff / weight, 2),
            dominant.to_string(),
        ]);
    }
    let table = Table {
        columns: [
            "workload", "width", "deps", "port", "unit", "Deff", "limiter",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
    };
    vec![Figure::table(
        "fig3_6",
        "Fig 3.6",
        "effective dispatch rate limits (reference core)",
        table,
    )]
}

/// Fig 3.7: base-component error vs perfect simulation as refinements
/// are added.
pub fn fig3_7_base_component(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let n = cfg.instructions.min(300_000);
    let rows = parallel_map(suite(), |spec| {
        // Perfect-mode simulation = maximum achievable performance.
        let sim =
            OooSimulator::new(SimConfig::new(machine.clone()).perfect()).run(&mut spec.trace(n));
        let profile = cfg.profile(&spec, n);
        let insts = sim.instructions as f64;
        let uops = profile.total_uops;
        let d = machine.core.dispatch_width as f64;
        // Variant 1: instructions / D.
        let c1 = insts / d;
        // Variant 2: μops / D.
        let c2 = uops / d;
        // Variant 3: μops / min(D, ROB/(lat·CP)).
        let mut counts = [0.0; UopClass::COUNT];
        for c in UopClass::ALL {
            counts[c.index()] = profile.mix.fraction(c) * uops;
        }
        let lat = machine.average_latency(&profile.class_fractions());
        let cp = profile.deps.cp(machine.core.rob_size);
        let rob = machine.core.rob_size as f64;
        let deff3 = d.min(rob / (lat * cp.max(1.0)));
        let c3 = uops / deff3;
        // Variant 4: full Eq 3.10.
        let b = effective_dispatch_rate(&machine, &counts, cp, lat);
        let c4 = uops / b.effective;
        let s = sim.cycles as f64;
        (
            spec.name.clone(),
            [(c1 - s) / s, (c2 - s) / s, (c3 - s) / s, (c4 - s) / s],
        )
    });
    let variants = ["insts", "uops", "critical", "functional"];
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (_, errs) in &rows {
        for i in 0..4 {
            cols[i].push(errs[i]);
        }
    }
    let chart = BarChart {
        categories: rows.iter().map(|(name, _)| name.clone()).collect(),
        series: variants
            .iter()
            .enumerate()
            .map(|(i, name)| Series {
                name: (*name).into(),
                values: rows.iter().map(|(_, e)| e[i] * 100.0).collect(),
            })
            .collect(),
        stacked: false,
        y_label: "error vs perfect sim (%)".into(),
        decimals: 1,
    };
    vec![Figure::bar(
        "fig3_7",
        "Fig 3.7",
        "base-component error vs perfect simulation",
        chart,
    )
    .note(format!(
        "mean |err|: insts {} → uops {} → critical {} → functional {}",
        fmt::pct(mean_abs_error(&cols[0])),
        fmt::pct(mean_abs_error(&cols[1])),
        fmt::pct(mean_abs_error(&cols[2])),
        fmt::pct(mean_abs_error(&cols[3]))
    ))
    .note("(thesis: 41.6% → 32.7% → 23.3% → 11.7%)")]
}

/// Fig 3.9: linear fit of branch entropy vs GAg miss rate.
pub fn fig3_9_entropy_fit(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(400_000);
    let pts = parallel_map(suite(), |spec| {
        let uops = collect_trace(spec.trace(n), u64::MAX);
        let mut entropy = EntropyProfiler::new(8);
        let mut sim = PredictorSim::from_config(&PredictorConfig::sized_4kb(PredictorKind::GAg));
        for u in uops.iter().filter(|u| u.class == UopClass::Branch) {
            entropy.record(u.static_id, u.taken);
            sim.predict_and_update(u.static_id, u.taken);
        }
        (spec.name.clone(), entropy.entropy(), sim.miss_rate())
    });
    let series: Vec<(f64, f64)> = pts.iter().map(|(_, e, m)| (*e, *m)).collect();
    let fit = LinearFit::fit(&series);
    let (e_lo, e_hi) = series.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.0), hi.max(p.0))
    });
    let plot = ScatterPlot {
        x_label: "linear branch entropy".into(),
        y_label: "GAg miss rate".into(),
        series: vec![ScatterSeries {
            name: "workloads".into(),
            points: series.clone(),
        }],
        overlay: Some(LineSeries {
            name: "linear fit".into(),
            points: vec![
                (e_lo, fit.slope * e_lo + fit.intercept),
                (e_hi, fit.slope * e_hi + fit.intercept),
            ],
        }),
        decimals: 4,
    };
    vec![
        Figure::scatter("fig3_9", "Fig 3.9", "branch entropy vs GAg miss rate", plot)
            .note(format!(
                "linear fit: missrate = {}·E + {}   (R² = {})",
                fmt::f64(fit.slope, 3),
                fmt::f64(fit.intercept, 4),
                fmt::f64(fit.r_squared, 3)
            ))
            .note("(thesis Fig 3.9: a clear linear relation across >400 experiments)"),
    ]
}

/// Fig 3.10: entropy-model MPKI error for five predictor families
/// (plus the Fig 3.8-style per-family fits).
pub fn fig3_10_predictors(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(400_000);
    // Gather per-workload entropy and per-predictor truth.
    let rows = parallel_map(suite(), |spec| {
        let uops = collect_trace(spec.trace(n), u64::MAX);
        let insts = count_instructions(&uops);
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
        let branches = sims[0].predictions();
        (
            entropy.entropy(),
            insts,
            branches,
            sims.iter().map(|s| s.misses()).collect::<Vec<_>>(),
        )
    });
    // Train the per-predictor lines (leave-none-out, as in the thesis'
    // cross-application model).
    let mut model = EntropyMissModel::new();
    let mut fit_rows = Vec::new();
    for (i, kind) in PredictorKind::ALL.iter().enumerate() {
        let series: Vec<(f64, f64)> = rows
            .iter()
            .map(|(e, _, b, m)| (*e, m[i] as f64 / *b as f64))
            .collect();
        let fit = model.train(*kind, &series);
        fit_rows.push(vec![
            kind.name().to_string(),
            fmt::f64(fit.slope, 3),
            fmt::f64(fit.intercept, 4),
            fmt::f64(fit.r_squared, 3),
        ]);
    }
    let fits = Figure::table(
        "fig3_10_fits",
        "Fig 3.8",
        "per-predictor entropy fits: missrate = slope·E + intercept",
        Table {
            columns: ["predictor", "slope", "intercept", "R²"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: fit_rows,
        },
    );
    let mut err_rows = Vec::new();
    for (i, kind) in PredictorKind::ALL.iter().enumerate() {
        let mut sim_mpki = 0.0;
        let mut mod_mpki = 0.0;
        let mut err = 0.0;
        for (e, insts, branches, misses) in &rows {
            let true_mpki = misses[i] as f64 * 1000.0 / *insts as f64;
            let pred_rate = model.miss_rate(*kind, *e);
            let pred_mpki = pred_rate * *branches as f64 * 1000.0 / *insts as f64;
            sim_mpki += true_mpki;
            mod_mpki += pred_mpki;
            err += (pred_mpki - true_mpki).abs();
        }
        let n_rows = rows.len() as f64;
        err_rows.push(vec![
            kind.name().to_string(),
            fmt::f64(sim_mpki / n_rows, 2),
            fmt::f64(mod_mpki / n_rows, 2),
            fmt::f64(err / n_rows, 2),
        ]);
    }
    let errors = Figure::table(
        "fig3_10",
        "Fig 3.10",
        "MPKI error (model − simulated) per predictor",
        Table {
            columns: ["predictor", "simMPKI", "modMPKI", "|err| MPKI"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: err_rows,
        },
    )
    .note("(thesis: avg MPKI 9.3/8.5/7.6/6.9/7.1; |err| 0.64/0.63/1.14/1.06/0.99)");
    vec![fits, errors]
}
