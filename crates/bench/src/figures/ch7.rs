//! Chapter 7 figures: design-space exploration — constrained optima,
//! DVFS, Pareto pruning and the empirical comparator.

use crate::harness::{
    evaluate_space, mean_abs_error, parallel_map, simulate, sweep, HarnessConfig,
};
use pmt_dse::constrain::fastest_under_power;
use pmt_dse::dvfs::{best_ed2p, explore};
use pmt_dse::{
    EmpiricalModel, LazyDesignSpace, Objective, ParetoFront, ProductSpace, PruningQuality,
    SpaceEvaluation, StreamingSweep,
};
use pmt_report::{fmt, Figure, LineChart, LineSeries, ScatterPlot, ScatterSeries, Table};
use pmt_uarch::{nehalem_dvfs_points, DesignSpace, MachineConfig};
use pmt_workloads::{suite, WorkloadSpec};

/// Table 7.1: optimizing performance under a power budget.
pub fn tbl7_1_power_constraint(cfg: &HarnessConfig) -> Vec<Figure> {
    let points = DesignSpace::thesis_table_6_3().enumerate();
    let sweep = sweep(cfg, 0);
    let rows = parallel_map(suite(), |spec| {
        let profile = cfg.profile(&spec, cfg.instructions.min(300_000));
        let eval = SpaceEvaluation::run(&points, &profile, None, &sweep);
        let mut out = Vec::new();
        for budget in [15.0, 20.0, 30.0] {
            if let Some(best) = fastest_under_power(&eval.outcomes, budget) {
                out.push(vec![
                    spec.name.clone(),
                    format!("{} W", fmt::f64(budget, 0)),
                    points[best.design_id].machine.name.clone(),
                    fmt::f64(best.model_cpi, 3),
                    format!("{} W", fmt::f64(best.model_power, 1)),
                ]);
            }
        }
        out
    });
    vec![Figure::table(
        "tbl7_1",
        "Table 7.1",
        "fastest design under a power budget (model-selected)",
        Table {
            columns: ["workload", "budget", "design", "CPI", "power"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: rows.into_iter().flatten().collect(),
        },
    )
    .note("(thesis: tighter budgets force narrower pipelines and smaller caches)")]
}

/// Fig 7.3 / Table 7.2: DVFS exploration and ED²P optimization — the
/// ED²P curves for six representative workloads plus the best operating
/// point for the whole suite.
pub fn fig7_3_dvfs(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let points = nehalem_dvfs_points();
    let rows = parallel_map(suite(), |spec| {
        let profile = cfg.profile(&spec, cfg.instructions.min(300_000));
        let out = explore(&machine, &points, &profile, &cfg.model);
        (spec.name.clone(), out)
    });
    const CURVES: [&str; 6] = ["astar", "bzip2", "gcc", "lbm", "mcf", "milc"];
    let series: Vec<LineSeries> = rows
        .iter()
        .filter(|(name, _)| CURVES.contains(&name.as_str()))
        .map(|(name, out)| LineSeries {
            name: name.clone(),
            points: out
                .iter()
                .map(|o| (o.point.frequency_ghz, o.ed2p))
                .collect(),
        })
        .collect();
    let curves = Figure::line(
        "fig7_3",
        "Fig 7.3",
        "ED²P across DVFS settings (model, six workloads)",
        LineChart {
            x_label: "frequency (GHz)".into(),
            y_label: "ED²P (J·s²)".into(),
            series,
            log_x: false,
            decimals: 3,
        },
    )
    .note("(thesis: memory-bound workloads prefer lower, compute-bound higher clocks)");
    let best_rows = rows
        .iter()
        .map(|(name, out)| {
            let best = best_ed2p(out).unwrap();
            vec![
                name.clone(),
                format!("{} GHz", fmt::f64(best.point.frequency_ghz, 2)),
                fmt::sci(best.ed2p, 3),
            ]
        })
        .collect();
    let best = Figure::table(
        "fig7_3_best",
        "Table 7.2",
        "best-ED²P operating point per workload",
        Table {
            columns: ["workload", "best f", "ED²P"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: best_rows,
        },
    );
    vec![curves, best]
}

/// Figs 7.4/7.5: Pareto frontiers for four example workloads. The model
/// sweeps the whole space; only its selected frontier is simulated (the
/// thesis' pruning use case).
pub fn fig7_4_pareto(cfg: &HarnessConfig) -> Vec<Figure> {
    let stride = cfg.space_stride(3);
    let sim_n = cfg.instructions.min(200_000);
    let points: Vec<_> = DesignSpace::thesis_table_6_3()
        .enumerate()
        .into_iter()
        .step_by(stride)
        .collect();
    let mut figures = Vec::new();
    for name in ["bzip2", "calculix", "gromacs", "xalancbmk"] {
        let spec = WorkloadSpec::by_name(name).unwrap();
        let profile = cfg.profile(&spec, sim_n);
        let sweep = sweep(cfg, sim_n);
        let eval = SpaceEvaluation::run(&points, &profile, None, &sweep);
        let model_pts = eval.model_points();
        let front = ParetoFront::of(&model_pts);
        let chosen = front.indices();
        let sims = parallel_map(chosen.clone(), |i| {
            let machine = &points[i].machine;
            let r = simulate(&spec, machine, sim_n);
            (i, r.seconds_at(machine.core.frequency_ghz))
        });
        let mut front_pts: Vec<(f64, f64)> = chosen
            .iter()
            .map(|&i| (eval.outcomes[i].model_seconds, eval.outcomes[i].model_power))
            .collect();
        front_pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let sim_pts: Vec<(f64, f64)> = sims
            .iter()
            .map(|&(i, sim_s)| (sim_s, eval.outcomes[i].model_power))
            .collect();
        figures.push(
            Figure::scatter(
                &format!("fig7_4_{name}"),
                "Figs 7.4/7.5",
                &format!("{name}: model Pareto frontier over the design space"),
                ScatterPlot {
                    x_label: "seconds".into(),
                    y_label: "watts".into(),
                    series: vec![
                        ScatterSeries {
                            name: "model (all points)".into(),
                            points: model_pts.clone(),
                        },
                        ScatterSeries {
                            name: "frontier, sim-measured delay".into(),
                            points: sim_pts,
                        },
                    ],
                    overlay: Some(LineSeries {
                        name: "model front".into(),
                        points: front_pts,
                    }),
                    decimals: 3,
                },
            )
            .note(format!(
                "{} of {} designs model-Pareto-optimal",
                chosen.len(),
                points.len()
            )),
        );
    }
    figures
}

/// §7.4 at scale: the streaming engine sweeps the 103,680-point
/// [`ProductSpace::frontier_demo`] space — ~427× the thesis grid — to an
/// online Pareto frontier, top-K and moments, never materializing a
/// point or prediction `Vec`. The ch6-style "can the model serve design
/// studies the simulator never could" figure.
pub fn fig7_frontier_scale(cfg: &HarnessConfig) -> Vec<Figure> {
    let space = ProductSpace::frontier_demo();
    let spec = WorkloadSpec::by_name("gcc").unwrap();
    let profile = cfg.profile(&spec, cfg.instructions.min(200_000));
    let summary = StreamingSweep::new(&profile)
        .model(cfg.model.clone())
        .top_k(8)
        .objective(Objective::Energy)
        .run(&space);

    // The frontier, drawn delay-ascending (id order interleaves axes).
    let mut front_pts: Vec<(f64, f64)> = summary
        .frontier
        .iter()
        .map(|e| (e.coords.0 * 1e3, e.coords.1))
        .collect();
    front_pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let chart = Figure::scatter(
        "fig7_frontier_scale",
        "§7.4 at scale",
        &format!(
            "gcc: streamed Pareto frontier over {} design points ({} non-dominated)",
            summary.space_points,
            summary.frontier.len()
        ),
        ScatterPlot {
            x_label: "milliseconds".into(),
            y_label: "watts".into(),
            series: vec![ScatterSeries {
                name: "frontier (online accumulator)".into(),
                points: front_pts.clone(),
            }],
            overlay: Some(LineSeries {
                name: "frontier".into(),
                points: front_pts,
            }),
            decimals: 3,
        },
    )
    .note(format!(
        "streamed in 1024-point chunks; CPI mean {} [{}, {}], power mean {} W \
         over all {} points — moments folded online, no outcome Vec",
        fmt::f64(summary.cpi.mean(), 3),
        fmt::f64(summary.cpi.min, 3),
        fmt::f64(summary.cpi.max, 3),
        fmt::f64(summary.power.mean(), 1),
        summary.evaluated
    ));

    let rows = summary
        .top
        .iter()
        .map(|e| {
            let machine = space.point_at(e.id).machine;
            vec![
                machine.name.clone(),
                fmt::sci(e.key, 3),
                fmt::f64(e.item.cpi, 3),
                format!("{} W", fmt::f64(e.item.power, 1)),
            ]
        })
        .collect();
    let table = Figure::table(
        "fig7_frontier_scale_top",
        "§7.4 at scale",
        "the 8 lowest-energy designs of the 103,680-point space (bounded-heap top-K)",
        Table {
            columns: ["design", "energy (J)", "CPI", "power"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        },
    )
    .note("(the engine holds the frontier, the heap and three moment summaries — never the space)");
    vec![chart, table]
}

/// Figs 7.6–7.9: space-wide error plus the four pruning metrics per
/// workload.
pub fn fig7_7_pareto_metrics(cfg: &HarnessConfig) -> Vec<Figure> {
    let stride = cfg.space_stride(9);
    let sim_n = cfg.instructions.min(200_000);
    let points: Vec<_> = DesignSpace::thesis_table_6_3()
        .enumerate()
        .into_iter()
        .step_by(stride)
        .collect();
    let evals = evaluate_space(&points, cfg, sim_n);
    let mut sums = PruningQuality::default();
    let mut cpi_sum = 0.0;
    let mut pow_sum = 0.0;
    let mut table_rows = Vec::new();
    for (spec, eval) in suite().into_iter().zip(&evals) {
        let q = PruningQuality::evaluate(&eval.sim_points(), &eval.model_points());
        let cpi_errs: Vec<f64> = eval.outcomes.iter().filter_map(|o| o.cpi_error()).collect();
        let pow_errs: Vec<f64> = eval
            .outcomes
            .iter()
            .filter_map(|o| o.power_error())
            .collect();
        let (cpi, pow) = (mean_abs_error(&cpi_errs), mean_abs_error(&pow_errs));
        table_rows.push(vec![
            spec.name,
            fmt::pct(cpi),
            fmt::pct(pow),
            fmt::pct(q.sensitivity),
            fmt::pct(q.specificity),
            fmt::pct(q.accuracy),
            fmt::pct(q.hvr),
        ]);
        sums.sensitivity += q.sensitivity;
        sums.specificity += q.specificity;
        sums.accuracy += q.accuracy;
        sums.hvr += q.hvr;
        cpi_sum += cpi;
        pow_sum += pow;
    }
    let n = evals.len() as f64;
    table_rows.push(vec![
        "average".to_string(),
        fmt::pct(cpi_sum / n),
        fmt::pct(pow_sum / n),
        fmt::pct(sums.sensitivity / n),
        fmt::pct(sums.specificity / n),
        fmt::pct(sums.accuracy / n),
        fmt::pct(sums.hvr / n),
    ]);
    vec![Figure::table(
        "fig7_7",
        "Figs 7.6–7.9",
        format!(
            "pruning quality over {} space points, {} instructions",
            points.len(),
            sim_n
        )
        .as_str(),
        Table {
            columns: [
                "workload",
                "cpiErr",
                "powErr",
                "sensitivity",
                "specificity",
                "accuracy",
                "HVR",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: table_rows,
        },
    )
    .note("(thesis: 9.3% / 4.3% | 46.2% / 87.9% / 76.8% / 97.0%)")]
}

/// Figs 7.10–7.13: mechanistic model vs empirical (ridge regression)
/// comparator for Pareto pruning.
pub fn fig7_10_empirical(cfg: &HarnessConfig) -> Vec<Figure> {
    let stride = cfg.space_stride(9);
    let sim_n = cfg.instructions.min(200_000);
    let points: Vec<_> = DesignSpace::thesis_table_6_3()
        .enumerate()
        .into_iter()
        .step_by(stride)
        .collect();
    let evals = evaluate_space(&points, cfg, sim_n);
    let mut acc = [0.0f64; 6];
    let mut table_rows = Vec::new();
    for (spec, eval) in suite().into_iter().zip(&evals) {
        let truth = eval.sim_points();
        // Mechanistic.
        let m = PruningQuality::evaluate(&truth, &eval.model_points());
        // Empirical: train on a quarter of the simulated points — note
        // that even this training set costs simulations the mechanistic
        // model does not need.
        let train: Vec<(&pmt_uarch::DesignPoint, f64, f64)> = points
            .iter()
            .enumerate()
            .step_by(4)
            .map(|(i, p)| {
                let o = &eval.outcomes[i];
                (p, o.sim_cpi.unwrap(), o.sim_power.unwrap())
            })
            .collect();
        let emp = EmpiricalModel::train(&train);
        let emp_pts: Vec<(f64, f64)> = points
            .iter()
            .map(|p| {
                let cpi = emp.predict_cpi(p);
                let secs = cpi * sim_n as f64 / (p.machine.core.frequency_ghz * 1e9);
                (secs, emp.predict_power(p))
            })
            .collect();
        let e = PruningQuality::evaluate(&truth, &emp_pts);
        table_rows.push(vec![
            spec.name,
            fmt::pct(m.sensitivity),
            fmt::pct(e.sensitivity),
            fmt::pct(m.specificity),
            fmt::pct(e.specificity),
            fmt::pct(m.hvr),
            fmt::pct(e.hvr),
        ]);
        acc[0] += m.sensitivity;
        acc[1] += e.sensitivity;
        acc[2] += m.specificity;
        acc[3] += e.specificity;
        acc[4] += m.hvr;
        acc[5] += e.hvr;
    }
    let n = evals.len() as f64;
    table_rows.push(vec![
        "average".to_string(),
        fmt::pct(acc[0] / n),
        fmt::pct(acc[1] / n),
        fmt::pct(acc[2] / n),
        fmt::pct(acc[3] / n),
        fmt::pct(acc[4] / n),
        fmt::pct(acc[5] / n),
    ]);
    vec![Figure::table(
        "fig7_10",
        "Figs 7.10–7.13",
        format!(
            "mechanistic (0 training sims) vs empirical ({} training sims) over {} points",
            points.len().div_ceil(4),
            points.len()
        )
        .as_str(),
        Table {
            columns: [
                "workload", "m.sens", "e.sens", "m.spec", "e.spec", "m.HVR", "e.HVR",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: table_rows,
        },
    )
    .note("(thesis: the mechanistic model prunes better despite similar average error)")]
}
