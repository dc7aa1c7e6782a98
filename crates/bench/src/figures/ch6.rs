//! Chapter 6 figures: performance and power validation on the
//! reference architecture and across the design space.

use crate::harness::{
    evaluate_space, evaluate_suite, mean_abs_error, profile_suite, Evaluated, HarnessConfig,
};
use pmt_core::{EvaluationMode, IntervalModel, MlpModelKind};
use pmt_power::{PowerComponent, PowerModel};
use pmt_report::{fmt, BarChart, Figure, LineChart, LineSeries, Series, Table};
use pmt_sim::{OooSimulator, SimConfig};
use pmt_trace::SamplingConfig;
use pmt_uarch::{CpiComponent, DesignSpace, MachineConfig};

/// Table 6.1: the reference architecture.
pub fn tbl6_1_reference(_cfg: &HarnessConfig) -> Vec<Figure> {
    let m = MachineConfig::nehalem();
    let mut rows = vec![
        vec![
            "dispatch width".to_string(),
            m.core.dispatch_width.to_string(),
        ],
        vec![
            "ROB / IQ / LSQ".to_string(),
            format!(
                "{} / {} / {}",
                m.core.rob_size, m.core.iq_size, m.core.lsq_size
            ),
        ],
        vec![
            "front-end depth".to_string(),
            format!("{} stages", m.core.frontend_depth),
        ],
        vec![
            "frequency / Vdd".to_string(),
            format!("{} GHz / {} V", m.core.frequency_ghz, m.core.vdd),
        ],
        vec![
            "issue ports".to_string(),
            m.exec.ports.port_count().to_string(),
        ],
    ];
    for (label, c) in [
        ("L1-I cache", &m.caches.l1i),
        ("L1-D cache", &m.caches.l1d),
        ("L2 cache", &m.caches.l2),
        ("L3 cache", &m.caches.l3),
    ] {
        rows.push(vec![
            label.to_string(),
            format!(
                "{} KB, {}-way, {} B lines, {} cycles",
                c.size_kb, c.associativity, c.line_bytes, c.latency
            ),
        ]);
    }
    rows.push(vec![
        "DRAM".to_string(),
        format!(
            "{} cycles + bus {} cycles/line",
            m.mem.dram_latency, m.mem.bus_transfer_cycles
        ),
    ]);
    rows.push(vec!["MSHRs".to_string(), m.mem.mshr_entries.to_string()]);
    rows.push(vec![
        "branch predictor".to_string(),
        format!("{} ({} B)", m.predictor.kind, m.predictor.storage_bytes()),
    ]);
    vec![Figure::table(
        "tbl6_1",
        "Table 6.1",
        format!("reference architecture ({})", m.name).as_str(),
        Table {
            columns: vec!["parameter".into(), "value".into()],
            rows,
        },
    )]
}

/// Fig 6.1: CPI stacks, model vs simulator, reference architecture —
/// one paired stacked bar (`sim`/`model`) per workload. Also reports
/// the §6.2.1 headline mean absolute CPI error.
pub fn fig6_1_cpi_stacks(cfg: &HarnessConfig) -> Vec<Figure> {
    let results = evaluate_suite(&profile_suite(cfg), &MachineConfig::nehalem(), &cfg.model);
    let mut categories = Vec::new();
    let mut series: Vec<Series> = CpiComponent::ALL
        .iter()
        .map(|c| Series {
            name: c.label().into(),
            values: Vec::new(),
        })
        .collect();
    let mut errors = Vec::new();
    for r in &results {
        categories.push(format!("{} sim", r.name));
        categories.push(format!("{} mod", r.name));
        for (i, c) in CpiComponent::ALL.iter().enumerate() {
            series[i].values.push(r.sim.cpi_stack.get(*c));
            series[i].values.push(r.prediction.cpi_stack.get(*c));
        }
        errors.push(r.cpi_error());
    }
    let chart = BarChart {
        categories,
        series,
        stacked: true,
        y_label: "CPI".into(),
        decimals: 3,
    };
    vec![Figure::bar(
        "fig6_1",
        "Fig 6.1",
        "CPI stacks (sim / model pair per workload)",
        chart,
    )
    .note(format!(
        "mean |CPI error| on the reference architecture: {} (thesis §6.2.1: 7.6%)",
        fmt::pct(mean_abs_error(&errors))
    ))]
}

/// Fig 6.3: prediction error vs number of instructions profiled.
pub fn fig6_3_sample_budget(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let n = cfg.instructions;
    let mut points = Vec::new();
    let mut notes = Vec::new();
    for (micro, window) in [
        (200u64, 40_000u64),
        (500, 20_000),
        (1_000, 10_000),
        (2_000, 8_000),
        (4_000, 8_000),
    ] {
        let mut sampled = cfg.clone();
        sampled.profiler.sampling = SamplingConfig {
            micro_trace_instructions: micro,
            window_instructions: window,
        };
        // Sampling changes only the profile: every pass after the first
        // reads its ground truth from the shared cache.
        let errs: Vec<f64> = evaluate_suite(&profile_suite(&sampled), &machine, &cfg.model)
            .iter()
            .map(Evaluated::cpi_error)
            .collect();
        let profiled = n * micro / window;
        points.push((profiled as f64, mean_abs_error(&errs) * 100.0));
        notes.push(format!(
            "{micro}/{window} micro/window → {profiled} instructions profiled, mean |err| {}",
            fmt::pct(mean_abs_error(&errs))
        ));
    }
    let chart = LineChart {
        x_label: "instructions profiled".into(),
        y_label: "mean |CPI error| (%)".into(),
        series: vec![LineSeries {
            name: "error".into(),
            points,
        }],
        log_x: true,
        decimals: 1,
    };
    let mut fig = Figure::line(
        "fig6_3",
        "Fig 6.3",
        "mean |CPI error| vs profiled instruction budget",
        chart,
    );
    for note in notes {
        fig = fig.note(note);
    }
    vec![fig.note("(thesis: error flattens once ~1M instructions are profiled)")]
}

/// Fig 6.4 / §6.2.2: per-micro-trace vs combined model evaluation.
pub fn fig6_4_separate_vs_combined(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let profiles = profile_suite(cfg);
    let evaluate = |mode| {
        let model = cfg.model.clone().with_evaluation(mode);
        evaluate_suite(&profiles, &machine, &model)
    };
    let separate = evaluate(EvaluationMode::PerMicroTrace);
    let combined = evaluate(EvaluationMode::Combined);

    let mut es = Vec::new();
    let mut ec = Vec::new();
    let categories = separate.iter().map(|s| s.name.clone()).collect();
    for (s, c) in separate.iter().zip(&combined) {
        es.push(s.cpi_error());
        ec.push(c.cpi_error());
    }
    let chart = BarChart {
        categories,
        series: vec![
            Series {
                name: "separate".into(),
                values: es.iter().map(|e| e * 100.0).collect(),
            },
            Series {
                name: "combined".into(),
                values: ec.iter().map(|e| e * 100.0).collect(),
            },
        ],
        stacked: false,
        y_label: "signed CPI error (%)".into(),
        decimals: 1,
    };
    vec![Figure::bar(
        "fig6_4",
        "Fig 6.4",
        "evaluation granularity: per-micro-trace vs combined",
        chart,
    )
    .note(format!(
        "mean |err|: separate {} vs combined {} (thesis: separate wins)",
        fmt::pct(mean_abs_error(&es)),
        fmt::pct(mean_abs_error(&ec))
    ))]
}

/// Table 6.2: error as model refinements are toggled.
pub fn tbl6_2_component_errors(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let profiles = profile_suite(cfg);

    let full = cfg.model.clone();
    let cold = full.clone().with_mlp(MlpModelKind::ColdMiss);
    let mut no_chain = full.clone();
    no_chain.llc_chaining = false;
    let mut no_bus = full.clone();
    no_bus.bus_queuing = false;
    let mut no_mshr = full.clone();
    no_mshr.mshr_cap = false;
    let variants = [
        ("full model (stride MLP)", full),
        ("cold-miss MLP", cold),
        ("no LLC chaining", no_chain),
        ("no bus queuing", no_bus),
        ("no MSHR cap", no_mshr),
    ];

    let mut rows = Vec::new();
    for (label, model) in variants {
        let results = evaluate_suite(&profiles, &machine, &model);
        let errs: Vec<f64> = results.iter().map(|r| r.cpi_error()).collect();
        let max = results
            .iter()
            .map(|r| r.abs_cpi_error())
            .fold(0.0f64, f64::max);
        rows.push(vec![
            label.to_string(),
            fmt::pct(mean_abs_error(&errs)),
            fmt::pct(max),
        ]);
    }
    vec![Figure::table(
        "tbl6_2",
        "Table 6.2",
        "model-variant errors (mean |CPI error| / max)",
        Table {
            columns: ["variant", "mean |e|", "max |e|"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        },
    )]
}

/// Table 6.3 + Figs 6.5/6.6: CPI accuracy across the processor design
/// space (sub-sampled by [`HarnessConfig::space_stride`]).
pub fn fig6_5_space_performance(cfg: &HarnessConfig) -> Vec<Figure> {
    let stride = cfg.space_stride(9);
    let sim_n = cfg.instructions.min(300_000);
    let space = DesignSpace::thesis_table_6_3();
    let points: Vec<_> = space.enumerate().into_iter().step_by(stride).collect();
    let errs: Vec<f64> = evaluate_space(&points, cfg, sim_n)
        .iter()
        .flat_map(|eval| eval.outcomes.iter().filter_map(|o| o.cpi_error()))
        .collect();

    // Error distribution (the box-plot numbers of Fig 6.5).
    let mut abs: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
    abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |f: f64| abs[((abs.len() - 1) as f64 * f) as usize];
    let chart = BarChart {
        categories: ["mean", "median", "p75", "p95", "max"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        series: vec![Series {
            name: "|CPI error|".into(),
            values: vec![
                mean_abs_error(&errs) * 100.0,
                q(0.50) * 100.0,
                q(0.75) * 100.0,
                q(0.95) * 100.0,
                q(1.0) * 100.0,
            ],
        }],
        stacked: false,
        y_label: "|CPI error| (%)".into(),
        decimals: 1,
    };
    vec![Figure::bar(
        "fig6_5",
        "Figs 6.5/6.6",
        "CPI error distribution across the design space",
        chart,
    )
    .note(format!(
        "table 6.3 space: {} points ({} sampled, stride {stride}); sim budget {} inst",
        space.len(),
        points.len(),
        sim_n
    ))
    .note("(thesis: 9.3% mean across the design space; 13% for the ISPASS'15 variant)")]
}

/// Figs 6.7–6.10: power stacks on the reference machine plus power
/// accuracy across the (sub-sampled) space.
pub fn fig6_8_space_power(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();

    // --- Fig 6.7: power stacks on the reference machine -----------------
    let pm = PowerModel::new(&machine);
    let rows: Vec<_> = evaluate_suite(&profile_suite(cfg), &machine, &cfg.model)
        .into_iter()
        .map(|r| {
            let sim_p = pm.power(&r.sim.activity);
            (r.name, sim_p, pm.power(&r.prediction.activity))
        })
        .collect();
    let mut categories = Vec::new();
    let mut series: Vec<Series> = std::iter::once("static")
        .chain(PowerComponent::ALL.iter().map(|c| c.label()))
        .map(|name| Series {
            name: name.into(),
            values: Vec::new(),
        })
        .collect();
    let mut errors = Vec::new();
    for (name, sim_p, mod_p) in &rows {
        categories.push(format!("{name} sim"));
        categories.push(format!("{name} mod"));
        for b in [sim_p, mod_p] {
            series[0].values.push(b.static_w);
            for (i, c) in PowerComponent::ALL.iter().enumerate() {
                series[i + 1].values.push(b.dynamic(*c));
            }
        }
        errors.push((mod_p.total() - sim_p.total()) / sim_p.total());
    }
    let stacks = Figure::bar(
        "fig6_7",
        "Fig 6.7",
        "power stacks (sim / model pair per workload)",
        BarChart {
            categories,
            series,
            stacked: true,
            y_label: "watts".into(),
            decimals: 2,
        },
    )
    .note(format!(
        "reference-machine power error: {} (thesis §6.3.1: 3.4%)",
        fmt::pct(mean_abs_error(&errors))
    ));

    // --- Figs 6.8–6.10: across the (sub-sampled) space ------------------
    let stride = cfg.space_stride(27);
    let sim_n = cfg.instructions.min(200_000);
    let points: Vec<_> = DesignSpace::thesis_table_6_3()
        .enumerate()
        .into_iter()
        .step_by(stride)
        .collect();
    let errs: Vec<f64> = evaluate_space(&points, cfg, sim_n)
        .iter()
        .flat_map(|eval| eval.outcomes.iter().filter_map(|o| o.power_error()))
        .collect();
    let space = Figure::table(
        "fig6_9",
        "Fig 6.9",
        "power error across the design space",
        Table {
            columns: vec!["space points".into(), "mean |power error|".into()],
            rows: vec![vec![
                points.len().to_string(),
                fmt::pct(mean_abs_error(&errs)),
            ]],
        },
    )
    .note("(thesis: 4.3% across the space)");
    vec![stacks, space]
}

/// Fig 6.14: phase tracking — CPI over time, model vs sim, for the
/// thesis' three example benchmarks.
pub fn fig6_14_phases(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let mut figures = Vec::new();
    for name in ["astar", "bzip2", "cactusADM"] {
        let spec = pmt_workloads::WorkloadSpec::by_name(name).unwrap();
        let interval = (cfg.instructions / 25).max(1);
        let sim = OooSimulator::new(SimConfig::new(machine.clone()).with_intervals(interval))
            .run(&mut spec.trace(cfg.instructions));
        let profile = cfg.profile(&spec, cfg.instructions);
        let pred = IntervalModel::with_config(&machine, cfg.model.clone()).predict(&profile);
        let wpi = (interval / profile.sampling.window_instructions).max(1) as usize;
        let mut sim_pts = Vec::new();
        let mut mod_pts = Vec::new();
        let mut sim_series = Vec::new();
        let mut mod_series = Vec::new();
        for (i, s) in sim.intervals.iter().enumerate() {
            let lo = i * wpi;
            let hi = ((i + 1) * wpi).min(pred.windows.len());
            if lo >= hi {
                break;
            }
            let c: f64 = pred.windows[lo..hi].iter().map(|w| w.cycles).sum();
            let ins: f64 = pred.windows[lo..hi].iter().map(|w| w.instructions).sum();
            sim_pts.push((s.instructions as f64, s.cpi));
            mod_pts.push((s.instructions as f64, c / ins));
            sim_series.push(s.cpi);
            mod_series.push(c / ins);
        }
        // Phase-tracking quality: correlation between the two series.
        let corr = correlation(&sim_series, &mod_series);
        figures.push(
            Figure::line(
                &format!("fig6_14_{name}"),
                "Fig 6.14",
                &format!("{name}: CPI per interval (sim vs model)"),
                LineChart {
                    x_label: "instructions".into(),
                    y_label: "CPI".into(),
                    series: vec![
                        LineSeries {
                            name: "sim".into(),
                            points: sim_pts,
                        },
                        LineSeries {
                            name: "model".into(),
                            points: mod_pts,
                        },
                    ],
                    log_x: false,
                    decimals: 3,
                },
            )
            .note(format!("correlation(sim, model) = {}", fmt::f64(corr, 3))),
        );
    }
    figures
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len()) as f64;
    if n < 2.0 {
        return 1.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va * vb > 0.0 {
        cov / (va * vb).sqrt()
    } else {
        0.0
    }
}

/// Figs 6.15–6.18: cold-miss vs stride MLP model — error on the DRAM
/// wait component, with and without hardware prefetching.
pub fn fig6_15_mlp_models(cfg: &HarnessConfig) -> Vec<Figure> {
    let profiles = profile_suite(cfg);
    let mut rows = Vec::new();
    for (label, machine) in [
        ("no prefetcher (figs 6.15/6.16)", MachineConfig::nehalem()),
        (
            "stride prefetcher (fig 6.18)",
            MachineConfig::nehalem_with_prefetcher(),
        ),
    ] {
        for (name, kind) in [
            ("stride MLP", MlpModelKind::Stride),
            ("cold-miss MLP", MlpModelKind::ColdMiss),
        ] {
            let results = evaluate_suite(&profiles, &machine, &cfg.model.clone().with_mlp(kind));
            // Error on the DRAM wait (CPI memory component), per thesis,
            // normalized by total CPI so near-zero components don't
            // explode the relative error.
            let errs: Vec<f64> = results
                .iter()
                .map(|r| {
                    let s = r.sim.cpi_stack.get(CpiComponent::Dram).max(1e-3);
                    let m = r.prediction.cpi_stack.get(CpiComponent::Dram);
                    (m - s) / r.sim.cpi()
                })
                .collect();
            rows.push(vec![
                label.to_string(),
                name.to_string(),
                fmt::pct(mean_abs_error(&errs)),
            ]);
        }
    }
    vec![Figure::table(
        "fig6_15",
        "Figs 6.15–6.18",
        "MLP model error on the DRAM-wait component (fraction of CPI)",
        Table {
            columns: ["machine", "MLP model", "mean |DRAM-wait error|"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        },
    )
    .note("(thesis CAL'18: stride 3.6% vs cold-miss 16.9% with prefetching)")]
}
