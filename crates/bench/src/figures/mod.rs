//! Figure builders and the experiment registry.
//!
//! Each thesis figure/table is an experiment: a builder here that
//! returns typed [`Figure`] values. [`REGISTRY`] lists them all with
//! their paper reference, the crates they exercise and whether their
//! output is deterministic (timing experiments are not). The registry
//! is the single source for `pmt figure` ([`select`] + [`run`]), for
//! the `pmt report` document, and for the generated `docs/PAPER_MAP.md`.

mod ch3;
mod ch4;
mod ch5;
mod ch6;
mod ch7;
mod extra;

use crate::harness::{train_entropy_model, HarnessConfig};
use pmt_report::Figure;

/// One experiment: identity, thesis mapping and its builder.
pub struct Experiment {
    /// The name `pmt figure` takes (`fig7_4_pareto`).
    pub name: &'static str,
    /// The paper/thesis artifact it reproduces.
    pub paper_ref: &'static str,
    /// Condensed caption.
    pub title: &'static str,
    /// Thesis chapter (3–7) for report grouping.
    pub chapter: u8,
    /// Workspace crates the experiment exercises (beyond the harness).
    pub crates: &'static [&'static str],
    /// Whether the builder wants the one-time entropy-model training
    /// pass ([`train_entropy_model`], installed by [`build_entry`]).
    pub trained_entropy: bool,
    /// Whether the output is a pure function of the configuration
    /// (timing experiments are not, and stay out of `pmt report`).
    pub deterministic: bool,
    /// Build the figures at the given scale.
    pub build: fn(&HarnessConfig) -> Vec<Figure>,
}

impl Experiment {
    /// The `cargo run --release --bin` arguments that regenerate this
    /// experiment: `pmt -- figure <name>`. Every figure it builds is
    /// stamped with this, and `docs/PAPER_MAP.md`'s command column is
    /// generated from it.
    pub fn command(&self) -> String {
        format!("pmt -- figure {}", self.name)
    }
}

/// Every experiment, in thesis order. `pmt figure all`, the `pmt report`
/// document and `docs/PAPER_MAP.md` all iterate this.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "tbl6_1_reference",
        paper_ref: "Table 6.1",
        title: "the reference architecture",
        chapter: 6,
        crates: &["uarch"],
        trained_entropy: false,
        deterministic: true,
        build: ch6::tbl6_1_reference,
    },
    Experiment {
        name: "fig3_1_uops",
        paper_ref: "Fig 3.1",
        title: "micro-operations per instruction across the suite",
        chapter: 3,
        crates: &["trace", "workloads"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_1_uops,
    },
    Experiment {
        name: "fig3_4_chains",
        paper_ref: "Fig 3.4",
        title: "AP / ABP / CP dependence chains at ROB 128",
        chapter: 3,
        crates: &["profiler", "trace", "workloads"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_4_chains,
    },
    Experiment {
        name: "fig3_6_dispatch_limits",
        paper_ref: "Fig 3.6",
        title: "effective dispatch rate limits on the reference core",
        chapter: 3,
        crates: &["core", "profiler", "uarch"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_6_dispatch_limits,
    },
    Experiment {
        name: "fig3_7_base_component",
        paper_ref: "Fig 3.7",
        title: "base-component error vs perfect simulation, refinement by refinement",
        chapter: 3,
        crates: &["core", "profiler", "sim", "trace"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_7_base_component,
    },
    Experiment {
        name: "fig3_9_entropy_fit",
        paper_ref: "Fig 3.9",
        title: "linear fit of branch entropy vs GAg miss rate",
        chapter: 3,
        crates: &["branch", "trace", "workloads"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_9_entropy_fit,
    },
    Experiment {
        name: "fig3_10_predictors",
        paper_ref: "Fig 3.10",
        title: "entropy-model MPKI error for five predictor families",
        chapter: 3,
        crates: &["branch", "trace", "uarch"],
        trained_entropy: false,
        deterministic: true,
        build: ch3::fig3_10_predictors,
    },
    Experiment {
        name: "fig4_2_cache_mpki",
        paper_ref: "Fig 4.2",
        title: "StatStack-estimated vs simulated MPKI, three-level hierarchy",
        chapter: 4,
        crates: &["cachesim", "core", "profiler", "statstack"],
        trained_entropy: false,
        deterministic: true,
        build: ch4::fig4_2_cache_mpki,
    },
    Experiment {
        name: "fig4_3_no_mlp",
        paper_ref: "Fig 4.3",
        title: "normalized execution time with and without MLP modeling",
        chapter: 4,
        crates: &["core", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch4::fig4_3_no_mlp,
    },
    Experiment {
        name: "fig4_4_cold_capacity",
        paper_ref: "Fig 4.4",
        title: "cold vs capacity LLC misses, with and without warmup",
        chapter: 4,
        crates: &["cachesim", "trace"],
        trained_entropy: false,
        deterministic: true,
        build: ch4::fig4_4_cold_capacity,
    },
    Experiment {
        name: "fig4_7_stride_classes",
        paper_ref: "Fig 4.7",
        title: "stride class ratios per static load occurrence",
        chapter: 4,
        crates: &["profiler", "workloads"],
        trained_entropy: false,
        deterministic: true,
        build: ch4::fig4_7_stride_classes,
    },
    Experiment {
        name: "fig4_9_llc_chaining",
        paper_ref: "Fig 4.9",
        title: "gcc CPI over time with and without LLC-hit chaining",
        chapter: 4,
        crates: &["core", "profiler", "sim"],
        trained_entropy: false,
        deterministic: true,
        build: ch4::fig4_9_llc_chaining,
    },
    Experiment {
        name: "fig5_2_mix_sampling",
        paper_ref: "Fig 5.2",
        title: "instruction-mix sampling error (Eq 5.1)",
        chapter: 5,
        crates: &["profiler", "trace"],
        trained_entropy: false,
        deterministic: true,
        build: ch5::fig5_2_mix_sampling,
    },
    Experiment {
        name: "fig5_4_interpolation",
        paper_ref: "Figs 5.3/5.4",
        title: "logarithmic dependence-chain interpolation error",
        chapter: 5,
        crates: &["profiler", "trace"],
        trained_entropy: false,
        deterministic: true,
        build: ch5::fig5_4_interpolation,
    },
    Experiment {
        name: "fig5_5_dep_sampling",
        paper_ref: "Fig 5.5",
        title: "micro-trace sampling error on dependence chains",
        chapter: 5,
        crates: &["profiler"],
        trained_entropy: false,
        deterministic: true,
        build: ch5::fig5_5_dep_sampling,
    },
    Experiment {
        name: "fig5_6_branch_component",
        paper_ref: "Fig 5.6",
        title: "branch component share of total CPI",
        chapter: 5,
        crates: &["sim", "uarch"],
        trained_entropy: false,
        deterministic: true,
        build: ch5::fig5_6_branch_component,
    },
    Experiment {
        name: "fig6_1_cpi_stacks",
        paper_ref: "Fig 6.1",
        title: "CPI stacks, model vs simulator, reference architecture",
        chapter: 6,
        crates: &["core", "power", "profiler", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_1_cpi_stacks,
    },
    Experiment {
        name: "fig6_3_sample_budget",
        paper_ref: "Fig 6.3",
        title: "prediction error vs profiled instruction budget",
        chapter: 6,
        crates: &["core", "profiler", "sim", "trace"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_3_sample_budget,
    },
    Experiment {
        name: "fig6_4_separate_vs_combined",
        paper_ref: "Fig 6.4",
        title: "per-micro-trace vs combined model evaluation",
        chapter: 6,
        crates: &["core"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_4_separate_vs_combined,
    },
    Experiment {
        name: "tbl6_2_component_errors",
        paper_ref: "Table 6.2",
        title: "model-variant errors as refinements are toggled",
        chapter: 6,
        crates: &["core"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::tbl6_2_component_errors,
    },
    Experiment {
        name: "fig6_5_space_performance",
        paper_ref: "Figs 6.5/6.6",
        title: "CPI error distribution across the Table 6.3 design space",
        chapter: 6,
        crates: &["core", "profiler", "sim", "uarch"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_5_space_performance,
    },
    Experiment {
        name: "fig6_8_space_power",
        paper_ref: "Figs 6.7–6.10",
        title: "power stacks and power accuracy across the design space",
        chapter: 6,
        crates: &["core", "power", "profiler", "sim", "uarch"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_8_space_power,
    },
    Experiment {
        name: "fig6_14_phases",
        paper_ref: "Fig 6.14",
        title: "phase tracking: CPI over time, model vs simulator",
        chapter: 6,
        crates: &["core", "profiler", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_14_phases,
    },
    Experiment {
        name: "fig6_15_mlp_models",
        paper_ref: "Figs 6.15–6.18",
        title: "cold-miss vs stride MLP model on the DRAM-wait component",
        chapter: 6,
        crates: &["core", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch6::fig6_15_mlp_models,
    },
    Experiment {
        name: "validation_report",
        paper_ref: "Table 6.1 claim",
        title: "differential validation: error distributions and rank agreement",
        chapter: 6,
        crates: &["dse", "sim", "validate"],
        trained_entropy: true,
        deterministic: true,
        build: extra::validation_report,
    },
    Experiment {
        name: "tbl7_1_power_constraint",
        paper_ref: "Table 7.1",
        title: "fastest design under a power budget",
        chapter: 7,
        crates: &["dse", "power", "profiler"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::tbl7_1_power_constraint,
    },
    Experiment {
        name: "fig7_3_dvfs",
        paper_ref: "Fig 7.3 / Table 7.2",
        title: "ED²P across DVFS operating points",
        chapter: 7,
        crates: &["dse", "power", "uarch"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::fig7_3_dvfs,
    },
    Experiment {
        name: "fig7_4_pareto",
        paper_ref: "Figs 7.4/7.5",
        title: "Pareto frontiers for four example workloads",
        chapter: 7,
        crates: &["dse", "profiler", "sim", "uarch"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::fig7_4_pareto,
    },
    Experiment {
        name: "fig7_7_pareto_metrics",
        paper_ref: "Figs 7.6–7.9",
        title: "space-wide error and the four pruning-quality metrics",
        chapter: 7,
        crates: &["dse", "profiler", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::fig7_7_pareto_metrics,
    },
    Experiment {
        name: "fig7_frontier_scale",
        paper_ref: "§7.4 at scale",
        title: "streamed Pareto frontier over a 103,680-point lazy design space",
        chapter: 7,
        crates: &["core", "dse", "power", "profiler", "uarch"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::fig7_frontier_scale,
    },
    Experiment {
        name: "fig7_10_empirical",
        paper_ref: "Figs 7.10–7.13",
        title: "mechanistic vs empirical (ridge regression) Pareto pruning",
        chapter: 7,
        crates: &["dse", "profiler", "sim"],
        trained_entropy: true,
        deterministic: true,
        build: ch7::fig7_10_empirical,
    },
    Experiment {
        name: "speedup",
        paper_ref: "§6.2 headline",
        title: "profile-once + model vs per-point simulation, wall-clock",
        chapter: 6,
        crates: &["core", "dse", "profiler", "sim"],
        trained_entropy: false,
        deterministic: false,
        build: extra::speedup,
    },
    Experiment {
        name: "accuracy_probe",
        paper_ref: "development aid",
        title: "model-vs-simulator accuracy probe over the whole suite",
        chapter: 6,
        crates: &["core", "sim"],
        trained_entropy: true,
        deterministic: false,
        build: extra::accuracy_probe,
    },
];

/// Look up a registry entry by name.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Resolve the experiment names a caller asked for: `all` alone is the
/// whole registry in order, anything else must name registry entries.
/// An unknown name is refused with every known name listed.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names == ["all"] {
        return Ok(REGISTRY.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            by_name(name).ok_or_else(|| {
                let known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
                format!(
                    "unknown experiment `{name}` (known: {}; or `all` alone)",
                    known.join(", ")
                )
            })
        })
        .collect()
}

/// Human heading for a thesis chapter (report sections, PAPER_MAP
/// grouping).
pub fn chapter_title(chapter: u8) -> &'static str {
    match chapter {
        3 => "Chapter 3 — The interval model and its inputs",
        4 => "Chapter 4 — Memory: StatStack, MLP and LLC chaining",
        5 => "Chapter 5 — Sampling methodology",
        6 => "Chapter 6 — Performance and power validation",
        7 => "Chapter 7 — Design-space exploration",
        _ => "Appendix",
    }
}

/// Build one registry entry's figures at `base` scale, training the
/// entropy model on demand (or reusing `trained` when the caller
/// already paid that one-time cost), and stamping each figure with its
/// regenerating [`command`](Experiment::command).
pub fn build_entry(
    entry: &Experiment,
    base: &HarnessConfig,
    trained: Option<&pmt_branch::EntropyMissModel>,
) -> Vec<Figure> {
    let mut cfg = base.clone();
    if entry.trained_entropy {
        let model = match trained {
            Some(model) => model.clone(),
            None => train_entropy_model((cfg.instructions / 4).max(100_000)),
        };
        cfg.model = cfg.model.with_entropy_model(model);
    }
    let command = entry.command();
    (entry.build)(&cfg)
        .into_iter()
        .map(|f| f.command(&command))
        .collect()
}

/// The body of `pmt figure`: build every entry at `base` scale and emit
/// its figures through the shared output path. One entropy-training
/// pass serves every entry that wants it. Each entry's panic is caught,
/// so one failing experiment does not stop the rest; returns the names
/// of the entries that panicked. When more than one entry runs, a banner
/// naming each precedes its figures.
pub fn run(entries: &[&Experiment], base: &HarnessConfig) -> Vec<&'static str> {
    let trained = entries
        .iter()
        .any(|e| e.trained_entropy)
        .then(|| train_entropy_model((base.instructions / 4).max(100_000)));
    let mut failures = Vec::new();
    for entry in entries {
        if entries.len() > 1 {
            println!("\n================================================================");
            println!("== {}  ({} — {})", entry.name, entry.paper_ref, entry.title);
            println!("================================================================");
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            build_entry(entry, base, trained.as_ref())
        }));
        match result {
            Ok(figures) => crate::emit::emit_all(&figures),
            Err(_) => {
                eprintln!("!! {} panicked", entry.name);
                failures.push(entry.name);
            }
        }
    }
    failures
}
