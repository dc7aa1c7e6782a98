//! Chapter 5 figures: the sampling methodology and its error bounds.

use crate::harness::{parallel_map, simulate_suite, HarnessConfig};
use pmt_profiler::{DependenceProfile, Profiler, ProfilerConfig};
use pmt_report::{fmt, BarChart, Figure, Series, Table};
use pmt_trace::{collect_trace, UopClass};
use pmt_uarch::{CpiComponent, MachineConfig};
use pmt_workloads::suite;

fn pct3(x: f64) -> String {
    format!("{}%", fmt::f64(x * 100.0, 3))
}

fn pct2(x: f64) -> String {
    format!("{}%", fmt::f64(x * 100.0, 2))
}

/// Fig 5.2 / Eq 5.1: instruction-mix sampling error.
pub fn fig5_2_mix_sampling(cfg: &HarnessConfig) -> Vec<Figure> {
    let rows = parallel_map(suite(), |spec| {
        let p = cfg.profile(&spec, cfg.instructions);
        let errs = p.mix.sampling_error(&p.full_mix);
        (spec.name.clone(), errs)
    });
    let mut worst: f64 = 0.0;
    let mut total = 0.0;
    let mut table_rows = Vec::new();
    for (name, errs) in &rows {
        let mean = errs.iter().sum::<f64>() / UopClass::COUNT as f64;
        let max = errs.iter().cloned().fold(0.0f64, f64::max);
        table_rows.push(vec![name.clone(), pct3(mean), pct3(max)]);
        worst = worst.max(max);
        total += mean;
    }
    vec![Figure::table(
        "fig5_2",
        "Fig 5.2",
        "per-class sampling error of the instruction mix (Eq 5.1)",
        Table {
            columns: ["workload", "mean err", "max err"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: table_rows,
        },
    )
    .note(format!(
        "sampling rate {}",
        fmt::f64(cfg.profiler.sampling.sample_rate(), 3)
    ))
    .note(format!(
        "suite mean {}, worst class {} (thesis: 0.08% mean, 1.8% max)",
        pct3(total / rows.len() as f64),
        pct2(worst)
    ))]
}

/// Figs 5.3/5.4: error of the logarithmic dependence-chain
/// interpolation: profile chains on the full 16-step grid, rebuild a
/// coarse grid (every other point), compare at the skipped sizes.
pub fn fig5_4_interpolation(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(100_000);
    let fine: Vec<u32> = (1..=16).map(|i| i * 16).collect();
    let rows = parallel_map(suite(), |spec| {
        let uops = collect_trace(spec.trace(n), u64::MAX);
        let full = DependenceProfile::profile(&uops, &fine);
        let coarse_grid: Vec<u32> = fine.iter().copied().step_by(2).collect();
        let coarse = DependenceProfile::profile(&uops, &coarse_grid);
        // Compare at the skipped grid points.
        let mut errs = [0.0f64; 3];
        let mut count = 0;
        for &rob in fine.iter().skip(1).step_by(2) {
            let pairs = [
                (full.ap(rob), coarse.ap(rob)),
                (full.abp(rob), coarse.abp(rob)),
                (full.cp(rob), coarse.cp(rob)),
            ];
            for (i, (truth, interp)) in pairs.iter().enumerate() {
                if *truth > 0.0 {
                    errs[i] += (interp - truth).abs() / truth;
                }
            }
            count += 1;
        }
        for e in errs.iter_mut() {
            *e /= count as f64;
        }
        (spec.name.clone(), errs)
    });
    vec![chain_error_table(
        "fig5_4",
        "Figs 5.3/5.4",
        "interpolation error for AP / ABP / CP",
        &rows,
        "(thesis: 0.34% / 0.23% / 0.61%)",
    )]
}

/// Fig 5.5: dependence-chain error introduced by micro-trace sampling.
pub fn fig5_5_dep_sampling(cfg: &HarnessConfig) -> Vec<Figure> {
    let n = cfg.instructions.min(300_000);
    let rows = parallel_map(suite(), |spec| {
        let sampled = cfg.profile(&spec, n);
        let full = Profiler::new(ProfilerConfig::exhaustive(n))
            .profile_named(&spec.name, &mut spec.trace(n));
        let rob = 128;
        let rel = |a: f64, b: f64| if b > 0.0 { (a - b).abs() / b } else { 0.0 };
        (
            spec.name.clone(),
            [
                rel(sampled.deps.ap(rob), full.deps.ap(rob)),
                rel(sampled.deps.abp(rob), full.deps.abp(rob)),
                rel(sampled.deps.cp(rob), full.deps.cp(rob)),
            ],
        )
    });
    vec![chain_error_table(
        "fig5_5",
        "Fig 5.5",
        "micro-trace sampling error on dependence chains (ROB 128)",
        &rows,
        "(thesis: 0.45% / 4.22% / 0.34%)",
    )]
}

/// Shared AP/ABP/CP error-table shape of Figs 5.4 and 5.5.
fn chain_error_table(
    id: &str,
    paper_ref: &str,
    title: &str,
    rows: &[(String, [f64; 3])],
    thesis: &str,
) -> Figure {
    let mut sums = [0.0f64; 3];
    let table_rows = rows
        .iter()
        .map(|(name, e)| {
            for i in 0..3 {
                sums[i] += e[i];
            }
            vec![name.clone(), pct2(e[0]), pct2(e[1]), pct2(e[2])]
        })
        .collect();
    let n_rows = rows.len() as f64;
    Figure::table(
        id,
        paper_ref,
        title,
        Table {
            columns: ["workload", "AP", "ABP", "CP"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows: table_rows,
        },
    )
    .note(format!(
        "suite means: AP {} ABP {} CP {}",
        pct2(sums[0] / n_rows),
        pct2(sums[1] / n_rows),
        pct2(sums[2] / n_rows)
    ))
    .note(thesis)
}

/// Fig 5.6: relative contribution of the branch component to total
/// execution time (simulator CPI stacks).
pub fn fig5_6_branch_component(cfg: &HarnessConfig) -> Vec<Figure> {
    let machine = MachineConfig::nehalem();
    let sims = simulate_suite(&machine, cfg.instructions.min(400_000));
    let chart = BarChart {
        categories: suite().into_iter().map(|spec| spec.name).collect(),
        series: vec![Series {
            name: "branch share".into(),
            values: sims
                .iter()
                .map(|r| r.cpi_stack.get(CpiComponent::Branch) / r.cpi() * 100.0)
                .collect(),
        }],
        stacked: false,
        y_label: "branch component share of CPI (%)".into(),
        decimals: 1,
    };
    vec![Figure::bar(
        "fig5_6",
        "Fig 5.6",
        "branch component share of total CPI (simulator)",
        chart,
    )
    .note("(thesis: the branch component is small for most benchmarks)")]
}
