//! Golden snapshots of the renderers: one SVG and one Markdown figure.
//!
//! Any byte of drift in the SVG or Markdown output — coordinate
//! rounding, palette, escaping, table layout — fails here. After an
//! intentional renderer change, regenerate with
//! `PMT_UPDATE_GOLDEN=1 cargo test -p pmt-report --test golden`
//! (the PR 2 convention shared with `tests/validation_report.rs`).

use pmt_report::{fmt, BarChart, Figure, LineSeries, ScatterPlot, ScatterSeries, Series, Table};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("PMT_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with PMT_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "{name} drifted from its golden snapshot; if intentional, \
         regenerate with PMT_UPDATE_GOLDEN=1"
    );
}

/// A fixed stacked-bar figure exercising escaping, negative segments and
/// the legend.
fn sample_bar() -> Figure {
    Figure::bar(
        "sample_stack",
        "Fig 6.1",
        "CPI stacks, model vs simulator <sample & escape test>",
        BarChart {
            categories: vec!["astar".into(), "mcf|pipe".into(), "gcc".into()],
            series: vec![
                Series {
                    name: "base".into(),
                    values: vec![0.45, 0.52, 0.4871],
                },
                Series {
                    name: "branch".into(),
                    values: vec![0.05, 0.002, 0.11],
                },
                Series {
                    name: "dram".into(),
                    values: vec![0.3, 1.25, -0.01],
                },
            ],
            stacked: true,
            y_label: "CPI".into(),
            decimals: 3,
        },
    )
    .command("fig6_1_cpi_stacks")
    .note("mean |CPI error| 7.6% (thesis §6.2.1: 7.6%)")
}

/// A fixed scatter + overlay figure (the Pareto shape).
fn sample_scatter() -> Figure {
    Figure::scatter(
        "sample_pareto",
        "Fig 7.4",
        "Pareto frontier, bzip2",
        ScatterPlot {
            x_label: "seconds".into(),
            y_label: "watts".into(),
            series: vec![ScatterSeries {
                name: "model".into(),
                points: vec![
                    (1.0e-4, 30.0),
                    (2.0e-4, 18.0),
                    (3.5e-4, 12.5),
                    (2.5e-4, 28.0),
                ],
            }],
            overlay: Some(LineSeries {
                name: "front".into(),
                points: vec![(1.0e-4, 30.0), (2.0e-4, 18.0), (3.5e-4, 12.5)],
            }),
            decimals: 3,
        },
    )
}

/// A fixed table figure (the error-breakdown shape).
fn sample_table() -> Figure {
    Figure::table(
        "sample_errors",
        "Table 6.2",
        "model-variant errors",
        Table {
            columns: vec!["variant".into(), "mean |e|".into(), "max".into()],
            rows: vec![
                vec!["full model".into(), fmt::pct(0.076), fmt::pct(0.21)],
                vec!["no MLP".into(), fmt::pct(0.246), fmt::pct(0.96)],
            ],
        },
    )
    .note("thesis: 7.6% / 24.6%")
}

#[test]
fn svg_snapshot_is_stable() {
    check("sample_stack.svg", &sample_bar().render_svg());
    check("sample_pareto.svg", &sample_scatter().render_svg());
}

#[test]
fn markdown_snapshot_is_stable() {
    check("sample_stack.md", &sample_bar().render_markdown());
    check("sample_errors.md", &sample_table().render_markdown());
}

#[test]
fn text_snapshot_is_stable() {
    check("sample_errors.txt", &sample_table().render_text());
}

/// Rendering the same figure value twice — across threads — produces
/// identical bytes (the determinism contract the checked-in
/// `docs/figures/` relies on).
#[test]
fn rendering_is_deterministic() {
    let fig = sample_bar();
    let first = fig.render_svg();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let fig = fig.clone();
            std::thread::spawn(move || (fig.render_svg(), fig.render_markdown()))
        })
        .collect();
    for h in handles {
        let (svg, md) = h.join().unwrap();
        assert_eq!(first, svg);
        assert_eq!(fig.render_markdown(), md);
    }
}
