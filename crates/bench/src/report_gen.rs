//! `pmt report`: regenerate the reproduction document from the figure
//! registry.
//!
//! Runs the full pipeline — profile → predict → sweep → validate — by
//! driving every deterministic [`crate::figures::REGISTRY`] entry in
//! thesis order, then writes:
//!
//! * `<out>/REPRODUCTION.md` — the chaptered document with one section
//!   per figure and `figures/<id>.svg` image references,
//! * `<out>/figures/*.svg` — the deterministic chart renderings,
//! * `<out>/PAPER_MAP.md` — the experiment ↔ paper-artifact index
//!   generated from the registry metadata.
//!
//! Reference simulations go through the harness' process-wide cache
//! ([`crate::harness::shared_sim_cache`]), so one that several figures
//! share runs once per regeneration. `pmt report --cache FILE` (or
//! `PMT_SIM_CACHE`) loads that cache from a file and saves it back, so a
//! warm regeneration re-runs only the perfect-mode and interval-sampled
//! simulations the cache key cannot describe (Figs 3.7, 4.9, 6.14).
//! All output is a pure function of the scale knobs: two runs
//! at the same scale are bit-identical, which is what lets CI regenerate
//! the smoke-scale document and `git diff --exit-code docs/`.

use crate::figures::{build_entry, chapter_title, REGISTRY};
use crate::harness::{train_entropy_model, HarnessConfig};
use pmt_report::{Chapter, Report};
use std::path::Path;

/// Build the full report at the current scale (respecting `--smoke` /
/// `PMT_*` env knobs, exactly like `pmt figure`).
pub fn generate() -> Report {
    let base = HarnessConfig::default_scale();
    // The one-time entropy training pass (thesis Fig 3.8), shared by
    // every builder that wants it.
    let trained = train_entropy_model((base.instructions / 4).max(100_000));

    let preamble = format!(
        "A regenerable, chapter-by-chapter reproduction of the thesis' \
         figures and tables, rendered from the same typed `Figure` values \
         the experiments print through `pmt figure`.\n\n\
         * Scale: **{} instructions per workload** (regenerate with \
         `cargo run --release --bin pmt -- report`; add `--smoke` for the \
         CI scale checked in here, or set `PMT_INSTRUCTIONS` / \
         `PMT_SPACE_STRIDE` / `PMT_SIM_INSTRUCTIONS`).\n\
         * Determinism: every figure is a pure function of the scale \
         knobs — repeated runs produce byte-identical Markdown and SVG, \
         and CI fails if this checked-in copy goes stale.\n\
         * Index: see [PAPER_MAP.md](PAPER_MAP.md) for the experiment ↔ \
         paper-artifact mapping and each experiment's `pmt figure` command.",
        base.instructions
    );
    let mut report = Report::new(
        "Reproduction report — micro-architecture independent analytical \
         processor performance and power modeling",
        &preamble,
    );
    for chapter_no in 3u8..=7 {
        let mut chapter = Chapter::new(chapter_title(chapter_no), "");
        for entry in REGISTRY {
            if entry.chapter != chapter_no || !entry.deterministic {
                continue;
            }
            chapter
                .figures
                .extend(build_entry(entry, &base, Some(&trained)));
        }
        if !chapter.figures.is_empty() {
            report = report.chapter(chapter);
        }
    }
    report
}

/// The `PAPER_MAP.md` content: every experiment mapped to its paper
/// artifact, the crates it exercises and the command that runs it —
/// generated from the registry metadata, never hand-edited.
pub fn paper_map() -> String {
    let mut out = String::new();
    out.push_str(
        "# Paper map\n\n\
         Every experiment mapped to the thesis artifact it reproduces, \
         the workspace crates it exercises, and the command that \
         regenerates it. `pmt figure` takes one or more experiment names, \
         or `all` for the whole registry. All commands accept `--smoke` (or \
         `PMT_SMOKE=1`) for the tiny-budget CI pipeline. How the crates \
         fit together — and where each thesis *equation* (rather than \
         figure) lives — is documented in \
         [ARCHITECTURE.md](ARCHITECTURE.md).\n\n\
         *Generated by `pmt report` from the figure registry \
         (`crates/bench/src/figures/mod.rs`) — do not edit by hand.*\n\n",
    );
    out.push_str("| experiment | reproduces | chapter | crates exercised | command |\n");
    out.push_str("|:--|:--|:--|:--|:--|\n");
    for entry in REGISTRY {
        let crates: Vec<String> = entry.crates.iter().map(|c| format!("`{c}`")).collect();
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | `cargo run --release --bin {}` |\n",
            entry.name,
            entry.paper_ref,
            entry.chapter,
            crates.join(", "),
            entry.command()
        ));
    }
    out.push_str(
        "\nNon-deterministic experiments (wall-clock timing, development \
         probes) run from the same registry but stay out of the generated \
         `REPRODUCTION.md`.\n",
    );
    out
}

/// Write the report document, its SVG figures and the paper map under
/// `out_dir`. Returns the number of files written.
pub fn write(report: &Report, out_dir: &Path) -> Result<usize, String> {
    let fig_dir = out_dir.join("figures");
    std::fs::create_dir_all(&fig_dir).map_err(|e| format!("{}: {e}", fig_dir.display()))?;
    let mut written = 0usize;
    let md_path = out_dir.join("REPRODUCTION.md");
    std::fs::write(&md_path, report.render_markdown())
        .map_err(|e| format!("{}: {e}", md_path.display()))?;
    written += 1;
    for (name, svg) in report.svg_files() {
        let path = fig_dir.join(name);
        std::fs::write(&path, svg).map_err(|e| format!("{}: {e}", path.display()))?;
        written += 1;
    }
    let map_path = out_dir.join("PAPER_MAP.md");
    std::fs::write(&map_path, paper_map()).map_err(|e| format!("{}: {e}", map_path.display()))?;
    written += 1;
    Ok(written)
}
