//! Structural guarantees on the figure registry: it is the single
//! source for `pmt figure`, `pmt report` and the generated
//! `docs/PAPER_MAP.md`.

use pmt_bench::{build_entry, by_name, run, select, Experiment, HarnessConfig, REGISTRY};
use std::collections::BTreeSet;

#[test]
fn registry_entries_are_well_formed() {
    let mut names = BTreeSet::new();
    for entry in REGISTRY {
        assert!(
            names.insert(entry.name),
            "duplicate registry name {}",
            entry.name
        );
        assert!(
            (3..=7).contains(&entry.chapter),
            "{}: chapter {} outside thesis range",
            entry.name,
            entry.chapter
        );
        assert!(!entry.crates.is_empty(), "{}: no crates listed", entry.name);
        assert!(!entry.paper_ref.is_empty() && !entry.title.is_empty());
    }
    assert!(!names.contains("all"), "`all` selects the whole registry");
    assert!(by_name("fig6_1_cpi_stacks").is_some());
    assert!(by_name("nonexistent").is_none());
}

/// `pmt figure` resolves names through `select`: `all` is the whole
/// registry in order, named entries come back in the order asked, and
/// an unknown name is refused with every known name listed.
#[test]
fn select_resolves_names_and_refuses_unknown_ones_listing_the_known() {
    let all = select(&["all".to_string()]).unwrap();
    let all: Vec<&str> = all.iter().map(|e| e.name).collect();
    let registry: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(all, registry);

    let names = ["fig7_4_pareto".to_string(), "tbl6_1_reference".to_string()];
    let picked: Vec<&str> = select(&names).unwrap().iter().map(|e| e.name).collect();
    assert_eq!(picked, ["fig7_4_pareto", "tbl6_1_reference"]);

    let err = match select(&["fig7_4_pareto".to_string(), "fig9_9_bogus".to_string()]) {
        Ok(_) => panic!("an unknown name must be refused"),
        Err(e) => e,
    };
    assert!(err.contains("fig9_9_bogus"), "{err}");
    for entry in REGISTRY {
        assert!(
            err.contains(entry.name),
            "{err} does not list {}",
            entry.name
        );
    }
}

/// `pmt figure all` keeps going past a panicking entry and reports it
/// by name (the CLI then exits 1 naming it).
#[test]
fn run_isolates_a_panicking_entry_and_names_it() {
    let boom = Experiment {
        name: "boom",
        paper_ref: "none",
        title: "an experiment that panics",
        chapter: 3,
        crates: &["report"],
        trained_entropy: false,
        deterministic: false,
        build: |_| panic!("boom"),
    };
    let fine = by_name("tbl6_1_reference").unwrap();
    let cfg = HarnessConfig::smoke();
    assert_eq!(run(&[&boom, fine, &boom], &cfg), ["boom", "boom"]);
    assert!(run(&[fine], &cfg).is_empty());
}

/// The generated paper map mentions every registered experiment and
/// the command that regenerates it.
#[test]
fn paper_map_covers_the_registry() {
    let map = pmt_bench::report_gen::paper_map();
    for entry in REGISTRY {
        assert!(
            map.contains(&format!("`{}`", entry.name)),
            "paper map is missing {}",
            entry.name
        );
        assert!(
            map.contains(&format!("`cargo run --release --bin {}`", entry.command())),
            "paper map is missing the command for {}",
            entry.name
        );
    }
}

/// Building the same (cheap, simulation-free) figure twice renders
/// byte-identical text, Markdown and SVG — the determinism contract of
/// the shared emit path, end to end through a real builder.
#[test]
fn figure_building_is_deterministic() {
    let entry = by_name("tbl6_1_reference").unwrap();
    let cfg = HarnessConfig::default_scale();
    let a = build_entry(entry, &cfg, None);
    let b = build_entry(entry, &cfg, None);
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(&b) {
        assert_eq!(fa.render_text(), fb.render_text());
        assert_eq!(fa.render_markdown(), fb.render_markdown());
        assert_eq!(fa.meta.command, "pmt -- figure tbl6_1_reference");
    }
}
