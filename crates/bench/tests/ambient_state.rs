//! The experiment scale is the `HarnessConfig` value a caller builds,
//! never ambient process state. Its own test binary with a single test,
//! because the test sets environment variables: no other test may run
//! beside it in this process.

use pmt_bench::{build_entry, by_name, HarnessConfig};
use pmt_report::Figure;

fn reference_table_text(cfg: &HarnessConfig) -> Vec<String> {
    build_entry(by_name("tbl6_1_reference").unwrap(), cfg, None)
        .iter()
        .map(Figure::render_text)
        .collect()
}

/// Environment variables that once rescaled the experiments (smoke mode,
/// the instruction budget, the sweep stride, the per-point simulation
/// budget) change nothing: the full scale stays full, the stride is the
/// one the figure asks for, and a figure's text is the same with and
/// without them.
#[test]
fn environment_variables_do_not_change_the_scale() {
    let before = reference_table_text(&HarnessConfig::default_scale());
    for (name, value) in [
        ("PMT_SMOKE", "1"),
        ("PMT_INSTRUCTIONS", "1234"),
        ("PMT_SPACE_STRIDE", "5"),
        ("PMT_SIM_INSTRUCTIONS", "7"),
    ] {
        std::env::set_var(name, value);
    }

    let full = HarnessConfig::default_scale();
    assert_eq!(full.instructions, 1_000_000);
    assert!(!full.smoke);
    assert_eq!(full.space_stride(9), 9);
    assert_eq!(reference_table_text(&full), before);

    let smoke = HarnessConfig::smoke();
    assert_eq!((smoke.instructions, smoke.smoke), (30_000, true));
    assert_eq!(smoke.space_stride(9), 27);
}
