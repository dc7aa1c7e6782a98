//! Every experiment gets its suite profiles through the harness' one
//! process-wide profile memo. Its own test binary, because that memo is
//! process-wide: no other test may warm it first.

use pmt_bench::harness::{suite_profile_passes, suite_profiles};
use pmt_bench::{build_entry, by_name, profile_suite, HarnessConfig};
use std::sync::Arc;

/// `fig3_4_chains` and `fig4_7_stride_classes` both read the suite
/// profiled at one budget: exactly one profiling pass runs, and asking
/// again returns that pass' profiles. Another budget is another pass.
#[test]
fn figures_share_one_suite_profiling_pass() {
    let cfg = HarnessConfig {
        instructions: 30_000,
        ..HarnessConfig::default_scale()
    };
    assert_eq!(suite_profile_passes(), 0);
    for name in ["fig3_4_chains", "fig4_7_stride_classes"] {
        let entry = by_name(name).unwrap();
        assert!(!entry.trained_entropy, "{name} trains no entropy model");
        assert!(
            !build_entry(entry, &cfg, None).is_empty(),
            "{name} built no figure"
        );
    }
    assert_eq!(suite_profile_passes(), 1, "two figures, one profiling pass");
    assert!(Arc::ptr_eq(
        &profile_suite(&cfg),
        &suite_profiles(&cfg, 30_000)
    ));
    assert_eq!(suite_profile_passes(), 1);

    let other = suite_profiles(&cfg, 20_000);
    assert_eq!(suite_profile_passes(), 2, "a new budget profiles again");
    assert_eq!(other.len(), profile_suite(&cfg).len());
}
