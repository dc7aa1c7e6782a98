//! Every experiment gets its ground truth through the harness' one
//! process-wide simulation cache. Its own test binary, because that
//! cache is process-wide: no other test may warm it first.

use pmt_bench::harness::{shared_sim_cache, train_entropy_model};
use pmt_bench::{build_entry, by_name, HarnessConfig};
use pmt_workloads::suite;

/// `fig6_1`, `tbl6_2` (five model variants) and `fig6_15` (two MLP
/// models on two machines) all compare against the suite simulated at
/// one budget: exactly one pass per machine runs, and rebuilding a
/// figure simulates nothing.
#[test]
fn figures_share_one_simulation_pass_per_machine() {
    let cfg = HarnessConfig {
        instructions: 30_000,
        ..HarnessConfig::default_scale()
    };
    let trained = train_entropy_model(30_000);
    let build = |name: &str| build_entry(by_name(name).unwrap(), &cfg, Some(&trained));

    for name in [
        "fig6_1_cpi_stacks",
        "tbl6_2_component_errors",
        "fig6_15_mlp_models",
    ] {
        assert!(!build(name).is_empty(), "{name} built no figure");
    }
    let cache = shared_sim_cache();
    // One pass on `nehalem`, one on `nehalem_with_prefetcher`.
    let misses = cache.stats().misses;
    assert_eq!(misses, 2 * suite().len() as u64);

    build("fig6_1_cpi_stacks");
    assert_eq!(
        cache.stats().misses,
        misses,
        "a rebuilt figure re-simulated"
    );
}
