//! Differential suite for the branchless kernel search: on every sorted
//! slice — duplicate knots, single-point fits, extreme reuse distances —
//! `search_f64`/`search_u64` must return the *index-exact* result of the
//! `std` binary search the reference `StackDistanceModel` queries use.
//! "Some matching index" is not enough: `Ok(i)` feeds parallel
//! `floors`/`survival` arrays, so a different duplicate would change
//! predictions. This suite is the tripwire that fails loudly if a future
//! `std` release changes its probe sequence.

use pmt_core::kernels::search::{search_f64, search_u64};
use proptest::prelude::*;

fn assert_matches_std_f64(xs: &[f64], target: f64) {
    assert_eq!(
        search_f64(xs, target),
        xs.binary_search_by(|x| x.partial_cmp(&target).unwrap()),
        "f64 divergence on {xs:?} target {target}"
    );
}

fn assert_matches_std_u64(xs: &[u64], target: u64) {
    assert_eq!(
        search_u64(xs, target),
        xs.binary_search(&target),
        "u64 divergence on {xs:?} target {target}"
    );
}

/// A sorted f64 slice biased toward duplicate runs: steps are drawn from
/// a small set where most values repeat the previous knot — the shape
/// zero-survival curve segments produce.
fn sorted_with_duplicates() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0u32..4, 0..24),
        prop::collection::vec(0.0f64..10.0, 24),
    )
        .prop_map(|(kinds, raws)| {
            let mut acc = 0.0f64;
            kinds
                .iter()
                .zip(&raws)
                .map(|(kind, raw)| {
                    acc += match kind {
                        0 | 1 => 0.0, // duplicate the previous knot
                        2 => 1.0,
                        _ => *raw,
                    };
                    acc
                })
                .collect()
        })
}

proptest! {
    /// Hits: every element of every generated slice must be found at the
    /// exact index std picks (the duplicate-run discriminator).
    #[test]
    fn f64_hits_agree_with_std(xs in sorted_with_duplicates()) {
        for &x in &xs {
            assert_matches_std_f64(&xs, x);
        }
    }

    /// Misses: arbitrary targets (between, below, above all knots) must
    /// report std's insertion point.
    #[test]
    fn f64_misses_agree_with_std(
        xs in sorted_with_duplicates(),
        target in -5.0f64..200.0,
    ) {
        assert_matches_std_f64(&xs, target);
    }

    /// The u64 floors arrays: strictly increasing but with extreme jumps
    /// (reuse distances span 1 .. u64::MAX). Probe every element, its
    /// neighbours, and saturating extremes.
    #[test]
    fn u64_extreme_floors_agree_with_std(
        steps in prop::collection::vec((0u64..3, any::<u64>()), 1..16),
        probe in any::<u64>(),
    ) {
        let mut xs = Vec::with_capacity(steps.len());
        let mut acc = 0u64;
        for (kind, raw) in steps {
            let step = match kind {
                0 => 1,
                1 => raw % 1000 + 1,
                _ => raw | 1, // huge strides toward u64::MAX
            };
            acc = acc.saturating_add(step);
            xs.push(acc);
        }
        for &x in &xs {
            assert_matches_std_u64(&xs, x);
            assert_matches_std_u64(&xs, x.saturating_sub(1));
            assert_matches_std_u64(&xs, x.saturating_add(1));
        }
        assert_matches_std_u64(&xs, 0);
        assert_matches_std_u64(&xs, u64::MAX);
        assert_matches_std_u64(&xs, probe);
    }

    /// Single-point fits (the degenerate curve an empty histogram
    /// produces) at arbitrary probe offsets.
    #[test]
    fn single_point_fits_agree_with_std(knot in 0.0f64..100.0, probe in -1.0f64..101.0) {
        assert_matches_std_f64(&[knot], probe);
        assert_matches_std_f64(&[knot], knot);
    }
}

/// All-duplicate slices of every length: the worst case for probe-path
/// agreement, checked exhaustively rather than sampled.
#[test]
fn all_equal_slices_agree_with_std_exhaustively() {
    for len in 1..=33usize {
        let xs = vec![7.0f64; len];
        let std_result = xs.binary_search_by(|x| x.partial_cmp(&7.0).unwrap());
        assert_eq!(search_f64(&xs, 7.0), std_result, "len {len}");
        let ys = vec![7u64; len];
        assert_eq!(search_u64(&ys, 7), ys.binary_search(&7), "len {len}");
    }
}
