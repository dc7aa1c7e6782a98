//! Cache miss-rate derivation from reuse-distance profiles via StatStack
//! (thesis §4.2): each level of the inclusive hierarchy is modeled
//! independently as a fully-associative LRU cache of the same capacity.
//!
//! Fitting the [`StackDistanceModel`] is machine-*independent* (it only
//! reads the reuse histogram); evaluating it for a concrete hierarchy is
//! machine-*dependent* but cheap (a handful of binary searches). The two
//! steps are split so [`crate::PreparedProfile`] can fit once and every
//! design point pays only for the searches. [`CacheModel::from_fitted`]
//! is the reference form of those searches; predictions answer them from
//! the prepared profile's curve arena (`kernels::arena`), a
//! bit-identical transcription of it.

use pmt_statstack::{ReuseHistogram, StackDistanceModel};
use pmt_uarch::CacheHierarchy;
use serde::{Deserialize, Serialize};

/// Per-level miss ratios for one access type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MissRatios {
    /// L1 miss ratio.
    pub l1: f64,
    /// L2 miss ratio (per access, not per L1 miss).
    pub l2: f64,
    /// L3 miss ratio (per access).
    pub l3: f64,
}

impl MissRatios {
    /// Fraction of accesses that hit exactly in L2.
    pub fn l2_hit(&self) -> f64 {
        (self.l1 - self.l2).max(0.0)
    }

    /// Fraction of accesses that hit exactly in L3 (the "LLC hits" feeding
    /// the chaining penalty, §4.8).
    pub fn l3_hit(&self) -> f64 {
        (self.l2 - self.l3).max(0.0)
    }
}

/// A fitted StatStack model's answers for one cache hierarchy, for one
/// access type.
#[derive(Clone, Copy, Debug)]
pub struct CacheModel {
    /// Critical reuse distances per data level.
    pub critical_rd: [u64; 3],
    /// Miss ratios per level.
    pub ratios: MissRatios,
    /// Cold-access fraction of the fitted histogram.
    pub(crate) cold_fraction: f64,
}

impl CacheModel {
    /// Per-level line counts seen by data accesses (L1-D, L2, L3).
    pub fn data_lines(caches: &CacheHierarchy) -> [u64; 3] {
        [caches.l1d.lines(), caches.l2.lines(), caches.l3.lines()]
    }

    /// Per-level line counts seen by instruction fetches (L1-I geometry,
    /// then the shared L2/L3).
    pub fn inst_lines(caches: &CacheHierarchy) -> [u64; 3] {
        [caches.l1i.lines(), caches.l2.lines(), caches.l3.lines()]
    }

    /// Fit StatStack to a reuse histogram and evaluate it for a hierarchy.
    pub fn fit(hist: &ReuseHistogram, caches: &CacheHierarchy) -> CacheModel {
        Self::from_fitted(
            &StackDistanceModel::from_reuse(hist),
            Self::data_lines(caches),
        )
    }

    /// Evaluate an already-fitted StatStack model for a hierarchy given as
    /// per-level line counts. This is the machine-dependent step only —
    /// six binary searches, no allocation — and the specification the
    /// arena's queries are differential-tested against.
    pub fn from_fitted(model: &StackDistanceModel, lines: [u64; 3]) -> CacheModel {
        let critical_rd = [
            model.critical_reuse_distance(lines[0]),
            model.critical_reuse_distance(lines[1]),
            model.critical_reuse_distance(lines[2]),
        ];
        let ratios = MissRatios {
            l1: model.miss_ratio(lines[0]),
            l2: model.miss_ratio(lines[1]),
            l3: model.miss_ratio(lines[2]),
        };
        CacheModel {
            critical_rd,
            ratios,
            cold_fraction: model.cold_fraction(),
        }
    }

    /// Cold-access fraction of the fitted histogram.
    pub fn cold_fraction(&self) -> f64 {
        self.cold_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_statstack::ReuseRecorder;
    use pmt_uarch::CacheHierarchy;

    fn hist_of_cycle(lines: u64, touches: u64) -> ReuseHistogram {
        let mut rec = ReuseRecorder::new();
        for i in 0..touches {
            rec.record(i % lines);
        }
        rec.histogram().clone()
    }

    #[test]
    fn l1_resident_set_has_no_misses() {
        // 256 lines (16 KB of 64 B lines) cycled: fits the 32 KB L1.
        let hist = hist_of_cycle(256, 100_000);
        let m = CacheModel::fit(&hist, &CacheHierarchy::nehalem());
        assert!(m.ratios.l1 < 0.02, "{:?}", m.ratios);
        assert!(m.ratios.l3 < 0.02);
    }

    #[test]
    fn l2_resident_set_misses_l1_only() {
        // 2048 lines = 128 KB: misses L1 (512 lines), fits L2 (4096).
        let hist = hist_of_cycle(2048, 300_000);
        let m = CacheModel::fit(&hist, &CacheHierarchy::nehalem());
        assert!(m.ratios.l1 > 0.9, "{:?}", m.ratios);
        assert!(m.ratios.l2 < 0.05, "{:?}", m.ratios);
    }

    #[test]
    fn dram_set_misses_everywhere() {
        // 262144 lines = 16 MB: beyond the 8 MB L3.
        let hist = hist_of_cycle(262_144, 600_000);
        let m = CacheModel::fit(&hist, &CacheHierarchy::nehalem());
        assert!(m.ratios.l3 > 0.9, "{:?}", m.ratios);
    }

    #[test]
    fn ratios_are_monotone_down_the_hierarchy() {
        let hist = hist_of_cycle(5_000, 200_000);
        let m = CacheModel::fit(&hist, &CacheHierarchy::nehalem());
        assert!(m.ratios.l1 >= m.ratios.l2);
        assert!(m.ratios.l2 >= m.ratios.l3);
        assert!(m.critical_rd[0] <= m.critical_rd[1]);
        assert!(m.critical_rd[1] <= m.critical_rd[2]);
    }

    #[test]
    fn l2_l3_hit_fractions() {
        let r = MissRatios {
            l1: 0.5,
            l2: 0.3,
            l3: 0.1,
        };
        assert!((r.l2_hit() - 0.2).abs() < 1e-12);
        assert!((r.l3_hit() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_fitted_matches_fit_for_every_hierarchy() {
        // The split fit — shared model, per-machine evaluation — must be
        // indistinguishable from refitting at every machine.
        let hist = hist_of_cycle(3_000, 150_000);
        let shared = StackDistanceModel::from_reuse(&hist);
        let caches = CacheHierarchy::nehalem();
        for lines in [
            CacheModel::data_lines(&caches),
            CacheModel::inst_lines(&caches),
        ] {
            let refit = CacheModel::from_fitted(&StackDistanceModel::from_reuse(&hist), lines);
            let fast = CacheModel::from_fitted(&shared, lines);
            assert_eq!(refit.ratios, fast.ratios);
            assert_eq!(refit.critical_rd, fast.critical_rd);
            assert_eq!(
                refit.cold_fraction().to_bits(),
                fast.cold_fraction().to_bits()
            );
        }
    }
}
