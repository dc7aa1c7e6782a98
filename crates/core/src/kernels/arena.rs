//! The fitted StatStack curves of a [`PreparedProfile`], in query
//! order.
//!
//! A profile has one reuse histogram per query site — the instruction
//! path, the global load/store histograms, and a loads/stores pair per
//! micro-trace window. [`CurveArena`] fits each one once and keeps the
//! fits indexed by [`CurveId::arena_index`] evaluation order, so every
//! design point answers its miss-ratio / critical-reuse-distance queries
//! from each curve's contiguous sorted `(floors, survival, stack)` knots
//! with the branchless [`search_f64`]/[`search_u64`]. The prepared
//! profile builds its arena once, on its first prediction, and every
//! prediction after that — single-point, sweep chunk or served flight —
//! borrows it; the fits are the only copy of the curves.
//!
//! Each curve keeps its own allocation rather than one flat block for
//! all curves: a query only ever reads one curve, and a flat block is
//! large enough (about 3.7 MB for astar at 1M instructions) that the
//! allocator returns it to the OS when a one-off prediction's profile is
//! dropped, so the next one refaults every page — about 1,080 page
//! faults, about 3 ms on a 2-core Xeon VM. Per-curve blocks are small and
//! stay on the heap.
//!
//! The query routines are line-for-line transcriptions of
//! `StackDistanceModel::critical_reuse_distance` / `miss_ratio`
//! (including the `Err(0)`/saturated edge cases and the
//! interpolate-within-segment step), with one deliberate saving: a
//! query computes each level's critical distance once and feeds
//! it straight into the miss-ratio lookup, where the scalar
//! `CacheModel::from_fitted` recomputes it inside `miss_ratio`. Same
//! deterministic function of the same inputs, half the searches —
//! bit-identical results, pinned by the differential tests below and the
//! conformance suite.
//!
//! [`PreparedProfile`]: crate::PreparedProfile
//! [`CurveId::arena_index`]: crate::model::CurveId::arena_index

use crate::cache_model::{CacheModel, MissRatios};
use crate::kernels::search::{search_f64, search_u64};
use pmt_profiler::ApplicationProfile;
use pmt_statstack::StackDistanceModel;

/// All fitted curves of one profile, in
/// [`CurveId`](crate::model::CurveId) evaluation order.
pub(crate) struct CurveArena {
    curves: Vec<StackDistanceModel>,
}

impl CurveArena {
    /// Fit every StatStack curve of `profile` in evaluation order:
    /// instruction, global loads, global stores, then each window's
    /// loads/stores pair.
    pub(crate) fn new(profile: &ApplicationProfile) -> CurveArena {
        let memory = &profile.memory;
        let curves = [&memory.inst, &memory.loads, &memory.stores]
            .into_iter()
            .chain(
                profile
                    .micro_traces
                    .iter()
                    .flat_map(|t| [&t.loads, &t.stores]),
            )
            .map(StackDistanceModel::from_reuse)
            .collect();
        CurveArena { curves }
    }

    /// Answer every query `CacheModel::from_fitted` would make for curve
    /// `curve` at per-level line counts `lines`, bit-identically.
    pub(crate) fn evaluate(&self, curve: u32, lines: [u64; 3]) -> CacheModel {
        self.evaluate_by(curve, lines, |_, lines| self.level(curve, lines))
    }

    /// Assemble curve `curve`'s [`CacheModel`] at `lines` from one
    /// [`level`](Self::level) answer per cache level, asked of `level`
    /// as `(level index, that level's line count)` — the seam through
    /// which a memo answers each level on its own.
    pub(crate) fn evaluate_by(
        &self,
        curve: u32,
        lines: [u64; 3],
        mut level: impl FnMut(usize, u64) -> (u64, f64),
    ) -> CacheModel {
        let [l1, l2, l3] = [0, 1, 2].map(|i| level(i, lines[i]));
        CacheModel {
            critical_rd: [l1.0, l2.0, l3.0],
            ratios: MissRatios {
                l1: l1.1,
                l2: l2.1,
                l3: l3.1,
            },
            cold_fraction: self.curves[curve as usize].cold_fraction(),
        }
    }

    /// One cache level's queries on curve `curve`: the critical reuse
    /// distance at `lines` and the miss ratio it gives. Reads nothing but
    /// the curve and the level's own line count.
    pub(crate) fn level(&self, curve: u32, lines: u64) -> (u64, f64) {
        let model = &self.curves[curve as usize];
        let crit = critical_rd(model, lines);
        (crit, miss_ratio(model, lines, crit))
    }
}

/// `StackDistanceModel::critical_reuse_distance`, transcribed onto the
/// kernel search.
fn critical_rd(model: &StackDistanceModel, cache_lines: u64) -> u64 {
    if model.total_accesses() == 0 {
        return u64::MAX;
    }
    let (floors, survival, stack) = model.curve();
    let target = cache_lines as f64;
    match search_f64(stack, target) {
        Ok(i) => floors[i],
        Err(0) => cache_lines,
        Err(i) if i == stack.len() => u64::MAX,
        Err(i) => {
            let base_sd = stack[i - 1];
            let slope = survival[i - 1];
            if slope <= f64::EPSILON {
                floors[i]
            } else {
                floors[i - 1] + ((target - base_sd) / slope).ceil() as u64
            }
        }
    }
}

/// `StackDistanceModel::miss_ratio`, transcribed onto the kernel
/// search — except `crit` arrives precomputed (see the module docs)
/// instead of being re-derived from `cache_lines`.
fn miss_ratio(model: &StackDistanceModel, cache_lines: u64, crit: u64) -> f64 {
    if model.total_accesses() == 0 {
        return 0.0;
    }
    if cache_lines == 0 {
        return 1.0;
    }
    let cold_fraction = model.cold_fraction();
    if crit == u64::MAX {
        return cold_fraction;
    }
    let (floors, survival, _) = model.curve();
    match search_u64(floors, crit) {
        Ok(i) => survival[i],
        Err(0) => 1.0,
        Err(i) => survival[i - 1],
    }
    .max(cold_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arena_of(models: &[&StackDistanceModel]) -> CurveArena {
        CurveArena {
            curves: models.iter().map(|&m| m.clone()).collect(),
        }
    }

    /// Deserialize an adversarial hand-crafted curve (the fields are
    /// private; serde is the supported way to materialize arbitrary
    /// shapes, e.g. from snapshots of other processes' fits).
    fn model_from_parts(
        floors: &[u64],
        survival: &[f64],
        stack: &[f64],
        cold_fraction: f64,
        total: u64,
    ) -> StackDistanceModel {
        let ints = |xs: &[u64]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let reals = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        serde_json::from_str(&format!(
            "{{\"floors\":[{}],\"survival\":[{}],\"stack\":[{}],\"cold_fraction\":{:?},\"total\":{}}}",
            ints(floors),
            reals(survival),
            reals(stack),
            cold_fraction,
            total,
        ))
        .expect("valid StackDistanceModel shape")
    }

    fn assert_agrees(model: &StackDistanceModel, lines: [u64; 3]) {
        let arena = arena_of(&[model]);
        let fast = arena.evaluate(0, lines);
        let reference = CacheModel::from_fitted(model, lines);
        assert_eq!(fast.critical_rd, reference.critical_rd, "crit at {lines:?}");
        for (a, b) in [
            (fast.ratios.l1, reference.ratios.l1),
            (fast.ratios.l2, reference.ratios.l2),
            (fast.ratios.l3, reference.ratios.l3),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "ratio {a} vs {b} at {lines:?}");
        }
        assert_eq!(
            fast.cold_fraction.to_bits(),
            reference.cold_fraction().to_bits()
        );
    }

    /// An adversarial fitted-curve shape: monotone floors (as `from_reuse`
    /// produces), survival in [0, 1] *including zero runs* (which create
    /// duplicate stack knots), non-decreasing stack values, extreme
    /// totals/cold fractions.
    fn curve_strategy() -> impl Strategy<Value = StackDistanceModel> {
        (
            (1usize..10, 0u32..4),
            prop::collection::vec(0.0f64..=1.0, 10),
            prop::collection::vec(0u64..100, 10),
            prop::collection::vec(0.0f64..50.0, 10),
            0.0f64..=1.0,
        )
            .prop_map(
                |((len, total_sel), survs, floor_steps, stack_steps, cold)| {
                    let total = match total_sel {
                        0 => 0, // the empty-fit fast path
                        1 => 1,
                        2 => 12_345,
                        _ => u64::MAX,
                    };
                    // Cumulative floors (strictly increasing) and cumulative
                    // stack (non-decreasing; a zero step duplicates a knot).
                    let mut floors = Vec::with_capacity(len);
                    let mut stack = Vec::with_capacity(len);
                    let mut floor = 0u64;
                    let mut sd = 0.0f64;
                    for i in 0..len {
                        floor += floor_steps[i] + 1;
                        floors.push(floor);
                        sd += if survs[i] < 0.25 { 0.0 } else { stack_steps[i] };
                        stack.push(sd);
                    }
                    model_from_parts(&floors, &survs[..len], &stack, cold, total)
                },
            )
    }

    proptest! {
        /// The SoA transcription must agree bit-for-bit with the scalar
        /// queries on arbitrary adversarial curves — duplicate knots,
        /// zero-survival segments, empty (`total == 0`) fits, extreme
        /// line counts.
        #[test]
        fn arena_matches_scalar_queries_on_adversarial_curves(
            model in curve_strategy(),
            l1_sel in 0u32..3,
            l1_val in 1u64..5000,
            l2 in 1u64..100_000,
            l3_sel in 0u32..3,
            l3_val in 1u64..1_000_000,
        ) {
            let l1 = match l1_sel {
                0 => 0, // a zero-line level hits miss_ratio's early return
                1 => l1_val,
                _ => u64::MAX / 2,
            };
            let l3 = if l3_sel == 0 { u64::MAX } else { l3_val };
            assert_agrees(&model, [l1, l2, l3]);
        }
    }

    #[test]
    fn single_point_fit_agrees_everywhere() {
        // The degenerate fit `from_reuse` produces for an empty histogram
        // and a hand-crafted single-knot curve.
        let empty = model_from_parts(&[0], &[0.0], &[0.0], 0.0, 0);
        let single = model_from_parts(&[4], &[0.5], &[2.0], 0.25, 100);
        for lines in [[0u64, 0, 0], [1, 2, 3], [512, 4096, 131_072]] {
            assert_agrees(&empty, lines);
            assert_agrees(&single, lines);
        }
    }

    #[test]
    fn arena_spans_keep_curves_separate() {
        let a = model_from_parts(&[1, 2], &[0.9, 0.1], &[1.0, 1.9], 0.1, 10);
        let b = model_from_parts(&[5, 9, 12], &[0.8, 0.4, 0.0], &[3.0, 6.2, 7.4], 0.3, 99);
        let arena = arena_of(&[&a, &b]);
        let lines = [2, 4, 8];
        let fast_a = arena.evaluate(0, lines);
        let fast_b = arena.evaluate(1, lines);
        let ref_a = CacheModel::from_fitted(&a, lines);
        let ref_b = CacheModel::from_fitted(&b, lines);
        assert_eq!(fast_a.critical_rd, ref_a.critical_rd);
        assert_eq!(fast_b.critical_rd, ref_b.critical_rd);
        assert_eq!(fast_a.ratios.l3.to_bits(), ref_a.ratios.l3.to_bits());
        assert_eq!(fast_b.ratios.l3.to_bits(), ref_b.ratios.l3.to_bits());
    }
}
