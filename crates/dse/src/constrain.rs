//! Constrained design selection (thesis §7.2, Table 7.1) and cheap
//! pre-prediction filters for streaming sweeps.
//!
//! Two kinds of constraint live here:
//!
//! * [`DesignConstraints`] — bounds on the machine *description*
//!   (width, ROB, cache capacities, MSHRs, clock). These are checked
//!   **before** any model work, so a streaming sweep rejects points for
//!   the cost of a mixed-radix decode — the cheap end of the funnel.
//! * The selection helpers below ([`fastest_under_power`] etc.) — bounds
//!   on *predicted* quantities, applied after the model has run.

use crate::sweep::PointOutcome;
use pmt_uarch::DesignPoint;
use serde::{Deserialize, Serialize};

/// Cheap machine-description constraints, evaluated per design point
/// *before* prediction. Unset fields admit everything; every bound is
/// inclusive.
///
/// ```
/// use pmt_dse::constrain::DesignConstraints;
/// use pmt_dse::LazyDesignSpace;
/// use pmt_uarch::DesignSpace;
///
/// let c = DesignConstraints::new().max_dispatch_width(4).max_rob(128);
/// let admitted = DesignSpace::thesis_table_6_3()
///     .iter_points()
///     .filter(|p| c.admits(p))
///     .count();
/// assert_eq!(admitted, 108); // 2 of 3 widths × 2 of 3 ROBs × 27 cache combos
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DesignConstraints {
    /// Largest admitted dispatch width.
    pub max_dispatch_width: Option<u32>,
    /// Largest admitted ROB size.
    pub max_rob: Option<u32>,
    /// Largest admitted L1-D capacity (KiB).
    pub max_l1_kb: Option<u32>,
    /// Largest admitted L2 capacity (KiB).
    pub max_l2_kb: Option<u32>,
    /// Largest admitted L3 capacity (KiB).
    pub max_l3_kb: Option<u32>,
    /// Largest admitted MSHR depth.
    pub max_mshr_entries: Option<u32>,
    /// Fastest admitted clock (GHz).
    pub max_frequency_ghz: Option<f64>,
}

impl DesignConstraints {
    /// No constraints: admits every point.
    pub fn new() -> DesignConstraints {
        DesignConstraints::default()
    }

    /// Bound the dispatch width.
    pub fn max_dispatch_width(mut self, width: u32) -> Self {
        self.max_dispatch_width = Some(width);
        self
    }

    /// Bound the ROB size.
    pub fn max_rob(mut self, rob: u32) -> Self {
        self.max_rob = Some(rob);
        self
    }

    /// Bound the L1-D capacity (KiB).
    pub fn max_l1_kb(mut self, kb: u32) -> Self {
        self.max_l1_kb = Some(kb);
        self
    }

    /// Bound the L2 capacity (KiB).
    pub fn max_l2_kb(mut self, kb: u32) -> Self {
        self.max_l2_kb = Some(kb);
        self
    }

    /// Bound the L3 capacity (KiB).
    pub fn max_l3_kb(mut self, kb: u32) -> Self {
        self.max_l3_kb = Some(kb);
        self
    }

    /// Bound the MSHR depth.
    pub fn max_mshr_entries(mut self, entries: u32) -> Self {
        self.max_mshr_entries = Some(entries);
        self
    }

    /// Bound the clock frequency (GHz).
    pub fn max_frequency_ghz(mut self, ghz: f64) -> Self {
        self.max_frequency_ghz = Some(ghz);
        self
    }

    /// Whether every field is unset (admits everything trivially).
    pub fn is_unconstrained(&self) -> bool {
        *self == DesignConstraints::default()
    }

    /// Whether `point`'s machine description satisfies every set bound.
    /// Reads the machine config directly, so it works for any
    /// [`LazyDesignSpace`](crate::LazyDesignSpace) implementation, not
    /// just the thesis grid.
    pub fn admits(&self, point: &DesignPoint) -> bool {
        let m = &point.machine;
        self.max_dispatch_width
            .is_none_or(|v| m.core.dispatch_width <= v)
            && self.max_rob.is_none_or(|v| m.core.rob_size <= v)
            && self.max_l1_kb.is_none_or(|v| m.caches.l1d.size_kb <= v)
            && self.max_l2_kb.is_none_or(|v| m.caches.l2.size_kb <= v)
            && self.max_l3_kb.is_none_or(|v| m.caches.l3.size_kb <= v)
            && self
                .max_mshr_entries
                .is_none_or(|v| m.mem.mshr_entries <= v)
            && self
                .max_frequency_ghz
                .is_none_or(|v| m.core.frequency_ghz <= v)
    }
}

/// The fastest design whose predicted power fits `budget_w`, by model
/// coordinates. Returns `None` when nothing fits.
pub fn fastest_under_power(outcomes: &[PointOutcome], budget_w: f64) -> Option<&PointOutcome> {
    outcomes
        .iter()
        .filter(|o| o.model_power <= budget_w)
        .min_by(|a, b| a.model_seconds.partial_cmp(&b.model_seconds).unwrap())
}

/// The lowest-power design whose predicted delay fits `deadline_s`.
pub fn frugalest_under_delay(outcomes: &[PointOutcome], deadline_s: f64) -> Option<&PointOutcome> {
    outcomes
        .iter()
        .filter(|o| o.model_seconds <= deadline_s)
        .min_by(|a, b| a.model_power.partial_cmp(&b.model_power).unwrap())
}

/// The design minimizing energy (power × delay) outright.
pub fn min_energy(outcomes: &[PointOutcome]) -> Option<&PointOutcome> {
    outcomes.iter().min_by(|a, b| {
        (a.model_power * a.model_seconds)
            .partial_cmp(&(b.model_power * b.model_seconds))
            .unwrap()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LazyDesignSpace;

    fn outcome(id: usize, seconds: f64, power: f64) -> PointOutcome {
        PointOutcome {
            design_id: id,
            workload: "w".into(),
            model_cpi: 1.0,
            model_power: power,
            model_seconds: seconds,
            sim_cpi: None,
            sim_power: None,
            sim_seconds: None,
        }
    }

    fn sample() -> Vec<PointOutcome> {
        vec![
            outcome(0, 1.0, 30.0),
            outcome(1, 1.5, 18.0),
            outcome(2, 2.5, 12.0),
            outcome(3, 0.8, 45.0),
        ]
    }

    #[test]
    fn power_budget_picks_fastest_fitting() {
        let o = sample();
        assert_eq!(fastest_under_power(&o, 20.0).unwrap().design_id, 1);
        assert_eq!(fastest_under_power(&o, 100.0).unwrap().design_id, 3);
        assert!(fastest_under_power(&o, 5.0).is_none());
    }

    #[test]
    fn deadline_picks_frugalest_fitting() {
        let o = sample();
        assert_eq!(frugalest_under_delay(&o, 1.6).unwrap().design_id, 1);
        assert_eq!(frugalest_under_delay(&o, 0.9).unwrap().design_id, 3);
        assert!(frugalest_under_delay(&o, 0.1).is_none());
    }

    #[test]
    fn min_energy_balances_both() {
        let o = sample();
        // Energies: 30, 27, 30, 36 → design 1.
        assert_eq!(min_energy(&o).unwrap().design_id, 1);
    }

    #[test]
    fn unset_constraints_admit_everything() {
        let c = DesignConstraints::new();
        assert!(c.is_unconstrained());
        for p in pmt_uarch::DesignSpace::small().iter_points() {
            assert!(c.admits(&p));
        }
    }

    #[test]
    fn each_bound_rejects_exactly_its_axis() {
        let space = pmt_uarch::DesignSpace::small();
        let points: Vec<_> = space.iter_points().collect();
        let widths = |c: &DesignConstraints| points.iter().filter(|p| c.admits(p)).count();
        assert_eq!(widths(&DesignConstraints::new().max_dispatch_width(2)), 16);
        assert_eq!(widths(&DesignConstraints::new().max_rob(64)), 16);
        assert_eq!(widths(&DesignConstraints::new().max_l1_kb(16)), 16);
        assert_eq!(widths(&DesignConstraints::new().max_l2_kb(128)), 16);
        assert_eq!(widths(&DesignConstraints::new().max_l3_kb(2048)), 16);
        // Bounds below every value reject the whole space; the reference
        // MSHR depth (10) and clock (2.66 GHz) are shared by all points.
        assert_eq!(widths(&DesignConstraints::new().max_mshr_entries(4)), 0);
        assert_eq!(widths(&DesignConstraints::new().max_frequency_ghz(2.0)), 0);
        assert_eq!(widths(&DesignConstraints::new().max_mshr_entries(10)), 32);
        // Bounds compose conjunctively.
        let c = DesignConstraints::new().max_dispatch_width(2).max_rob(64);
        assert!(!c.is_unconstrained());
        assert_eq!(widths(&c), 8);
    }
}
