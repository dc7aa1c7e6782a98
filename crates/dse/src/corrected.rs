//! The optional corrected layer over a streamed sweep: apply a trained
//! [`ResidualModel`] to the survivors of a [`StreamingSummary`]
//! **after** the fold.
//!
//! Correction deliberately never participates in the accumulators: the
//! frontier, top-K and moments are folded from analytical predictions
//! only, so a sweep's bytes — and with them the serial ≡ parallel and
//! CLI/daemon byte-identity contracts — are the same whether or not a
//! corrector is loaded. What the corrector changes is the *reading*
//! of the survivors: each frontier/top-K entry's design id is decoded
//! back into its machine configuration and the learned residual is
//! applied to that entry's carried CPI/power. The handful of survivors
//! (frontier + K entries) is bounded by the answer, not the space, so
//! this stays O(answer) like the accumulators themselves.

use crate::space::LazyDesignSpace;
use crate::streaming::{StreamPoint, StreamingSummary};
use pmt_ml::ResidualModel;
use pmt_profiler::ApplicationProfile;

/// One summary survivor with the learned residual applied: the
/// analytical values it was folded with, side by side with the
/// corrected ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectedEntry {
    /// Dense design id within the swept space.
    pub id: usize,
    /// Analytical CPI (exactly the folded value).
    pub cpi: f64,
    /// Analytical power in watts (exactly the folded value).
    pub power_w: f64,
    /// Corrected CPI.
    pub corrected_cpi: f64,
    /// Corrected power in watts.
    pub corrected_power_w: f64,
}

/// Correct the top-K survivors of a summary. Order is preserved (still
/// ranked by the *analytical* objective — the fold's verdict); the
/// summary itself is untouched.
pub fn corrected_top<S: LazyDesignSpace + ?Sized>(
    summary: &StreamingSummary,
    space: &S,
    model: &ResidualModel,
    profile: &ApplicationProfile,
) -> Vec<CorrectedEntry> {
    summary
        .top
        .iter()
        .map(|e| correct_one(e.id, &e.item, space, model, profile))
        .collect()
}

/// Correct the Pareto-frontier survivors of a summary, in the
/// frontier's deterministic id order; the summary itself is untouched.
pub fn corrected_frontier<S: LazyDesignSpace + ?Sized>(
    summary: &StreamingSummary,
    space: &S,
    model: &ResidualModel,
    profile: &ApplicationProfile,
) -> Vec<CorrectedEntry> {
    summary
        .frontier
        .iter()
        .map(|e| correct_one(e.id, &e.item, space, model, profile))
        .collect()
}

fn correct_one<S: LazyDesignSpace + ?Sized>(
    id: usize,
    point: &StreamPoint,
    space: &S,
    model: &ResidualModel,
    profile: &ApplicationProfile,
) -> CorrectedEntry {
    let machine = space.point_at(id).machine;
    let corrected = model.correct(&machine, profile, point.cpi, point.power);
    CorrectedEntry {
        id,
        cpi: point.cpi,
        power_w: point.power,
        corrected_cpi: corrected.cpi,
        corrected_power_w: corrected.power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingSweep;
    use pmt_ml::{train, TrainOptions, TrainingRow};
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_uarch::DesignSpace;
    use pmt_workloads::WorkloadSpec;

    fn profile() -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(10_000))
    }

    /// Training rows with a given systematic CPI bias over the small grid.
    fn model_with_bias(profile: &ApplicationProfile, bias: f64) -> ResidualModel {
        let rows: Vec<TrainingRow> = DesignSpace::small()
            .enumerate()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let cpi = 0.8 + 0.05 * i as f64;
                let power = 10.0 + i as f64;
                TrainingRow {
                    workload: profile.name.clone(),
                    machine: p.machine,
                    model_cpi: cpi,
                    sim_cpi: cpi * (1.0 + bias),
                    model_power: power,
                    sim_power: power * (1.0 + bias),
                }
            })
            .collect();
        train(
            &rows,
            std::slice::from_ref(profile),
            &TrainOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn corrects_survivors_without_touching_the_summary() {
        let profile = profile();
        let space = DesignSpace::small();
        let summary = StreamingSweep::new(&profile).top_k(5).run(&space);
        let before = serde_json::to_string(&summary).unwrap();

        let model = model_with_bias(&profile, 0.1);
        let top = corrected_top(&summary, &space, &model, &profile);
        let frontier = corrected_frontier(&summary, &space, &model, &profile);
        assert_eq!(top.len(), summary.top.len());
        assert_eq!(frontier.len(), summary.frontier.len());
        for (c, e) in top.iter().zip(&summary.top) {
            assert_eq!(c.id, e.id);
            assert_eq!(c.cpi.to_bits(), e.item.cpi.to_bits());
            // A systematic +10% bias learned → correction moves upward.
            assert!(c.corrected_cpi > c.cpi);
        }
        // The fold's output is byte-identical with the corrector around.
        assert_eq!(serde_json::to_string(&summary).unwrap(), before);
    }

    #[test]
    fn zero_residual_model_is_bit_exact_passthrough() {
        let profile = profile();
        let space = DesignSpace::small();
        let summary = StreamingSweep::new(&profile).top_k(3).run(&space);
        let model = model_with_bias(&profile, 0.0);
        for c in corrected_top(&summary, &space, &model, &profile) {
            assert_eq!(c.corrected_cpi.to_bits(), c.cpi.to_bits());
            assert_eq!(c.corrected_power_w.to_bits(), c.power_w.to_bits());
        }
    }
}
