//! Model configuration.

use pmt_branch::EntropyMissModel;
use serde::{Deserialize, Serialize};

/// Which MLP model to use (thesis §4.4 vs §4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MlpModelKind {
    /// The cold-miss MLP model (Eq 4.1–4.3): leans on cold-miss
    /// burstiness; best for short traces without warmup.
    ColdMiss,
    /// The stride MLP model (§4.5): rebuilds a virtual instruction stream
    /// from per-static-load distributions; required when cold misses are
    /// scarce and for prefetcher modeling.
    Stride,
}

/// Whether to evaluate the model per micro-trace or on the combined
/// profile (thesis §6.2.2 compares both; per-sample wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvaluationMode {
    /// One evaluation on the aggregate profile (ISPASS'15).
    Combined,
    /// Evaluate every micro-trace separately and sum (TC'16).
    PerMicroTrace,
}

/// Tunable model composition; the defaults are the thesis' best variant.
/// Equal configs compute equal memo values from one profile, which is
/// what lets a prepared profile hand a warm memo to the next predictor
/// built under an equal config.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// MLP model choice.
    pub mlp_model: MlpModelKind,
    /// Evaluation granularity.
    pub evaluation: EvaluationMode,
    /// Include the LLC-hit chaining penalty (§4.8).
    pub llc_chaining: bool,
    /// Apply the MSHR soft cap to MLP (Eq 4.4).
    pub mshr_cap: bool,
    /// Include memory-bus queuing delay (Eq 4.5–4.6).
    pub bus_queuing: bool,
    /// Model the stride prefetcher when the machine has one (Eq 4.13).
    pub prefetch_model: bool,
    /// The entropy → miss-rate model (train via
    /// [`EntropyMissModel::train`]; the default is an untrained heuristic
    /// line).
    pub entropy_model: EntropyMissModel,
}

impl ModelConfig {
    /// The thesis' best variant: stride MLP, per-micro-trace evaluation,
    /// all refinements on.
    pub fn thesis_best() -> ModelConfig {
        ModelConfig {
            mlp_model: MlpModelKind::Stride,
            evaluation: EvaluationMode::PerMicroTrace,
            llc_chaining: true,
            mshr_cap: true,
            bus_queuing: true,
            prefetch_model: true,
            entropy_model: EntropyMissModel::untrained_default(),
        }
    }

    /// The ISPASS'15 variant: cold-miss MLP, combined evaluation.
    pub fn ispass_2015() -> ModelConfig {
        ModelConfig {
            mlp_model: MlpModelKind::ColdMiss,
            evaluation: EvaluationMode::Combined,
            ..Self::thesis_best()
        }
    }

    /// Builder-style MLP model override.
    pub fn with_mlp(mut self, kind: MlpModelKind) -> ModelConfig {
        self.mlp_model = kind;
        self
    }

    /// Builder-style evaluation override.
    pub fn with_evaluation(mut self, mode: EvaluationMode) -> ModelConfig {
        self.evaluation = mode;
        self
    }

    /// Builder-style entropy-model override.
    pub fn with_entropy_model(mut self, model: EntropyMissModel) -> ModelConfig {
        self.entropy_model = model;
        self
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::thesis_best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_thesis_best() {
        let c = ModelConfig::default();
        assert_eq!(c.mlp_model, MlpModelKind::Stride);
        assert_eq!(c.evaluation, EvaluationMode::PerMicroTrace);
        assert!(c.llc_chaining && c.mshr_cap && c.bus_queuing);
    }

    #[test]
    fn ispass_variant_differs() {
        let c = ModelConfig::ispass_2015();
        assert_eq!(c.mlp_model, MlpModelKind::ColdMiss);
        assert_eq!(c.evaluation, EvaluationMode::Combined);
    }
}
