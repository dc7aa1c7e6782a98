//! The host's SIMD level and the lane width batch tests straddle.
//!
//! The lanes of the batched kernels are the machines of a run
//! ([`BatchPredictor`](crate::BatchPredictor); `kernels::batch`, "Runs"):
//! one core + cache stage per window, then each machine's memory stage.
//! No kernel dispatches on the level today: the run evaluator steps
//! through its lanes with the same scalar IEEE-754 arithmetic as the
//! single-point model. The level is probed once and recorded with
//! pmtbench's perf records, so a record names the vector width its host
//! offered. A kernel that dispatches on the level again should bring
//! back a way to force the scalar path, so CI can pin both.

use std::sync::OnceLock;

/// f64 lanes in one 256-bit (AVX2) vector. Batch tests probe sizes
/// straddling this boundary (lane−1, lane, lane+1).
pub const LANES: usize = 4;

/// The widest vector unit the host offers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// No vector unit.
    Scalar,
    /// 128-bit SSE2 lanes (the x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 lanes.
    Avx2,
}

impl SimdLevel {
    /// Short label for perf records and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The host's SIMD level, probed once: the best supported x86-64 level
/// (other architectures report scalar).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86-64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_labeled() {
        let level = simd_level();
        assert_eq!(level, simd_level());
        assert!(!level.label().is_empty());
    }
}
