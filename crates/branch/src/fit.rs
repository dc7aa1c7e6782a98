//! The entropy → miss-rate linear model (thesis Fig 3.8/3.9).

use pmt_uarch::PredictorKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An ordinary-least-squares line fit with its coefficient of
/// determination.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// R² of the fit.
    pub r_squared: f64,
}

impl LinearFit {
    /// Fit `y = slope·x + intercept` by least squares.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two points.
    pub fn fit(points: &[(f64, f64)]) -> LinearFit {
        assert!(points.len() >= 2, "need at least two points");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        let (slope, intercept) = if denom.abs() < 1e-12 {
            (0.0, sy / n)
        } else {
            let a = (n * sxy - sx * sy) / denom;
            (a, (sy - a * sx) / n)
        };
        // R².
        let mean_y = sy / n;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
            .sum();
        let r_squared = if ss_tot < 1e-15 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        LinearFit {
            slope,
            intercept,
            r_squared,
        }
    }

    /// Evaluate the line.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// The trained entropy → misprediction-rate models, one line per predictor
/// family (a one-time training cost, thesis Fig 3.8).
///
/// `==` compares the trained lines as a map. Compare models with it,
/// never through their `Debug` or serialized text: the map's entries
/// print in an order that differs from one instance to the next.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EntropyMissModel {
    fits: HashMap<PredictorKind, LinearFit>,
}

impl EntropyMissModel {
    /// An empty model.
    pub fn new() -> EntropyMissModel {
        EntropyMissModel::default()
    }

    /// Train the line for one predictor from (entropy, missrate) pairs.
    pub fn train(&mut self, kind: PredictorKind, points: &[(f64, f64)]) -> LinearFit {
        let fit = LinearFit::fit(points);
        self.fits.insert(kind, fit);
        fit
    }

    /// Predict a misprediction rate from an entropy value, clamped to the
    /// meaningful range [0, 0.5].
    ///
    /// # Panics
    ///
    /// Panics if the predictor family has not been trained.
    pub fn miss_rate(&self, kind: PredictorKind, entropy: f64) -> f64 {
        self.miss_rate_fn(kind)(entropy)
    }

    /// [`miss_rate`](Self::miss_rate) with the family's line looked up
    /// once, for callers that evaluate many entropy values on one
    /// predictor.
    ///
    /// # Panics
    ///
    /// Panics if the predictor family has not been trained.
    pub fn miss_rate_fn(&self, kind: PredictorKind) -> impl Fn(f64) -> f64 + Copy {
        let fit = *self
            .fits
            .get(&kind)
            .unwrap_or_else(|| panic!("no fit trained for {kind}"));
        move |entropy| fit.predict(entropy).clamp(0.0, 0.5)
    }

    /// A reasonable default model for use without a training pass: miss
    /// rate ≈ E/2 (a random branch with E = 1 misses half the time, a
    /// fully biased one almost never), with a small floor per family.
    ///
    /// The proper workflow trains on real (entropy, missrate) pairs —
    /// see the `fig3_9_entropy_fit` experiment.
    pub fn untrained_default() -> EntropyMissModel {
        let mut m = EntropyMissModel::new();
        for kind in PredictorKind::ALL {
            let quality = match kind {
                PredictorKind::GAg => 0.52,
                PredictorKind::GAp => 0.50,
                PredictorKind::PAp => 0.47,
                PredictorKind::Gshare => 0.45,
                PredictorKind::Tournament => 0.44,
            };
            m.fits.insert(
                kind,
                LinearFit {
                    slope: quality,
                    intercept: 0.005,
                    r_squared: 0.0,
                },
            );
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        let fit = LinearFit::fit(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 1.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = if i % 2 == 0 { 0.3 } else { -0.3 };
                (x, 0.5 * x + noise)
            })
            .collect();
        let fit = LinearFit::fit(&pts);
        assert!((fit.slope - 0.5).abs() < 0.1);
        assert!(fit.r_squared < 1.0);
    }

    #[test]
    fn vertical_degenerate_is_safe() {
        let pts = vec![(1.0, 2.0), (1.0, 4.0)];
        let fit = LinearFit::fit(&pts);
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
    }

    #[test]
    fn model_clamps_predictions() {
        let mut m = EntropyMissModel::new();
        m.train(PredictorKind::GAg, &[(0.0, 0.0), (1.0, 0.9)]);
        assert_eq!(m.miss_rate(PredictorKind::GAg, 2.0), 0.5);
        assert_eq!(m.miss_rate(PredictorKind::GAg, -1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no fit trained")]
    fn untrained_family_panics() {
        EntropyMissModel::new().miss_rate(PredictorKind::PAp, 0.5);
    }

    #[test]
    fn default_model_covers_all_families() {
        let m = EntropyMissModel::untrained_default();
        for kind in PredictorKind::ALL {
            let r = m.miss_rate(kind, 0.4);
            assert!(r > 0.0 && r < 0.5, "{kind}: {r}");
        }
    }
}
