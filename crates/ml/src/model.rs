//! The [`ResidualModel`] artifact: training, serialization, application.

use crate::features::{feature_names, features, FEATURE_COUNT};
use crate::ridge;
use pmt_profiler::ApplicationProfile;
use pmt_uarch::MachineConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the [`ResidualModel`] JSON artifact. Bump on any breaking
/// change (field rename/removal/semantic change); appliers refuse
/// mismatches with a structured `bad_corrector_version` error, exactly
/// like `ValidationReport` consumers.
pub const ML_SCHEMA_VERSION: u32 = 1;

/// Rows processed per accumulation chunk: feature standardization and
/// the XᵀX/Xᵀy sums fold chunk partials in fixed order, so the float
/// rounding — and therefore the trained artifact's bytes — never depend
/// on anything but the row order.
const CHUNK_ROWS: usize = 64;

/// The corrected CPI/power multiplier `1 + ŷ` is clamped to this range:
/// a corrector must refine the analytical prediction, not replace it,
/// and a wild extrapolation outside the training region must not drive
/// a predicted CPI negative.
const MULTIPLIER_RANGE: (f64, f64) = (0.25, 4.0);

/// A structured training/application error: a stable machine-readable
/// `code` plus a human-readable message, mirroring the wire
/// `ErrorBody` discipline without depending on the api crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MlError {
    /// Stable error code (`bad_corrector_version`,
    /// `corrector_profile_mismatch`, `bad_corrector`, `bad_training_set`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl MlError {
    fn new(code: &'static str, message: impl Into<String>) -> MlError {
        MlError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for MlError {}

/// One supervised example, as produced by the validation sweep: the
/// analytical and simulated CPI/power of one (workload, design point).
#[derive(Clone, Debug)]
pub struct TrainingRow {
    /// Workload the profile belongs to.
    pub workload: String,
    /// The design point's full machine configuration.
    pub machine: MachineConfig,
    /// Analytical (interval model) CPI.
    pub model_cpi: f64,
    /// Reference simulator CPI.
    pub sim_cpi: f64,
    /// Analytical power (watts).
    pub model_power: f64,
    /// Reference simulator power (watts).
    pub sim_power: f64,
}

/// Training hyper-parameters. All defaults are deliberately boring: a
/// fixed seed (determinism), a small ridge penalty (the feature matrix
/// is standardized, so λ is in natural units), a 25% held-out test set
/// for the honesty metrics stored in the artifact.
#[derive(Clone, Copy, Debug)]
pub struct TrainOptions {
    /// Train/test split seed (Fisher–Yates over a seeded `StdRng`).
    pub seed: u64,
    /// Ridge penalty λ > 0.
    pub lambda: f64,
    /// Fraction of rows held out of training, in `[0, 0.9]`.
    pub test_fraction: f64,
}

impl Default for TrainOptions {
    fn default() -> TrainOptions {
        TrainOptions {
            seed: 42,
            lambda: 1e-3,
            test_fraction: 0.25,
        }
    }
}

/// The fingerprint of one profile a corrector was trained over.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadFingerprint {
    /// Workload name.
    pub workload: String,
    /// [`crate::profile_fingerprint`] of the training profile.
    pub fingerprint: String,
}

/// A trained residual corrector: standardization constants and ridge
/// weights for the relative CPI and power residuals, plus everything
/// needed to refuse misuse (schema version, profile fingerprints) and
/// to judge the model honestly (held-out before/after error).
///
/// Serialized with a stable field order and compact float formatting;
/// training is bit-deterministic, so two independent trainings over the
/// same rows produce byte-identical artifacts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResidualModel {
    /// Artifact schema version ([`ML_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Split seed the model was trained with.
    pub seed: u64,
    /// Ridge penalty λ.
    pub lambda: f64,
    /// Held-out fraction of the split.
    pub test_fraction: f64,
    /// Total training rows supplied.
    pub rows_total: usize,
    /// Rows in the training partition.
    pub rows_train: usize,
    /// Rows in the held-out partition.
    pub rows_test: usize,
    /// Fingerprints of the profiles the rows were produced from, sorted
    /// by workload name. Application against any other profile content
    /// is refused (`corrector_profile_mismatch`).
    pub profiles: Vec<WorkloadFingerprint>,
    /// Feature names, in vector order (checked against this build's
    /// [`feature_names`] on application).
    pub feature_names: Vec<String>,
    /// Per-feature training means (standardization).
    pub means: Vec<f64>,
    /// Per-feature training scales (standard deviations; 1 for constant
    /// features).
    pub scales: Vec<f64>,
    /// Ridge weights for the relative CPI residual: bias first, then one
    /// weight per standardized feature.
    pub cpi_weights: Vec<f64>,
    /// Ridge weights for the relative power residual, same layout.
    pub power_weights: Vec<f64>,
    /// Mean |relative CPI error| of the *analytical* model on the
    /// training partition.
    pub train_mean_abs_cpi_before: f64,
    /// Mean |relative CPI error| of the *corrected* model on the
    /// training partition.
    pub train_mean_abs_cpi_after: f64,
    /// Analytical mean |relative CPI error| on the held-out partition
    /// (0 when the split holds nothing out).
    pub test_mean_abs_cpi_before: f64,
    /// Corrected mean |relative CPI error| on the held-out partition.
    pub test_mean_abs_cpi_after: f64,
}

/// One corrected prediction: the analytical values with the learned
/// relative residual applied (`analytical × clamp(1 + ŷ)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorrectedPoint {
    /// Corrected cycles per instruction.
    pub cpi: f64,
    /// Corrected total power (watts).
    pub power_w: f64,
}

/// Anything carrying an analytical prediction can hand it to a
/// corrector: the optional `corrected` layer over
/// [`pmt_core::Prediction`] / [`pmt_core::PredictionSummary`].
pub trait Corrected {
    /// The analytical CPI this value carries.
    fn analytical_cpi(&self) -> f64;

    /// Apply `model` to this prediction. `analytical_power_w` is passed
    /// in because power is computed by the power model, not stored on
    /// the prediction itself.
    fn corrected(
        &self,
        model: &ResidualModel,
        profile: &ApplicationProfile,
        machine: &MachineConfig,
        analytical_power_w: f64,
    ) -> CorrectedPoint {
        model.correct(machine, profile, self.analytical_cpi(), analytical_power_w)
    }
}

impl Corrected for pmt_core::Prediction {
    fn analytical_cpi(&self) -> f64 {
        self.cpi()
    }
}

impl Corrected for pmt_core::PredictionSummary {
    fn analytical_cpi(&self) -> f64 {
        self.cpi()
    }
}

impl ResidualModel {
    /// Serialize to the stable JSON artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("residual models serialize")
    }

    /// Parse an artifact serialized with [`to_json`](Self::to_json),
    /// refusing unparsable bytes (`bad_corrector`) and wrong schema
    /// versions (`bad_corrector_version`).
    pub fn from_json(json: &str) -> Result<ResidualModel, MlError> {
        let model: ResidualModel = serde_json::from_str(json)
            .map_err(|e| MlError::new("bad_corrector", format!("unparsable corrector: {e:?}")))?;
        model.check_version()?;
        Ok(model)
    }

    /// Check the artifact's schema version against this build's.
    pub fn check_version(&self) -> Result<(), MlError> {
        if self.schema_version != ML_SCHEMA_VERSION {
            return Err(MlError::new(
                "bad_corrector_version",
                format!(
                    "corrector artifact is schema v{} but this build speaks v{}",
                    self.schema_version, ML_SCHEMA_VERSION
                ),
            ));
        }
        if self.feature_names != feature_names() {
            return Err(MlError::new(
                "bad_corrector_version",
                "corrector artifact was trained over a different feature vector".to_string(),
            ));
        }
        Ok(())
    }

    /// Whether this model was trained over exactly this profile content
    /// for `workload`.
    pub fn covers(&self, workload: &str, fingerprint: &str) -> bool {
        self.profiles
            .iter()
            .any(|p| p.workload == workload && p.fingerprint == fingerprint)
    }

    /// Strict form of [`covers`](Self::covers): a structured
    /// `corrector_profile_mismatch` error naming what differed.
    pub fn check_profile(&self, workload: &str, fingerprint: &str) -> Result<(), MlError> {
        match self.profiles.iter().find(|p| p.workload == workload) {
            None => Err(MlError::new(
                "corrector_profile_mismatch",
                format!("corrector was not trained over workload `{workload}`"),
            )),
            Some(p) if p.fingerprint != fingerprint => Err(MlError::new(
                "corrector_profile_mismatch",
                format!(
                    "corrector was trained over profile {} for `{workload}` but this profile \
                     is {fingerprint} (different trace budget or profiler settings?)",
                    p.fingerprint
                ),
            )),
            Some(_) => Ok(()),
        }
    }

    /// Apply the corrector to one analytical prediction.
    ///
    /// A zero-weight model (trained on zero residuals) returns the
    /// analytical values **bit-exactly**: the learned multiplier is
    /// `1 + 0 = 1.0` and `x * 1.0 == x` for every finite `x`.
    pub fn correct(
        &self,
        machine: &MachineConfig,
        profile: &ApplicationProfile,
        model_cpi: f64,
        model_power_w: f64,
    ) -> CorrectedPoint {
        let f = features(machine, profile, model_cpi);
        CorrectedPoint {
            cpi: model_cpi * self.multiplier(&self.cpi_weights, &f),
            power_w: model_power_w * self.multiplier(&self.power_weights, &f),
        }
    }

    /// The clamped correction multiplier `1 + wᵀz` for one weight vector.
    fn multiplier(&self, weights: &[f64], features: &[f64]) -> f64 {
        let (lo, hi) = MULTIPLIER_RANGE;
        (1.0 + self.residual(weights, features)).clamp(lo, hi)
    }

    /// The raw learned residual ŷ = w₀ + Σᵢ wᵢ₊₁ · (fᵢ − μᵢ)/σᵢ.
    fn residual(&self, weights: &[f64], features: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), features.len() + 1);
        let mut y = weights[0];
        for i in 0..features.len() {
            y += weights[i + 1] * (features[i] - self.means[i]) / self.scales[i];
        }
        y
    }
}

/// The deterministic train/test split: Fisher–Yates over a seeded
/// `StdRng`, the first `⌊n·test_fraction⌋` shuffled indices held out.
/// Returns `(train, test)`, each sorted ascending. The two halves
/// partition `0..n` exactly, and the same `(n, test_fraction, seed)`
/// always produces the same split — both property-tested.
pub fn split_indices(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let n_test = (n as f64 * test_fraction).floor() as usize;
    let mut test = order[..n_test.min(n)].to_vec();
    let mut train = order[n_test.min(n)..].to_vec();
    train.sort_unstable();
    test.sort_unstable();
    (train, test)
}

/// Train a ridge corrector from validation rows.
///
/// `profiles` must contain the application profile of every workload
/// named by a row — the same profiles the rows' analytical predictions
/// were computed from; their fingerprints are recorded in the artifact
/// and enforced on application.
pub fn train(
    rows: &[TrainingRow],
    profiles: &[ApplicationProfile],
    options: &TrainOptions,
) -> Result<ResidualModel, MlError> {
    if rows.len() < 2 {
        return Err(MlError::new(
            "bad_training_set",
            format!("need at least 2 training rows, got {}", rows.len()),
        ));
    }
    if !(options.lambda > 0.0 && options.lambda.is_finite()) {
        return Err(MlError::new(
            "bad_training_set",
            format!(
                "ridge penalty must be a positive finite number, got {}",
                options.lambda
            ),
        ));
    }
    if !(0.0..=0.9).contains(&options.test_fraction) {
        return Err(MlError::new(
            "bad_training_set",
            format!(
                "test fraction must be in [0, 0.9], got {}",
                options.test_fraction
            ),
        ));
    }
    let by_name: BTreeMap<&str, &ApplicationProfile> =
        profiles.iter().map(|p| (p.name.as_str(), p)).collect();
    for row in rows {
        if !by_name.contains_key(row.workload.as_str()) {
            return Err(MlError::new(
                "bad_training_set",
                format!("no profile supplied for workload `{}`", row.workload),
            ));
        }
        let finite_positive = [row.model_cpi, row.sim_cpi, row.model_power, row.sim_power]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0);
        if !finite_positive {
            return Err(MlError::new(
                "bad_training_set",
                format!(
                    "row for `{}` on `{}` has non-finite or non-positive values",
                    row.workload, row.machine.name
                ),
            ));
        }
    }

    // Features and relative-residual targets, in row order.
    let x: Vec<[f64; FEATURE_COUNT]> = rows
        .iter()
        .map(|r| features(&r.machine, by_name[r.workload.as_str()], r.model_cpi))
        .collect();
    let y_cpi: Vec<f64> = rows.iter().map(|r| r.sim_cpi / r.model_cpi - 1.0).collect();
    let y_pow: Vec<f64> = rows
        .iter()
        .map(|r| r.sim_power / r.model_power - 1.0)
        .collect();

    let (train_idx, test_idx) = split_indices(rows.len(), options.test_fraction, options.seed);
    debug_assert!(!train_idx.is_empty(), "test fraction is capped at 0.9");

    // Standardization constants over the training partition, chunk-ordered.
    let (means, scales) = moments_chunked(&x, &train_idx);

    // Normal equations (ZᵀZ + λI) w = Zᵀy over the standardized training
    // rows with a leading bias column, accumulated chunk-ordered.
    const K: usize = FEATURE_COUNT + 1;
    let mut gram = vec![vec![0.0f64; K]; K];
    let mut rhs_cpi = vec![0.0f64; K];
    let mut rhs_pow = vec![0.0f64; K];
    for chunk in train_idx.chunks(CHUNK_ROWS) {
        let mut g = vec![vec![0.0f64; K]; K];
        let mut bc = [0.0f64; K];
        let mut bp = [0.0f64; K];
        for &i in chunk {
            let z = standardized(&x[i], &means, &scales);
            for a in 0..K {
                for b in a..K {
                    g[a][b] += z[a] * z[b];
                }
                bc[a] += z[a] * y_cpi[i];
                bp[a] += z[a] * y_pow[i];
            }
        }
        for a in 0..K {
            for b in a..K {
                gram[a][b] += g[a][b];
            }
            rhs_cpi[a] += bc[a];
            rhs_pow[a] += bp[a];
        }
    }
    // Mirroring the upper triangle reads row `b` while writing row `a`.
    #[allow(clippy::needless_range_loop)]
    for a in 0..K {
        for b in 0..a {
            gram[a][b] = gram[b][a];
        }
        gram[a][a] += options.lambda;
    }
    let cpi_weights = ridge::solve(&gram, &rhs_cpi)
        .map_err(|e| MlError::new("bad_training_set", format!("CPI ridge solve failed: {e}")))?;
    let power_weights = ridge::solve(&gram, &rhs_pow)
        .map_err(|e| MlError::new("bad_training_set", format!("power ridge solve failed: {e}")))?;

    let mut fingerprints: Vec<WorkloadFingerprint> = by_name
        .iter()
        .filter(|(name, _)| rows.iter().any(|r| r.workload == **name))
        .map(|(name, profile)| WorkloadFingerprint {
            workload: name.to_string(),
            fingerprint: crate::profile_fingerprint(profile),
        })
        .collect();
    fingerprints.sort_by(|a, b| a.workload.cmp(&b.workload));

    let mut model = ResidualModel {
        schema_version: ML_SCHEMA_VERSION,
        seed: options.seed,
        lambda: options.lambda,
        test_fraction: options.test_fraction,
        rows_total: rows.len(),
        rows_train: train_idx.len(),
        rows_test: test_idx.len(),
        profiles: fingerprints,
        feature_names: feature_names(),
        means,
        scales,
        cpi_weights,
        power_weights,
        train_mean_abs_cpi_before: 0.0,
        train_mean_abs_cpi_after: 0.0,
        test_mean_abs_cpi_before: 0.0,
        test_mean_abs_cpi_after: 0.0,
    };
    let (before, after) = partition_error(&model, rows, &by_name, &train_idx);
    model.train_mean_abs_cpi_before = before;
    model.train_mean_abs_cpi_after = after;
    let (before, after) = partition_error(&model, rows, &by_name, &test_idx);
    model.test_mean_abs_cpi_before = before;
    model.test_mean_abs_cpi_after = after;
    Ok(model)
}

/// Mean |relative CPI error| of the analytical and the corrected model
/// over one index partition (`(0, 0)` for an empty partition).
fn partition_error(
    model: &ResidualModel,
    rows: &[TrainingRow],
    by_name: &BTreeMap<&str, &ApplicationProfile>,
    idx: &[usize],
) -> (f64, f64) {
    if idx.is_empty() {
        return (0.0, 0.0);
    }
    let mut before = 0.0;
    let mut after = 0.0;
    for &i in idx {
        let row = &rows[i];
        let corrected = model.correct(
            &row.machine,
            by_name[row.workload.as_str()],
            row.model_cpi,
            row.model_power,
        );
        before += ((row.model_cpi - row.sim_cpi) / row.sim_cpi).abs();
        after += ((corrected.cpi - row.sim_cpi) / row.sim_cpi).abs();
    }
    (before / idx.len() as f64, after / idx.len() as f64)
}

/// Per-feature mean and scale (stddev, or 1 for constants) over the
/// selected rows, accumulated in fixed chunk order.
fn moments_chunked(x: &[[f64; FEATURE_COUNT]], idx: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let n = idx.len() as f64;
    let mut sum = [0.0f64; FEATURE_COUNT];
    let mut sum_sq = [0.0f64; FEATURE_COUNT];
    for chunk in idx.chunks(CHUNK_ROWS) {
        let mut s = [0.0f64; FEATURE_COUNT];
        let mut q = [0.0f64; FEATURE_COUNT];
        for &i in chunk {
            for f in 0..FEATURE_COUNT {
                s[f] += x[i][f];
                q[f] += x[i][f] * x[i][f];
            }
        }
        for f in 0..FEATURE_COUNT {
            sum[f] += s[f];
            sum_sq[f] += q[f];
        }
    }
    let means: Vec<f64> = sum.iter().map(|s| s / n).collect();
    let scales: Vec<f64> = (0..FEATURE_COUNT)
        .map(|f| {
            let var = (sum_sq[f] / n - means[f] * means[f]).max(0.0);
            let sd = var.sqrt();
            if sd > 0.0 {
                sd
            } else {
                1.0
            }
        })
        .collect();
    (means, scales)
}

/// Standardize one feature row with a leading bias 1.
fn standardized(
    f: &[f64; FEATURE_COUNT],
    means: &[f64],
    scales: &[f64],
) -> [f64; FEATURE_COUNT + 1] {
    let mut z = [0.0f64; FEATURE_COUNT + 1];
    z[0] = 1.0;
    for i in 0..FEATURE_COUNT {
        z[i + 1] = (f[i] - means[i]) / scales[i];
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_workloads::WorkloadSpec;

    fn profile() -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(10_000))
    }

    fn rows(profile: &ApplicationProfile) -> Vec<TrainingRow> {
        pmt_uarch::DesignSpace::small()
            .enumerate()
            .into_iter()
            .take(12)
            .enumerate()
            .map(|(i, p)| {
                let cpi = 0.8 + 0.05 * i as f64;
                let power = 10.0 + i as f64;
                TrainingRow {
                    workload: profile.name.clone(),
                    machine: p.machine,
                    model_cpi: cpi,
                    // A simple systematic bias the corrector can learn.
                    sim_cpi: cpi * 1.1,
                    model_power: power,
                    sim_power: power * 0.95,
                }
            })
            .collect()
    }

    #[test]
    fn trains_applies_and_round_trips() {
        let profile = profile();
        let rows = rows(&profile);
        let model = train(
            &rows,
            std::slice::from_ref(&profile),
            &TrainOptions::default(),
        )
        .unwrap();
        assert_eq!(model.schema_version, ML_SCHEMA_VERSION);
        assert_eq!(model.rows_total, 12);
        assert_eq!(model.rows_train + model.rows_test, 12);
        assert_eq!(model.profiles.len(), 1);
        assert!(model.train_mean_abs_cpi_after < model.train_mean_abs_cpi_before);

        // The learned correction moves a training point toward its sim.
        let r = &rows[0];
        let corrected = model.correct(&r.machine, &profile, r.model_cpi, r.model_power);
        assert!((corrected.cpi - r.sim_cpi).abs() < (r.model_cpi - r.sim_cpi).abs());

        let back = ResidualModel::from_json(&model.to_json()).unwrap();
        assert_eq!(model, back);
        assert_eq!(model.to_json(), back.to_json());
    }

    #[test]
    fn training_is_byte_deterministic() {
        let profile = profile();
        let rows = rows(&profile);
        let opts = TrainOptions::default();
        let a = train(&rows, std::slice::from_ref(&profile), &opts).unwrap();
        let b = train(&rows, std::slice::from_ref(&profile), &opts).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let profile = profile();
        let model = train(
            &rows(&profile),
            std::slice::from_ref(&profile),
            &TrainOptions::default(),
        )
        .unwrap();
        let json = model
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":99");
        let err = ResidualModel::from_json(&json).unwrap_err();
        assert_eq!(err.code, "bad_corrector_version");
        assert!(err.message.contains("v99"));
    }

    #[test]
    fn mismatched_profile_is_refused() {
        let profile = profile();
        let model = train(
            &rows(&profile),
            std::slice::from_ref(&profile),
            &TrainOptions::default(),
        )
        .unwrap();
        let fp = crate::profile_fingerprint(&profile);
        assert!(model.covers("astar", &fp));
        model.check_profile("astar", &fp).unwrap();
        assert_eq!(
            model
                .check_profile("astar", "0000000000000000")
                .unwrap_err()
                .code,
            "corrector_profile_mismatch"
        );
        assert_eq!(
            model.check_profile("mcf", &fp).unwrap_err().code,
            "corrector_profile_mismatch"
        );
    }

    #[test]
    fn bad_training_sets_are_structured_errors() {
        let profile = profile();
        let rows = rows(&profile);
        let err = train(
            &rows[..1],
            std::slice::from_ref(&profile),
            &TrainOptions::default(),
        );
        assert_eq!(err.unwrap_err().code, "bad_training_set");
        let opts = TrainOptions {
            lambda: 0.0,
            ..TrainOptions::default()
        };
        let err = train(&rows, std::slice::from_ref(&profile), &opts);
        assert_eq!(err.unwrap_err().code, "bad_training_set");
        let err = train(&rows, &[], &TrainOptions::default());
        assert_eq!(err.unwrap_err().code, "bad_training_set");
    }
}
