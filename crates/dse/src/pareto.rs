//! Pareto frontiers and pruning-quality metrics (thesis §7.4).
//!
//! Two representations share one dominance rule:
//!
//! * [`ParetoFront`] classifies a *materialized* point set (which designs
//!   are optimal, by index) — the §7.4 pruning-metric workhorse,
//! * [`ParetoAccumulator`] maintains the non-dominated subset *online*,
//!   one push at a time in bounded memory — what the streaming sweeps
//!   fold millions of points through. Strict dominance is transitive, so
//!   the surviving set is exactly the global non-dominated subset no
//!   matter the push or [`merge`](ParetoAccumulator::merge) order;
//!   [`into_sorted`](ParetoAccumulator::into_sorted) then fixes the
//!   output order by id, making parallel and serial folds bit-identical.
//!
//! [`ParetoFront::of`] is itself built on the accumulator, so the two can
//! never disagree.

use serde::{Deserialize, Serialize};

/// Whether `a` strictly dominates `b` (≤ on both axes, < on at least
/// one; both axes minimized).
#[inline]
fn dominates(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// One surviving frontier member of a [`ParetoAccumulator`]: the dense
/// id it was pushed under, its (delay, power) coordinates, and the
/// caller's payload (e.g. a full streamed outcome).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontEntry<T> {
    /// Dense design id (also the deterministic output sort key).
    pub id: usize,
    /// (delay, power) coordinates, both minimized.
    pub coords: (f64, f64),
    /// Caller payload carried along with the point.
    pub item: T,
}

// The vendored serde derive does not handle generics; these mirror what
// it would generate for the concrete fields.
impl<T: Serialize> Serialize for FrontEntry<T> {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"id\":");
        self.id.to_json(out);
        out.push_str(",\"coords\":");
        self.coords.to_json(out);
        out.push_str(",\"item\":");
        self.item.to_json(out);
        out.push('}');
    }
}

impl<T: Deserialize> Deserialize for FrontEntry<T> {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::json::Error> {
        let mut id = None;
        let mut coords = None;
        let mut item = None;
        p.object_start()?;
        while let Some(key) = p.next_key()? {
            match key.as_str() {
                "id" => id = Some(Deserialize::from_json(p)?),
                "coords" => coords = Some(Deserialize::from_json(p)?),
                "item" => item = Some(Deserialize::from_json(p)?),
                _ => p.skip_value()?,
            }
        }
        Ok(FrontEntry {
            id: id.ok_or_else(|| serde::json::Error::missing("id"))?,
            coords: coords.ok_or_else(|| serde::json::Error::missing("coords"))?,
            item: item.ok_or_else(|| serde::json::Error::missing("item"))?,
        })
    }
}

/// An online Pareto frontier over (delay, power) points, both minimized:
/// push one point at a time, merge partial folds, read the surviving
/// non-dominated subset. Memory is bounded by the frontier size, not the
/// stream length.
///
/// ```
/// use pmt_dse::ParetoAccumulator;
///
/// let mut front = ParetoAccumulator::new();
/// assert!(front.push(0, (1.0, 10.0), ()));
/// assert!(front.push(1, (2.0, 5.0), ()));
/// assert!(!front.push(2, (2.5, 11.0), ())); // dominated by point 0
/// assert!(front.push(3, (0.5, 20.0), ()));
/// assert_eq!(front.ids(), vec![0, 1, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ParetoAccumulator<T = ()> {
    entries: Vec<FrontEntry<T>>,
}

impl<T> ParetoAccumulator<T> {
    /// An empty frontier.
    pub fn new() -> ParetoAccumulator<T> {
        ParetoAccumulator {
            entries: Vec::new(),
        }
    }

    /// Offer one point. Returns whether it joined the frontier (it may
    /// evict previously accepted points it dominates). Duplicate
    /// coordinates are all kept, matching [`ParetoFront::of`].
    pub fn push(&mut self, id: usize, coords: (f64, f64), item: T) -> bool {
        if self.entries.iter().any(|e| dominates(e.coords, coords)) {
            return false;
        }
        self.entries.retain(|e| !dominates(coords, e.coords));
        self.entries.push(FrontEntry { id, coords, item });
        true
    }

    /// Merge another frontier in (set-union semantics: dominance is
    /// re-checked both ways, so one fold's survivors that the other
    /// fold dominates are evicted here).
    pub fn merge(&mut self, other: ParetoAccumulator<T>) {
        for e in other.entries {
            self.push(e.id, e.coords, e.item);
        }
    }

    /// Current number of frontier members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no point has survived (or none was pushed).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Surviving members in insertion order (use
    /// [`into_sorted`](Self::into_sorted) for the deterministic order).
    pub fn entries(&self) -> &[FrontEntry<T>] {
        &self.entries
    }

    /// Surviving ids, sorted ascending.
    pub fn ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Consume into the frontier sorted by id — a pure function of the
    /// pushed *set*, independent of push and merge order.
    pub fn into_sorted(mut self) -> Vec<FrontEntry<T>> {
        self.entries.sort_by_key(|e| e.id);
        self.entries
    }
}

/// The Pareto-optimal subset of a set of (delay, power) points, both
/// minimized.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParetoFront {
    optimal: Vec<bool>,
}

impl ParetoFront {
    /// Classify every point. `points` are (delay, power) pairs; smaller is
    /// better on both axes. Duplicate coordinates are all kept optimal.
    pub fn of(points: &[(f64, f64)]) -> ParetoFront {
        let mut acc: ParetoAccumulator = ParetoAccumulator::new();
        for (i, &p) in points.iter().enumerate() {
            acc.push(i, p, ());
        }
        let mut optimal = vec![false; points.len()];
        for e in acc.entries() {
            optimal[e.id] = true;
        }
        ParetoFront { optimal }
    }

    /// Whether point `i` is non-dominated.
    pub fn is_optimal(&self, i: usize) -> bool {
        self.optimal[i]
    }

    /// Indices of the non-dominated points.
    pub fn indices(&self) -> Vec<usize> {
        (0..self.optimal.len())
            .filter(|&i| self.optimal[i])
            .collect()
    }

    /// Number of points classified.
    pub fn len(&self) -> usize {
        self.optimal.len()
    }

    /// Whether the front is empty (no points).
    pub fn is_empty(&self) -> bool {
        self.optimal.is_empty()
    }
}

/// The four pruning metrics of thesis §7.4, comparing the designs the
/// *model* selects as Pareto-optimal against the simulator's truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PruningQuality {
    /// Fraction of truly optimal designs the model found (TP/(TP+FN)).
    pub sensitivity: f64,
    /// Fraction of truly non-optimal designs the model excluded
    /// (TN/(TN+FP)).
    pub specificity: f64,
    /// Overall classification accuracy ((TP+TN)/N).
    pub accuracy: f64,
    /// Hypervolume ratio: HV(true coordinates of model-selected designs) /
    /// HV(true front) — 1.0 means the selection spans the whole frontier
    /// (Fig 7.8).
    pub hvr: f64,
}

impl PruningQuality {
    /// Compute all four metrics.
    ///
    /// * `truth` — simulator-measured (delay, power) per design,
    /// * `predicted` — model-predicted (delay, power) per design (same
    ///   order).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or empty input.
    pub fn evaluate(truth: &[(f64, f64)], predicted: &[(f64, f64)]) -> PruningQuality {
        assert_eq!(truth.len(), predicted.len(), "mismatched point sets");
        assert!(!truth.is_empty(), "empty design space");
        let true_front = ParetoFront::of(truth);
        let pred_front = ParetoFront::of(predicted);

        let mut tp = 0usize;
        let mut tn = 0usize;
        let mut fp = 0usize;
        let mut fneg = 0usize;
        for i in 0..truth.len() {
            match (true_front.is_optimal(i), pred_front.is_optimal(i)) {
                (true, true) => tp += 1,
                (true, false) => fneg += 1,
                (false, true) => fp += 1,
                (false, false) => tn += 1,
            }
        }
        let sens = if tp + fneg > 0 {
            tp as f64 / (tp + fneg) as f64
        } else {
            1.0
        };
        let spec = if tn + fp > 0 {
            tn as f64 / (tn + fp) as f64
        } else {
            1.0
        };
        let acc = (tp + tn) as f64 / truth.len() as f64;

        // HVR: hypervolume of the *true* coordinates of the model-selected
        // designs over the hypervolume of the true front, w.r.t. a shared
        // reference point.
        let reference = reference_point(truth);
        let true_pts: Vec<(f64, f64)> = true_front.indices().iter().map(|&i| truth[i]).collect();
        let sel_pts: Vec<(f64, f64)> = pred_front.indices().iter().map(|&i| truth[i]).collect();
        let hv_true = hypervolume(&true_pts, reference);
        let hv_sel = hypervolume(&sel_pts, reference);
        let hvr = if hv_true > 0.0 {
            (hv_sel / hv_true).min(1.0)
        } else {
            1.0
        };

        PruningQuality {
            sensitivity: sens,
            specificity: spec,
            accuracy: acc,
            hvr,
        }
    }
}

fn reference_point(points: &[(f64, f64)]) -> (f64, f64) {
    let mx = points.iter().map(|p| p.0).fold(0.0f64, f64::max);
    let my = points.iter().map(|p| p.1).fold(0.0f64, f64::max);
    (mx * 1.05, my * 1.05)
}

/// 2-D dominated hypervolume w.r.t. `reference` (both axes minimized).
pub fn hypervolume(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    // Keep only the non-dominated subset, sorted by delay.
    let front = ParetoFront::of(points);
    let mut pts: Vec<(f64, f64)> = front.indices().iter().map(|&i| points[i]).collect();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    pts.dedup();
    let mut hv = 0.0;
    let mut prev_x = reference.0;
    // Sweep right-to-left: each point owns the rectangle to its right up
    // to the previous x, down from the reference power.
    for &(x, y) in pts.iter().rev() {
        if x >= reference.0 || y >= reference.1 {
            continue;
        }
        hv += (prev_x - x).max(0.0) * (reference.1 - y).max(0.0);
        prev_x = prev_x.min(x);
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeply_nested_unknown_fields_are_an_error() {
        let deep = format!("{{\"junk\":{}", "[".repeat(100_000));
        let err = serde_json::from_str::<FrontEntry<u32>>(&deep).unwrap_err();
        assert!(err.to_string().contains("nested"), "{err}");
    }

    #[test]
    fn simple_front() {
        let pts = vec![(1.0, 10.0), (2.0, 5.0), (3.0, 3.0), (2.5, 11.0), (3.5, 4.0)];
        let f = ParetoFront::of(&pts);
        assert!(f.is_optimal(0));
        assert!(f.is_optimal(1));
        assert!(f.is_optimal(2));
        assert!(!f.is_optimal(3)); // dominated by (2.0, 5.0)
        assert!(!f.is_optimal(4)); // dominated by (3.0, 3.0)
        assert_eq!(f.indices(), vec![0, 1, 2]);
    }

    #[test]
    fn single_point_is_optimal() {
        let f = ParetoFront::of(&[(1.0, 1.0)]);
        assert!(f.is_optimal(0));
    }

    #[test]
    fn identical_points_stay_optimal() {
        let f = ParetoFront::of(&[(1.0, 1.0), (1.0, 1.0)]);
        assert!(f.is_optimal(0) && f.is_optimal(1));
    }

    #[test]
    fn accumulator_evicts_newly_dominated_members() {
        let mut acc = ParetoAccumulator::new();
        assert!(acc.push(0, (3.0, 3.0), "a"));
        assert!(acc.push(1, (2.0, 5.0), "b"));
        // Dominates point 0 but not point 1.
        assert!(acc.push(2, (2.5, 2.5), "c"));
        assert_eq!(acc.ids(), vec![1, 2]);
        let sorted = acc.into_sorted();
        assert_eq!(sorted.len(), 2);
        assert_eq!((sorted[0].id, sorted[0].item), (1, "b"));
        assert_eq!((sorted[1].id, sorted[1].item), (2, "c"));
    }

    #[test]
    fn accumulator_merge_equals_single_stream() {
        let pts = [
            (1.0, 10.0),
            (2.0, 5.0),
            (3.0, 3.0),
            (2.5, 11.0),
            (3.5, 4.0),
            (1.0, 10.0), // duplicate of 0: both survive
        ];
        let mut whole = ParetoAccumulator::new();
        for (i, &p) in pts.iter().enumerate() {
            whole.push(i, p, ());
        }
        // Split in two, fold independently, merge in either order.
        for (a_range, b_range) in [((0..3), (3..6)), ((3..6), (0..3))] {
            let mut a = ParetoAccumulator::new();
            for i in a_range {
                a.push(i, pts[i], ());
            }
            let mut b = ParetoAccumulator::new();
            for i in b_range {
                b.push(i, pts[i], ());
            }
            a.merge(b);
            assert_eq!(a.ids(), whole.ids());
        }
        assert_eq!(whole.ids(), vec![0, 1, 2, 5]);
    }

    #[test]
    fn accumulator_agrees_with_front_classification() {
        let pts = vec![(1.0, 10.0), (2.0, 5.0), (3.0, 3.0), (2.5, 11.0), (3.5, 4.0)];
        let mut acc = ParetoAccumulator::new();
        for (i, &p) in pts.iter().enumerate() {
            acc.push(i, p, ());
        }
        assert_eq!(acc.ids(), ParetoFront::of(&pts).indices());
        assert!(!acc.is_empty());
        assert_eq!(acc.len(), 3);
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let truth = vec![(1.0, 10.0), (2.0, 5.0), (2.5, 11.0), (3.0, 8.0)];
        let q = PruningQuality::evaluate(&truth, &truth);
        assert_eq!(q.sensitivity, 1.0);
        assert_eq!(q.specificity, 1.0);
        assert_eq!(q.accuracy, 1.0);
        assert!((q.hvr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_prediction_scores_poorly() {
        let truth = vec![(1.0, 10.0), (2.0, 5.0), (2.5, 11.0), (3.0, 8.0)];
        // Predictions that make the dominated points look optimal.
        let pred = vec![(5.0, 50.0), (6.0, 60.0), (1.0, 2.0), (0.5, 3.0)];
        let q = PruningQuality::evaluate(&truth, &pred);
        assert!(q.sensitivity < 0.5);
        assert!(q.hvr < 1.0);
    }

    #[test]
    fn biased_but_consistent_predictions_score_perfectly() {
        // The thesis' key claim: a uniform bias does not hurt pruning.
        let truth = vec![(1.0, 10.0), (2.0, 5.0), (2.5, 11.0), (3.0, 3.0)];
        let pred: Vec<(f64, f64)> = truth.iter().map(|&(d, p)| (d * 1.3, p * 1.1)).collect();
        let q = PruningQuality::evaluate(&truth, &pred);
        assert_eq!(q.sensitivity, 1.0);
        assert_eq!(q.specificity, 1.0);
        assert!((q.hvr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_of_known_rectangle() {
        // One point at (1,1) with reference (2,2): HV = 1.
        let hv = hypervolume(&[(1.0, 1.0)], (2.0, 2.0));
        assert!((hv - 1.0).abs() < 1e-12);
        // Adding a dominated point changes nothing.
        let hv2 = hypervolume(&[(1.0, 1.0), (1.5, 1.5)], (2.0, 2.0));
        assert!((hv2 - 1.0).abs() < 1e-12);
        // A second frontier point adds its exclusive strip.
        let hv3 = hypervolume(&[(1.0, 1.0), (0.5, 1.8)], (2.0, 2.0));
        assert!(hv3 > hv && hv3 < 2.0);
    }

    #[test]
    fn missing_extreme_designs_lowers_hvr() {
        // True front spans three designs; the model only finds the middle.
        let truth = vec![(1.0, 10.0), (2.0, 5.0), (4.0, 1.0), (3.0, 9.0)];
        let pred = vec![(9.0, 9.0), (2.0, 5.0), (9.0, 9.5), (1.0, 1.0)];
        let q = PruningQuality::evaluate(&truth, &pred);
        assert!(q.hvr < 0.95, "hvr {}", q.hvr);
        assert!(q.sensitivity < 1.0);
    }
}
