//! Exactly-mergeable streaming summary moments.
//!
//! Large design-space sweeps fold predictions into accumulators instead
//! of collecting them (see `pmt_dse`'s streaming engine). [`Moments`] is
//! the scalar summary those folds share: count, sum, mean, extrema —
//! everything that merges *exactly* across chunks. Quantities that do
//! not merge exactly (percentiles, medians) deliberately stay out; use
//! `pmt_validate::ErrorStats` on a materialized set when you need them.
//!
//! # Determinism
//!
//! Floating-point addition is not associative, so the *shape* of the
//! summation tree is part of the contract: pushing points one at a time
//! accumulates left-to-right, and [`merge`](Moments::merge) combines two
//! summaries by adding the right sum onto the left. A chunked fold that
//! (a) pushes each chunk sequentially and (b) merges chunk summaries in
//! chunk order therefore produces bit-identical results whether the
//! chunks were folded serially or in parallel — the rule every streaming
//! sweep in this workspace follows.
//!
//! ```
//! use pmt_core::Moments;
//!
//! let mut all = Moments::new();
//! for x in [0.5, 2.0, 1.0] {
//!     all.push(x);
//! }
//! assert_eq!(all.n, 3);
//! assert_eq!(all.min, 0.5);
//! assert_eq!(all.max, 2.0);
//!
//! // Split-and-merge is exact: same chunk shape, same bits.
//! let mut left = Moments::new();
//! left.push(0.5);
//! left.push(2.0);
//! let mut right = Moments::new();
//! right.push(1.0);
//! left.merge(&right);
//! assert_eq!(left, all);
//! ```

use serde::{Deserialize, Serialize};

/// Streaming summary of a scalar series: count, running sum and extrema.
///
/// The empty summary is all-zero with infinite extrema sentinels hidden
/// behind [`min`](Moments::min)/[`max`](Moments::max) returning `0.0`,
/// matching `ErrorStats::of_signed(&[])`'s all-zero convention.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Number of values folded in.
    pub n: usize,
    /// Running sum (left-to-right within a chunk, chunk-order across
    /// merges — see the module docs for the determinism contract).
    pub sum: f64,
    /// Smallest value seen (`0.0` when empty).
    pub min: f64,
    /// Largest value seen (`0.0` when empty).
    pub max: f64,
}

impl Moments {
    /// The empty summary.
    pub fn new() -> Moments {
        Moments {
            n: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Fold one value in.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        self.sum += x;
    }

    /// Merge another summary in (its values logically follow this one's:
    /// `self.sum + other.sum`, in that order).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_matches_naive_fold() {
        let xs = [3.0, -1.0, 2.5, 0.0, 7.25];
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.n, 5);
        assert_eq!(m.sum.to_bits(), xs.iter().sum::<f64>().to_bits());
        assert_eq!(m.min, -1.0);
        assert_eq!(m.max, 7.25);
        assert!((m.mean() - xs.iter().sum::<f64>() / 5.0).abs() < 1e-15);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let m = Moments::new();
        assert_eq!(m, Moments::default());
        assert_eq!(
            (m.n, m.sum, m.min, m.max, m.mean()),
            (0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn merge_is_exact_for_the_same_chunk_shape() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.1 - 3.0).collect();
        // Reference: chunked fold, chunks merged left-to-right.
        let chunk = 7;
        let mut merged = Moments::new();
        for c in xs.chunks(chunk) {
            let mut part = Moments::new();
            for &x in c {
                part.push(x);
            }
            merged.merge(&part);
        }
        // Same chunk shape, "parallel": fold chunks independently, then
        // merge in chunk order.
        let parts: Vec<Moments> = xs
            .chunks(chunk)
            .map(|c| {
                let mut part = Moments::new();
                for &x in c {
                    part.push(x);
                }
                part
            })
            .collect();
        let mut combined = Moments::new();
        for p in &parts {
            combined.merge(p);
        }
        assert_eq!(merged.sum.to_bits(), combined.sum.to_bits());
        assert_eq!(merged, combined);
    }

    #[test]
    fn merging_an_empty_side_is_identity() {
        let mut m = Moments::new();
        m.push(1.5);
        let snapshot = m;
        m.merge(&Moments::new());
        assert_eq!(m, snapshot);
        let mut empty = Moments::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }
}
