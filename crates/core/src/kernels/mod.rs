//! Batched structure-of-arrays prediction kernels.
//!
//! Every prediction — single-point or batched — runs one evaluator over
//! the prepared profile's curve arena. This module holds that arena and
//! the machinery that makes *batches* of design points cheap:
//!
//! * `arena` *(internal)* — every fitted curve of a
//!   [`PreparedProfile`](crate::PreparedProfile), fitted once and kept
//!   in query order as sorted SoA arrays (`floors`/`survival`/`stack`),
//!   queried in place. The prepared profile owns it, built on its first
//!   prediction;
//! * [`search`] — the branchless sorted-slice search those queries use,
//!   probe-for-probe identical to `std`'s binary search;
//! * [`lanes`] — the host's SIMD level, recorded with perf records, and
//!   the lane width batch tests straddle;
//! * [`BatchPredictor`] — the entry point: one per (prepared profile,
//!   config), borrowing the profile's arena, memoizing curve queries
//!   and stride walks across the points of a batch, and evaluating each
//!   run of points that share a core + cache stage window-major, one
//!   memory stage per point.
//!
//! Everything here is bit-identical to the single-point
//! [`IntervalModel::predict_summary`] by construction (same evaluator,
//! same probe sequences as the reference searches);
//! `crates/core/tests/batch_identity.rs` pins it.
//!
//! [`IntervalModel::predict_summary`]: crate::IntervalModel::predict_summary

pub(crate) mod arena;
pub mod batch;
pub mod lanes;
pub mod search;

pub use batch::{BatchPredictor, MemoStats};
