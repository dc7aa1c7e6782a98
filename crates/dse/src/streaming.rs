//! Streaming design-space sweeps: predict millions of points, keep
//! what matters, in bounded memory.
//!
//! [`SpaceEvaluation`](crate::SpaceEvaluation) materializes every
//! [`PointOutcome`](crate::PointOutcome) in a `Vec`, which caps the space
//! size by memory rather than compute. [`StreamingSweep`] removes the cap:
//! points come from a [`LazyDesignSpace`] one index at a time, each
//! prepared-profile prediction is folded into **online accumulators** —
//! an incremental Pareto frontier
//! ([`ParetoAccumulator`](crate::ParetoAccumulator)), a bounded-heap
//! top-K ([`TopK`]) and streaming moments ([`Moments`]) — and nothing
//! proportional to the space survives the fold.
//!
//! # Determinism
//!
//! The stream is processed in fixed chunks of
//! [`chunk`](StreamingSweep::chunk) indices. Every chunk folds its points
//! sequentially in index order; chunk summaries merge **in chunk order**.
//! The serial and rayon-parallel paths run the identical chunk tree, so
//! their results are bit-identical by construction — the same guarantee
//! the materializing sweeps make, kept through the fold. The frontier and
//! top-K are additionally order-independent *sets* (strict dominance is
//! transitive; top-K uses the strict total order (key, id)), reported in
//! a fixed sort order.
//!
//! Each chunk's predictions run through the **batched kernels**. A
//! folding worker keeps one [`BatchPredictor`] across all of its chunks,
//! its memo bounded by one chunk's worth of entries and, through the
//! prepared profile's pool of warm memos, handed on to the next sweep's
//! workers; and it keeps one buffer of reused points. It decodes a chunk's admitted indices into that buffer
//! ([`LazyDesignSpace::decode_into`]: no freshly cloned and named point)
//! up to 64 at a time, predicts each batch with
//! [`BatchPredictor::predict_batch_into`], and folds the summaries in
//! index order. The predictor evaluates each run of consecutive points
//! that share a core + cache stage — in `frontier_demo`, the 24 MSHR ×
//! operating-point variants of one core and hierarchy — window-major:
//! one stage per window, one memory stage per point. Prefilter-rejected
//! points never enter a batch, so a run closes over the gap. All of it
//! is bit-identical to evaluating each point on its own scalar
//! `IntervalModel`, memo tallies included — pinned by `pmt-core`'s
//! conformance suite and this module's own equivalence tests.
//!
//! ```
//! use pmt_dse::{Objective, StreamingSweep};
//! use pmt_profiler::{Profiler, ProfilerConfig};
//! use pmt_uarch::DesignSpace;
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("astar").unwrap();
//! let profile =
//!     Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
//! let summary = StreamingSweep::new(&profile)
//!     .objective(Objective::Energy)
//!     .top_k(3)
//!     .run(&DesignSpace::small());
//! assert_eq!(summary.evaluated, 32);
//! assert!(!summary.frontier.is_empty());
//! assert_eq!(summary.top.len(), 3);
//! // The moments cover every evaluated point exactly.
//! assert_eq!(summary.cpi.n, 32);
//! ```

use crate::constrain::DesignConstraints;
use crate::pareto::{FrontEntry, ParetoAccumulator};
use crate::space::LazyDesignSpace;
use pmt_core::{BatchPredictor, ModelConfig, Moments, PredictionSummary, PreparedProfile};
use pmt_power::PowerModel;
use pmt_profiler::ApplicationProfile;
use pmt_uarch::DesignPoint;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default points per fold chunk. Part of the determinism contract:
/// chunk moments merge in chunk order, so the serial and parallel folds
/// are bit-identical at any one chunk size, but different chunk sizes
/// may round the moment sums differently.
pub const DEFAULT_CHUNK: usize = 1024;

/// One streamed model evaluation: the per-point record the accumulators
/// fold. Deliberately `Copy` and name-free — a million-point sweep must
/// not clone a workload `String` per point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamPoint {
    /// Dense design id within the swept space.
    pub design_id: usize,
    /// Model-predicted CPI.
    pub cpi: f64,
    /// Model-predicted execution seconds.
    pub seconds: f64,
    /// Model-predicted total power (W).
    pub power: f64,
}

impl StreamPoint {
    /// (delay, power) coordinates for Pareto analysis.
    pub fn coords(&self) -> (f64, f64) {
        (self.seconds, self.power)
    }

    /// Energy in joules (power × delay).
    pub fn energy(&self) -> f64 {
        self.power * self.seconds
    }

    /// Energy-delay product.
    pub fn edp(&self) -> f64 {
        self.energy() * self.seconds
    }

    /// Energy-delay-squared product (the thesis' DVFS metric).
    pub fn ed2p(&self) -> f64 {
        self.edp() * self.seconds
    }
}

/// The scalar a [`TopK`] ranks streamed points by — smaller is better.
#[derive(Clone, Copy, Debug)]
pub enum Objective {
    /// Execution time.
    Seconds,
    /// Cycles per instruction.
    Cpi,
    /// Total power.
    Power,
    /// Energy (power × delay).
    Energy,
    /// Energy-delay product.
    Edp,
    /// Energy-delay-squared product.
    Ed2p,
    /// Any user-defined key over the streamed point.
    Custom(fn(&StreamPoint) -> f64),
}

impl Objective {
    /// The ranking key for one point.
    pub fn key(&self, p: &StreamPoint) -> f64 {
        match self {
            Objective::Seconds => p.seconds,
            Objective::Cpi => p.cpi,
            Objective::Power => p.power,
            Objective::Energy => p.energy(),
            Objective::Edp => p.edp(),
            Objective::Ed2p => p.ed2p(),
            Objective::Custom(f) => f(p),
        }
    }

    /// Parse a CLI-style name (`seconds|cpi|power|energy|edp|ed2p`).
    pub fn from_name(name: &str) -> Option<Objective> {
        Some(match name {
            "seconds" => Objective::Seconds,
            "cpi" => Objective::Cpi,
            "power" => Objective::Power,
            "energy" => Objective::Energy,
            "edp" => Objective::Edp,
            "ed2p" => Objective::Ed2p,
            _ => return None,
        })
    }

    /// Short label for tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Objective::Seconds => "seconds",
            Objective::Cpi => "cpi",
            Objective::Power => "power",
            Objective::Energy => "energy",
            Objective::Edp => "edp",
            Objective::Ed2p => "ed2p",
            Objective::Custom(_) => "custom",
        }
    }
}

/// One ranked survivor of a [`TopK`] fold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedEntry<T> {
    /// The objective key (smaller is better).
    pub key: f64,
    /// Dense design id (ties on `key` break toward the smaller id).
    pub id: usize,
    /// Caller payload.
    pub item: T,
}

// The vendored serde derive does not handle generics; these mirror what
// it would generate for the concrete fields.
impl<T: Serialize> Serialize for RankedEntry<T> {
    fn to_json(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"key\":");
        self.key.to_json(out);
        out.push_str(",\"id\":");
        self.id.to_json(out);
        out.push_str(",\"item\":");
        self.item.to_json(out);
        out.push('}');
    }
}

impl<T: Deserialize> Deserialize for RankedEntry<T> {
    fn from_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::json::Error> {
        let mut key = None;
        let mut id = None;
        let mut item = None;
        p.object_start()?;
        while let Some(k) = p.next_key()? {
            match &*k {
                "key" => key = Some(Deserialize::from_json(p)?),
                "id" => id = Some(Deserialize::from_json(p)?),
                "item" => item = Some(Deserialize::from_json(p)?),
                _ => p.skip_value()?,
            }
        }
        Ok(RankedEntry {
            key: key.ok_or_else(|| serde::json::Error::missing("key"))?,
            id: id.ok_or_else(|| serde::json::Error::missing("id"))?,
            item: item.ok_or_else(|| serde::json::Error::missing("item"))?,
        })
    }
}

impl<T> RankedEntry<T> {
    fn cmp_rank(&self, other: &Self) -> Ordering {
        self.key.total_cmp(&other.key).then(self.id.cmp(&other.id))
    }
}

/// A bounded min-set: keeps the K smallest entries of a stream under the
/// strict total order (key, id), in a max-heap so each offer costs
/// O(log K). The kept *set* is order-independent, so chunk folds
/// [`merge`](TopK::merge) exactly;
/// [`into_sorted`](TopK::into_sorted) reports ascending.
///
/// ```
/// use pmt_dse::TopK;
///
/// let mut best = TopK::new(2);
/// for (id, key) in [(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)] {
///     best.push(key, id, ());
/// }
/// let kept: Vec<usize> = best.into_sorted().iter().map(|e| e.id).collect();
/// assert_eq!(kept, vec![3, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<HeapSlot<T>>,
}

/// Heap adapter ordering [`RankedEntry`]s as a max-heap on (key, id).
#[derive(Clone, Debug)]
struct HeapSlot<T>(RankedEntry<T>);

impl<T> PartialEq for HeapSlot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_rank(&other.0) == Ordering::Equal
    }
}
impl<T> Eq for HeapSlot<T> {}
impl<T> PartialOrd for HeapSlot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapSlot<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_rank(&other.0)
    }
}

impl<T> TopK<T> {
    /// Keep the `k` smallest (a `k` of 0 keeps nothing).
    pub fn new(k: usize) -> TopK<T> {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1 << 20)),
        }
    }

    /// Offer one entry; returns whether it is (currently) kept.
    pub fn push(&mut self, key: f64, id: usize, item: T) -> bool {
        if self.k == 0 {
            return false;
        }
        let entry = RankedEntry { key, id, item };
        if self.heap.len() < self.k {
            self.heap.push(HeapSlot(entry));
            return true;
        }
        let worst = self.heap.peek().expect("k > 0");
        if entry.cmp_rank(&worst.0) == Ordering::Less {
            self.heap.pop();
            self.heap.push(HeapSlot(entry));
            true
        } else {
            false
        }
    }

    /// Merge another fold of the same `k` in.
    ///
    /// # Panics
    ///
    /// Panics if the two folds keep different `k`s — merging a top-3 into
    /// a top-5 would silently report a set that is neither, so mismatched
    /// folds fail loudly instead.
    pub fn merge(&mut self, other: TopK<T>) {
        assert_eq!(
            self.k, other.k,
            "TopK::merge requires equal k (left keeps {}, right keeps {})",
            self.k, other.k
        );
        for slot in other.heap {
            self.push(slot.0.key, slot.0.id, slot.0.item);
        }
    }

    /// The `k` this fold keeps.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently kept (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consume into the kept entries, best (smallest key) first.
    pub fn into_sorted(self) -> Vec<RankedEntry<T>> {
        let mut entries: Vec<RankedEntry<T>> = self.heap.into_iter().map(|s| s.0).collect();
        entries.sort_by(|a, b| a.cmp_rank(b));
        entries
    }
}

/// The bounded result of a [`StreamingSweep`]: frontier, top-K and
/// moments — never the per-point outcomes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamingSummary {
    /// Size of the swept space (admitted + rejected).
    pub space_points: usize,
    /// Points that passed the pre-filter and were predicted.
    pub evaluated: usize,
    /// Points rejected by the cheap pre-filter *before* prediction.
    pub rejected: usize,
    /// Predicted points excluded from frontier/top-K by the post-filter
    /// budgets (`max_power_w` / `max_seconds`). Still counted in the
    /// moments, which summarize every *evaluated* point.
    pub over_budget: usize,
    /// The Pareto frontier over (seconds, power), sorted by design id.
    pub frontier: Vec<FrontEntry<StreamPoint>>,
    /// The K best points by the sweep objective, best first.
    pub top: Vec<RankedEntry<StreamPoint>>,
    /// CPI moments over every evaluated point.
    pub cpi: Moments,
    /// Power moments over every evaluated point.
    pub power: Moments,
    /// Execution-time moments over every evaluated point.
    pub seconds: Moments,
}

impl StreamingSummary {
    /// Frontier design ids (ascending).
    pub fn frontier_ids(&self) -> Vec<usize> {
        self.frontier.iter().map(|e| e.id).collect()
    }
}

/// One chunk's worth of accumulators — the unit the parallel fold
/// computes independently and merges in chunk order.
struct ChunkFold {
    pareto: ParetoAccumulator<StreamPoint>,
    top: TopK<StreamPoint>,
    cpi: Moments,
    power: Moments,
    seconds: Moments,
    evaluated: usize,
    rejected: usize,
    over_budget: usize,
}

impl ChunkFold {
    fn new(k: usize) -> ChunkFold {
        ChunkFold {
            pareto: ParetoAccumulator::new(),
            top: TopK::new(k),
            cpi: Moments::new(),
            power: Moments::new(),
            seconds: Moments::new(),
            evaluated: 0,
            rejected: 0,
            over_budget: 0,
        }
    }

    fn merge(&mut self, other: ChunkFold) {
        self.pareto.merge(other.pareto);
        self.top.merge(other.top);
        self.cpi.merge(&other.cpi);
        self.power.merge(&other.power);
        self.seconds.merge(&other.seconds);
        self.evaluated += other.evaluated;
        self.rejected += other.rejected;
        self.over_budget += other.over_budget;
    }

    /// The reported summary of a whole `space_points`-point fold.
    fn into_summary(self, space_points: usize) -> StreamingSummary {
        StreamingSummary {
            space_points,
            evaluated: self.evaluated,
            rejected: self.rejected,
            over_budget: self.over_budget,
            frontier: self.pareto.into_sorted(),
            top: self.top.into_sorted(),
            cpi: self.cpi,
            power: self.power,
            seconds: self.seconds,
        }
    }
}

/// A memory-bounded design-space sweep: lazy points in, online
/// accumulators out. Model-only by construction (simulated ground truth
/// belongs to the materializing [`SpaceEvaluation`](crate::SpaceEvaluation)
/// and validation paths, which need every outcome anyway).
pub struct StreamingSweep<'a> {
    profile: &'a ApplicationProfile,
    model: ModelConfig,
    prefilter: Option<DesignConstraints>,
    max_power_w: Option<f64>,
    max_seconds: Option<f64>,
    top_k: usize,
    objective: Objective,
    chunk: usize,
    serial: bool,
}

impl<'a> StreamingSweep<'a> {
    /// A sweep of `profile` with defaults: no filters, top-10 by
    /// [`Objective::Seconds`], 1024-point chunks, rayon-parallel.
    pub fn new(profile: &'a ApplicationProfile) -> StreamingSweep<'a> {
        StreamingSweep {
            profile,
            model: ModelConfig::default(),
            prefilter: None,
            max_power_w: None,
            max_seconds: None,
            top_k: 10,
            objective: Objective::Seconds,
            chunk: DEFAULT_CHUNK,
            serial: false,
        }
    }

    /// Replace the model configuration.
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Reject points failing `constraints` *before* prediction (cheap
    /// machine-description checks — see
    /// [`DesignConstraints`](crate::constrain::DesignConstraints)).
    pub fn constraints(mut self, constraints: DesignConstraints) -> Self {
        self.prefilter = Some(constraints);
        self
    }

    /// Exclude predicted points above this power from frontier and
    /// top-K (they still count toward the moments).
    pub fn max_power_w(mut self, watts: f64) -> Self {
        self.max_power_w = Some(watts);
        self
    }

    /// Exclude predicted points slower than this from frontier and
    /// top-K.
    pub fn max_seconds(mut self, seconds: f64) -> Self {
        self.max_seconds = Some(seconds);
        self
    }

    /// Keep the `k` best points by the sweep objective.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Rank top-K candidates by `objective` (smaller is better).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Points per fold chunk. Part of the determinism contract: the same
    /// chunk size produces bit-identical results serial or parallel, but
    /// *different* chunk sizes may round moment sums differently.
    ///
    /// # Panics
    ///
    /// Panics on a chunk size of zero.
    pub fn chunk(mut self, points: usize) -> Self {
        assert!(points > 0, "chunk size must be positive");
        self.chunk = points;
        self
    }

    /// Force the sequential path (for measurement and equivalence tests).
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Prepare the profile once, stream every point of `space` through
    /// the accumulators, and return the bounded summary.
    pub fn run<S: LazyDesignSpace + ?Sized>(&self, space: &S) -> StreamingSummary {
        let prepared = PreparedProfile::new(self.profile);
        self.run_prepared(&prepared, space)
    }

    /// [`run`](Self::run) with an already-prepared profile — the hot path
    /// for callers (like a long-running service) that hold a
    /// [`PreparedProfile`] across many sweeps. `prepared` must derive
    /// from the same profile this sweep was built over.
    pub fn run_prepared<S: LazyDesignSpace + ?Sized>(
        &self,
        prepared: &PreparedProfile<'_>,
        space: &S,
    ) -> StreamingSummary {
        let mut total = ChunkFold::new(self.top_k);
        for chunk in self.fold_chunks(prepared, space) {
            total.merge(chunk);
        }
        total.into_summary(space.len())
    }

    /// What one sweep worker keeps across all of its chunks: its
    /// predictor, whose memo hits carry from chunk to chunk and whose
    /// memo never outgrows what a fresh predictor could build over one
    /// chunk ([`BatchPredictor::bounded`]), and the buffers each batch of
    /// a chunk is decoded and predicted into — so memory stays O(chunk).
    fn worker<'p, 'b>(&self, prepared: &'p PreparedProfile<'b>) -> Worker<'p, 'b> {
        Worker {
            predictor: BatchPredictor::bounded(prepared, &self.model, self.chunk),
            points: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// Fold every chunk of `space`, returned in chunk order — on one
    /// predictor when [`serial`](Self::serial), otherwise in parallel with
    /// one predictor per rayon worker. The identical chunk tree either
    /// way: [`run_prepared`](Self::run_prepared) merges the returned
    /// chunk folds in order, so serial and parallel runs are
    /// bit-identical.
    fn fold_chunks<S: LazyDesignSpace + ?Sized>(
        &self,
        prepared: &PreparedProfile<'_>,
        space: &S,
    ) -> Vec<ChunkFold> {
        let chunks = 0..chunk_count(space.len(), self.chunk);
        if self.serial {
            let mut worker = self.worker(prepared);
            chunks
                .map(|c| self.fold_chunk(&mut worker, space, c))
                .collect()
        } else {
            chunks
                .into_par_iter()
                .map_init(
                    || self.worker(prepared),
                    |worker, c| self.fold_chunk(worker, space, c),
                )
                .collect()
        }
    }

    /// Fold chunk `c`, the points `[c·chunk, (c+1)·chunk) ∩ [0, n)`, in
    /// index order. `worker` is the folding worker's own; which chunks
    /// it saw before never changes the bytes.
    fn fold_chunk<S: LazyDesignSpace + ?Sized>(
        &self,
        worker: &mut Worker<'_, '_>,
        space: &S,
        c: usize,
    ) -> ChunkFold {
        // `c < chunk_count(n, chunk)`, so `start < n` cannot overflow;
        // saturate the end rather than wrap: near usize::MAX the naive
        // `start + chunk` would overflow and fold an empty (or wrong)
        // range in release builds.
        let n = space.len();
        let start = c * self.chunk;
        let end = start.saturating_add(self.chunk).min(n);
        let mut acc = ChunkFold::new(self.top_k);
        // Decode admitted indices into the worker's reused points (no
        // per-point machine clone or name; reported entries are named
        // through `point_at` later), predict them a batch at a time, and
        // fold them in index order.
        let Worker {
            predictor,
            points,
            summaries,
        } = worker;
        let mut index = start;
        while index < end {
            let mut admitted = 0;
            while index < end && admitted < BATCH {
                if admitted == points.len() {
                    points.push(space.point_at(index));
                } else {
                    space.decode_into(index, &mut points[admitted]);
                }
                let point = &points[admitted];
                index += 1;
                if self.prefilter.as_ref().is_some_and(|c| !c.admits(point)) {
                    acc.rejected += 1;
                    continue;
                }
                admitted += 1;
            }
            let points = &points[..admitted];
            predictor.predict_batch_into(points.iter().map(|p| &p.machine), summaries);
            for (point, summary) in points.iter().zip(summaries.iter()) {
                self.fold_point(&mut acc, stream_point(point, summary));
            }
        }
        acc
    }

    /// Fold one predicted point into a chunk's accumulators.
    fn fold_point(&self, acc: &mut ChunkFold, p: StreamPoint) {
        acc.evaluated += 1;
        acc.cpi.push(p.cpi);
        acc.power.push(p.power);
        acc.seconds.push(p.seconds);
        if self.max_power_w.is_some_and(|w| p.power > w)
            || self.max_seconds.is_some_and(|s| p.seconds > s)
        {
            acc.over_budget += 1;
            return;
        }
        acc.pareto.push(p.design_id, p.coords(), p);
        acc.top.push(self.objective.key(&p), p.design_id, p);
    }
}

/// Admitted points a sweep worker decodes before it predicts them as one
/// batch. Several of `frontier_demo`'s 24-point runs fit (a run cut at a
/// batch boundary costs one more run lead, never a byte), and the
/// decoded machines, each with its own issue-stage heap, stay a few tens
/// of KiB per worker; decoding a whole 1,024-point chunk instead raised
/// `frontier_sweep`'s peak RSS by 3–4 MB.
const BATCH: usize = 64;

/// One sweep worker's predictor and batch buffers
/// ([`StreamingSweep::worker`]).
struct Worker<'p, 'b> {
    predictor: BatchPredictor<'p, 'b>,
    /// A batch's admitted points, decoded in place; past the admitted
    /// prefix, leftovers of earlier batches.
    points: Vec<DesignPoint>,
    summaries: Vec<PredictionSummary>,
}

/// Number of chunks `run_prepared` covers `points` with:
/// `⌈points / chunk⌉`.
fn chunk_count(points: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk size must be positive");
    if points == 0 {
        0
    } else {
        1 + (points - 1) / chunk
    }
}

/// The streamed record of `point`'s prediction `summary`: its CPI,
/// seconds at the point's clock, and power.
fn stream_point(point: &DesignPoint, summary: &PredictionSummary) -> StreamPoint {
    let machine = &point.machine;
    StreamPoint {
        design_id: point.id,
        cpi: summary.cpi(),
        seconds: summary.seconds_at(machine.core.frequency_ghz),
        power: PowerModel::power_of(machine, &summary.activity).total(),
    }
}

/// The [`StreamPoint`]s of a whole slice of points, in order, on the
/// caller's [`BatchPredictor`] — memos shared across the slice and with
/// whatever the predictor saw before. The materializing sweep's model
/// half; the streaming fold runs the same per-point steps, so a streamed
/// sweep is bit-identical to a materialized one.
pub(crate) fn evaluate_stream_points_batched(
    points: &[DesignPoint],
    batch: &mut BatchPredictor<'_, '_>,
) -> Vec<StreamPoint> {
    let mut summaries = Vec::with_capacity(points.len());
    batch.predict_batch_into(points.iter().map(|p| &p.machine), &mut summaries);
    points
        .iter()
        .zip(&summaries)
        .map(|(p, summary)| stream_point(p, summary))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::ParetoFront;
    use crate::space::ProductSpace;
    use crate::sweep::{SpaceEvaluation, SweepConfig};
    use pmt_core::IntervalModel;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_uarch::DesignSpace;
    use pmt_workloads::WorkloadSpec;

    fn profile() -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(30_000))
    }

    /// The scalar reference: one point on its own memo-less
    /// `IntervalModel`.
    fn evaluate_stream_point(
        point: &DesignPoint,
        prepared: &PreparedProfile<'_>,
        model_cfg: &ModelConfig,
    ) -> StreamPoint {
        let model = IntervalModel::with_config(&point.machine, model_cfg.clone());
        stream_point(point, &model.predict_summary(prepared))
    }

    /// `sweep`'s summary rebuilt from the scalar reference: every index
    /// of `space`, chunk by chunk in index order, prefiltered and folded
    /// through [`StreamingSweep::fold_point`] and merged in chunk order
    /// as [`StreamingSweep::run`] does.
    fn scalar_fold<S: LazyDesignSpace + ?Sized>(
        sweep: &StreamingSweep<'_>,
        space: &S,
    ) -> StreamingSummary {
        let prepared = PreparedProfile::new(sweep.profile);
        let n = space.len();
        let mut total = ChunkFold::new(sweep.top_k);
        for c in 0..chunk_count(n, sweep.chunk) {
            let mut acc = ChunkFold::new(sweep.top_k);
            for index in c * sweep.chunk..((c + 1) * sweep.chunk).min(n) {
                let point = space.point_at(index);
                if sweep.prefilter.as_ref().is_some_and(|f| !f.admits(&point)) {
                    acc.rejected += 1;
                    continue;
                }
                sweep.fold_point(
                    &mut acc,
                    evaluate_stream_point(&point, &prepared, &sweep.model),
                );
            }
            total.merge(acc);
        }
        total.into_summary(n)
    }

    /// Run `sweep` over `space` and assert it equals its scalar fold,
    /// byte for byte (via serde_json: shortest-round-trip floats make
    /// equal strings ⇔ equal bits).
    fn run_matching_scalar<S: LazyDesignSpace + ?Sized>(
        sweep: &StreamingSweep<'_>,
        space: &S,
        ctx: &str,
    ) -> StreamingSummary {
        let summary = sweep.run(space);
        assert_eq!(
            serde_json::to_string(&summary).unwrap(),
            serde_json::to_string(&scalar_fold(sweep, space)).unwrap(),
            "{ctx}"
        );
        summary
    }

    /// Prefilter rejections inside runs: the space's innermost axes
    /// (MSHR entries × operating point) share one stage key, and the
    /// filter rejects some of each run's points, so the worker's batches
    /// hold runs with gaps, cut at batch boundaries too. Every chunk must
    /// fold exactly as the per-point fold does — one reused predictor,
    /// `predict_summary` per admitted point — and leave the worker's
    /// memo tallies equal to that predictor's.
    #[test]
    fn prefilter_rejections_inside_runs_fold_like_single_points() {
        let profile = profile();
        let prepared = PreparedProfile::new(&profile);
        let space = ProductSpace::new(pmt_uarch::MachineConfig::nehalem())
            .rob_sizes(&[64, 128, 192])
            .l1_kb(&[32, 64])
            .l2_kb(&[256, 1024])
            .mshr_entries(&[4, 8, 16, 32])
            .operating_points(&pmt_uarch::nehalem_dvfs_points());
        let chunk = 200;
        let sweep = StreamingSweep::new(&profile)
            .constraints(
                DesignConstraints::new()
                    .max_mshr_entries(16)
                    .max_frequency_ghz(2.5),
            )
            .objective(Objective::Energy)
            .chunk(chunk);
        let n = space.len();
        let mut worker = sweep.worker(&prepared);
        let mut single = BatchPredictor::bounded(&prepared, &sweep.model, chunk);
        let (mut rejected, mut most_admitted) = (0, 0);
        for c in 0..chunk_count(n, chunk) {
            let mut want = ChunkFold::new(sweep.top_k);
            for index in c * chunk..((c + 1) * chunk).min(n) {
                let point = space.point_at(index);
                if !sweep.prefilter.as_ref().unwrap().admits(&point) {
                    want.rejected += 1;
                    continue;
                }
                let summary = single.predict_summary(&point.machine);
                sweep.fold_point(&mut want, stream_point(&point, &summary));
            }
            let got = sweep.fold_chunk(&mut worker, &space, c);
            rejected += got.rejected;
            most_admitted = most_admitted.max(got.evaluated);
            assert_eq!(
                serde_json::to_string(&got.into_summary(n)).unwrap(),
                serde_json::to_string(&want.into_summary(n)).unwrap(),
                "chunk {c}"
            );
            assert_eq!(
                worker.predictor.memo_stats(),
                single.memo_stats(),
                "chunk {c}: memo tallies"
            );
        }
        assert!(rejected > 0, "the filter rejects points");
        assert!(
            most_admitted > BATCH,
            "a chunk spans batches: {most_admitted} admitted"
        );
    }

    #[test]
    fn deeply_nested_unknown_fields_are_an_error() {
        let deep = format!("{{\"junk\":{}", "[".repeat(100_000));
        let err = serde_json::from_str::<RankedEntry<u32>>(&deep).unwrap_err();
        assert!(err.to_string().contains("nested"), "{err}");
    }

    #[test]
    fn streaming_matches_materialized_sweep_bit_for_bit() {
        let profile = profile();
        let space = DesignSpace::small();
        let points = space.enumerate();
        let eval = SpaceEvaluation::run_serial(&points, &profile, None, &SweepConfig::default());

        let summary = StreamingSweep::new(&profile)
            .chunk(5) // deliberately not a divisor of 32
            .top_k(4)
            .run(&space);
        assert_eq!(summary.evaluated, 32);
        assert_eq!(summary.rejected, 0);

        // Frontier == the classification of the materialized outcomes.
        let front = ParetoFront::of(&eval.model_points());
        assert_eq!(summary.frontier_ids(), front.indices());
        for e in &summary.frontier {
            let o = &eval.outcomes[e.id];
            assert_eq!(e.coords.0.to_bits(), o.model_seconds.to_bits());
            assert_eq!(e.coords.1.to_bits(), o.model_power.to_bits());
            assert_eq!(e.item.cpi.to_bits(), o.model_cpi.to_bits());
        }

        // Top-K == sorting the materialized outcomes by the objective.
        let mut by_seconds: Vec<(f64, usize)> = eval
            .outcomes
            .iter()
            .map(|o| (o.model_seconds, o.design_id))
            .collect();
        by_seconds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expect: Vec<usize> = by_seconds.iter().take(4).map(|&(_, id)| id).collect();
        let got: Vec<usize> = summary.top.iter().map(|e| e.id).collect();
        assert_eq!(got, expect);

        // Moments cover every point with exact extrema.
        assert_eq!(summary.cpi.n, 32);
        let min_cpi = eval
            .outcomes
            .iter()
            .map(|o| o.model_cpi)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(summary.cpi.min.to_bits(), min_cpi.to_bits());
    }

    #[test]
    fn parallel_fold_is_bit_identical_to_serial() {
        let profile = profile();
        let space = DesignSpace::small();
        for chunk in [1, 3, 7, 64] {
            let ser = StreamingSweep::new(&profile)
                .chunk(chunk)
                .serial()
                .run(&space);
            let par = StreamingSweep::new(&profile).chunk(chunk).run(&space);
            assert_eq!(ser.frontier_ids(), par.frontier_ids());
            assert_eq!(
                ser.cpi.sum.to_bits(),
                par.cpi.sum.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(ser.power.sum.to_bits(), par.power.sum.to_bits());
            assert_eq!(ser.seconds.sum.to_bits(), par.seconds.sum.to_bits());
            let ser_top: Vec<(u64, usize)> =
                ser.top.iter().map(|e| (e.key.to_bits(), e.id)).collect();
            let par_top: Vec<(u64, usize)> =
                par.top.iter().map(|e| (e.key.to_bits(), e.id)).collect();
            assert_eq!(ser_top, par_top);
        }
    }

    #[test]
    fn batched_fold_is_bit_identical_to_scalar() {
        let profile = profile();
        let space = DesignSpace::small();
        for chunk in [1, 3, 5, 64] {
            let sweep = StreamingSweep::new(&profile).chunk(chunk).top_k(4).serial();
            run_matching_scalar(&sweep, &space, &format!("chunk {chunk}"));
        }
        // Filters interleave identically on both paths.
        let sweep = StreamingSweep::new(&profile)
            .constraints(DesignConstraints::new().max_dispatch_width(2))
            .max_power_w(25.0)
            .serial();
        run_matching_scalar(&sweep, &space, "prefilter + power budget");
        // Real chunk order: the 103,680-point demo space in default
        // 1,024-point chunks, all through one kept predictor whose memo
        // and slots carry across every axis step and chunk, on a toy
        // profile.
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let toy = Profiler::new(ProfilerConfig::fast_test())
            .profile_named("mcf", &mut spec.trace(10_000));
        let space = ProductSpace::frontier_demo();
        let sweep = StreamingSweep::new(&toy).top_k(4).serial();
        let summary = run_matching_scalar(&sweep, &space, "frontier_demo");
        assert_eq!(summary.evaluated, space.len());
    }

    #[test]
    fn prefilter_rejects_before_prediction_and_budget_after() {
        let profile = profile();
        let space = DesignSpace::small();
        let all = StreamingSweep::new(&profile).run(&space);
        // Pre-filter: only the narrow machines (half the 32-point space).
        let narrow = StreamingSweep::new(&profile)
            .constraints(DesignConstraints::new().max_dispatch_width(2))
            .run(&space);
        assert_eq!(narrow.evaluated + narrow.rejected, 32);
        assert_eq!(narrow.evaluated, 16);
        assert!(narrow
            .frontier
            .iter()
            .all(|e| space.point_at(e.id).machine.core.dispatch_width <= 2));

        // Post-filter: a power budget below the cheapest design empties
        // the frontier but not the moments.
        let capped = StreamingSweep::new(&profile)
            .max_power_w(all.power.min / 2.0)
            .run(&space);
        assert_eq!(capped.over_budget, 32);
        assert!(capped.frontier.is_empty());
        assert!(capped.top.is_empty());
        assert_eq!(capped.cpi.n, 32);
    }

    #[test]
    fn empty_space_yields_an_empty_summary() {
        let profile = profile();
        let summary = StreamingSweep::new(&profile).run(&Vec::<DesignPoint>::new());
        assert_eq!(summary.space_points, 0);
        assert_eq!(summary.evaluated, 0);
        assert!(summary.frontier.is_empty());
        assert!(summary.top.is_empty());
        assert_eq!(summary.cpi.n, 0);
    }

    #[test]
    fn top_k_keeps_the_k_smallest_with_id_tiebreak() {
        let mut top = TopK::new(3);
        top.push(2.0, 5, "a");
        top.push(2.0, 1, "b");
        top.push(1.0, 9, "c");
        top.push(2.0, 0, "d");
        top.push(3.0, 2, "e");
        assert_eq!(top.len(), 3);
        assert!(!top.is_empty());
        let kept = top.into_sorted();
        let ids: Vec<usize> = kept.iter().map(|e| e.id).collect();
        // 1.0 first, then the 2.0 ties by ascending id.
        assert_eq!(ids, vec![9, 0, 1]);
    }

    #[test]
    fn top_k_merge_equals_single_stream() {
        let entries: Vec<(f64, usize)> =
            (0..50).map(|i| (((i * 37) % 23) as f64 * 0.5, i)).collect();
        let mut whole = TopK::new(8);
        for &(k, id) in &entries {
            whole.push(k, id, ());
        }
        let mut a = TopK::new(8);
        let mut b = TopK::new(8);
        for &(k, id) in &entries[..20] {
            a.push(k, id, ());
        }
        for &(k, id) in &entries[20..] {
            b.push(k, id, ());
        }
        b.merge(a); // merge in the "wrong" order on purpose
        let whole_ids: Vec<usize> = whole.into_sorted().iter().map(|e| e.id).collect();
        let merged_ids: Vec<usize> = b.into_sorted().iter().map(|e| e.id).collect();
        assert_eq!(whole_ids, merged_ids);
    }

    #[test]
    #[should_panic(expected = "TopK::merge requires equal k")]
    fn topk_merge_with_mismatched_k_panics() {
        // Silently keeping the smaller k would report a set that is
        // neither top-3 nor top-4; every chunk fold of one sweep shares
        // its k, and this assert keeps a mismatch loud if it ever isn't.
        let mut a: TopK<u32> = TopK::new(3);
        let b: TopK<u32> = TopK::new(4);
        a.merge(b);
    }

    #[test]
    fn chunk_count_is_the_ceiling_of_points_over_chunk() {
        assert_eq!(chunk_count(0, 1024), 0);
        assert_eq!(chunk_count(1, 1024), 1);
        assert_eq!(chunk_count(1024, 1024), 1);
        assert_eq!(chunk_count(1025, 1024), 2);
        assert_eq!(chunk_count(usize::MAX, 1), usize::MAX);
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut top = TopK::new(0);
        assert!(!top.push(1.0, 0, ()));
        assert!(top.is_empty());
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn objective_names_round_trip() {
        for name in ["seconds", "cpi", "power", "energy", "edp", "ed2p"] {
            let o = Objective::from_name(name).unwrap();
            assert_eq!(o.label(), name);
        }
        assert!(Objective::from_name("joules").is_none());
        let p = StreamPoint {
            design_id: 0,
            cpi: 2.0,
            seconds: 3.0,
            power: 5.0,
        };
        assert_eq!(Objective::Energy.key(&p), 15.0);
        assert_eq!(Objective::Edp.key(&p), 45.0);
        assert_eq!(Objective::Ed2p.key(&p), 135.0);
        assert_eq!(Objective::Custom(|p| p.cpi * 2.0).key(&p), 4.0);
        assert_eq!(Objective::Custom(|p| p.cpi).label(), "custom");
    }
}
