//! The batched prediction path: one [`BatchPredictor`] per
//! (prepared profile, model config) evaluates chunks of design points,
//! answering curve queries from the prepared profile's shared
//! `CurveArena` and memoizing the expensive machine-dependent
//! computations across points.
//!
//! The arena belongs to the [`PreparedProfile`]; a predictor only
//! borrows it, so constructing one costs a config clone, four small
//! empty tables and empty per-window lists of issue-stage limits and
//! kept stages — every sweep worker, DVFS sweep and served flight over
//! one profile shares one layout. A [bounded](BatchPredictor::bounded)
//! predictor skips even that when the profile kept a warm memo for its
//! config (see "Lifetime" below).
//!
//! # Why the results are bit-identical to the single-point path
//!
//! There is one evaluator: `IntervalModel::predict_summary` runs it
//! without a `Memo`, the predictor runs it with one. A memo lookup
//! either computes through the very same function the memo-less run
//! calls, or replays what that function returned earlier for the same
//! complete input set. Each key names exactly that input set — nothing
//! the computation does not read — so a point that changes only other
//! inputs replays it:
//!
//! * **Cache queries** are memoized per level, keyed by `(curve, level,
//!   that level's line count)`. `CurveArena::evaluate` builds a curve's
//!   `CacheModel` from one `CurveArena::level` answer per level, and
//!   `level` reads only the curve and its own line count. The level is
//!   redundant for the bytes; it keeps each entry, and each counted
//!   lookup, one level's.
//! * **Stride walks** are memoized before their MSHR cap
//!   (`StrideMlpModel::walk_stream`), keyed by every machine-dependent
//!   value the walk reads for a fixed window: the window identity
//!   (fixing skeleton, static loads, stream length and cold counts),
//!   the L3 critical reuse distance of the window's load curve (the
//!   only field of `loads_model` the walk touches), ROB size, and —
//!   only when the prefetcher is enabled, the only case that reads them
//!   — the prefetch-table size, DRAM page size, DRAM latency and the
//!   effective dispatch rate. The MSHR cap and the pass-through
//!   `llc_store_misses` (`StrideMlpModel::finish_walk`) run after the
//!   lookup on both paths, so points that differ only in MSHR entries
//!   share one walk.
//! * **Critical paths and branch penalties** are keyed by their complete
//!   input sets — `(window, rob)` for CP(ROB), and the window plus every
//!   scalar the leaky-bucket walk (Alg 3.2) reads for the branch
//!   penalty. The walk iterates up to the misprediction interval with a
//!   dependency-curve interpolation per step, which makes it the single
//!   most expensive machine-dependent computation in a sweep — and its
//!   inputs are untouched by frequency, MSHR and last-level-cache axes,
//!   so most points replay it from the memo.
//! * **Port and unit limits** (Eq 3.10's terms that read only a
//!   window's class counts and the issue stage) are kept per window
//!   for one `ExecConfig` and dropped when a point's `ExecConfig`
//!   differs from it.
//! * **Stage reuse.** A window's core + cache stage (`model::CoreStage`:
//!   its cache queries, latency mix, CP(ROB), dispatch breakdown, branch
//!   and chaining cycles, L̄(ROB) and LLC store misses) reads only the
//!   cache hierarchy, ROB size, dispatch width, front-end depth,
//!   predictor kind and issue stage. The memo keeps the last point's
//!   `StageKey` (those fields but the issue stage, which `bind_exec`
//!   tracks) and each window's stage under it. `bind_stage` decides once
//!   per run: an equal key replays every window's kept stage, any other
//!   computes each through the tables above and keeps it. A replay is
//!   bit-identical: the stage is what those lookups and that arithmetic
//!   returned for the same inputs, and each of them reads nothing outside
//!   the key. It counts as the hits its lookups would have been — each
//!   kept stage records how many cache, CP and branch lookups computing
//!   it took — and those lookups would all hit, since starting the memo
//!   over and a new issue stage both drop the kept stages.
//!
//! # Runs
//!
//! A batch ([`predict_batch_into`](BatchPredictor::predict_batch_into),
//! [`predict_tagged`](BatchPredictor::predict_tagged)) is split into
//! *runs*: maximal stretches of consecutive machines with an equal
//! `StageKey` and an equal issue stage (in `frontier_demo`, the 24
//! innermost points: 4 MSHR depths × 6 operating points). A run is
//! evaluated window-major. Each window's core + cache stage is replayed
//! or computed once, on the run's first machine (its *lead*), and then
//! every machine's memory stage (MLP, bus, DRAM, i-cache, CPI stack and
//! activity) runs against it as one lane. Each lane adds into its own
//! sums in window order, so every lane's sums see the additions a lone
//! point would make, in the same order: the bytes are those of
//! [`predict_summary`](BatchPredictor::predict_summary) per point, which
//! is a run of one. The terms that read no field outside the run's key
//! (base, branch and LLC cycles, every activity count but DRAM and bus
//! traffic, the branch weights) are summed once per run and taken by
//! every lane: the same addition sequence gives the same bits.
//!
//! [`MemoStats`] count exactly what the per-point path counts. The lead
//! binds, replays or computes like a lone point. Every later machine of
//! the run (a *follower*) would have found the lead's stage key and
//! issue stage and replayed every window's kept stage, and would have
//! asked the instruction-path query the lead just asked: the run counts
//! those as the hits they would have been, and looks up only the
//! follower's own stride walks. Lookups of different windows never share
//! a key, so evaluating window-major instead of point-major changes no
//! hit into a miss or back. A [bounded](BatchPredictor::bounded)
//! predictor starts its memo over before a point that could take it
//! past its bound; a run never holds a follower at which that could
//! happen (the lead adds at most one point's entries, a follower at most
//! one stride walk per window), and the next run's lead decides exactly,
//! as a lone point would.
//!
//! Each table answers a repeated key from a last-answer slot before it
//! hashes: one slot per window (per curve and level for cache queries)
//! holds the last complete key that slot was asked for, with its value.
//! A slot compares the whole key and only ever holds a pair its map
//! holds too, so a slot hit returns exactly the bytes a map hit would,
//! and counts as one. The maps hash with `pmt_trace::FastHasher`: they
//! are looked up and `len()`-ed, never iterated, so the hasher decides
//! no output byte.
//!
//! # Lifetime
//!
//! A memo value is a pure function of the profile, the config and its
//! complete key, so a memo can live as long as its profile, shared by
//! every predictor under an equal config: a sweep worker keeps one
//! [`bounded`](BatchPredictor::bounded) predictor across all of its
//! chunks, and the memo outlives the predictor. The prepared profile
//! keeps a small pool of the memos its dropped bounded predictors held,
//! each tagged with the `ModelConfig` it was built under, at most
//! `rayon::current_num_threads()` of them (one per sweep worker; a full
//! pool drops its oldest). A new bounded predictor takes the most
//! recently returned memo whose config is equal (`==`, derived
//! field by field — never the `Debug` or serialized text, in which an
//! entropy model's map prints in a different order for each instance),
//! zeroes its hit and miss tallies, and keeps every entry; dropping the
//! predictor hands the memo back. So the workers of one sweep, the next
//! sweep and the served predict flights over one registered profile all
//! replay each other's work, and the pool dies with its profile.
//! [`new`](BatchPredictor::new) neither takes nor returns a memo, and a
//! predictor a panic unwinds through drops its memo with it.
//!
//! A bounded memo never holds more entries than a fresh predictor could
//! build over one batch of its bound; before a point that could take it
//! past that (a warm memo from a predictor with a larger bound
//! included), it starts over, which costs recomputation and never
//! changes a byte.
//!
//! Memo hits are what make batching fast on sweep-shaped spaces:
//! neighbouring design points share most axes, so most points reuse
//! earlier points' curve queries, stride walks and branch penalties
//! outright — and since consecutive points differ in one or two axes,
//! most lookups repeat the slot's previous key and never hash. A
//! follower in a run costs two key comparisons plus, per window, a
//! stride lookup and its memory stage's arithmetic.

use crate::branch_penalty::BranchPenalty;
use crate::config::ModelConfig;
use crate::dispatch::ExecLimits;
use crate::kernels::arena::CurveArena;
use crate::mlp::MemoryBehavior;
use crate::model::{CoreStage, Evaluator, PredictionSummary};
use crate::prepared::PreparedProfile;
use pmt_trace::FastHashMap;
use pmt_uarch::{CacheHierarchy, ExecConfig, MachineConfig, PredictorKind};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::AddAssign;
use std::sync::Mutex;

/// Complete machine-dependent input set of one window's stride walk
/// (before its MSHR cap, which runs after the lookup).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct StrideKey {
    window: u32,
    crit_l3: u64,
    rob: u32,
    /// Present iff the prefetcher is enabled — the only case in which
    /// the walk reads any of these fields.
    prefetch: Option<PrefetchKey>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PrefetchKey {
    table_entries: u32,
    dram_page_bytes: u32,
    dram_latency: u32,
    deff_bits: u64,
}

/// Complete input set of one window's branch-penalty computation
/// (leaky-bucket Alg 3.2): the window fixes the dependency profile; the
/// scalars are everything else `branch_penalty` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct BranchKey {
    window: u32,
    rob: u32,
    width: u32,
    frontend_depth: u32,
    interval_bits: u64,
    lat_bits: u64,
}

/// Every machine field a window's core + cache stage reads, besides the
/// issue stage (`Memo::bind_exec` tracks that one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StageKey {
    caches: CacheHierarchy,
    rob: u32,
    width: u32,
    frontend_depth: u32,
    predictor: PredictorKind,
}

impl StageKey {
    fn of(machine: &MachineConfig) -> StageKey {
        StageKey {
            caches: machine.caches,
            rob: machine.core.rob_size,
            width: machine.core.dispatch_width,
            frontend_depth: machine.core.frontend_depth,
            predictor: machine.predictor.kind,
        }
    }
}

/// Lookups of the cache, CP(ROB) and branch tables — the three tables a
/// core + cache stage consults.
type StageLookups = [u64; 3];

/// A snapshot of the predictor's memo tables: how many entries each
/// holds and how the predictor's lookups split into hits and misses.
/// Every miss inserts exactly one entry, so a cold predictor keeps
/// `*_entries == *_misses` until a [bounded](BatchPredictor::bounded)
/// one starts its memo over (after that, entries ≤ misses); a bounded
/// predictor that starts from a warm memo also holds the entries it was
/// handed. The serve `/metrics` `memo` block is this struct, summed over
/// every batch flight's change ([`since`](Self::since)) with `+=`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Cache-query memo (curve × level × that level's line count)
    /// entries.
    pub cache_entries: u64,
    /// Cache-query lookups answered from the memo — one per cache level
    /// of a curve query.
    pub cache_hits: u64,
    /// Cache-query lookups that computed (and inserted).
    pub cache_misses: u64,
    /// Stride-walk memo entries (walks before the MSHR cap).
    pub stride_entries: u64,
    /// Stride walks replayed from the memo.
    pub stride_hits: u64,
    /// Stride walks computed.
    pub stride_misses: u64,
    /// CP(ROB) memo entries.
    pub cp_entries: u64,
    /// Critical-path lookups replayed from the memo.
    pub cp_hits: u64,
    /// Critical-path lookups computed.
    pub cp_misses: u64,
    /// Branch-penalty (leaky bucket) memo entries.
    pub branch_entries: u64,
    /// Branch penalties replayed from the memo.
    pub branch_hits: u64,
    /// Branch penalties computed.
    pub branch_misses: u64,
}

impl MemoStats {
    /// Total lookups answered from any memo.
    pub fn hits(&self) -> u64 {
        self.cache_hits + self.stride_hits + self.cp_hits + self.branch_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.cache_misses + self.stride_misses + self.cp_misses + self.branch_misses
    }

    /// What changed between `earlier` and this snapshot of one
    /// predictor: field-wise differences, saturating at zero, since a
    /// memo that started over in between can hold fewer entries than it
    /// did.
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        MemoStats {
            cache_entries: d(self.cache_entries, earlier.cache_entries),
            cache_hits: d(self.cache_hits, earlier.cache_hits),
            cache_misses: d(self.cache_misses, earlier.cache_misses),
            stride_entries: d(self.stride_entries, earlier.stride_entries),
            stride_hits: d(self.stride_hits, earlier.stride_hits),
            stride_misses: d(self.stride_misses, earlier.stride_misses),
            cp_entries: d(self.cp_entries, earlier.cp_entries),
            cp_hits: d(self.cp_hits, earlier.cp_hits),
            cp_misses: d(self.cp_misses, earlier.cp_misses),
            branch_entries: d(self.branch_entries, earlier.branch_entries),
            branch_hits: d(self.branch_hits, earlier.branch_hits),
            branch_misses: d(self.branch_misses, earlier.branch_misses),
        }
    }
}

impl AddAssign for MemoStats {
    /// Field-wise sum: the tallies of two memos taken together.
    fn add_assign(&mut self, other: MemoStats) {
        let MemoStats {
            cache_entries,
            cache_hits,
            cache_misses,
            stride_entries,
            stride_hits,
            stride_misses,
            cp_entries,
            cp_hits,
            cp_misses,
            branch_entries,
            branch_hits,
            branch_misses,
        } = other;
        self.cache_entries += cache_entries;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.stride_entries += stride_entries;
        self.stride_hits += stride_hits;
        self.stride_misses += stride_misses;
        self.cp_entries += cp_entries;
        self.cp_hits += cp_hits;
        self.cp_misses += cp_misses;
        self.branch_entries += branch_entries;
        self.branch_hits += branch_hits;
        self.branch_misses += branch_misses;
    }
}

/// One memo table with its hit/miss tallies, fronted by one
/// last-answer slot per window (per curve and level for cache queries).
///
/// A slot holds the last complete key its window asked for and the
/// value the table answered. Neighbouring design points share most
/// axes, so a window usually asks for the same key again: equal keys
/// return the slot's value without hashing. Any other key goes to the
/// map and then refreshes the slot. A slot only ever holds a pair the
/// map holds too, and it compares the full key, so it answers exactly
/// what the map would — and counts as the same hit.
struct Table<K, V> {
    map: FastHashMap<K, V>,
    last: Vec<Option<(K, V)>>,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq + Copy, V: Copy> Table<K, V> {
    fn new(slots: usize, capacity: usize) -> Self {
        Table {
            map: FastHashMap::with_capacity_and_hasher(capacity, Default::default()),
            last: vec![None; slots],
            hits: 0,
            misses: 0,
        }
    }

    /// The value memoized under `key`, or `compute()`'s, inserted;
    /// `slot` names the window (or curve) asking.
    fn get_or(&mut self, slot: u32, key: K, compute: impl FnOnce() -> V) -> V {
        let last = &mut self.last[slot as usize];
        if let Some((k, v)) = *last {
            if k == key {
                self.hits += 1;
                return v;
            }
        }
        let value = match self.map.entry(key) {
            Entry::Occupied(hit) => {
                self.hits += 1;
                *hit.get()
            }
            Entry::Vacant(entry) => {
                self.misses += 1;
                *entry.insert(compute())
            }
        };
        *last = Some((key, value));
        value
    }

    /// Lookups answered so far, hit or miss.
    fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Drop every entry and slot; the tallies keep counting.
    fn clear(&mut self) {
        self.map.clear();
        self.last.fill(None);
    }

    fn reset_tallies(&mut self) {
        (self.hits, self.misses) = (0, 0);
    }
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            map: FastHashMap::default(),
            last: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }
}

/// The cross-point memo tables the evaluator consults when it is given
/// one. Each lookup is keyed by the complete input set of the
/// computation it stands in for (see the module docs), and computes
/// through the caller's closure — the memo-less computation — on a miss.
#[derive(Default)]
pub(crate) struct Memo {
    cache: Table<(u32, u8, u64), (u64, f64)>,
    stride: Table<StrideKey, MemoryBehavior>,
    cp: Table<(u32, u32), f64>,
    branch: Table<BranchKey, BranchPenalty>,
    /// The issue stage `limits` were computed for.
    exec: Option<ExecConfig>,
    /// Each window's port and unit limits on `exec`.
    limits: Vec<Option<ExecLimits>>,
    /// The key every window's kept stage was computed under, if there is
    /// one; during a point, set only while that point replays them.
    stage_key: Option<StageKey>,
    /// Each window's kept core + cache stage, with the lookups computing
    /// it took.
    stages: Vec<Option<(CoreStage, StageLookups)>>,
    /// The lookup tallies when the window being computed started.
    stage_start: StageLookups,
}

impl Memo {
    /// Empty tables sized for one design point over `windows` windows
    /// (three level queries per window's loads and stores curves, plus
    /// the instruction path's), so a flight of one never rehashes.
    /// Combined mode evaluates one window over the three global curves.
    fn for_windows(windows: usize) -> Memo {
        let (slots, curves) = (windows.max(1), 3 + 2 * windows);
        Memo {
            cache: Table::new(3 * curves, 3 * (2 * slots + 1)),
            stride: Table::new(slots, slots),
            cp: Table::new(slots, slots),
            branch: Table::new(slots, slots),
            exec: None,
            limits: vec![None; slots],
            stage_key: None,
            stages: vec![None; slots],
            stage_start: [0; 3],
        }
    }

    /// Start a run on `exec`: keep every window's port and unit
    /// limits if they were computed for an equal issue stage, drop them
    /// otherwise.
    pub(crate) fn bind_exec(&mut self, exec: &ExecConfig) {
        if self.exec.as_ref() != Some(exec) {
            self.exec = Some(exec.clone());
            self.limits.fill(None);
            self.drop_stages();
        }
    }

    /// Decide, once for the run led by `machine`, whether every window
    /// replays its kept stage: only when all of them were kept under an
    /// equal key. A run that computes its stages names their key only
    /// once it kept them all ([`stages_kept`](Self::stages_kept)), so a
    /// run abandoned midway leaves no mix of two keys' stages to replay.
    pub(crate) fn bind_stage(&mut self, machine: &MachineConfig) {
        if self.stage_key != Some(StageKey::of(machine)) {
            self.stage_key = None;
        }
    }

    /// The run led by `machine` has kept every window's stage.
    pub(crate) fn stages_kept(&mut self, machine: &MachineConfig) {
        self.stage_key = Some(StageKey::of(machine));
    }

    /// Window `window`'s kept stage if this point replays it, counted as
    /// the hits its lookups would have been; otherwise `None`, and the
    /// caller computes the stage and hands it to
    /// [`keep_stage`](Self::keep_stage).
    pub(crate) fn replay_stage(&mut self, window: u32) -> Option<CoreStage> {
        if self.stage_key.is_some() {
            self.count_replays(window, 1);
            return self.stages[window as usize].map(|(stage, _)| stage);
        }
        self.stage_start = self.stage_lookups();
        None
    }

    /// Count window `window`'s kept stage as replayed by the run's
    /// `followers` points after its lead: each would replay it, since
    /// the lead kept it under their key and issue stage.
    pub(crate) fn replay_followers(&mut self, window: u32, followers: u64) {
        self.count_replays(window, followers);
    }

    /// Count the run's `followers` points' instruction-path query: each
    /// asks one lookup per cache level (`CurveArena::evaluate_by`), for
    /// the key the lead just asked, so each is a slot hit.
    pub(crate) fn replay_inst(&mut self, followers: u64) {
        self.cache.hits += 3 * followers;
    }

    /// Count window `window`'s kept stage as `times` replays: each the
    /// hits its lookups would have been.
    fn count_replays(&mut self, window: u32, times: u64) {
        let (_, [cache, cp, branch]) = self.stages[window as usize]
            .as_ref()
            .expect("a replayed stage is kept");
        self.cache.hits += cache * times;
        self.cp.hits += cp * times;
        self.branch.hits += branch * times;
    }

    /// Keep window `window`'s freshly computed stage for the next point,
    /// with the lookups it took since [`replay_stage`](Self::replay_stage).
    pub(crate) fn keep_stage(&mut self, window: u32, stage: CoreStage) {
        let (now, start) = (self.stage_lookups(), self.stage_start);
        let took = [now[0] - start[0], now[1] - start[1], now[2] - start[2]];
        self.stages[window as usize] = Some((stage, took));
    }

    fn stage_lookups(&self) -> StageLookups {
        [
            self.cache.lookups(),
            self.cp.lookups(),
            self.branch.lookups(),
        ]
    }

    /// Forget every kept stage: the next point computes its own.
    fn drop_stages(&mut self) {
        self.stage_key = None;
        self.stages.fill(None);
    }

    /// Window `window`'s port and unit limits on the bound issue stage.
    pub(crate) fn exec_limits(
        &mut self,
        window: u32,
        compute: impl FnOnce() -> ExecLimits,
    ) -> ExecLimits {
        *self.limits[window as usize].get_or_insert_with(compute)
    }

    /// Entries across all four tables.
    fn entries(&self) -> usize {
        self.cache.map.len() + self.stride.map.len() + self.cp.map.len() + self.branch.map.len()
    }

    /// The most entries one design point can add: it asks each slot at
    /// most once, and only a miss inserts.
    fn entries_per_point(&self) -> usize {
        self.cache.last.len() + self.stride.last.len() + self.cp.last.len() + self.branch.last.len()
    }

    /// Zero the hit and miss tallies, keeping every entry: a memo taken
    /// from the pool counts only its new predictor's lookups.
    fn reset_tallies(&mut self) {
        self.cache.reset_tallies();
        self.stride.reset_tallies();
        self.cp.reset_tallies();
        self.branch.reset_tallies();
    }

    /// Start over: drop every entry, and the kept stages that replay
    /// them (the port and unit limits, which are not entries, stay bound
    /// to their issue stage).
    fn clear(&mut self) {
        self.cache.clear();
        self.stride.clear();
        self.cp.clear();
        self.branch.clear();
        self.drop_stages();
    }

    /// Curve `curve`'s queries at cache level `level` (0 = L1), whose
    /// line count is `lines`.
    pub(crate) fn cache_level(
        &mut self,
        curve: u32,
        level: usize,
        lines: u64,
        compute: impl FnOnce() -> (u64, f64),
    ) -> (u64, f64) {
        self.cache.get_or(
            3 * curve + level as u32,
            (curve, level as u8, lines),
            compute,
        )
    }

    /// Window `window`'s stride walk (before its MSHR cap) on `machine`
    /// at dispatch rate `deff`, where the L3 critical reuse distance of
    /// its load curve is `crit_l3`.
    pub(crate) fn stride(
        &mut self,
        machine: &MachineConfig,
        deff: f64,
        window: u32,
        crit_l3: u64,
        compute: impl FnOnce() -> MemoryBehavior,
    ) -> MemoryBehavior {
        let key = StrideKey {
            window,
            crit_l3,
            rob: machine.core.rob_size,
            prefetch: machine.prefetcher.enabled.then(|| PrefetchKey {
                table_entries: machine.prefetcher.table_entries,
                dram_page_bytes: machine.mem.dram_page_bytes,
                dram_latency: machine.mem.dram_latency,
                deff_bits: deff.to_bits(),
            }),
        };
        self.stride.get_or(window, key, compute)
    }

    /// CP(ROB) of window `window`.
    pub(crate) fn critical_path(
        &mut self,
        window: u32,
        rob: u32,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        self.cp.get_or(window, (window, rob), compute)
    }

    /// One window's branch penalty on `machine`'s core.
    pub(crate) fn branch(
        &mut self,
        machine: &MachineConfig,
        window: u32,
        interval: f64,
        lat: f64,
        compute: impl FnOnce() -> BranchPenalty,
    ) -> BranchPenalty {
        let key = BranchKey {
            window,
            rob: machine.core.rob_size,
            width: machine.core.dispatch_width,
            frontend_depth: machine.core.frontend_depth,
            interval_bits: interval.to_bits(),
            lat_bits: lat.to_bits(),
        };
        self.branch.get_or(window, key, compute)
    }
}

/// The warm memos a prepared profile keeps between bounded predictors,
/// each tagged with the config it was built under. A memo value is a
/// pure function of the profile, the config and its key, so a memo
/// handed to a later predictor under an equal config replays exactly
/// what that predictor would compute. Empty until the first bounded
/// predictor over the profile is dropped; it allocates nothing before.
#[derive(Default)]
pub(crate) struct MemoPool {
    memos: Mutex<Vec<(ModelConfig, Memo)>>,
}

impl MemoPool {
    /// The most recently returned memo built under a config equal to
    /// `config`, taken out of the pool.
    fn check_out(&self, config: &ModelConfig) -> Option<Memo> {
        let mut memos = self.memos.lock().ok()?;
        let at = memos.iter().rposition(|(c, _)| c == config)?;
        Some(memos.remove(at).1)
    }

    /// Keep `memo`, built under `config`, for a later predictor. The pool
    /// holds at most one memo per worker of a parallel sweep
    /// (`rayon::current_num_threads()`); a full pool drops its oldest
    /// memo to make room.
    fn give_back(&self, config: ModelConfig, memo: Memo) {
        let Ok(mut memos) = self.memos.lock() else {
            return;
        };
        if memos.len() >= rayon::current_num_threads() {
            memos.remove(0);
        }
        memos.push((config, memo));
    }
}

/// Batched predictor for one prepared profile under one model
/// configuration: cheap to build (it borrows the profile's arena), then
/// call [`predict_summary`](Self::predict_summary) per point (or
/// [`predict_batch_into`](Self::predict_batch_into) for a whole slice).
/// Later points reuse earlier points' memoized curve queries and stride
/// walks; results are bit-identical to
/// `IntervalModel::predict_summary`, in any evaluation order.
pub struct BatchPredictor<'p, 'a> {
    prepared: &'p PreparedProfile<'a>,
    config: ModelConfig,
    /// The prepared profile's own arena, shared with every other
    /// predictor and single-point prediction over it.
    pub(crate) arena: &'p CurveArena,
    memo: Memo,
    /// Most memo entries a [bounded](Self::bounded) predictor holds.
    bound: Option<usize>,
}

impl<'p, 'a> BatchPredictor<'p, 'a> {
    /// Borrow the profile's curve arena (building it if this is the
    /// profile's first prediction) and set up empty memo tables sized
    /// for one point. One config clone total — per-point evaluation
    /// clones nothing.
    pub fn new(prepared: &'p PreparedProfile<'a>, config: &ModelConfig) -> BatchPredictor<'p, 'a> {
        let memo = Memo::for_windows(prepared.windows().len());
        BatchPredictor::with_memo(prepared, config, memo, None)
    }

    /// A predictor meant to outlive many batches of up to `points` design
    /// points each — one per sweep worker, kept across its chunks, or one
    /// per served flight. Its memo never holds more entries than a fresh
    /// predictor could build over one such batch (`points` ×
    /// [`entries_per_point`]): before a point that could take it past
    /// that, the memo starts over. Memory stays O(`points`) however many
    /// points pass through, and the bytes are those of [`new`](Self::new)
    /// — a memo value is a pure function of its complete key, so dropping
    /// entries only costs recomputation.
    ///
    /// The memo outlives the predictor: it starts from a warm memo the
    /// prepared profile kept from an earlier bounded predictor under an
    /// equal config, if there is one, and goes back to the profile when
    /// this predictor is dropped (see the module docs' "Lifetime").
    ///
    /// [`entries_per_point`]: Self::entries_per_point
    pub fn bounded(
        prepared: &'p PreparedProfile<'a>,
        config: &ModelConfig,
        points: usize,
    ) -> BatchPredictor<'p, 'a> {
        let memo = match prepared.memos().check_out(config) {
            Some(mut warm) => {
                warm.reset_tallies();
                warm
            }
            None => Memo::for_windows(prepared.windows().len()),
        };
        let bound = points.saturating_mul(memo.entries_per_point());
        BatchPredictor::with_memo(prepared, config, memo, Some(bound))
    }

    fn with_memo(
        prepared: &'p PreparedProfile<'a>,
        config: &ModelConfig,
        memo: Memo,
        bound: Option<usize>,
    ) -> BatchPredictor<'p, 'a> {
        BatchPredictor {
            prepared,
            config: config.clone(),
            arena: prepared.arena(),
            memo,
            bound,
        }
    }

    /// The most memo entries one design point can add: one per memo
    /// slot, since a point asks each slot at most once.
    pub fn entries_per_point(&self) -> usize {
        self.memo.entries_per_point()
    }

    /// Snapshot the memo tables: the entries they hold (a warm
    /// [bounded](Self::bounded) predictor's include those it started
    /// with) plus the hit/miss tallies of this predictor's own lookups.
    pub fn memo_stats(&self) -> MemoStats {
        let Memo {
            cache,
            stride,
            cp,
            branch,
            ..
        } = &self.memo;
        MemoStats {
            cache_entries: cache.map.len() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            stride_entries: stride.map.len() as u64,
            stride_hits: stride.hits,
            stride_misses: stride.misses,
            cp_entries: cp.map.len() as u64,
            cp_hits: cp.hits,
            cp_misses: cp.misses,
            branch_entries: branch.map.len() as u64,
            branch_hits: branch.hits,
            branch_misses: branch.misses,
        }
    }

    /// The prepared profile this predictor evaluates.
    pub fn prepared(&self) -> &'p PreparedProfile<'a> {
        self.prepared
    }

    /// Predict one design point, reusing everything memoized so far.
    /// Bit-identical to `IntervalModel::with_config(machine,
    /// config).predict_summary(prepared)`.
    pub fn predict_summary(&mut self, machine: &MachineConfig) -> PredictionSummary {
        let mut out = Vec::with_capacity(1);
        self.predict_runs(&[machine], &mut out);
        out.pop().expect("one point, one summary")
    }

    /// Predict a whole chunk of design points in order, appending one
    /// summary per machine to `out` (cleared first). Consecutive machines
    /// that share a core + cache stage are evaluated as one run (see the
    /// module docs); the bytes and [`memo_stats`](Self::memo_stats) are
    /// those of calling [`predict_summary`](Self::predict_summary) per
    /// machine.
    pub fn predict_batch_into<'m, I>(&mut self, machines: I, out: &mut Vec<PredictionSummary>)
    where
        I: IntoIterator<Item = &'m MachineConfig>,
    {
        out.clear();
        let machines: Vec<&MachineConfig> = machines.into_iter().collect();
        self.predict_runs(&machines, out);
    }

    /// Predict a chunk of design points carrying opaque caller keys, in
    /// iteration order, returning `(key, summary)` pairs. This is what
    /// makes demultiplexing a multi-caller batch structural: each caller
    /// tags its point, and the tag rides back with the result — no
    /// positional bookkeeping at the call site. Results are bit-identical
    /// to calling [`predict_summary`](Self::predict_summary) per point
    /// (in any order: the memos are evaluation-order-independent).
    pub fn predict_tagged<K, I>(&mut self, points: I) -> Vec<(K, PredictionSummary)>
    where
        I: IntoIterator<Item = (K, MachineConfig)>,
    {
        let (keys, machines): (Vec<K>, Vec<MachineConfig>) = points.into_iter().unzip();
        let mut out = Vec::with_capacity(machines.len());
        self.predict_runs(&machines.iter().collect::<Vec<_>>(), &mut out);
        keys.into_iter().zip(out).collect()
    }

    /// Split `machines` into runs of consecutive machines with an equal
    /// stage key and issue stage, and evaluate each run window-major,
    /// appending one summary per machine to `out`. A run's lead does
    /// exactly what a lone point does; the rest would each replay every
    /// kept stage, which the run counts instead of doing.
    fn predict_runs(&mut self, machines: &[&MachineConfig], out: &mut Vec<PredictionSummary>) {
        let mut rest = machines;
        while let Some(&lead) = rest.first() {
            if let Some(bound) = self.bound {
                if self.memo.entries() + self.memo.entries_per_point() > bound {
                    self.memo.clear();
                }
            }
            let key = StageKey::of(lead);
            let len = rest
                .iter()
                .take(self.run_room())
                .take_while(|m| StageKey::of(m) == key && m.exec == lead.exec)
                .count();
            let (run, tail) = rest.split_at(len);
            Evaluator {
                lanes: run,
                config: &self.config,
                arena: self.arena,
                memo: Some(&mut self.memo),
            }
            .run(self.prepared, out, None);
            rest = tail;
        }
    }

    /// The most points a run starting now may hold without a bounded
    /// memo's restart landing inside it (one would, one by one, before a
    /// point that could take the memo past its bound). The lead adds at
    /// most [`entries_per_point`](Self::entries_per_point) entries; a
    /// follower only walks strides, so it adds at most one per window.
    /// The run stops before the first follower that could restart; the
    /// next run's lead decides exactly, as a lone point would.
    fn run_room(&self) -> usize {
        let Some(bound) = self.bound else {
            return usize::MAX;
        };
        let per_point = self.memo.entries_per_point();
        let room = bound.saturating_sub(self.memo.entries() + per_point);
        match room.checked_sub(per_point) {
            None => 1,
            Some(spare) => (spare / self.memo.stride.last.len()).saturating_add(2),
        }
    }
}

impl Drop for BatchPredictor<'_, '_> {
    /// A [bounded](BatchPredictor::bounded) predictor hands its memo
    /// back to its profile, unless a panic is unwinding through it: a
    /// memo whose point was cut short is dropped with the predictor.
    fn drop(&mut self) {
        if self.bound.is_some() && !std::thread::panicking() {
            let memo = std::mem::take(&mut self.memo);
            self.prepared.memos().give_back(self.config.clone(), memo);
        }
    }
}
