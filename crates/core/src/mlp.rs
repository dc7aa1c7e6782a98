//! Memory-level parallelism models (thesis §4.3–4.6, §4.9).
//!
//! Two models estimate the average number of overlapping DRAM accesses:
//!
//! * [`cold_miss_mlp`] — Eqs 4.1–4.3: cold misses carry the burstiness,
//!   capacity/conflict misses spread uniformly,
//! * [`StrideMlpModel`] — §4.5: rebuild a *virtual instruction stream*
//!   from per-static-load spacing/stride/reuse distributions, mark misses,
//!   impose inter-load dependences, and step ROB-sized windows over it.
//!
//! Both respect the MSHR soft cap (Eq 4.4); the stride model additionally
//! estimates stride-prefetcher coverage and timeliness (Eq 4.13).

use crate::cache_model::CacheModel;
use pmt_profiler::{LoadDependenceDistribution, StaticLoadProfile};
use pmt_uarch::MachineConfig;
use serde::{Deserialize, Serialize};

/// The memory behaviour of one evaluation window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    /// Average overlapping DRAM loads while at least one is outstanding
    /// (≥ 1), after the MSHR cap.
    pub mlp: f64,
    /// LLC load misses in the window.
    pub llc_load_misses: f64,
    /// LLC load misses that actually stall the core (after prefetch
    /// hiding); ≤ `llc_load_misses`.
    pub stalling_load_misses: f64,
    /// LLC store misses in the window (bandwidth + power only).
    pub llc_store_misses: f64,
    /// Fraction of load misses covered by the prefetcher (0 without one).
    pub prefetch_coverage: f64,
    /// Fraction of ROB windows containing at least one LLC miss. Sparse
    /// misses (low density) have part of their latency hidden by window
    /// refill, and see no bus queuing.
    pub miss_window_density: f64,
}

/// Deterministic unit-interval hash (keeps the model reproducible without
/// an RNG).
#[inline]
fn unit_hash(a: u64, b: u64) -> f64 {
    let mut x = a ^ b.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Sample a dependence depth ℓ from f(ℓ) with a deterministic draw.
fn sample_depth(f: &LoadDependenceDistribution, draw: f64) -> usize {
    let mut acc = 0.0;
    for (l, p) in f.iter() {
        acc += p;
        if draw < acc {
            return l;
        }
    }
    1
}

/// The MSHR soft cap of Eq 4.4: the first `mshr` concurrent misses run in
/// parallel; the rest overlap only partially, waiting on a freed entry for
/// half a DRAM access on average.
pub fn mshr_soft_cap(raw_parallel: f64, mshr_entries: u32) -> f64 {
    let cap = mshr_entries as f64;
    if raw_parallel <= cap {
        return raw_parallel;
    }
    let waiting = raw_parallel - cap;
    // T_MSHRfree ≈ T_DRAM/2 ⇒ each waiting access contributes
    // (T_DRAM − T_DRAM/2)/T_DRAM = 0.5 of an overlap.
    cap + waiting * 0.5
}

/// The cold-miss MLP model (Eqs 4.1–4.3).
///
/// * `f` — inter-load dependence distribution,
/// * `m_llc` — overall LLC load miss *ratio* (probability a load misses),
/// * `cold_fraction_of_misses` — cold share of LLC misses,
/// * `mean_cold_per_rob` — average cold misses per ROB window containing
///   at least one (the burstiness carrier),
/// * `loads_per_rob` — L̄(ROB),
/// * `mshr_entries` — for the soft cap.
pub fn cold_miss_mlp(
    f: &LoadDependenceDistribution,
    m_llc: f64,
    cold_fraction_of_misses: f64,
    mean_cold_per_rob: f64,
    loads_per_rob: f64,
    mshr_entries: u32,
) -> f64 {
    if m_llc <= 0.0 {
        return 1.0;
    }
    let survive = |l: usize| (1.0 - m_llc).powi(l as i32 - 1);
    // Eq 4.1: independent cold misses per ROB.
    let mlp_cold: f64 = f
        .iter()
        .map(|(l, p)| survive(l) * mean_cold_per_rob * p)
        .sum();
    // Eq 4.2: capacity/conflict misses, spread uniformly.
    let m_cf = m_llc * (1.0 - cold_fraction_of_misses);
    let mlp_cf: f64 = f
        .iter()
        .map(|(l, p)| survive(l) * m_cf * loads_per_rob * p)
        .sum();
    // Eq 4.3: blend by miss-type share.
    let blended = cold_fraction_of_misses * mlp_cold + (1.0 - cold_fraction_of_misses) * mlp_cf;
    mshr_soft_cap(blended, mshr_entries).max(1.0)
}

/// One occurrence in the virtual instruction stream.
#[derive(Clone, Copy, Debug)]
struct VirtualLoad {
    position: u64,
    /// Index of the owning static load.
    owner: u32,
    /// Misses the LLC.
    misses_llc: bool,
    /// The miss is a first-ever touch (cold). Cold misses happen once and
    /// must not be extrapolated with the window weight.
    cold: bool,
    /// Dependence depth ℓ.
    depth: u8,
    /// Prefetch latency-hiding factor φ ∈ [0, 1]: 0 = fully hidden.
    stall_factor: f64,
}

/// One occurrence in the machine-independent stream skeleton.
#[derive(Clone, Copy, Debug)]
struct SkeletonLoad {
    position: u64,
    /// Index of the owning static load.
    owner: u32,
    /// Deterministic unit draw deciding whether this occurrence misses.
    miss_draw: f64,
    /// Pre-sampled dependence depth ℓ.
    depth: u8,
}

/// The micro-architecture independent skeleton of a micro-trace's virtual
/// instruction stream (§4.5).
///
/// Occurrence positions, the deterministic hash draws and the sampled
/// dependence depths are fixed by the application profile alone, so
/// [`crate::PreparedProfile`] builds this once per micro-trace; every
/// design point then only re-classifies each occurrence as hit/miss/cold
/// against that machine's critical reuse distance
/// ([`StrideMlpModel::evaluate_stream`]).
#[derive(Clone, Debug, Default)]
pub struct VirtualStream {
    entries: Vec<SkeletonLoad>,
    /// Length of the `static_loads` slice this skeleton was built from;
    /// `entries[..].owner` index into exactly that slice.
    owners: usize,
}

impl VirtualStream {
    /// Rebuild the stream skeleton from per-static-load profiles and the
    /// inter-load dependence distribution `f`, identical (ordering
    /// included) to the stream [`StrideMlpModel::evaluate`] builds inline.
    pub fn build(
        static_loads: &[StaticLoadProfile],
        f: &LoadDependenceDistribution,
        stream_uops: u64,
    ) -> VirtualStream {
        let mut entries: Vec<SkeletonLoad> = Vec::new();
        for (owner, load) in static_loads.iter().enumerate() {
            let spacing = load.mean_spacing.max(1.0);
            for k in 0..load.count {
                let position = load.first_pos as u64 + (k as f64 * spacing) as u64;
                if position >= stream_uops {
                    break;
                }
                let miss_draw = unit_hash(load.pc, k.wrapping_mul(2));
                let depth_draw = unit_hash(load.pc, k.wrapping_mul(2) + 1);
                entries.push(SkeletonLoad {
                    position,
                    owner: owner as u32,
                    miss_draw,
                    depth: sample_depth(f, depth_draw) as u8,
                });
            }
        }
        // Stable sort: occurrences at equal positions keep their
        // owner-major construction order, exactly like the inline build.
        entries.sort_by_key(|v| v.position);
        VirtualStream {
            entries,
            owners: static_loads.len(),
        }
    }

    /// Occurrences in the skeleton.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the skeleton is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The stride-MLP model (thesis §4.5): per-micro-trace virtual instruction
/// stream analysis.
pub struct StrideMlpModel<'a> {
    machine: &'a MachineConfig,
    /// Effective dispatch rate of the window (for prefetch timeliness).
    pub deff: f64,
}

impl<'a> StrideMlpModel<'a> {
    /// Create the model.
    pub fn new(machine: &'a MachineConfig, deff: f64) -> StrideMlpModel<'a> {
        StrideMlpModel { machine, deff }
    }

    /// Evaluate a micro-trace.
    ///
    /// * `static_loads` — per-static-load profiles from the profiler,
    /// * `loads_model` — the window's fitted cache model (for critical
    ///   reuse distances),
    /// * `f` — inter-load dependence distribution,
    /// * `stream_uops` — length of the virtual stream (micro-trace μops),
    /// * `total_window_loads` — loads the full window stands for (used to
    ///   scale miss counts),
    /// * `store_llc_misses` — LLC store misses (bandwidth scaling).
    #[allow(clippy::too_many_arguments)] // mirrors the thesis' Eq 4.x parameter list
    pub fn evaluate(
        &self,
        static_loads: &[StaticLoadProfile],
        loads_model: &CacheModel,
        f: &LoadDependenceDistribution,
        stream_uops: u64,
        total_window_loads: f64,
        store_llc_misses: f64,
        window_cold_misses: f64,
    ) -> MemoryBehavior {
        self.evaluate_stream(
            &VirtualStream::build(static_loads, f, stream_uops),
            static_loads,
            loads_model,
            stream_uops,
            total_window_loads,
            store_llc_misses,
            window_cold_misses,
        )
    }

    /// Evaluate a micro-trace whose stream skeleton was prebuilt
    /// ([`VirtualStream::build`]). This is the per-design-point fast path:
    /// the positions/draws/depths are reused and only the machine-dependent
    /// classification (miss vs hit against this machine's critical reuse
    /// distance, prefetch timeliness, ROB-window stepping) is redone.
    ///
    /// The walk (`walk_stream`) followed by its last step
    /// (`finish_walk`): the MSHR cap and the pass-through store misses.
    /// The batched predictor memoizes the walk alone, so points that
    /// differ only in MSHR entries share it.
    #[allow(clippy::too_many_arguments)] // mirrors the thesis' Eq 4.x parameter list
    pub fn evaluate_stream(
        &self,
        skeleton: &VirtualStream,
        static_loads: &[StaticLoadProfile],
        loads_model: &CacheModel,
        stream_uops: u64,
        total_window_loads: f64,
        store_llc_misses: f64,
        window_cold_misses: f64,
    ) -> MemoryBehavior {
        let walk = self.walk_stream(
            skeleton,
            static_loads,
            loads_model,
            stream_uops,
            total_window_loads,
            window_cold_misses,
        );
        self.finish_walk(walk, store_llc_misses)
    }

    /// Everything [`evaluate_stream`](Self::evaluate_stream) computes
    /// except its last step: `mlp` is the raw window average, before the
    /// MSHR cap, and `llc_store_misses` is zero. The walk reads the
    /// machine's ROB size, the L3 critical reuse distance of
    /// `loads_model` and — only with the prefetcher enabled — the
    /// prefetch table, DRAM page size, DRAM latency and `deff`; never
    /// the MSHR count.
    pub(crate) fn walk_stream(
        &self,
        skeleton: &VirtualStream,
        static_loads: &[StaticLoadProfile],
        loads_model: &CacheModel,
        stream_uops: u64,
        total_window_loads: f64,
        window_cold_misses: f64,
    ) -> MemoryBehavior {
        assert_eq!(
            skeleton.owners,
            static_loads.len(),
            "virtual-stream skeleton was built from a different static-load set"
        );
        let rob = self.machine.core.rob_size as u64;
        let crit_l3 = loads_model.critical_rd[2];
        let use_prefetcher = self.machine.prefetcher.enabled;

        // --- Classify the prebuilt stream for this machine -----------------
        // Per-static-load miss probabilities, split into cold and reuse
        // parts (computed once per owner, as the inline build does).
        let probs: Vec<(f64, f64)> = static_loads
            .iter()
            .map(|load| {
                let p_miss = load.miss_probability(crit_l3);
                (p_miss, load.cold_fraction.min(p_miss))
            })
            .collect();
        let mut stream: Vec<VirtualLoad> = skeleton
            .entries
            .iter()
            .map(|s| {
                let (p_miss, p_cold) = probs[s.owner as usize];
                let misses = s.miss_draw < p_miss;
                VirtualLoad {
                    position: s.position,
                    owner: s.owner,
                    misses_llc: misses,
                    cold: misses && s.miss_draw < p_cold,
                    depth: s.depth,
                    stall_factor: 1.0,
                }
            })
            .collect();

        // --- Prefetcher coverage & timeliness (§4.9, Eq 4.13) --------------
        if use_prefetcher && !stream.is_empty() {
            self.apply_prefetcher(&mut stream, static_loads);
        }

        // --- Step ROB windows, count independent LLC misses ----------------
        // Windows begin at a (predicted) main-memory access and step (the
        // thesis' explicit choice over sliding, §4.5).
        let m_llc_ratio = if stream.is_empty() {
            0.0
        } else {
            stream.iter().filter(|v| v.misses_llc).count() as f64 / stream.len() as f64
        };
        let survive = |l: u8| (1.0 - m_llc_ratio).powi(l as i32 - 1);
        let mut window_mlps: Vec<f64> = Vec::new();
        let mut i = 0usize;
        while i < stream.len() {
            while i < stream.len() && !stream[i].misses_llc {
                i += 1;
            }
            if i >= stream.len() {
                break;
            }
            let window_start = stream[i].position;
            let window_end = window_start + rob;
            let mut independent = 0.0;
            let mut misses = 0u32;
            let mut j = i;
            while j < stream.len() && stream[j].position < window_end {
                if stream[j].misses_llc {
                    misses += 1;
                    independent += survive(stream[j].depth);
                }
                j += 1;
            }
            if misses > 0 {
                window_mlps.push(independent.max(1.0));
            }
            i = j.max(i + 1);
        }

        let raw_mlp = if window_mlps.is_empty() {
            1.0
        } else {
            window_mlps.iter().sum::<f64>() / window_mlps.len() as f64
        };
        let total_windows = (stream_uops / rob).max(1) as f64;
        let miss_window_density = (window_mlps.len() as f64 / total_windows).min(1.0);

        // --- Scale the virtual stream's misses to the full window ----------
        // Reuse misses are a stationary *rate* and extrapolate with the
        // window weight; cold misses happen once, and the profiler counted
        // the window's exact total, so they are taken verbatim.
        let stream_loads = stream.len() as f64;
        let mut reuse_misses = 0.0;
        let mut reuse_stalled = 0.0;
        let mut cold_misses_stream = 0.0;
        let mut cold_stalled = 0.0;
        for v in stream.iter().filter(|v| v.misses_llc) {
            if v.cold {
                cold_misses_stream += 1.0;
                cold_stalled += v.stall_factor;
            } else {
                reuse_misses += 1.0;
                reuse_stalled += v.stall_factor;
            }
        }
        let (reuse_frac, reuse_stall_frac) = if stream_loads > 0.0 {
            (reuse_misses / stream_loads, reuse_stalled / stream_loads)
        } else {
            (0.0, 0.0)
        };
        let cold_stall_ratio = if cold_misses_stream > 0.0 {
            cold_stalled / cold_misses_stream
        } else {
            1.0
        };
        let llc_load_misses = reuse_frac * total_window_loads + window_cold_misses;
        let stalling =
            reuse_stall_frac * total_window_loads + cold_stall_ratio * window_cold_misses;

        MemoryBehavior {
            mlp: raw_mlp,
            llc_load_misses,
            stalling_load_misses: stalling,
            llc_store_misses: 0.0,
            prefetch_coverage: if llc_load_misses > 0.0 {
                1.0 - stalling / llc_load_misses
            } else {
                0.0
            },
            miss_window_density,
        }
    }

    /// The last step of [`evaluate_stream`](Self::evaluate_stream) on a
    /// [`walk_stream`](Self::walk_stream) result: the MSHR soft cap
    /// (Eq 4.4) on the raw MLP, and the window's LLC store misses, which
    /// the walk passes through untouched.
    pub(crate) fn finish_walk(
        &self,
        mut walk: MemoryBehavior,
        store_llc_misses: f64,
    ) -> MemoryBehavior {
        walk.mlp = mshr_soft_cap(walk.mlp, self.machine.mem.mshr_entries).max(1.0);
        walk.llc_store_misses = store_llc_misses;
        walk
    }

    /// Walk the virtual stream with a finite prefetch table (Fig 4.10) and
    /// apply the timeliness rule of Eq 4.13.
    fn apply_prefetcher(&self, stream: &mut [VirtualLoad], static_loads: &[StaticLoadProfile]) {
        let table = self.machine.prefetcher.table_entries as usize;
        let page = self.machine.mem.dram_page_bytes as i64;
        let dram = self.machine.mem.dram_latency as f64;
        let rob = self.machine.core.rob_size as f64;
        // LRU list of tracked static loads with their seen-count.
        let mut lru: Vec<(u32, u32)> = Vec::new(); // (owner, recurrences tracked)
        for v in stream.iter_mut() {
            let owner = v.owner;
            let load = &static_loads[owner as usize];
            let trained = match lru.iter().position(|&(o, _)| o == owner) {
                Some(pos) => {
                    let (o, seen) = lru.remove(pos);
                    lru.insert(0, (o, seen + 1));
                    seen + 1 >= 2 // needs two tracked recurrences to train
                }
                None => {
                    lru.insert(0, (owner, 0));
                    lru.truncate(table.max(1));
                    false
                }
            };
            if !trained || !v.misses_llc {
                continue;
            }
            // Only strided loads with in-page strides are prefetchable.
            let prefetchable = load.category.is_strided()
                && load
                    .strides
                    .first()
                    .map(|&(s, _)| s != 0 && s.abs() < page)
                    .unwrap_or(false);
            if !prefetchable {
                continue;
            }
            // Timeliness (Eq 4.13): the prefetch fires one recurrence
            // ahead; spacing ≥ ROB hides everything, otherwise partially.
            let spacing = load.mean_spacing.max(1.0);
            if spacing >= rob {
                v.stall_factor = 0.0;
            } else {
                let hidden = spacing / self.deff.max(0.1);
                v.stall_factor = ((dram - hidden) / dram).clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::LoadDependenceDistribution;

    fn f_indep() -> LoadDependenceDistribution {
        LoadDependenceDistribution::from_fractions(vec![1.0], 8.0)
    }

    fn f_chained() -> LoadDependenceDistribution {
        // All loads at depth 4: heavily serialized.
        LoadDependenceDistribution::from_fractions(vec![0.0, 0.0, 0.0, 1.0], 8.0)
    }

    #[test]
    fn cold_mlp_grows_with_burstiness() {
        let quiet = cold_miss_mlp(&f_indep(), 0.1, 0.9, 1.0, 10.0, 32);
        let bursty = cold_miss_mlp(&f_indep(), 0.1, 0.9, 8.0, 10.0, 32);
        assert!(bursty > quiet, "{bursty} vs {quiet}");
    }

    #[test]
    fn cold_mlp_is_reduced_by_dependences() {
        let indep = cold_miss_mlp(&f_indep(), 0.5, 0.5, 6.0, 10.0, 32);
        let chained = cold_miss_mlp(&f_chained(), 0.5, 0.5, 6.0, 10.0, 32);
        assert!(chained < indep, "{chained} vs {indep}");
    }

    #[test]
    fn cold_mlp_floors_at_one() {
        assert_eq!(cold_miss_mlp(&f_indep(), 0.0, 0.0, 0.0, 0.0, 8), 1.0);
    }

    #[test]
    fn mshr_cap_is_soft() {
        assert_eq!(mshr_soft_cap(5.0, 10), 5.0);
        let capped = mshr_soft_cap(20.0, 10);
        assert!(capped > 10.0 && capped < 20.0, "{capped}");
        assert!((capped - 15.0).abs() < 1e-9);
    }

    #[test]
    fn unit_hash_is_deterministic_and_uniformish() {
        let a = unit_hash(42, 7);
        assert_eq!(a, unit_hash(42, 7));
        let mean: f64 = (0..1000).map(|i| unit_hash(99, i)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "{mean}");
    }

    #[test]
    fn depth_sampling_respects_distribution() {
        let f = LoadDependenceDistribution::from_fractions(vec![0.5, 0.5], 4.0);
        let mut ones = 0;
        for i in 0..1000 {
            if sample_depth(&f, unit_hash(1, i)) == 1 {
                ones += 1;
            }
        }
        assert!(ones > 400 && ones < 600, "{ones}");
    }
}
