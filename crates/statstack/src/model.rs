//! The reuse-to-stack-distance conversion and miss-ratio curves.

use crate::histogram::ReuseHistogram;
use serde::{Deserialize, Serialize};

/// The fitted StatStack model for one reuse-distance histogram.
///
/// Precomputes, per histogram bin boundary `r`, the survival function
/// `P(RD > r)` and the expected stack distance `SD(r) = Σ_{m<r} P(RD > m)`,
/// then answers miss-ratio queries for arbitrary cache sizes by locating
/// the critical reuse distance where `SD(r) = C` (thesis §4.2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StackDistanceModel {
    /// Bin floors (distances), increasing.
    floors: Vec<u64>,
    /// `P(RD > floor)` at each bin floor (includes cold mass).
    survival: Vec<f64>,
    /// Expected stack distance at each bin floor.
    stack: Vec<f64>,
    /// Fraction of cold accesses.
    cold_fraction: f64,
    /// Total accesses in the underlying histogram.
    total: u64,
}

impl StackDistanceModel {
    /// Fit the model to a reuse histogram.
    pub fn from_reuse(hist: &ReuseHistogram) -> StackDistanceModel {
        let total = hist.total();
        if total == 0 {
            return StackDistanceModel {
                floors: vec![0],
                survival: vec![0.0],
                stack: vec![0.0],
                cold_fraction: 0.0,
                total: 0,
            };
        }
        let n_bins = ReuseHistogram::bin_count();
        let counts = hist.raw_counts();
        let cold = hist.cold() as f64;
        let totalf = total as f64;

        // Suffix sums: accesses with RD strictly greater than each bin's
        // floor. Approximating "greater than any distance within the bin"
        // by the bin granularity is the standard StatStack discretization.
        let mut floors = Vec::with_capacity(n_bins + 1);
        let mut survival = Vec::with_capacity(n_bins + 1);
        let mut suffix: f64 = counts.iter().map(|&c| c as f64).sum::<f64>() + cold;
        // P(RD > r) just *before* any reuse is counted is 1 at r = -1; we
        // store at floors the probability after removing bins ≤ floor.
        for bin in 0..n_bins {
            if counts.is_empty() {
                break;
            }
            suffix -= counts[bin] as f64;
            if bin > 0 && ReuseHistogram::floor_of(bin) == ReuseHistogram::floor_of(bin - 1) {
                continue;
            }
            floors.push(ReuseHistogram::floor_of(bin));
            survival.push(suffix / totalf);
        }
        if floors.is_empty() {
            floors.push(0);
            survival.push(cold / totalf);
        }

        // SD(r) = Σ_{m=0}^{r-1} P(RD > m): integrate the survival step
        // function over distance.
        let mut stack = Vec::with_capacity(floors.len());
        let mut acc = 0.0;
        let mut prev_floor = 0u64;
        let mut prev_surv = 1.0; // P(RD > m) for m < floors[0] is ≤ 1
        for (i, (&fl, &sv)) in floors.iter().zip(survival.iter()).enumerate() {
            if i == 0 {
                // SD at distance floors[0] = floors[0] · 1.0 (every earlier
                // m has survival ≤ 1; with floors[0] == 0 this is 0).
                acc += fl as f64 * prev_surv;
            } else {
                acc += (fl - prev_floor) as f64 * prev_surv;
            }
            stack.push(acc);
            prev_floor = fl;
            prev_surv = sv;
        }

        StackDistanceModel {
            floors,
            survival,
            stack,
            cold_fraction: hist.cold_fraction(),
            total,
        }
    }

    /// Fraction of cold accesses.
    pub fn cold_fraction(&self) -> f64 {
        self.cold_fraction
    }

    /// The fitted curve as parallel slices `(floors, survival, stack)`:
    /// bin floors (increasing), `P(RD > floor)` and the expected stack
    /// distance at each floor. This is the raw data
    /// [`critical_reuse_distance`](Self::critical_reuse_distance) and
    /// [`miss_ratio`](Self::miss_ratio) search, exposed so batched
    /// evaluators can lay many fitted curves out as flat
    /// structure-of-arrays storage and answer the same queries without
    /// chasing one `Arc` per curve per point.
    pub fn curve(&self) -> (&[u64], &[f64], &[f64]) {
        (&self.floors, &self.survival, &self.stack)
    }

    /// Total accesses the model was fitted on.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Expected stack distance (unique intervening lines) for a reuse
    /// window of `reuse_distance` accesses.
    pub fn stack_distance(&self, reuse_distance: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        match self.floors.binary_search(&reuse_distance) {
            Ok(i) => self.stack[i],
            Err(0) => reuse_distance as f64,
            Err(i) => {
                let base = self.stack[i - 1];
                let extra = (reuse_distance - self.floors[i - 1]) as f64 * self.survival[i - 1];
                base + extra
            }
        }
    }

    /// The critical reuse distance at which the expected stack distance
    /// reaches `cache_lines` — reuses longer than this miss.
    pub fn critical_reuse_distance(&self, cache_lines: u64) -> u64 {
        if self.total == 0 {
            return u64::MAX;
        }
        let target = cache_lines as f64;
        // Find the first floor whose SD ≥ target, then interpolate within
        // the preceding segment.
        match self
            .stack
            .binary_search_by(|s| s.partial_cmp(&target).unwrap())
        {
            Ok(i) => self.floors[i],
            Err(0) => cache_lines, // SD grows at slope ≤ 1 before the data
            Err(i) if i == self.stack.len() => u64::MAX,
            Err(i) => {
                let base_sd = self.stack[i - 1];
                let slope = self.survival[i - 1];
                if slope <= f64::EPSILON {
                    self.floors[i]
                } else {
                    self.floors[i - 1] + ((target - base_sd) / slope).ceil() as u64
                }
            }
        }
    }

    /// Miss ratio of a fully-associative LRU cache with `cache_lines`
    /// lines: the fraction of accesses whose expected stack distance is at
    /// least the cache size (cold accesses always miss).
    pub fn miss_ratio(&self, cache_lines: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if cache_lines == 0 {
            return 1.0;
        }
        let crit = self.critical_reuse_distance(cache_lines);
        if crit == u64::MAX {
            return self.cold_fraction;
        }
        // P(RD > crit) includes cold mass.
        match self.floors.binary_search(&crit) {
            Ok(i) => self.survival[i],
            Err(0) => 1.0,
            Err(i) => self.survival[i - 1],
        }
        .max(self.cold_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ReuseRecorder;

    /// Exact fully-associative LRU simulation for validation.
    fn exact_lru_miss_ratio(stream: &[u64], lines: usize) -> f64 {
        let mut stack: Vec<u64> = Vec::new();
        let mut misses = 0usize;
        for &a in stream {
            match stack.iter().position(|&x| x == a) {
                Some(pos) => {
                    if pos >= lines {
                        misses += 1;
                    }
                    stack.remove(pos);
                }
                None => misses += 1,
            }
            stack.insert(0, a);
        }
        misses as f64 / stream.len() as f64
    }

    fn model_of(stream: &[u64]) -> StackDistanceModel {
        let mut rec = ReuseRecorder::new();
        for &a in stream {
            rec.record(a);
        }
        StackDistanceModel::from_reuse(rec.histogram())
    }

    #[test]
    fn empty_model_is_benign() {
        let m = StackDistanceModel::from_reuse(&ReuseHistogram::new());
        assert_eq!(m.miss_ratio(64), 0.0);
        assert_eq!(m.stack_distance(100), 0.0);
    }

    #[test]
    fn single_line_always_hits() {
        let stream = vec![42u64; 1000];
        let m = model_of(&stream);
        // Only the first access is cold.
        assert!((m.miss_ratio(1) - 0.001).abs() < 1e-9);
        assert!((m.miss_ratio(1024) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn stack_distance_is_at_most_reuse_distance() {
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 7 + i % 13) % 50).collect();
        let m = model_of(&stream);
        for rd in [0u64, 1, 5, 10, 50, 100, 500] {
            assert!(
                m.stack_distance(rd) <= rd as f64 + 1e-9,
                "SD({rd}) = {} > {rd}",
                m.stack_distance(rd)
            );
        }
    }

    #[test]
    fn stack_distance_is_monotone() {
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 31) % 200).collect();
        let m = model_of(&stream);
        let mut prev = 0.0;
        for rd in 0..500u64 {
            let sd = m.stack_distance(rd);
            assert!(sd + 1e-9 >= prev, "SD not monotone at {rd}");
            prev = sd;
        }
    }

    #[test]
    fn miss_ratio_is_monotone_in_cache_size() {
        let stream: Vec<u64> = (0..5000u64).map(|i| (i * i + 3 * i) % 300).collect();
        let m = model_of(&stream);
        let mut prev = 1.0;
        for c in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            let mr = m.miss_ratio(c);
            assert!(mr <= prev + 1e-9, "miss ratio rose at C={c}");
            prev = mr;
        }
    }

    #[test]
    fn cyclic_sweep_matches_exact_lru() {
        // A cyclic sweep over N lines: classic LRU worst case. For C < N
        // everything misses; for C ≥ N everything hits after warmup.
        let n = 64u64;
        let stream: Vec<u64> = (0..20_000u64).map(|i| i % n).collect();
        let m = model_of(&stream);
        let small = m.miss_ratio(32);
        let big = m.miss_ratio(128);
        let exact_small = exact_lru_miss_ratio(&stream, 32);
        let exact_big = exact_lru_miss_ratio(&stream, 128);
        assert!(
            (small - exact_small).abs() < 0.02,
            "{small} vs {exact_small}"
        );
        assert!((big - exact_big).abs() < 0.02, "{big} vs {exact_big}");
    }

    #[test]
    fn random_stream_close_to_exact_lru() {
        // Pseudo-random accesses to 256 lines; StatStack should be within a
        // few percent of exact LRU at several cache sizes.
        let mut x = 123456789u64;
        let stream: Vec<u64> = (0..30_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 256
            })
            .collect();
        let m = model_of(&stream);
        for c in [32usize, 64, 128, 256] {
            let exact = exact_lru_miss_ratio(&stream, c);
            let pred = m.miss_ratio(c as u64);
            assert!(
                (pred - exact).abs() < 0.05,
                "C={c}: statstack {pred} vs exact {exact}"
            );
        }
    }

    #[test]
    fn streaming_misses_everywhere() {
        let stream: Vec<u64> = (0..10_000u64).collect();
        let m = model_of(&stream);
        assert!((m.miss_ratio(1024) - 1.0).abs() < 1e-9);
        assert!((m.cold_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_distance_grows_with_cache() {
        let stream: Vec<u64> = (0..20_000u64).map(|i| (i * 17) % 1000).collect();
        let m = model_of(&stream);
        let c1 = m.critical_reuse_distance(16);
        let c2 = m.critical_reuse_distance(256);
        assert!(c2 > c1);
    }
}
