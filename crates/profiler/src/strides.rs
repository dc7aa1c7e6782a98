//! Per-static-load stride, spacing and reuse profiling (thesis §4.5).

use pmt_trace::FastHashMap;
use serde::{Deserialize, Serialize};

/// Stride classification of a static load (thesis Fig 4.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrideCategory {
    /// Exactly one stride observed ("STRIDE").
    SingleExact,
    /// One dominant stride after filtering at ≥ 60% ("FILTER-1").
    Filtered1,
    /// Two strides covering ≥ 70% ("FILTER-2").
    Filtered2,
    /// Three strides covering ≥ 80% ("FILTER-3").
    Filtered3,
    /// Four strides covering ≥ 90% ("FILTER-4").
    Filtered4,
    /// No stride pattern passes the filters ("RANDOM").
    Random,
    /// Load occurred only once in the micro-trace ("UNIQUE").
    Unique,
}

impl StrideCategory {
    /// Display label matching the thesis figure.
    pub fn label(self) -> &'static str {
        match self {
            StrideCategory::SingleExact => "STRIDE",
            StrideCategory::Filtered1 => "FILTER-1",
            StrideCategory::Filtered2 => "FILTER-2",
            StrideCategory::Filtered3 => "FILTER-3",
            StrideCategory::Filtered4 => "FILTER-4",
            StrideCategory::Random => "RANDOM",
            StrideCategory::Unique => "UNIQUE",
        }
    }

    /// Whether the load is usable as a strided load by the MLP/prefetcher
    /// models.
    pub fn is_strided(self) -> bool {
        !matches!(self, StrideCategory::Random | StrideCategory::Unique)
    }
}

/// The profile of one static load within one micro-trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StaticLoadProfile {
    /// Static identity (instruction address).
    pub pc: u64,
    /// Dynamic occurrences in the micro-trace.
    pub count: u64,
    /// μop position of the first occurrence (micro-trace relative).
    pub first_pos: u32,
    /// Mean μops between recurrences.
    pub mean_spacing: f64,
    /// Dominant strides with their occurrence fractions (sorted by
    /// fraction, descending).
    pub strides: Vec<(i64, f64)>,
    /// Stride classification.
    pub category: StrideCategory,
    /// Sampled reuse distances of this load's accesses:
    /// (distance, count), cold accesses excluded.
    pub reuse: Vec<(u64, u32)>,
    /// Fraction of this load's accesses that were first-ever line touches.
    pub cold_fraction: f64,
}

impl StaticLoadProfile {
    /// Miss probability of this load for a cache whose critical reuse
    /// distance is `critical_rd` (thesis §4.5: per-load miss rates from
    /// per-load reuse distances + StatStack).
    pub fn miss_probability(&self, critical_rd: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let sampled: u64 = self.reuse.iter().map(|&(_, c)| c as u64).sum();
        if sampled == 0 {
            // Only cold information: cold accesses always miss.
            return self.cold_fraction;
        }
        let missing: u64 = self
            .reuse
            .iter()
            .filter(|&&(d, _)| d > critical_rd)
            .map(|&(_, c)| c as u64)
            .sum();
        let reuse_miss = missing as f64 / sampled as f64;
        // Cold accesses miss unconditionally; reuses miss per StatStack.
        self.cold_fraction + (1.0 - self.cold_fraction) * reuse_miss
    }
}

/// Builder that accumulates one static load's behaviour during a
/// micro-trace pass.
#[derive(Clone, Debug)]
pub struct StaticLoadBuilder {
    pc: u64,
    count: u64,
    first_pos: u32,
    last_pos: u32,
    gap_sum: u64,
    last_addr: u64,
    stride_counts: FastHashMap<i64, u32>,
    reuse: FastHashMap<u64, u32>,
    cold: u64,
    max_strides: usize,
}

impl StaticLoadBuilder {
    /// Start a builder at the load's first occurrence.
    pub fn new(pc: u64, pos: u32, addr: u64, max_strides: usize) -> StaticLoadBuilder {
        StaticLoadBuilder {
            pc,
            count: 1,
            first_pos: pos,
            last_pos: pos,
            gap_sum: 0,
            last_addr: addr,
            stride_counts: FastHashMap::default(),
            reuse: FastHashMap::default(),
            cold: 0,
            max_strides,
        }
    }

    /// Record a recurrence.
    pub fn recur(&mut self, pos: u32, addr: u64) {
        self.count += 1;
        self.gap_sum += (pos - self.last_pos) as u64;
        self.last_pos = pos;
        let stride = addr as i64 - self.last_addr as i64;
        self.last_addr = addr;
        if self.stride_counts.len() < self.max_strides * 4
            || self.stride_counts.contains_key(&stride)
        {
            *self.stride_counts.entry(stride).or_insert(0) += 1;
        }
    }

    /// Record the reuse distance of an access (`None` = cold).
    pub fn record_reuse(&mut self, distance: Option<u64>) {
        match distance {
            Some(d) => {
                // Quantize to keep the map small.
                let q = quantize(d);
                *self.reuse.entry(q).or_insert(0) += 1;
            }
            None => self.cold += 1,
        }
    }

    /// Finalize into a [`StaticLoadProfile`], applying the thesis'
    /// 60/70/80/90% stride filters.
    pub fn finish(self) -> StaticLoadProfile {
        let recurrences = self.count.saturating_sub(1);
        let mean_spacing = if recurrences == 0 {
            0.0
        } else {
            self.gap_sum as f64 / recurrences as f64
        };
        // Sort strides by frequency.
        let mut strides: Vec<(i64, u32)> = self.stride_counts.into_iter().collect();
        strides.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let total: u32 = strides.iter().map(|&(_, c)| c).sum();

        let (category, kept) = if self.count == 1 {
            (StrideCategory::Unique, Vec::new())
        } else if total == 0 {
            (StrideCategory::Random, Vec::new())
        } else if strides.len() == 1 {
            (StrideCategory::SingleExact, vec![strides[0]])
        } else {
            // Cumulative filter thresholds: 60/70/80/90% for 1–4 strides.
            let thresholds = [0.60, 0.70, 0.80, 0.90];
            let mut chosen = None;
            let mut cum = 0u32;
            for (n, &th) in thresholds.iter().enumerate() {
                if n >= strides.len() {
                    break;
                }
                cum += strides[n].1;
                if cum as f64 / total as f64 >= th {
                    chosen = Some(n + 1);
                    break;
                }
            }
            match chosen {
                Some(1) => (StrideCategory::Filtered1, strides[..1].to_vec()),
                Some(2) => (StrideCategory::Filtered2, strides[..2].to_vec()),
                Some(3) => (StrideCategory::Filtered3, strides[..3].to_vec()),
                Some(4) => (StrideCategory::Filtered4, strides[..4].to_vec()),
                _ => (StrideCategory::Random, Vec::new()),
            }
        };

        let kept_total: u32 = kept.iter().map(|&(_, c)| c).sum();
        let stride_fracs = kept
            .into_iter()
            .map(|(s, c)| (s, c as f64 / kept_total.max(1) as f64))
            .collect();

        let mut reuse: Vec<(u64, u32)> = self.reuse.into_iter().collect();
        reuse.sort_unstable();

        StaticLoadProfile {
            pc: self.pc,
            count: self.count,
            first_pos: self.first_pos,
            mean_spacing,
            strides: stride_fracs,
            category,
            reuse,
            cold_fraction: if self.count == 0 {
                0.0
            } else {
                self.cold as f64 / self.count as f64
            },
        }
    }
}

/// Quantize a reuse distance to a compact grid (exact below 256, then
/// 1/16-octave resolution).
fn quantize(d: u64) -> u64 {
    if d < 256 {
        d
    } else {
        let msb = 63 - d.leading_zeros() as u64;
        let step = 1u64 << msb.saturating_sub(4);
        d / step * step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_exact_stride() {
        let mut b = StaticLoadBuilder::new(0x40, 0, 100, 16);
        for i in 1..10u32 {
            b.recur(i * 8, 100 + i as u64 * 16);
        }
        let p = b.finish();
        assert_eq!(p.category, StrideCategory::SingleExact);
        assert_eq!(p.strides, vec![(16, 1.0)]);
        assert!((p.mean_spacing - 8.0).abs() < 1e-9);
        assert_eq!(p.count, 10);
    }

    #[test]
    fn two_strides_filtered() {
        // Thesis §4.5 example: strides 4,4,8,8 → two-strided (50/50,
        // cumulative 100% ≥ 70%).
        let mut b = StaticLoadBuilder::new(0x40, 0, 48, 16);
        let addrs = [52u64, 56, 64, 72];
        for (i, &a) in addrs.iter().enumerate() {
            b.recur((i as u32 + 1) * 4, a);
        }
        let p = b.finish();
        assert_eq!(p.category, StrideCategory::Filtered2);
        assert_eq!(p.strides.len(), 2);
        assert!((p.strides[0].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unique_load() {
        let b = StaticLoadBuilder::new(0x40, 5, 123, 16);
        let p = b.finish();
        assert_eq!(p.category, StrideCategory::Unique);
        assert_eq!(p.count, 1);
        assert!(!p.category.is_strided());
    }

    #[test]
    fn random_strides() {
        let mut b = StaticLoadBuilder::new(0x40, 0, 0, 16);
        // 20 distinct strides, each once: no filter threshold reached.
        let mut addr = 0u64;
        for i in 1..=20u32 {
            addr += 1000 + i as u64 * 97;
            b.recur(i, addr);
        }
        let p = b.finish();
        assert_eq!(p.category, StrideCategory::Random);
    }

    #[test]
    fn dominant_stride_filters_noise() {
        // 70% stride 64, 30% scattered: FILTER-1 at the 60% threshold.
        let mut b = StaticLoadBuilder::new(0x40, 0, 0, 16);
        let mut addr = 0u64;
        for i in 1..=20u32 {
            let s = if i % 10 < 7 { 64 } else { 1000 + i as u64 * 13 };
            addr += s;
            b.recur(i, addr);
        }
        let p = b.finish();
        assert_eq!(p.category, StrideCategory::Filtered1);
        assert_eq!(p.strides[0].0, 64);
    }

    #[test]
    fn miss_probability_from_reuse() {
        let mut b = StaticLoadBuilder::new(0x40, 0, 0, 16);
        b.recur(1, 64);
        b.record_reuse(Some(10));
        b.record_reuse(Some(100_000));
        let p = b.finish();
        // Critical RD 1000: one of two sampled reuses misses.
        assert!((p.miss_probability(1_000) - 0.5).abs() < 1e-9);
        // Critical RD huge: nothing misses.
        assert!(p.miss_probability(u64::MAX - 1) < 1e-9);
    }

    #[test]
    fn cold_fraction_counts_as_misses() {
        let mut b = StaticLoadBuilder::new(0x40, 0, 0, 16);
        b.recur(1, 64);
        b.record_reuse(None);
        b.record_reuse(None);
        let p = b.finish();
        assert!((p.cold_fraction - 1.0).abs() < 1e-9);
        assert!((p.miss_probability(1_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantize_preserves_small_exactly() {
        for d in 0..256u64 {
            assert_eq!(quantize(d), d);
        }
        assert!(quantize(1_000_000) <= 1_000_000);
        let q = quantize(1_000_000);
        assert!((1_000_000 - q) as f64 / 1e6 < 1.0 / 16.0);
    }
}
