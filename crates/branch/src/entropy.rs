//! Linear branch entropy (thesis Eqs 3.13–3.15).

use pmt_trace::FastHashMap;

/// Profiles the linear branch entropy of a branch-outcome stream.
///
/// For every static branch `b` and local history pattern `H` it tracks
/// taken/not-taken counts; the per-(b, H) taken probability
/// `p = T/(T+NT)` (Eq 3.13) yields the linear entropy
/// `E(p) = 2·min(p, 1−p)` (Eq 3.14), and the workload's entropy is the
/// occurrence-weighted average over all (b, H) pairs (Eq 3.15).
#[derive(Clone, Debug)]
pub struct EntropyProfiler {
    history_bits: u32,
    hist_mask: u64,
    /// (branch, history) → (taken, not-taken).
    counts: FastHashMap<(u64, u64), (u64, u64)>,
    /// branch → current local history.
    histories: FastHashMap<u64, u64>,
    total_branches: u64,
}

impl EntropyProfiler {
    /// Create a profiler using `history_bits` of local history.
    pub fn new(history_bits: u32) -> EntropyProfiler {
        assert!(history_bits <= 24, "history too long to tabulate");
        EntropyProfiler {
            history_bits,
            hist_mask: (1u64 << history_bits) - 1,
            counts: FastHashMap::default(),
            histories: FastHashMap::default(),
            total_branches: 0,
        }
    }

    /// Record one dynamic branch outcome.
    pub fn record(&mut self, pc: u64, taken: bool) {
        let hist = self.histories.entry(pc).or_insert(0);
        let pattern = *hist & self.hist_mask;
        let entry = self.counts.entry((pc, pattern)).or_insert((0, 0));
        if taken {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
        *hist = (*hist << 1) | taken as u64;
        self.total_branches += 1;
    }

    /// Dynamic branches recorded.
    pub fn branches(&self) -> u64 {
        self.total_branches
    }

    /// Number of distinct static branches seen.
    pub fn static_branches(&self) -> usize {
        self.histories.len()
    }

    /// The linear branch entropy `E ∈ [0, 1]` (Eq 3.15).
    pub fn entropy(&self) -> f64 {
        if self.total_branches == 0 {
            return 0.0;
        }
        // Sum in key order: float addition isn't associative, so a sum in
        // the map's iteration order would drift by an ULP whenever that
        // order changes (hasher, capacity or insertion history).
        let mut entries: Vec<((u64, u64), (u64, u64))> =
            self.counts.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut acc = 0.0;
        for (_, (t, nt)) in entries {
            let n = t + nt;
            let p = t as f64 / n as f64;
            let e = 2.0 * p.min(1.0 - p);
            acc += n as f64 * e;
        }
        acc / self.total_branches as f64
    }

    /// History length used.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// Merge another profiler's counts (histories are per-profiler state
    /// and are not merged; use on disjoint stream segments).
    pub fn merge(&mut self, other: &EntropyProfiler) {
        assert_eq!(self.history_bits, other.history_bits);
        for (&k, &(t, nt)) in &other.counts {
            let e = self.counts.entry(k).or_insert((0, 0));
            e.0 += t;
            e.1 += nt;
        }
        self.total_branches += other.total_branches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_pattern_has_zero_entropy() {
        let mut p = EntropyProfiler::new(8);
        for i in 0..10_000u64 {
            p.record(0x40, i % 4 < 2); // period-4 pattern TTNN
        }
        assert!(p.entropy() < 0.01, "{}", p.entropy());
    }

    #[test]
    fn random_branch_has_full_entropy() {
        let mut p = EntropyProfiler::new(4);
        let mut x = 2463534242u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            p.record(0x40, x & 1 == 1);
        }
        assert!(p.entropy() > 0.9, "{}", p.entropy());
    }

    #[test]
    fn biased_branch_has_intermediate_entropy() {
        // 90/10 bias with no pattern: E ≈ 2·0.1 = 0.2.
        let mut p = EntropyProfiler::new(2);
        let mut x = 777u64;
        for _ in 0..200_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = !(x >> 33).is_multiple_of(10);
            p.record(0x40, taken);
        }
        let e = p.entropy();
        assert!(e > 0.1 && e < 0.35, "{e}");
    }

    #[test]
    fn entropy_is_per_branch() {
        // Two branches: one constant, one alternating — both predictable.
        let mut p = EntropyProfiler::new(4);
        for i in 0..10_000u64 {
            p.record(0x100, true);
            p.record(0x200, i % 2 == 0);
        }
        assert!(p.entropy() < 0.01);
        assert_eq!(p.static_branches(), 2);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = EntropyProfiler::new(4);
        let mut b = EntropyProfiler::new(4);
        for i in 0..1_000u64 {
            a.record(0x40, i % 2 == 0);
            b.record(0x40, i % 2 == 0);
        }
        let e_single = a.entropy();
        a.merge(&b);
        assert_eq!(a.branches(), 2_000);
        assert!((a.entropy() - e_single).abs() < 0.01);
    }

    #[test]
    fn empty_profiler_is_zero() {
        assert_eq!(EntropyProfiler::new(8).entropy(), 0.0);
    }
}
