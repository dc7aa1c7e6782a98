//! The processor design space of thesis Table 6.3.
//!
//! The thesis sweeps 243 = 3⁵ core configurations: three values each for
//! the pipeline width, the ROB size (with IQ/LSQ scaled along), and the
//! L1, L2 and L3 capacities. Frequency and voltage are fixed for the space
//! (DVFS is explored separately, Table 7.2).

use crate::cache::CacheConfig;
use crate::machine::MachineConfig;
use serde::{Deserialize, Serialize};

/// Swept parameter values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Dispatch widths.
    pub dispatch_widths: Vec<u32>,
    /// ROB sizes (IQ and LSQ scale proportionally).
    pub rob_sizes: Vec<u32>,
    /// L1 cache sizes in KB (applied to both L1-I and L1-D).
    pub l1_kb: Vec<u32>,
    /// L2 cache sizes in KB.
    pub l2_kb: Vec<u32>,
    /// L3 cache sizes in KB.
    pub l3_kb: Vec<u32>,
}

/// One enumerated configuration with its coordinates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Dense index in the enumeration order.
    pub id: usize,
    /// The machine configuration.
    pub machine: MachineConfig,
    /// (dispatch, rob, l1_kb, l2_kb, l3_kb) coordinates.
    pub coords: (u32, u32, u32, u32, u32),
}

impl DesignSpace {
    /// The thesis' 243-point space (Table 6.3): width {2,4,6},
    /// ROB {64,128,256}, L1 {16,32,64} KB, L2 {128,256,512} KB,
    /// L3 {2048,4096,8192} KB.
    pub fn thesis_table_6_3() -> DesignSpace {
        DesignSpace {
            dispatch_widths: vec![2, 4, 6],
            rob_sizes: vec![64, 128, 256],
            l1_kb: vec![16, 32, 64],
            l2_kb: vec![128, 256, 512],
            l3_kb: vec![2048, 4096, 8192],
        }
    }

    /// The 3×3×3 = 27-point validation subspace: the full core sweep
    /// (width × ROB × L1) at the reference L2/L3 capacities. This is the
    /// grid `pmt validate --smoke`, the golden-snapshot test and the
    /// `validation_report` binary simulate when the 243-point space is
    /// too expensive.
    pub fn validation_subspace() -> DesignSpace {
        DesignSpace {
            dispatch_widths: vec![2, 4, 6],
            rob_sizes: vec![64, 128, 256],
            l1_kb: vec![16, 32, 64],
            l2_kb: vec![256],
            l3_kb: vec![4096],
        }
    }

    /// A 2×2×2×2×2 = 32-point subset for fast tests.
    pub fn small() -> DesignSpace {
        DesignSpace {
            dispatch_widths: vec![2, 4],
            rob_sizes: vec![64, 128],
            l1_kb: vec![16, 32],
            l2_kb: vec![128, 256],
            l3_kb: vec![2048, 8192],
        }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.dispatch_widths.len()
            * self.rob_sizes.len()
            * self.l1_kb.len()
            * self.l2_kb.len()
            * self.l3_kb.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the design point at dense `index` (the enumeration
    /// order of [`enumerate`](Self::enumerate): dispatch width is the
    /// most significant axis, L3 capacity the least) without touching
    /// any other point. This is the mixed-radix decode streaming sweeps
    /// are built on: a million-point space costs one machine build per
    /// *visited* point and nothing up front.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn point_at(&self, index: usize) -> DesignPoint {
        assert!(
            index < self.len(),
            "design-point index {index} out of bounds for a {}-point space",
            self.len()
        );
        // Mixed-radix decode, least significant (innermost) axis first.
        let mut rest = index;
        let l3 = self.l3_kb[rest % self.l3_kb.len()];
        rest /= self.l3_kb.len();
        let l2 = self.l2_kb[rest % self.l2_kb.len()];
        rest /= self.l2_kb.len();
        let l1 = self.l1_kb[rest % self.l1_kb.len()];
        rest /= self.l1_kb.len();
        let rob = self.rob_sizes[rest % self.rob_sizes.len()];
        rest /= self.rob_sizes.len();
        let w = self.dispatch_widths[rest];

        let mut m = MachineConfig::nehalem();
        let (l1d_latency, l2_latency) = (m.caches.l1d.latency, m.caches.l2.latency);
        m.name = format!("w{w}-rob{rob}-l1_{l1}k-l2_{l2}k-l3_{l3}k");
        m.core = m.core.with_dispatch_width(w).with_rob(rob);
        m.caches.l1i = CacheConfig::new(l1, 4, 64, 1);
        m.caches.l1d = CacheConfig::new(l1, 8, 64, l1d_latency);
        m.caches.l2 = CacheConfig::new(l2, 8, 64, l2_latency);
        m.caches.l3 = CacheConfig::new(l3, 16, 64, l3_latency_for_kb(l3));
        DesignPoint {
            id: index,
            machine: m,
            coords: (w, rob, l1, l2, l3),
        }
    }

    /// Lazily iterate every design point in enumeration order. Unlike
    /// [`enumerate`](Self::enumerate) nothing is materialized up front,
    /// and `nth`/`skip`/`step_by` jump by index arithmetic instead of
    /// building the skipped points — splitting a space across workers is
    /// `space.iter().skip(a).take(b - a)`.
    pub fn iter(&self) -> DesignSpaceIter<'_> {
        DesignSpaceIter {
            space: self,
            next: 0,
            end: self.len(),
        }
    }

    /// Enumerate every design point, derived from the reference machine.
    ///
    /// This materializes the whole space; prefer [`iter`](Self::iter)
    /// (or the streaming sweeps built on it) when the space is large.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        self.iter().collect()
    }
}

/// LLC latency for a given capacity: the thesis space's weak
/// latency-vs-capacity scaling, shared by [`DesignSpace::point_at`] and
/// the user-defined cache axes of `pmt_dse`'s lazy space builder so the
/// two machine derivations can never drift apart.
pub fn l3_latency_for_kb(kb: u32) -> u32 {
    match kb {
        0..=2048 => 26,
        2049..=4096 => 28,
        _ => 30,
    }
}

/// Lazy iterator over a [`DesignSpace`], yielding points by mixed-radix
/// index ([`DesignSpace::point_at`]). Double-ended and exact-size, with
/// an O(1) `nth` so `skip`/`step_by` slice without materializing.
#[derive(Clone, Debug)]
pub struct DesignSpaceIter<'a> {
    space: &'a DesignSpace,
    next: usize,
    end: usize,
}

impl Iterator for DesignSpaceIter<'_> {
    type Item = DesignPoint;

    fn next(&mut self) -> Option<DesignPoint> {
        if self.next >= self.end {
            return None;
        }
        let p = self.space.point_at(self.next);
        self.next += 1;
        Some(p)
    }

    fn nth(&mut self, n: usize) -> Option<DesignPoint> {
        // Clamp to `end` so an overshooting nth/skip can never leave
        // `next > end` (which would make size_hint subtract with
        // overflow).
        self.next = self.next.saturating_add(n).min(self.end);
        self.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.end - self.next;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for DesignSpaceIter<'_> {}

impl DoubleEndedIterator for DesignSpaceIter<'_> {
    fn next_back(&mut self) -> Option<DesignPoint> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(self.space.point_at(self.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thesis_space_has_243_points() {
        let space = DesignSpace::thesis_table_6_3();
        assert_eq!(space.len(), 243);
        assert_eq!(space.enumerate().len(), 243);
    }

    #[test]
    fn validation_subspace_is_a_27_point_slice_of_the_full_space() {
        let sub = DesignSpace::validation_subspace();
        assert_eq!(sub.len(), 27);
        let full: Vec<_> = DesignSpace::thesis_table_6_3()
            .enumerate()
            .into_iter()
            .map(|p| p.coords)
            .collect();
        for p in sub.enumerate() {
            assert!(full.contains(&p.coords), "{:?} not in Table 6.3", p.coords);
        }
    }

    #[test]
    fn ids_are_dense_and_unique() {
        let points = DesignSpace::small().enumerate();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.id, i);
        }
    }

    #[test]
    fn every_point_is_inclusive_friendly() {
        for p in DesignSpace::thesis_table_6_3().enumerate() {
            assert!(
                p.machine.caches.is_inclusive_friendly(),
                "{} violates hierarchy ordering",
                p.machine.name
            );
        }
    }

    #[test]
    fn point_at_matches_enumerate_exactly() {
        for space in [
            DesignSpace::thesis_table_6_3(),
            DesignSpace::validation_subspace(),
            DesignSpace::small(),
        ] {
            let eager = space.enumerate();
            for (i, p) in eager.iter().enumerate() {
                assert_eq!(&space.point_at(i), p, "index {i} diverged");
            }
        }
    }

    #[test]
    fn iter_shards_by_index_arithmetic() {
        let space = DesignSpace::thesis_table_6_3();
        assert_eq!(space.iter().len(), 243);
        // nth jumps straight to the target index.
        assert_eq!(space.iter().nth(200).unwrap().id, 200);
        // A skip/take slice equals the same slice of the eager list.
        let eager = space.enumerate();
        let slice: Vec<_> = space.iter().skip(100).take(17).collect();
        assert_eq!(slice.as_slice(), &eager[100..117]);
        // Strided subsampling visits the same ids as step_by over the list.
        let strided: Vec<usize> = space.iter().step_by(31).map(|p| p.id).collect();
        assert_eq!(strided, vec![0, 31, 62, 93, 124, 155, 186, 217]);
        // Double-ended: the back is the last point.
        assert_eq!(space.iter().next_back().unwrap().id, 242);
        // Overshooting nth clamps: the iterator stays usable (and its
        // size_hint must not underflow).
        let mut it = space.iter();
        assert!(it.nth(10_000).is_none());
        assert_eq!(it.len(), 0);
        assert!(it.next().is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn point_at_past_the_end_panics() {
        DesignSpace::small().point_at(32);
    }

    #[test]
    fn rob_scaling_applied() {
        let points = DesignSpace::small().enumerate();
        let big = points.iter().find(|p| p.coords.1 == 128).unwrap();
        let small = points.iter().find(|p| p.coords.1 == 64).unwrap();
        assert!(big.machine.core.iq_size > small.machine.core.iq_size);
    }
}
