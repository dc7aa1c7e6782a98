//! The processor design space of thesis Table 6.3.
//!
//! The thesis sweeps 243 = 3⁵ core configurations: three values each for
//! the pipeline width, the ROB size (with IQ/LSQ scaled along), and the
//! L1, L2 and L3 capacities. Frequency and voltage are fixed for the space
//! (DVFS is explored separately, Table 7.2).

use crate::cache::CacheConfig;
use crate::machine::MachineConfig;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

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
        let mut point = DesignPoint {
            id: index,
            machine: MachineConfig::nehalem(),
            coords: (0, 0, 0, 0, 0),
        };
        self.decode_into(index, &mut point);
        let (w, rob, l1, l2, l3) = point.coords;
        point.machine.name = format!("w{w}-rob{rob}-l1_{l1}k-l2_{l2}k-l3_{l3}k");
        point
    }

    /// Overwrite `point` with the design point at `index`, reusing its
    /// allocations: every field equals [`point_at`](Self::point_at)'s
    /// except the machine's `name`, which is left stale. A streamed sweep
    /// decodes every point this way, so it builds no reference machine
    /// and formats no name per point, and clones the reference issue
    /// stage only when `point` held another.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn decode_into(&self, index: usize, point: &mut DesignPoint) {
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

        let base = reference_machine();
        let MachineConfig {
            name: _,
            core,
            exec,
            caches,
            mem,
            predictor,
            prefetcher,
        } = &mut point.machine;
        *core = base.core.with_dispatch_width(w).with_rob(rob);
        if *exec != base.exec {
            exec.clone_from(&base.exec);
        }
        *caches = base.caches;
        caches.l1i = CacheConfig::new(l1, 4, 64, 1);
        caches.l1d = CacheConfig::new(l1, 8, 64, base.caches.l1d.latency);
        caches.l2 = CacheConfig::new(l2, 8, 64, base.caches.l2.latency);
        caches.l3 = CacheConfig::new(l3, 16, 64, l3_latency_for_kb(l3));
        (*mem, *predictor, *prefetcher) = (base.mem, base.predictor, base.prefetcher);
        point.id = index;
        point.coords = (w, rob, l1, l2, l3);
    }

    /// Enumerate every design point, derived from the reference machine.
    ///
    /// This materializes the whole space; prefer decoding points on
    /// demand with [`point_at`](Self::point_at) (as `pmt_dse`'s lazy
    /// iteration and streaming sweeps do) when the space is large.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        (0..self.len()).map(|i| self.point_at(i)).collect()
    }
}

/// The reference machine every grid point derives from, built once.
fn reference_machine() -> &'static MachineConfig {
    static REFERENCE: OnceLock<MachineConfig> = OnceLock::new();
    REFERENCE.get_or_init(MachineConfig::nehalem)
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
