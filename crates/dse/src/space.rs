//! Lazy design spaces: points materialized by index, never all at once.
//!
//! The thesis evaluates 243 configurations, but a one-second analytical
//! model exists to sweep *huge* spaces. Materializing a `Vec<DesignPoint>`
//! caps the space at what fits in memory; [`LazyDesignSpace`] removes the
//! cap by describing a space as `len` + `point_at(index)` — a mixed-radix
//! decode — so a streaming sweep touches one point at a time and a fold
//! chunk is just an index range.
//!
//! Two implementations ship:
//!
//! * [`pmt_uarch::DesignSpace`] — the thesis grid (Table 6.3 and its
//!   subsets),
//! * [`ProductSpace`] — a `product`-style builder for user-defined axes,
//!   so spaces far beyond the thesis grid (wider ROB/MSHR/frequency/cache
//!   sweeps, easily 10⁶+ points) are declared in a few lines.
//!
//! ```
//! use pmt_dse::{LazyDesignSpace, ProductSpace};
//! use pmt_uarch::MachineConfig;
//!
//! // 4 widths × 6 ROBs × 4 MSHR depths × 3 clocks = 288 points, declared
//! // lazily: nothing is materialized until a point is asked for.
//! let space = ProductSpace::new(MachineConfig::nehalem())
//!     .dispatch_widths(&[2, 4, 6, 8])
//!     .rob_sizes(&[32, 64, 128, 192, 256, 384])
//!     .mshr_entries(&[4, 8, 16, 32])
//!     .frequency_ghz(&[2.0, 2.66, 3.2]);
//! assert_eq!(space.len(), 288);
//! let p = space.point_at(287); // the largest configuration
//! assert_eq!(p.machine.core.dispatch_width, 8);
//! assert_eq!(p.machine.mem.mshr_entries, 32);
//! assert_eq!(space.iter_points().nth(287).unwrap().id, 287);
//! ```

use pmt_uarch::{
    l3_latency_for_kb, CacheConfig, DesignPoint, DesignSpace, MachineConfig, OperatingPoint,
};
use std::fmt::Write;
use std::sync::Arc;

/// How an [`Axis`] edits the machine description for one swept value.
type AxisApply = Arc<dyn Fn(&mut MachineConfig, f64) + Send + Sync>;

/// A design space whose points are materialized on demand by dense
/// index. `len`/`point_at` are the whole contract: iteration and
/// chunking both derive from them.
///
/// Implementations must make `point_at` a pure function of `index` so a
/// parallel sweep sees exactly the points a serial sweep does.
pub trait LazyDesignSpace: Sync {
    /// Number of points in the space.
    fn len(&self) -> usize;

    /// Materialize the point at `index` (`0..len()`), with `id == index`.
    fn point_at(&self, index: usize) -> DesignPoint;

    /// Overwrite `point` with the point at `index`, reusing its
    /// allocations where the space can: every field equals
    /// [`point_at`](Self::point_at)'s except the machine's `name`, which
    /// may be left stale. The sweep's hot path decodes each index into
    /// one reused point this way; reported points are named through
    /// `point_at`.
    fn decode_into(&self, index: usize, point: &mut DesignPoint) {
        *point = self.point_at(index);
    }

    /// Whether the space has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazily iterate every point in index order; `nth` is O(1), so
    /// `skip`/`take`/`step_by` slice without materializing.
    ///
    /// (Named `iter_points` rather than `iter` so bringing the trait
    /// into scope never changes what `Vec<DesignPoint>::iter()` means.)
    fn iter_points(&self) -> LazyPoints<'_, Self>
    where
        Self: Sized,
    {
        LazyPoints {
            space: self,
            next: 0,
            end: self.len(),
        }
    }
}

/// The thesis grid is a lazy space (mixed-radix decode via
/// [`DesignSpace::point_at`]).
impl LazyDesignSpace for DesignSpace {
    fn len(&self) -> usize {
        DesignSpace::len(self)
    }

    fn point_at(&self, index: usize) -> DesignPoint {
        DesignSpace::point_at(self, index)
    }

    fn decode_into(&self, index: usize, point: &mut DesignPoint) {
        DesignSpace::decode_into(self, index, point)
    }
}

/// An explicit point list is the degenerate lazy space (points are
/// cloned out on demand). The clone's `id` is reassigned to the **list
/// position** to honor the trait's `id == index` contract — so frontier
/// and top-K ids from a streamed subset always index back into the list
/// that produced them, even when the points carry ids from some larger
/// original space.
impl LazyDesignSpace for [DesignPoint] {
    fn len(&self) -> usize {
        <[DesignPoint]>::len(self)
    }

    fn point_at(&self, index: usize) -> DesignPoint {
        let mut p = self[index].clone();
        p.id = index;
        p
    }
}

impl LazyDesignSpace for Vec<DesignPoint> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn point_at(&self, index: usize) -> DesignPoint {
        self.as_slice().point_at(index)
    }
}

/// Lazy iterator over any [`LazyDesignSpace`] (index order, O(1) `nth`,
/// double-ended, exact-size).
#[derive(Clone, Debug)]
pub struct LazyPoints<'a, S: LazyDesignSpace> {
    space: &'a S,
    next: usize,
    end: usize,
}

impl<S: LazyDesignSpace> Iterator for LazyPoints<'_, S> {
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

impl<S: LazyDesignSpace> ExactSizeIterator for LazyPoints<'_, S> {}

impl<S: LazyDesignSpace> DoubleEndedIterator for LazyPoints<'_, S> {
    fn next_back(&mut self) -> Option<DesignPoint> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(self.space.point_at(self.end))
    }
}

/// One swept parameter of a [`ProductSpace`]: a name, the values it
/// takes, and how a value edits the machine description.
#[derive(Clone)]
pub struct Axis {
    /// Axis name, used in generated machine names (`name=value`).
    pub name: String,
    /// The values this axis sweeps.
    pub values: Vec<f64>,
    apply: AxisApply,
}

impl std::fmt::Debug for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Axis")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish_non_exhaustive()
    }
}

/// A full-factorial product of user-defined axes over a base machine —
/// the lazy builder for spaces beyond the thesis grid.
///
/// Points are decoded by mixed-radix index: the first axis added is the
/// most significant digit, the last the least (matching the nesting
/// order of [`DesignSpace::enumerate`]). Each materialized point starts
/// from the base machine and applies the axes **in insertion order**, so
/// an axis may read what earlier axes wrote (the canned
/// [`frequency_ghz`](Self::frequency_ghz) axis relies on this to rescale
/// memory latencies against the clock the base machine had).
#[derive(Clone, Debug)]
pub struct ProductSpace {
    base: MachineConfig,
    axes: Vec<Axis>,
}

impl ProductSpace {
    /// A space over `base` with no axes yet (a single point: the base
    /// machine itself).
    pub fn new(base: MachineConfig) -> ProductSpace {
        ProductSpace {
            base,
            axes: Vec::new(),
        }
    }

    /// Add a user-defined axis: `apply` edits the machine for one swept
    /// value. Values are `f64` so one axis type covers integer knobs
    /// (sizes, depths) and continuous ones (clocks, voltages) alike.
    pub fn axis(
        mut self,
        name: &str,
        values: impl IntoIterator<Item = f64>,
        apply: impl Fn(&mut MachineConfig, f64) + Send + Sync + 'static,
    ) -> ProductSpace {
        let values: Vec<f64> = values.into_iter().collect();
        assert!(!values.is_empty(), "axis `{name}` has no values");
        self.axes.push(Axis {
            name: name.to_string(),
            values,
            apply: Arc::new(apply),
        });
        self
    }

    /// Canned axis: dispatch/commit width.
    pub fn dispatch_widths(self, widths: &[u32]) -> ProductSpace {
        self.axis("w", widths.iter().map(|&w| w as f64), |m, w| {
            m.core = m.core.with_dispatch_width(w as u32);
        })
    }

    /// Canned axis: ROB size, with IQ/LSQ scaled along (thesis Table 6.3
    /// convention).
    pub fn rob_sizes(self, sizes: &[u32]) -> ProductSpace {
        self.axis("rob", sizes.iter().map(|&s| s as f64), |m, s| {
            m.core = m.core.with_rob(s as u32);
        })
    }

    /// Canned axis: L1-I/L1-D capacity in KiB (associativity and
    /// latencies kept from the base machine).
    pub fn l1_kb(self, sizes: &[u32]) -> ProductSpace {
        self.axis("l1", sizes.iter().map(|&s| s as f64), |m, s| {
            m.caches.l1i = CacheConfig::new(s as u32, m.caches.l1i.associativity, 64, 1);
            m.caches.l1d = CacheConfig::new(
                s as u32,
                m.caches.l1d.associativity,
                64,
                m.caches.l1d.latency,
            );
        })
    }

    /// Canned axis: L2 capacity in KiB.
    pub fn l2_kb(self, sizes: &[u32]) -> ProductSpace {
        self.axis("l2", sizes.iter().map(|&s| s as f64), |m, s| {
            m.caches.l2 =
                CacheConfig::new(s as u32, m.caches.l2.associativity, 64, m.caches.l2.latency);
        })
    }

    /// Canned axis: L3 capacity in KiB, with the weak latency-capacity
    /// scaling of the thesis space ([`pmt_uarch::l3_latency_for_kb`] —
    /// shared with [`DesignSpace::point_at`], so the two derivations
    /// cannot drift).
    pub fn l3_kb(self, sizes: &[u32]) -> ProductSpace {
        self.axis("l3", sizes.iter().map(|&s| s as f64), |m, s| {
            let kb = s as u32;
            m.caches.l3 =
                CacheConfig::new(kb, m.caches.l3.associativity, 64, l3_latency_for_kb(kb));
        })
    }

    /// Canned axis: L1-D MSHR depth (bounds memory-level parallelism,
    /// thesis §4.6).
    pub fn mshr_entries(self, entries: &[u32]) -> ProductSpace {
        self.axis("mshr", entries.iter().map(|&e| e as f64), |m, e| {
            m.mem.mshr_entries = e as u32;
        })
    }

    /// Canned axis: core clock in GHz **at the base machine's voltage**.
    /// DRAM nanoseconds are physical, so the memory latencies *in
    /// cycles* rescale with the clock; `vdd` is deliberately left
    /// untouched (an iso-voltage what-if). For a physical
    /// voltage/frequency sweep use
    /// [`operating_points`](Self::operating_points), which moves both
    /// like a real DVFS table.
    pub fn frequency_ghz(self, ghz: &[f64]) -> ProductSpace {
        self.axis("f", ghz.iter().copied(), crate::dvfs::set_clock)
    }

    /// Canned axis: voltage/frequency operating points. Clock, supply
    /// voltage and the memory latencies in cycles all move together,
    /// exactly as [`crate::dvfs::machine_at`] rescales a machine for a
    /// DVFS setting — so high-clock points pay their real
    /// (vdd/V_nom)²-scaled power.
    pub fn operating_points(self, points: &[OperatingPoint]) -> ProductSpace {
        let pairs: Vec<(f64, f64)> = points.iter().map(|p| (p.frequency_ghz, p.vdd)).collect();
        self.axis("f", points.iter().map(|p| p.frequency_ghz), move |m, f| {
            let vdd = pairs
                .iter()
                .find(|(freq, _)| *freq == f)
                .expect("axis value comes from the pair list")
                .1;
            crate::dvfs::set_clock(m, f);
            m.core.vdd = vdd;
        })
    }

    /// The swept axes, in application order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// A 103,680-point demonstration space: the thesis axes widened and
    /// crossed with MSHR depth and a voltage/frequency axis (the Table
    /// 7.2 DVFS points plus a 3.6 GHz / 1.275 V extension of the same
    /// linear V-f curve). This is the space the `pmt explore` examples,
    /// the frontier-at-scale figure and the streaming perf record sweep
    /// — large enough that materializing it would dominate memory, cheap
    /// enough to stream in seconds.
    pub fn frontier_demo() -> ProductSpace {
        let mut vf = pmt_uarch::nehalem_dvfs_points();
        vf.push(OperatingPoint::new(3.6, 1.275));
        ProductSpace::new(MachineConfig::nehalem())
            .dispatch_widths(&[2, 3, 4, 5, 6, 8])
            .rob_sizes(&[32, 48, 64, 96, 128, 192, 256, 384, 512])
            .l1_kb(&[16, 32, 64, 128])
            .l2_kb(&[128, 256, 512, 1024])
            .l3_kb(&[1024, 2048, 4096, 8192, 16384])
            .mshr_entries(&[4, 8, 16, 32])
            .operating_points(&vf)
    }
}

impl LazyDesignSpace for ProductSpace {
    fn len(&self) -> usize {
        // An unchecked `.product()` wraps silently in release builds,
        // which would make the chunk math quietly wrong for spaces
        // past usize::MAX points — fail loudly instead.
        self.axes.iter().fold(1usize, |acc, a| {
            acc.checked_mul(a.values.len()).unwrap_or_else(|| {
                let sizes: Vec<String> = self
                    .axes
                    .iter()
                    .map(|a| format!("{}×{}", a.name, a.values.len()))
                    .collect();
                panic!(
                    "design space size overflows usize: axes {}",
                    sizes.join(" · ")
                )
            })
        })
    }

    fn point_at(&self, index: usize) -> DesignPoint {
        let mut machine = self.base.clone();
        let mut name = self.base.name.clone();
        for (axis, value) in self.values_at(index) {
            (axis.apply)(&mut machine, value);
            // Integer-valued knobs print without a trailing ".0".
            if value.fract() == 0.0 {
                write!(name, "-{}{}", axis.name, value as i64)
            } else {
                write!(name, "-{}{}", axis.name, value)
            }
            .expect("writing to a String cannot fail");
        }
        machine.name = name;
        DesignPoint {
            id: index,
            coords: coords_of(&machine),
            machine,
        }
    }

    /// [`point_at`](Self::point_at) without the name, and without the
    /// base machine's clone: the plain fields are copied from the base
    /// and the issue stage is cloned only when an axis changed it.
    fn decode_into(&self, index: usize, point: &mut DesignPoint) {
        let MachineConfig {
            name: _,
            core,
            exec,
            caches,
            mem,
            predictor,
            prefetcher,
        } = &mut point.machine;
        (*core, *caches, *mem, *predictor, *prefetcher) = (
            self.base.core,
            self.base.caches,
            self.base.mem,
            self.base.predictor,
            self.base.prefetcher,
        );
        if *exec != self.base.exec {
            exec.clone_from(&self.base.exec);
        }
        for (axis, value) in self.values_at(index) {
            (axis.apply)(&mut point.machine, value);
        }
        point.id = index;
        point.coords = coords_of(&point.machine);
    }
}

impl ProductSpace {
    /// Each axis with its value at `index`, in application order
    /// (mixed-radix decode: the last axis is the least significant digit,
    /// so each axis' stride is the product of the later axes' lengths).
    fn values_at(&self, index: usize) -> impl Iterator<Item = (&Axis, f64)> + '_ {
        let len = self.len();
        assert!(
            index < len,
            "design-point index {index} out of bounds for a {len}-point space"
        );
        let mut stride = len;
        self.axes.iter().map(move |axis| {
            stride /= axis.values.len();
            (axis, axis.values[index / stride % axis.values.len()])
        })
    }
}

/// A point's (dispatch, rob, l1_kb, l2_kb, l3_kb) coordinates.
fn coords_of(machine: &MachineConfig) -> (u32, u32, u32, u32, u32) {
    (
        machine.core.dispatch_width,
        machine.core.rob_size,
        machine.caches.l1d.size_kb,
        machine.caches.l2.size_kb,
        machine.caches.l3.size_kb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thesis_space_is_lazy_and_matches_enumerate() {
        let space = DesignSpace::small();
        let eager = space.enumerate();
        let lazy: Vec<DesignPoint> = LazyDesignSpace::iter_points(&space).collect();
        assert_eq!(lazy, eager);
    }

    /// `nth` jumps by index arithmetic, so `skip`/`take`/`step_by` shard a
    /// space without building the skipped points.
    #[test]
    fn iter_points_shards_by_index_arithmetic() {
        let space = DesignSpace::thesis_table_6_3();
        assert_eq!(space.iter_points().len(), 243);
        assert_eq!(space.iter_points().nth(200).unwrap().id, 200);
        // A skip/take slice equals the same slice of the eager list.
        let eager = space.enumerate();
        let slice: Vec<_> = space.iter_points().skip(100).take(17).collect();
        assert_eq!(slice.as_slice(), &eager[100..117]);
        // Strided subsampling visits the same ids as step_by over the list.
        let strided: Vec<usize> = space.iter_points().step_by(31).map(|p| p.id).collect();
        assert_eq!(strided, vec![0, 31, 62, 93, 124, 155, 186, 217]);
        // Double-ended: the back is the last point.
        assert_eq!(space.iter_points().next_back().unwrap().id, 242);
    }

    #[test]
    fn slice_of_points_is_a_lazy_space() {
        let points = DesignSpace::small().enumerate();
        let slice: &[DesignPoint] = &points;
        assert_eq!(LazyDesignSpace::len(slice), 32);
        assert_eq!(slice.point_at(7), points[7]);
        assert_eq!(LazyDesignSpace::len(&points), 32);

        // A *non-dense* list (ids from the original space) still honors
        // the `id == index` contract: ids are reassigned to the list
        // position, so streamed frontier/top-K ids index this list.
        let subset: Vec<DesignPoint> = points.iter().step_by(5).cloned().collect();
        assert_eq!(subset[1].id, 5); // original id survives in the list...
        let p = subset.point_at(1);
        assert_eq!(p.id, 1); // ...but point_at re-bases it
        assert_eq!(p.machine, subset[1].machine);
    }

    #[test]
    #[should_panic(expected = "design space size overflows usize")]
    fn product_space_len_overflow_panics_instead_of_wrapping() {
        // 256^8 = 2^64: one past usize::MAX. Before the checked_mul fix
        // this wrapped to 0 in release builds and the sweep silently
        // evaluated nothing.
        let mut space = ProductSpace::new(MachineConfig::nehalem());
        for _ in 0..8 {
            space = space.axis("f", (0..256).map(f64::from), |_, _| {});
        }
        let _ = LazyDesignSpace::len(&space);
    }

    #[test]
    fn product_space_decodes_mixed_radix_in_insertion_order() {
        let space = ProductSpace::new(MachineConfig::nehalem())
            .dispatch_widths(&[2, 4])
            .rob_sizes(&[64, 128, 256]);
        assert_eq!(space.len(), 6);
        assert_eq!(space.axes().len(), 2);
        // First axis most significant: ids 0..3 are width 2.
        let p0 = space.point_at(0);
        assert_eq!(p0.machine.core.dispatch_width, 2);
        assert_eq!(p0.machine.core.rob_size, 64);
        let p5 = space.point_at(5);
        assert_eq!(p5.machine.core.dispatch_width, 4);
        assert_eq!(p5.machine.core.rob_size, 256);
        assert_eq!(p5.id, 5);
        // Names are distinct and readable.
        assert_ne!(p0.machine.name, p5.machine.name);
        assert!(p5.machine.name.contains("w4"));
        assert!(p5.machine.name.contains("rob256"));
    }

    #[test]
    fn overshooting_nth_clamps_and_keeps_the_iterator_usable() {
        let space = DesignSpace::small();
        let mut it = space.iter_points();
        assert!(it.nth(1_000).is_none());
        assert_eq!(it.len(), 0);
        assert!(it.next().is_none());
        // A ProductSpace and a thesis L3 axis derive the same machine.
        let product = ProductSpace::new(MachineConfig::nehalem()).l3_kb(&[2048, 4096, 8192]);
        for (i, kb) in [2048u32, 4096, 8192].iter().enumerate() {
            let lat = product.point_at(i).machine.caches.l3.latency;
            assert_eq!(lat, l3_latency_for_kb(*kb));
        }
    }

    #[test]
    fn frequency_axis_rescales_memory_latency() {
        let space = ProductSpace::new(MachineConfig::nehalem()).frequency_ghz(&[1.33, 2.66, 5.32]);
        let slow = space.point_at(0);
        let base = space.point_at(1);
        let fast = space.point_at(2);
        assert_eq!(base.machine.mem.dram_latency, 200);
        assert_eq!(slow.machine.mem.dram_latency, 100);
        assert_eq!(fast.machine.mem.dram_latency, 400);
        assert!(fast.machine.name.contains("f5.32"));
        // The plain frequency axis is iso-voltage by contract.
        assert_eq!(fast.machine.core.vdd, MachineConfig::nehalem().core.vdd);
    }

    #[test]
    fn operating_point_axis_moves_voltage_with_frequency() {
        let space = ProductSpace::new(MachineConfig::nehalem())
            .operating_points(&pmt_uarch::nehalem_dvfs_points());
        assert_eq!(space.len(), 5);
        let slow = space.point_at(0);
        let fast = space.point_at(4);
        assert!((slow.machine.core.vdd - 0.90).abs() < 1e-12);
        assert!((fast.machine.core.vdd - 1.20).abs() < 1e-12);
        // Memory latency rescales exactly like dvfs::machine_at.
        let expect = crate::dvfs::machine_at(
            &MachineConfig::nehalem(),
            pmt_uarch::nehalem_dvfs_points()[4],
        );
        assert_eq!(fast.machine.mem.dram_latency, expect.mem.dram_latency);
        assert_eq!(
            fast.machine.mem.bus_transfer_cycles,
            expect.mem.bus_transfer_cycles
        );
    }

    #[test]
    fn frontier_demo_is_at_least_100k_points() {
        let space = ProductSpace::frontier_demo();
        assert!(space.len() >= 100_000, "demo space {} points", space.len());
        // Spot-check both ends decode.
        assert_eq!(space.point_at(0).id, 0);
        assert_eq!(space.point_at(space.len() - 1).id, space.len() - 1);
    }

    /// Point names are part of the served and written explore output:
    /// pinned byte for byte, integer and fractional axis values both.
    #[test]
    fn frontier_demo_point_names_are_pinned() {
        let space = ProductSpace::frontier_demo();
        for (index, name) in [
            (0, "nehalem-ref-w2-rob32-l116-l2128-l31024-mshr4-f1.6"),
            (
                12_345,
                "nehalem-ref-w2-rob256-l132-l2512-l316384-mshr8-f2.66",
            ),
            (
                103_679,
                "nehalem-ref-w8-rob512-l1128-l21024-l316384-mshr32-f3.6",
            ),
        ] {
            assert_eq!(space.point_at(index).machine.name, name, "point {index}");
        }
    }

    /// A point decoded in place equals `point_at`'s in everything but the
    /// name, whatever point it held before — including one whose issue
    /// stage an axis rewrote.
    #[test]
    fn decode_into_matches_point_at_but_the_name() {
        let space = slow_alu_space();
        let mut point = space.point_at(1);
        assert_ne!(point.machine.exec, space.point_at(0).machine.exec);
        for index in [0, 1, 2, 3, 47, 48, 12_345, 200_001, 207_359, 5, 4] {
            space.decode_into(index, &mut point);
            let mut want = space.point_at(index);
            want.machine.name = point.machine.name.clone();
            assert_eq!(point, want, "point {index}");
        }
        assert_eq!(point.machine.name, space.point_at(1).machine.name);
    }

    /// `frontier_demo` with an axis that rewrites the issue stage: one
    /// class one cycle slower at value 1.
    fn slow_alu_space() -> ProductSpace {
        let slow_alu = |m: &mut MachineConfig, slow: f64| {
            if slow == 1.0 {
                let exec = serde_json::to_string(&m.exec).expect("serializes");
                let exec = exec.replacen("\"latency\":1", "\"latency\":2", 1);
                m.exec = serde_json::from_str(&exec).expect("parses");
            }
        };
        ProductSpace::frontier_demo().axis("slow", [0.0, 1.0], slow_alu)
    }

    /// The thesis grids decode in place too: every point equals
    /// `point_at`'s in everything but the name, whether the buffer held
    /// the grid's previous point or another space's (a slower issue
    /// stage, the prefetcher on, a different name).
    #[test]
    fn grid_decode_into_matches_point_at_but_the_name() {
        let mut foreign = slow_alu_space().point_at(207_359);
        foreign.machine.prefetcher = MachineConfig::nehalem_with_prefetcher().prefetcher;
        assert_ne!(foreign.machine.exec, MachineConfig::nehalem().exec);
        let stale = foreign.machine.name.clone();
        for space in [
            DesignSpace::thesis_table_6_3(),
            DesignSpace::small(),
            DesignSpace::validation_subspace(),
        ] {
            let mut running = foreign.clone();
            for index in (0..space.len()).rev() {
                let mut want = LazyDesignSpace::point_at(&space, index);
                want.machine.name = stale.clone();
                for point in [&mut running, &mut foreign.clone()] {
                    LazyDesignSpace::decode_into(&space, index, point);
                    assert_eq!(*point, want, "point {index} of {}", space.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn product_point_past_the_end_panics() {
        ProductSpace::new(MachineConfig::nehalem())
            .dispatch_widths(&[2])
            .point_at(1);
    }
}
