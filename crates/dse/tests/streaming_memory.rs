//! The tentpole guarantee of the streaming engine, asserted with a
//! counting allocator: a ≥100k-point design space sweeps to a Pareto
//! frontier + top-K **without materializing** the point or prediction
//! `Vec`s — live-heap growth during the sweep stays bounded by the
//! answer (frontier + top-K + chunk bookkeeping), not by the space.
//!
//! Debug builds shrink the space (the model is ~10× slower unoptimized);
//! the release run — what CI's `--release --workspace` pass executes —
//! covers the full ≥100k-point claim.

use pmt_dse::{LazyDesignSpace, Objective, ProductSpace, StreamingSweep};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_workloads::WorkloadSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A `System` wrapper tracking live bytes and the high-water mark.
/// Integration tests are separate binaries, so installing it here
/// affects only this test.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live-heap bytes right now.
fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current live level and return a
/// probe for the growth since.
fn mark() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn peak_growth_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

fn profile() -> ApplicationProfile {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000))
}

#[test]
fn big_space_streams_in_bounded_memory() {
    // Release: the full ≥100k-point demo space. Debug: a 2880-point
    // subset of the same axes, same assertion (the bound does not scale
    // with the space, which is exactly the point).
    let space = if cfg!(debug_assertions) {
        ProductSpace::new(pmt_uarch::MachineConfig::nehalem())
            .dispatch_widths(&[2, 4, 6])
            .rob_sizes(&[64, 128, 256])
            .l1_kb(&[16, 32, 64, 128])
            .l2_kb(&[128, 256, 512, 1024])
            .l3_kb(&[2048, 8192])
            .mshr_entries(&[8, 16])
            .frequency_ghz(&[2.0, 2.66, 3.2, 3.6, 4.0])
    } else {
        ProductSpace::frontier_demo()
    };
    if !cfg!(debug_assertions) {
        assert!(space.len() >= 100_000, "space is {} points", space.len());
    }

    let profile = profile();
    let sweep = StreamingSweep::new(&profile)
        .top_k(16)
        .objective(Objective::Energy);

    let baseline = mark();
    let summary = sweep.run(&space);
    let growth = peak_growth_since(baseline);

    assert_eq!(summary.evaluated, space.len());
    assert!(!summary.frontier.is_empty());
    assert_eq!(summary.top.len(), 16);
    assert_eq!(summary.cpi.n, space.len());

    // Materializing this space would need ≥ points × sizeof(DesignPoint)
    // (machine config + name String ≈ 400 B each) plus the outcome Vec.
    // The streaming fold must stay far below that — a fixed 8 MiB
    // ceiling covers prepared-profile scratch, rayon bookkeeping, the
    // accumulators AND the batched kernels' per-chunk staging (this run
    // takes the default batched path: each in-flight chunk holds its
    // admitted `DesignPoint`s, summaries and lane arrays, and each
    // worker's kept memo tables start over before they outgrow what one
    // chunk could fill — all O(chunk), never O(space)) with a wide
    // margin, while sitting
    // ~5× under even the bare 100k-point outcome Vec (~9.6 MB of
    // `PointOutcome`s, before the dominant per-point `MachineConfig`s).
    let ceiling = 8 << 20;
    assert!(
        growth < ceiling,
        "streaming sweep peaked {growth} bytes above baseline (ceiling {ceiling})"
    );
}

#[test]
fn serial_and_parallel_streaming_agree_at_scale() {
    // A mid-size space (648 points) — big enough for many chunks, small
    // enough for debug runs.
    let space = ProductSpace::new(pmt_uarch::MachineConfig::nehalem())
        .dispatch_widths(&[2, 4, 6])
        .rob_sizes(&[64, 128, 256])
        .l1_kb(&[16, 32, 64])
        .l2_kb(&[128, 256])
        .l3_kb(&[2048, 4096])
        .mshr_entries(&[8, 16])
        .frequency_ghz(&[2.0, 2.66, 3.2]);
    let profile = profile();
    let ser = StreamingSweep::new(&profile)
        .chunk(256)
        .serial()
        .run(&space);
    let par = StreamingSweep::new(&profile).chunk(256).run(&space);
    assert_eq!(ser.evaluated, space.len());
    assert_eq!(ser.frontier_ids(), par.frontier_ids());
    for (a, b) in ser.frontier.iter().zip(&par.frontier) {
        assert_eq!(a.coords.0.to_bits(), b.coords.0.to_bits());
        assert_eq!(a.coords.1.to_bits(), b.coords.1.to_bits());
    }
    assert_eq!(ser.cpi.sum.to_bits(), par.cpi.sum.to_bits());
    assert_eq!(ser.power.sum.to_bits(), par.power.sum.to_bits());
    assert_eq!(ser.seconds.sum.to_bits(), par.seconds.sum.to_bits());
}
