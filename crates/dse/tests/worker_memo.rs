//! One sweep worker keeps one `BatchPredictor` across all of its chunks.
//! Its memo carries hits from chunk to chunk, starts over before it
//! outgrows what a fresh predictor could build over one chunk, and
//! never changes a byte: every summary equals the memo-less scalar
//! model's, and the fold is serial ≡ parallel at every worker count and
//! chunk size.
//!
//! The space is a list of machines that all differ in ROB size, so every
//! point computes a new stride walk, CP(ROB) and branch penalty per
//! window and a kept memo only grows — the worst case for its bound.
//! This file holds a single test because it sets `RAYON_NUM_THREADS`,
//! which every parallel fold in the process reads.

use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_dse::{Objective, StreamingSweep};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_uarch::{DesignPoint, MachineConfig};
use pmt_workloads::WorkloadSpec;

fn profile() -> ApplicationProfile {
    let spec = WorkloadSpec::by_name("mcf").unwrap();
    Profiler::new(ProfilerConfig::fast_test()).profile_named("mcf", &mut spec.trace(10_000))
}

/// `n` machines with ROB sizes 16, 17, …; the prefetcher is on for
/// every third, so its part of the stride key varies too.
fn distinct_rob_points(n: usize) -> Vec<DesignPoint> {
    (0..n)
        .map(|id| {
            let mut machine = if id % 3 == 0 {
                MachineConfig::nehalem_with_prefetcher()
            } else {
                MachineConfig::nehalem()
            };
            let rob = 16 + id as u32;
            machine.name = format!("rob-{rob}");
            machine.core = machine.core.with_rob(rob);
            DesignPoint {
                id,
                machine,
                coords: (4, rob, 32, 256, 8192),
            }
        })
        .collect()
}

fn sweep(profile: &ApplicationProfile, chunk: usize) -> StreamingSweep<'_> {
    StreamingSweep::new(profile)
        .chunk(chunk)
        .top_k(8)
        .objective(Objective::Energy)
}

#[test]
fn kept_worker_memos_stay_bounded_and_fold_bit_identically() {
    let profile = profile();
    // Release: at least five 1,024-point chunks. Debug builds, about
    // ten times slower, stop at five 7-point chunks.
    let largest = if cfg!(debug_assertions) { 7 } else { 1024 };
    let points = distinct_rob_points(5 * largest + 3);

    for chunk in [1, 7, 1024] {
        // Each chunk size gets its own preparation, so its worker starts
        // cold rather than from the memo the last one left the profile.
        let prepared = PreparedProfile::new(&profile);
        // The worker's bound: one chunk's worth of fresh-predictor
        // entries, never exceeded however many points pass through.
        let mut worker = BatchPredictor::bounded(&prepared, &ModelConfig::default(), chunk);
        let bound = (chunk * worker.entries_per_point()) as u64;
        let mut fresh = BatchPredictor::new(&prepared, &ModelConfig::default());
        for point in &points {
            let summary = worker.predict_summary(&point.machine);
            let stats = worker.memo_stats();
            let entries = stats.cache_entries
                + stats.stride_entries
                + stats.cp_entries
                + stats.branch_entries;
            assert!(
                entries <= bound,
                "chunk {chunk}: {entries} entries > {bound}"
            );
            // Every point of this space adds entries a fresh predictor
            // adds too: the per-point figure really is a ceiling.
            let before = fresh.memo_stats().misses();
            fresh.predict_summary(&point.machine);
            assert!(fresh.memo_stats().misses() - before <= worker.entries_per_point() as u64);
            let want = IntervalModel::with_config(&point.machine, ModelConfig::default())
                .predict_summary(&prepared);
            assert_eq!(
                serde_json::to_string(&summary).unwrap(),
                serde_json::to_string(&want).unwrap(),
                "chunk {chunk} @ {}",
                point.machine.name
            );
        }
        let stats = worker.memo_stats();
        let entries =
            stats.cache_entries + stats.stride_entries + stats.cp_entries + stats.branch_entries;
        // Wherever the space spans at least five chunks, the memo must
        // have hit its bound.
        if chunk <= largest {
            assert!(
                entries < stats.misses(),
                "chunk {chunk}: the memo must have started over at least once"
            );
        }

        let serial = sweep(&profile, chunk).serial().run(&points);
        assert_eq!(serial.evaluated, points.len());
        let want = serde_json::to_string(&serial).unwrap();
        for threads in ["1", "2", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let parallel = sweep(&profile, chunk).run(&points);
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                want,
                "{threads} threads, chunk {chunk}"
            );
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}
