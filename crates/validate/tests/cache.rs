//! Memoization-cache behaviour through the validation subsystem: warm
//! runs are free, parallel and serial cold runs are bit-identical, and
//! persisted caches survive a process boundary (modeled as a JSON round
//! trip).

use pmt_dse::{sim_cache_key, SpaceEvaluation, SweepConfig};
use pmt_profiler::{Profiler, ProfilerConfig};
use pmt_sim::SimCache;
use pmt_uarch::DesignSpace;
use pmt_validate::{ValidationConfig, Validator};
use pmt_workloads::WorkloadSpec;

fn tiny_points() -> Vec<pmt_uarch::DesignPoint> {
    DesignSpace::small().enumerate()[..6].to_vec()
}

/// The acceptance-criterion test: a second warm-cache validation performs
/// zero new simulations, proven by the report's own cache counters, and
/// reproduces the cold run's statistics bit for bit.
#[test]
fn warm_validation_simulates_nothing_and_matches_cold() {
    let validator = Validator::new(ValidationConfig::smoke())
        .points(tiny_points())
        .workload_named("astar")
        .unwrap();

    let cold = validator.run();
    assert_eq!(cold.cache.misses, 6, "cold run must simulate every point");
    assert_eq!(cold.cache.hits, 0);

    let warm = validator.run();
    assert_eq!(warm.cache.misses, 0, "warm run must not simulate");
    assert_eq!(warm.cache.hits, 6, "warm run must hit every point");

    // Identical statistics, bit for bit (everything else in the report is
    // equal too; the cache counters differ by design).
    assert_eq!(cold.cpi, warm.cpi);
    assert_eq!(cold.ipc, warm.ipc);
    assert_eq!(cold.power, warm.power);
    assert_eq!(cold.workloads, warm.workloads);
}

/// Sharing one cache across *different* validators also dedupes: a second
/// validator over a subset grid is pure lookups.
#[test]
fn shared_cache_spans_validators() {
    let first = Validator::new(ValidationConfig::smoke())
        .points(tiny_points())
        .workload_named("astar")
        .unwrap();
    let report = first.run();
    assert_eq!(report.cache.misses, 6);

    let second = Validator::new(ValidationConfig::smoke())
        .points(tiny_points()[..3].to_vec())
        .workload_named("astar")
        .unwrap()
        .cache(first.shared_cache());
    let sub = second.run();
    assert_eq!(sub.cache.misses, 0);
    assert_eq!(sub.cache.hits, 3);
}

/// A rayon-parallel cold sweep through the cache equals the serial cold
/// sweep bit for bit, and both record the same miss count.
#[test]
fn parallel_cold_run_equals_serial_cold_run() {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    let points = tiny_points();

    let serial_cache = SimCache::shared();
    let serial = SpaceEvaluation::run_serial(
        &points,
        &profile,
        Some(&spec),
        &SweepConfig {
            sim_instructions: 5_000,
            sim_cache: Some(serial_cache.clone()),
            ..Default::default()
        },
    );

    let parallel_cache = SimCache::shared();
    let parallel = SpaceEvaluation::run(
        &points,
        &profile,
        Some(&spec),
        &SweepConfig {
            sim_instructions: 5_000,
            sim_cache: Some(parallel_cache.clone()),
            ..Default::default()
        },
    );

    assert_eq!(serial_cache.stats().misses, points.len() as u64);
    assert_eq!(parallel_cache.stats().misses, points.len() as u64);
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(s.sim_cpi.unwrap().to_bits(), p.sim_cpi.unwrap().to_bits());
        assert_eq!(
            s.sim_power.unwrap().to_bits(),
            p.sim_power.unwrap().to_bits()
        );
        assert_eq!(
            s.sim_seconds.unwrap().to_bits(),
            p.sim_seconds.unwrap().to_bits()
        );
    }
}

/// A persisted cache reloaded in a "new process" (JSON round trip) keeps
/// serving: the reloaded validator simulates nothing.
#[test]
fn persisted_cache_serves_after_reload() {
    let validator = Validator::new(ValidationConfig::smoke())
        .points(tiny_points()[..4].to_vec())
        .workload_named("mcf")
        .unwrap();
    let cold = validator.run();
    assert_eq!(cold.cache.misses, 4);

    let json = validator.shared_cache().to_json();
    let reloaded = std::sync::Arc::new(SimCache::from_json(&json).unwrap());
    let revalidator = Validator::new(ValidationConfig::smoke())
        .points(tiny_points()[..4].to_vec())
        .workload_named("mcf")
        .unwrap()
        .cache(reloaded);
    let warm = revalidator.run();
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(cold.cpi, warm.cpi);
}

/// Changing the simulation budget must miss the cache — budget is part of
/// the content key (the other key inputs are covered field-by-field in
/// `pmt_dse`'s `cache_key_is_sensitive_to_every_input`).
#[test]
fn budget_change_invalidates_the_key() {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let machine = tiny_points()[0].machine.clone();
    assert_ne!(
        sim_cache_key(&spec, &machine, 5_000),
        sim_cache_key(&spec, &machine, 5_001)
    );
}
