//! The batched-kernel conformance suite: for every machine, profile,
//! model configuration and batch size, [`BatchPredictor`] must return
//! exactly the bytes the single-point `predict_summary` does. Both run
//! the one evaluator over the prepared profile's curve arena; batching
//! adds cross-point memoization, which moves work — never arithmetic.
//! (The arena's queries themselves are pinned against the reference
//! `CacheModel::from_fitted` searches by the arena's unit tests and
//! `search_differential.rs`, and the bytes by the `prepared_identity`
//! golden.)
//!
//! No kernel dispatches on the host's SIMD level, so CI runs this suite
//! once per push, in its `kernel-conformance` job.

use pmt_core::kernels::lanes::LANES;
use pmt_core::{
    BatchPredictor, IntervalModel, MemoStats, MlpModelKind, ModelConfig, PreparedProfile,
};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_trace::UopClass;
use pmt_uarch::{
    CacheConfig, DesignSpace, ExecConfig, MachineConfig, PortMap, PortRoute, PredictorKind,
    PrefetcherConfig,
};
use pmt_workloads::WorkloadSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared profiles (profiling dominates test time; predictions don't).
fn profiles() -> &'static [ApplicationProfile] {
    static PROFILES: OnceLock<Vec<ApplicationProfile>> = OnceLock::new();
    PROFILES.get_or_init(|| {
        ["astar", "mcf", "gcc"]
            .iter()
            .map(|name| {
                let spec = WorkloadSpec::by_name(name).expect("suite member");
                Profiler::new(ProfilerConfig::fast_test())
                    .profile_named(name, &mut spec.trace(25_000))
            })
            .collect()
    })
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// Random machines far outside the thesis grid (same envelope as the
/// prepared-identity golden). Frequency, voltage and the name vary too:
/// they are prediction-inert, so machines differing only in them replay
/// each other's memo entries — and must still match the scalar path
/// byte for byte.
fn machine_strategy() -> impl Strategy<Value = MachineConfig> {
    (
        (1u32..=8, 32u32..=512, 3u32..=7, 7u32..=11, 11u32..=14),
        (
            100u32..=400,
            4u32..=64,
            any::<bool>(),
            2u32..=9,
            80u32..=130,
        ),
    )
        .prop_map(
            |((width, rob, l1_exp, l2_exp, l3_exp), (dram, mshr, prefetcher, freq, vdd))| {
                let base = MachineConfig::nehalem();
                let mut m = if prefetcher {
                    MachineConfig::nehalem_with_prefetcher()
                } else {
                    base.clone()
                };
                m.name = format!("rand-w{width}r{rob}f{freq}");
                m.core = m.core.with_dispatch_width(width).with_rob(rob);
                m.core.frequency_ghz = freq as f64 * 0.5;
                m.core.vdd = vdd as f64 / 100.0;
                m.caches.l1i = CacheConfig::new(1 << l1_exp, 4, 64, 1);
                m.caches.l1d = CacheConfig::new(1 << l1_exp, 8, 64, base.caches.l1d.latency);
                m.caches.l2 = CacheConfig::new(1 << l2_exp, 8, 64, base.caches.l2.latency);
                m.caches.l3 = CacheConfig::new(1 << l3_exp, 16, 64, 28);
                m.mem.dram_latency = dram;
                m.mem.mshr_entries = mshr;
                m
            },
        )
}

/// One batch through one predictor vs per-point scalar models, bytes
/// compared via serde_json (shortest-round-trip floats: equal strings ⇔
/// equal bits).
fn assert_batch_matches_scalar(
    profile: &ApplicationProfile,
    config: &ModelConfig,
    machines: &[MachineConfig],
    ctx: &str,
) {
    let prepared = PreparedProfile::new(profile);
    let mut batch = BatchPredictor::new(&prepared, config);
    let mut out = Vec::new();
    batch.predict_batch_into(machines.iter(), &mut out);
    assert_eq!(out.len(), machines.len(), "{ctx}: batch length");
    for (machine, got) in machines.iter().zip(&out) {
        let want = IntervalModel::with_config(machine, config.clone()).predict_summary(&prepared);
        assert_eq!(json(&want), json(got), "{ctx} @ {}", machine.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Adversarial batch sizes around the SIMD lane width: every prefix
    /// of a random (LANES+1)-machine batch — sizes 1, LANES−1, LANES and
    /// LANES+1 — through a *fresh* predictor (each size sees a different
    /// memo-fill order), against per-point scalar models. Random
    /// profiles and both evaluation modes.
    #[test]
    fn batch_matches_scalar_at_lane_straddling_sizes(
        machines in prop::collection::vec(machine_strategy(), LANES + 1),
        profile_idx in 0usize..3,
        combined in any::<bool>(),
    ) {
        let profile = &profiles()[profile_idx];
        let config = if combined {
            ModelConfig::ispass_2015()
        } else {
            ModelConfig::default()
        };
        for size in [1, LANES - 1, LANES, LANES + 1] {
            assert_batch_matches_scalar(
                profile,
                &config,
                &machines[..size],
                &format!("size {size} combined {combined}"),
            );
        }
    }

    /// Replay: the same machines pushed through one predictor twice.
    /// The second pass is pure memo hits and must reproduce the first
    /// pass — and the scalar path — byte for byte.
    #[test]
    fn memo_hits_replay_identical_bytes(
        machines in prop::collection::vec(machine_strategy(), LANES),
        profile_idx in 0usize..3,
    ) {
        let profile = &profiles()[profile_idx];
        let config = ModelConfig::default();
        let prepared = PreparedProfile::new(profile);
        let mut batch = BatchPredictor::new(&prepared, &config);
        let first: Vec<String> = machines.iter().map(|m| json(&batch.predict_summary(m))).collect();
        for (machine, want) in machines.iter().zip(&first) {
            prop_assert_eq!(&json(&batch.predict_summary(machine)), want);
            let scalar = IntervalModel::with_config(machine, config.clone())
                .predict_summary(&prepared);
            prop_assert_eq!(&json(&scalar), want);
        }
    }
}

/// The empty batch: no output, no panic, output vector cleared.
#[test]
fn empty_batch_is_empty() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    let mut batch = BatchPredictor::new(&prepared, &ModelConfig::default());
    let mut out = vec![IntervalModel::new(&MachineConfig::nehalem()).predict_summary(&prepared)];
    batch.predict_batch_into(std::iter::empty::<&MachineConfig>(), &mut out);
    assert!(out.is_empty(), "stale summaries must be cleared");
}

/// Machines differing only in frequency, voltage and name present
/// identical inputs to every memoized computation (prediction never
/// reads those fields — seconds and power are scaled downstream), so
/// after the first rung a DVFS ladder replays pure memo hits. Every
/// rung must still match its own scalar model byte for byte.
#[test]
fn frequency_only_variants_replay_memo_hits_identically() {
    let profile = &profiles()[1];
    let prepared = PreparedProfile::new(profile);
    let config = ModelConfig::default();
    let mut batch = BatchPredictor::new(&prepared, &config);
    for (i, freq) in [1.0, 1.6, 2.66, 3.2, 4.0].into_iter().enumerate() {
        let mut m = MachineConfig::nehalem();
        m.name = format!("dvfs-{i}");
        m.core.frequency_ghz = freq;
        m.core.vdd = 0.9 + 0.1 * i as f64;
        let want = IntervalModel::with_config(&m, config.clone()).predict_summary(&prepared);
        assert_eq!(json(&want), json(&batch.predict_summary(&m)), "freq {freq}");
    }
}

/// The shared work that makes a served predict flight pay, pinned
/// without a clock: one `BatchPredictor` evaluates N nehalem machines
/// that differ only in `core.frequency_ghz`, one after another, as
/// `pmt serve` evaluates a flight of distinct DVFS-style predicts.
/// Frequency is in no memo key, so the whole flight misses only what its
/// first point missed and every later point replays all of it — while
/// each summary still matches its scalar model byte for byte.
#[test]
fn frequency_only_flight_misses_only_its_first_point() {
    const CALLERS: usize = 16;
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    let config = ModelConfig::default();
    let mut batch = BatchPredictor::new(&prepared, &config);
    let mut first = None;
    for i in 0..CALLERS {
        let mut m = MachineConfig::nehalem();
        m.core.frequency_ghz = 1.0 + 0.001 * i as f64;
        let got = batch.predict_summary(&m);
        first.get_or_insert(batch.memo_stats());
        let want = IntervalModel::with_config(&m, config.clone()).predict_summary(&prepared);
        assert_eq!(json(&want), json(&got), "caller {i}");
    }
    let first = first.expect("a non-empty flight");
    let flight = batch.memo_stats();
    assert!(first.misses() > 0, "a cold point must populate the memos");
    assert_eq!(
        flight.misses(),
        first.misses(),
        "frequency-only callers recompute nothing"
    );
    assert_eq!(
        flight.hits(),
        first.hits() + (CALLERS as u64 - 1) * first.misses(),
        "every later caller replays everything the first one computed"
    );
}

/// The golden acceptance scale: the full 243-point Table 6.3 space
/// through ONE predictor (maximum memo reuse — the production shape), in
/// both evaluation modes, every point byte-identical to the scalar path.
#[test]
fn batch_matches_scalar_across_the_full_243_point_space() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    for config in [ModelConfig::default(), ModelConfig::ispass_2015()] {
        let mut batch = BatchPredictor::new(&prepared, &config);
        let points = DesignSpace::thesis_table_6_3().enumerate();
        assert_eq!(points.len(), 243);
        for point in points {
            let want = IntervalModel::with_config(&point.machine, config.clone())
                .predict_summary(&prepared);
            assert_eq!(
                json(&want),
                json(&batch.predict_summary(&point.machine)),
                "astar @ {}",
                point.machine.name
            );
        }
    }
}

/// A profile with no micro-traces falls back to combined mode; the
/// batched path must follow it bit-for-bit.
#[test]
fn batch_handles_empty_micro_traces() {
    let mut profile = profiles()[2].clone();
    profile.micro_traces.clear();
    let machines = vec![
        MachineConfig::nehalem(),
        MachineConfig::nehalem_with_prefetcher(),
    ];
    assert_batch_matches_scalar(
        &profile,
        &ModelConfig::default(),
        &machines,
        "no micro-traces",
    );
}

/// `predict_tagged` is the demux primitive cross-request batching rides
/// on: opaque caller keys go in with their machines, `(key, summary)`
/// pairs come out in iteration order, and every summary is bit-identical
/// to a solo `predict_summary` of the same point.
#[test]
fn predict_tagged_keys_ride_with_bit_identical_summaries() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    let config = ModelConfig::default();
    let points: Vec<(String, MachineConfig)> = [1.0, 1.6, 2.66, 3.2]
        .iter()
        .enumerate()
        .map(|(i, &freq)| {
            let mut m = MachineConfig::nehalem();
            m.core.frequency_ghz = freq;
            m.core.rob_size = 64 << (i % 3);
            (format!("caller-{i}"), m)
        })
        .collect();

    let mut batch = BatchPredictor::new(&prepared, &config);
    let tagged = batch.predict_tagged(points.clone());
    assert_eq!(tagged.len(), points.len());
    for ((key, summary), (want_key, machine)) in tagged.iter().zip(&points) {
        assert_eq!(key, want_key, "keys must ride back in iteration order");
        let solo = IntervalModel::with_config(machine, config.clone()).predict_summary(&prepared);
        assert_eq!(json(summary), json(&solo), "{key}");
    }
}

/// The memo-stats snapshot: entries equal misses (every miss inserts
/// exactly one entry), a replayed frequency-only point is all hits, and
/// the tallies are cumulative across calls.
#[test]
fn memo_stats_track_entries_hits_and_misses() {
    let profile = &profiles()[1];
    let prepared = PreparedProfile::new(profile);
    let mut batch = BatchPredictor::new(&prepared, &ModelConfig::default());
    let empty = batch.memo_stats();
    assert_eq!(empty, pmt_core::MemoStats::default());

    let machine = MachineConfig::nehalem();
    batch.predict_summary(&machine);
    let cold = batch.memo_stats();
    assert!(cold.misses() > 0, "a cold point must populate the memos");
    assert_eq!(cold.cache_entries, cold.cache_misses);
    assert_eq!(cold.stride_entries, cold.stride_misses);
    assert_eq!(cold.cp_entries, cold.cp_misses);
    assert_eq!(cold.branch_entries, cold.branch_misses);

    // A frequency-only variant presents identical inputs to every memo:
    // pure hits, no new entries.
    let mut dvfs = machine.clone();
    dvfs.core.frequency_ghz = 1.6;
    batch.predict_summary(&dvfs);
    let warm = batch.memo_stats();
    assert_eq!(warm.misses(), cold.misses(), "no new entries on a replay");
    assert_eq!(
        warm.hits(),
        cold.hits() + cold.misses(),
        "the replay hits every memo the cold point populated"
    );
    assert_eq!(warm.cache_entries, cold.cache_entries);

    // A new ROB size misses the ROB-keyed memos but keeps the cache
    // queries hot.
    let mut big_rob = machine.clone();
    big_rob.core.rob_size *= 2;
    batch.predict_summary(&big_rob);
    let third = batch.memo_stats();
    assert!(third.cp_misses > warm.cp_misses, "new ROB recomputes CP");
    assert_eq!(
        third.cache_misses, warm.cache_misses,
        "unchanged hierarchy replays every cache query"
    );
}

/// Every miss inserts exactly one entry, whichever path the lookups
/// took.
fn assert_entries_equal_misses(stats: &pmt_core::MemoStats, ctx: &str) {
    assert_eq!(stats.cache_entries, stats.cache_misses, "{ctx}: cache");
    assert_eq!(stats.stride_entries, stats.stride_misses, "{ctx}: stride");
    assert_eq!(stats.cp_entries, stats.cp_misses, "{ctx}: cp");
    assert_eq!(stats.branch_entries, stats.branch_misses, "{ctx}: branch");
}

/// Nehalem's issue stage with two ALU-capable ports instead of three and
/// fewer ALUs. Latencies are Nehalem's, so a window's average latency —
/// and every memo key — is the same on both maps: only the port and
/// unit limits of Eq 3.10 differ.
fn narrow_exec() -> ExecConfig {
    use UopClass::*;
    let nehalem = ExecConfig::nehalem();
    let ports = PortMap::new(
        6,
        UopClass::ALL
            .iter()
            .map(|&class| {
                let route = match class {
                    IntAlu | Move => PortRoute::one_of(&[0, 1]),
                    _ => nehalem.ports.route(class).clone(),
                };
                (class, route)
            })
            .collect(),
    );
    ExecConfig::new(
        UopClass::ALL
            .iter()
            .map(|&class| {
                let mut res = nehalem.resources(class);
                if matches!(class, IntAlu | Move) {
                    res.units = 1;
                }
                (class, res)
            })
            .collect(),
        ports,
    )
}

/// One predictor over points that switch issue stage back and forth:
/// each window's port and unit limits must follow the point's
/// `ExecConfig`, never the one a previous point left behind.
#[test]
fn issue_stage_switches_recompute_port_and_unit_limits() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    let narrow = narrow_exec();
    for config in [ModelConfig::default(), ModelConfig::ispass_2015()] {
        let mut batch = BatchPredictor::new(&prepared, &config);
        let mut bodies = Vec::new();
        for rob in [128, 64] {
            for (i, wide) in [true, false, true, false, false, true]
                .into_iter()
                .enumerate()
            {
                let mut m = MachineConfig::nehalem();
                m.name = format!("exec-{rob}-{i}");
                m.core = m.core.with_rob(rob);
                if !wide {
                    m.exec = narrow.clone();
                }
                let want =
                    IntervalModel::with_config(&m, config.clone()).predict_summary(&prepared);
                let got = json(&batch.predict_summary(&m));
                assert_eq!(json(&want), got, "{}", m.name);
                bodies.push((wide, got));
            }
        }
        assert!(
            bodies
                .iter()
                .any(|(wide, body)| !wide && *body != bodies[0].1),
            "the narrow issue stage must change the prediction"
        );
        assert_entries_equal_misses(&batch.memo_stats(), "exec switches");
    }
}

/// A point order that defeats every last-answer slot: adjacent points
/// differ in L1 size (cache queries, average latency) and ROB (CP(ROB),
/// branch penalty, stride walk), and prefetcher-enabled points vary the
/// stride key's dispatch-rate part. The second pass replays every
/// lookup from the map through a slot holding another key.
#[test]
fn slot_defeating_point_order_matches_scalar() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    let base = MachineConfig::nehalem();
    let steps = [
        (32, 128, false),
        (64, 256, true),
        (16, 64, true),
        (64, 128, false),
        (32, 256, true),
        (16, 64, true),
    ];
    let machines: Vec<MachineConfig> = steps
        .iter()
        .map(|&(l1_kb, rob, prefetcher)| {
            let mut m = if prefetcher {
                MachineConfig::nehalem_with_prefetcher()
            } else {
                base.clone()
            };
            m.name = format!("slots-l1{l1_kb}-rob{rob}-pf{prefetcher}");
            m.core = m.core.with_rob(rob);
            m.caches.l1d = CacheConfig::new(l1_kb, 8, 64, base.caches.l1d.latency);
            m
        })
        .collect();
    for config in [ModelConfig::default(), ModelConfig::ispass_2015()] {
        let mut batch = BatchPredictor::new(&prepared, &config);
        let mut first_pass = None;
        for pass in 0..2 {
            for m in &machines {
                let want = IntervalModel::with_config(m, config.clone()).predict_summary(&prepared);
                assert_eq!(
                    json(&want),
                    json(&batch.predict_summary(m)),
                    "pass {pass} @ {}",
                    m.name
                );
            }
            let stats = batch.memo_stats();
            assert_entries_equal_misses(&stats, &format!("pass {pass}"));
            match first_pass {
                None => first_pass = Some(stats),
                Some(first) => {
                    assert_eq!(
                        stats.misses(),
                        first.misses(),
                        "the replay computes nothing"
                    );
                    assert_eq!(stats.hits(), first.hits() + first.hits() + first.misses());
                }
            }
        }
    }
}

/// The narrowed memo keys: the stride walk is memoized before its MSHR
/// cap, so MSHR is in no key, and a cache query is memoized per level
/// under `(curve, level, that level's line count)`. One predictor walks
/// a machine one axis at a time — MSHR alone, one cache level at a
/// time (L1-D and L2 each to a line count the next level already asks
/// for), then ROB — with the prefetcher off and on, in both evaluation modes.
/// Every point must match its scalar model byte for byte, and each step
/// must compute exactly what its axis feeds:
///
/// * an MSHR step computes nothing at all — yet changes the answer;
/// * an L1-D step adds one cache miss per data curve, an L2 or L3 step
///   one per curve (the instruction path shares L2 and L3) — a line
///   count already asked at another level still misses at this one;
/// * with the prefetcher off, L1-D and L2 steps walk no stride stream,
///   and L3 and ROB steps re-walk it.
#[test]
fn narrowed_keys_recompute_only_what_each_axis_feeds() {
    let profile = &profiles()[0];
    let prepared = PreparedProfile::new(profile);
    for config in [ModelConfig::default(), ModelConfig::ispass_2015()] {
        for prefetcher in [false, true] {
            let mut m = if prefetcher {
                MachineConfig::nehalem_with_prefetcher()
            } else {
                MachineConfig::nehalem()
            };
            let mut batch = BatchPredictor::new(&prepared, &config);
            let mut predict = |m: &MachineConfig, ctx: &str| {
                let want = IntervalModel::with_config(m, config.clone()).predict_summary(&prepared);
                let got = json(&batch.predict_summary(m));
                assert_eq!(json(&want), got, "{ctx} (prefetcher {prefetcher})");
                (got, batch.memo_stats())
            };
            let (base_body, first) = predict(&m, "base");
            assert_eq!(first.cache_misses % 3, 0, "three levels per curve");
            let curves = first.cache_misses / 3;
            let strided = first.stride_misses > 0;
            assert_eq!(
                strided,
                config.mlp_model == MlpModelKind::Stride,
                "the stride model walks on this profile"
            );
            let mut last = first;

            // MSHR alone: every lookup replays; the cap still applies.
            let mut changed = false;
            for mshr in [2, 4, 32, 10] {
                m.mem.mshr_entries = mshr;
                let (body, stats) = predict(&m, &format!("mshr {mshr}"));
                assert_eq!(stats.misses(), last.misses(), "mshr {mshr} computed");
                assert_eq!(stats.stride_misses, last.stride_misses);
                changed |= body != base_body;
                last = stats;
            }
            assert!(changed, "some MSHR count must change the prediction");

            // One level at a time; L1-D and L2 each to the line count the
            // next level already asks for.
            let steps = [
                ("l1d 256K", 0, 256, curves - 1),
                ("l2 8M", 1, 8192, curves),
                ("l3 16M", 2, 16384, curves),
            ];
            for (name, level, size_kb, new_queries) in steps {
                let cache = match level {
                    0 => &mut m.caches.l1d,
                    1 => &mut m.caches.l2,
                    _ => &mut m.caches.l3,
                };
                *cache = CacheConfig::new(size_kb, cache.associativity, 64, cache.latency);
                let (_, stats) = predict(&m, name);
                assert_eq!(
                    stats.cache_misses - last.cache_misses,
                    new_queries,
                    "{name}"
                );
                if strided && !prefetcher {
                    let walked = stats.stride_misses - last.stride_misses;
                    if name.starts_with("l3") {
                        assert!(walked > 0, "{name}: a new L3 must re-walk");
                    } else {
                        assert_eq!(walked, 0, "{name}: no walk reads this level");
                    }
                }
                last = stats;
                // ... and MSHR alone on the new hierarchy still computes
                // nothing.
                m.mem.mshr_entries = 4;
                let (_, stats) = predict(&m, &format!("{name} mshr 4"));
                assert_eq!(stats.misses(), last.misses(), "{name} mshr 4 computed");
                m.mem.mshr_entries = 10;
                let (_, stats) = predict(&m, &format!("{name} mshr 10"));
                assert_eq!(stats.misses(), last.misses(), "{name} mshr 10 computed");
            }

            m.core = m.core.with_rob(192);
            let (_, stats) = predict(&m, "rob 192");
            assert_eq!(
                stats.cache_misses, last.cache_misses,
                "ROB feeds no cache query"
            );
            if strided {
                assert!(
                    stats.stride_misses > last.stride_misses,
                    "a new ROB must re-walk"
                );
            }
            assert_entries_equal_misses(&stats, "narrowed keys");
        }
    }
}

/// Nehalem's issue stage with one latency changed: the integer
/// multiplier takes twice as long.
fn slower_multiply() -> ExecConfig {
    let nehalem = ExecConfig::nehalem();
    let resources = UopClass::ALL
        .iter()
        .map(|&class| {
            let mut res = nehalem.resources(class);
            if class == UopClass::IntMul {
                res.latency *= 2;
            }
            (class, res)
        })
        .collect();
    ExecConfig::new(resources, nehalem.ports.clone())
}

/// A batched point replays the last point's core + cache stage when
/// its stage key is unchanged, so every machine field that stage reads
/// must be in the key. One predictor, warmed at a base machine, flips
/// one field at a time: the variant, the base, the variant again and the
/// base again, each against the memo-less path. A field missing from the
/// key would hand the variant the base's stage (or the base the
/// variant's). Fields the memory stage reads (DRAM, bus, MSHR,
/// prefetcher) ride along: a stage replayed across them must still leave
/// them their say. The small-cache base puts loads in L2 and L3, so the
/// L3 latency moves a prediction too.
#[test]
fn every_field_the_reused_stage_reads_is_in_its_key() {
    type Flip = fn(&mut MachineConfig);
    let flips: [(&str, Flip); 21] = [
        ("l1i size", |m| m.caches.l1i.size_kb /= 8),
        ("l1i associativity", |m| m.caches.l1i.associativity *= 2),
        ("l1i latency", |m| m.caches.l1i.latency += 3),
        ("l1d size", |m| m.caches.l1d.size_kb *= 2),
        ("l1d associativity", |m| m.caches.l1d.associativity *= 2),
        ("l1d latency", |m| m.caches.l1d.latency += 3),
        ("l2 size", |m| m.caches.l2.size_kb *= 2),
        ("l2 associativity", |m| m.caches.l2.associativity *= 2),
        ("l2 latency", |m| m.caches.l2.latency += 5),
        ("l3 size", |m| m.caches.l3.size_kb /= 4),
        ("l3 associativity", |m| m.caches.l3.associativity *= 2),
        ("l3 latency", |m| m.caches.l3.latency += 12),
        ("rob", |m| m.core.rob_size = 48),
        ("dispatch width", |m| m.core.dispatch_width = 2),
        ("front-end depth", |m| m.core.frontend_depth += 10),
        ("predictor kind", |m| m.predictor.kind = PredictorKind::GAg),
        ("exec latency", |m| m.exec = slower_multiply()),
        ("dram latency", |m| m.mem.dram_latency += 150),
        ("bus cycles", |m| m.mem.bus_transfer_cycles *= 4),
        ("mshr", |m| m.mem.mshr_entries = 2),
        ("prefetcher", |m| {
            m.prefetcher = if m.prefetcher.enabled {
                PrefetcherConfig::disabled()
            } else {
                PrefetcherConfig::stride_64()
            }
        }),
    ];
    let mut small = MachineConfig::nehalem();
    small.caches.l1i = CacheConfig::new(8, 4, 64, 1);
    small.caches.l1d = CacheConfig::new(8, 8, 64, 2);
    small.caches.l2 = CacheConfig::new(32, 8, 64, 8);
    small.caches.l3 = CacheConfig::new(256, 16, 64, 30);
    // Flips that move no prediction here: no model term reads an
    // associativity or the L1-I latency, and the suite's instruction
    // footprints fit even a 1 KiB L1-I. They are flipped anyway, since
    // the key holds the whole hierarchy.
    let inert = [
        "l1i size",
        "l1i associativity",
        "l1i latency",
        "l1d associativity",
        "l2 associativity",
        "l3 associativity",
    ];
    let mut moved = std::collections::BTreeSet::new();
    for (mode, config) in [
        ("per-window", ModelConfig::default()),
        ("combined", ModelConfig::ispass_2015()),
    ] {
        for profile in profiles() {
            let prepared = PreparedProfile::new(profile);
            let mut batch = BatchPredictor::new(&prepared, &config);
            let scalar = |m: &MachineConfig| {
                json(&IntervalModel::with_config(m, config.clone()).predict_summary(&prepared))
            };
            for base in [
                MachineConfig::nehalem(),
                MachineConfig::nehalem_with_prefetcher(),
                small.clone(),
            ] {
                let base_body = scalar(&base);
                let ctx = format!("{mode}, {}, base {}", profile.name, base.name);
                assert_eq!(base_body, json(&batch.predict_summary(&base)), "{ctx}");
                for (field, flip) in flips {
                    let mut variant = base.clone();
                    flip(&mut variant);
                    let variant_body = scalar(&variant);
                    if variant_body != base_body {
                        moved.insert(field);
                    }
                    for _ in 0..2 {
                        let got = json(&batch.predict_summary(&variant));
                        assert_eq!(variant_body, got, "{ctx}: {field} variant");
                        let got = json(&batch.predict_summary(&base));
                        assert_eq!(base_body, got, "{ctx}: {field} base");
                    }
                }
            }
        }
    }
    for (field, _) in flips {
        assert_eq!(
            moved.contains(field),
            !inert.contains(&field),
            "{field}: whether the flip moves some prediction"
        );
    }
}

/// `machines` through one predictor as a batch, which evaluates each run
/// of consecutive machines sharing a stage key and issue stage
/// window-major, and through another point by point: every summary must
/// match the per-point predictor's and the scalar path's byte for byte,
/// and the two predictors' memo tallies must agree. With `bound`, both
/// predictors are [bounded](BatchPredictor::bounded) to that many points.
/// A bounded predictor takes a warm memo its profile kept, so each
/// predictor gets its own preparation of the profile: all three start
/// cold, which the tally comparisons need.
/// Returns the per-point predictor's memo tallies after each point.
fn assert_runs_match_points(
    prepared: &PreparedProfile<'_>,
    config: &ModelConfig,
    bound: Option<usize>,
    machines: &[MachineConfig],
    ctx: &str,
) -> Vec<MemoStats> {
    let own: Vec<PreparedProfile<'_>> = (0..3)
        .map(|_| PreparedProfile::new(prepared.profile()))
        .collect();
    let predictor = |i: usize| match bound {
        Some(points) => BatchPredictor::bounded(&own[i], config, points),
        None => BatchPredictor::new(&own[i], config),
    };
    let (mut batched, mut single) = (predictor(0), predictor(1));
    let mut out = Vec::new();
    batched.predict_batch_into(machines, &mut out);
    assert_eq!(out.len(), machines.len(), "{ctx}: batch length");
    let mut tallies = Vec::new();
    for (i, (machine, got)) in machines.iter().zip(&out).enumerate() {
        let want = json(&single.predict_summary(machine));
        tallies.push(single.memo_stats());
        assert_eq!(want, json(got), "{ctx}: point {i}");
        let scalar = IntervalModel::with_config(machine, config.clone()).predict_summary(prepared);
        assert_eq!(want, json(&scalar), "{ctx}: point {i} vs scalar");
    }
    assert_eq!(
        batched.memo_stats(),
        single.memo_stats(),
        "{ctx}: memo tallies"
    );
    let mut tagged = predictor(2);
    let pairs = tagged.predict_tagged(machines.iter().cloned().enumerate());
    for ((i, got), want) in pairs.iter().zip(&out) {
        assert_eq!(json(got), json(want), "{ctx}: tagged point {i}");
    }
    assert_eq!(
        tagged.memo_stats(),
        single.memo_stats(),
        "{ctx}: tagged tallies"
    );
    tallies
}

/// Variants that differ only in fields the memory stage reads — MSHR
/// entries, DRAM latency and the operating point — so they share `base`'s
/// stage key and issue stage: one run when consecutive.
fn memory_variants(base: &MachineConfig, n: usize) -> Vec<MachineConfig> {
    (0..n)
        .map(|i| {
            let mut m = base.clone();
            m.name = format!("{}-lane{i}", base.name);
            m.mem.mshr_entries = [4, 8, 16, 32][i % 4];
            m.mem.dram_latency += 40 * (i as u32 % 3);
            m.core.frequency_ghz = 1.6 + 0.4 * i as f64;
            m.core.vdd = 0.9 + 0.05 * i as f64;
            m
        })
        .collect()
}

/// Both evaluation modes over every shared profile.
fn each_config_and_profile(mut check: impl FnMut(&PreparedProfile<'_>, &ModelConfig, &str)) {
    for (mode, config) in [
        ("per-window", ModelConfig::default()),
        ("combined", ModelConfig::ispass_2015()),
    ] {
        for profile in profiles() {
            let prepared = PreparedProfile::new(profile);
            check(&prepared, &config, &format!("{mode}, {}", profile.name));
        }
    }
}

/// A run ends where the issue stage changes, even though the stage key
/// does not: nehalem, the narrow issue stage, nehalem again.
#[test]
fn a_run_ends_at_an_issue_stage_change() {
    let mut narrow = MachineConfig::nehalem();
    narrow.exec = narrow_exec();
    let mut machines = memory_variants(&MachineConfig::nehalem(), 3);
    machines.extend(memory_variants(&narrow, 3));
    machines.extend(memory_variants(
        &MachineConfig::nehalem_with_prefetcher(),
        2,
    ));
    each_config_and_profile(|prepared, config, ctx| {
        assert_runs_match_points(prepared, config, None, &machines, ctx);
    });
}

/// A run ends where the stage key changes: ROB, then the L2, then the
/// predictor kind, each for a few memory-stage variants.
#[test]
fn a_run_ends_at_a_stage_key_change() {
    let base = MachineConfig::nehalem_with_prefetcher();
    let mut small_rob = base.clone();
    small_rob.core = small_rob.core.with_rob(64);
    let mut big_l2 = small_rob.clone();
    big_l2.caches.l2 = CacheConfig::new(1024, 8, 64, big_l2.caches.l2.latency);
    let mut gag = big_l2.clone();
    gag.predictor.kind = PredictorKind::GAg;
    let machines: Vec<MachineConfig> = [&base, &small_rob, &big_l2, &gag, &base]
        .into_iter()
        .flat_map(|m| memory_variants(m, 3))
        .collect();
    each_config_and_profile(|prepared, config, ctx| {
        assert_runs_match_points(prepared, config, None, &machines, ctx);
    });
}

/// Every point its own run: each changes the ROB size, so no two
/// consecutive machines share a stage key.
#[test]
fn runs_of_one_match_single_points() {
    let machines: Vec<MachineConfig> = memory_variants(&MachineConfig::nehalem(), 8)
        .into_iter()
        .enumerate()
        .map(|(i, mut m)| {
            m.core = m.core.with_rob([64, 128][i % 2]);
            m
        })
        .collect();
    each_config_and_profile(|prepared, config, ctx| {
        assert_runs_match_points(prepared, config, None, &machines, ctx);
    });
}

/// A bounded predictor starts its memo over before a point that could
/// take it past its bound; in a run, such a point would be a follower.
/// The prefetcher puts DRAM latency in the stride key, so every follower
/// walks new strides and the memo grows inside runs. Point by point, the
/// memo restarts at followers for some bound here; the batch must cut
/// its runs there and tally exactly the same hits, misses and entries.
#[test]
fn a_bounded_restart_inside_a_run_splits_it() {
    let lanes = 6;
    let machines: Vec<MachineConfig> = [48, 64, 96, 128, 192, 256, 384, 512]
        .into_iter()
        .flat_map(|rob| {
            let mut m = MachineConfig::nehalem_with_prefetcher();
            m.core = m.core.with_rob(rob);
            memory_variants(&m, lanes)
        })
        .collect();
    let entries =
        |s: &MemoStats| s.cache_entries + s.stride_entries + s.cp_entries + s.branch_entries;
    let mut restarts_inside_runs = 0;
    for bound in [2, 3, 5, 8] {
        each_config_and_profile(|prepared, config, ctx| {
            let tallies = assert_runs_match_points(
                prepared,
                config,
                Some(bound),
                &machines,
                &format!("{ctx}, bound {bound}"),
            );
            // A restart drops the entries below the last point's.
            restarts_inside_runs += tallies
                .windows(2)
                .enumerate()
                .filter(|(i, pair)| (i + 1) % lanes != 0 && entries(&pair[1]) < entries(&pair[0]))
                .count();
        });
    }
    assert!(
        restarts_inside_runs > 0,
        "some restart must land on a follower"
    );
}
