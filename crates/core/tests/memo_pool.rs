//! A prepared profile keeps the memos of dropped bounded predictors and
//! hands each to the next bounded predictor built under an equal
//! config. A memo value is a pure function of the profile, the config and
//! its key, so a warm start may skip work but never change a byte: every
//! summary here must equal the memo-less `IntervalModel`'s, whichever
//! predictor's memo answered it.

use pmt_branch::EntropyMissModel;
use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_uarch::{DesignSpace, MachineConfig, PredictorKind};
use pmt_workloads::WorkloadSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn profile() -> ApplicationProfile {
    let spec = WorkloadSpec::by_name("astar").expect("suite member");
    Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(25_000))
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// An entropy model trained with a line per predictor family. Each call
/// builds its own map, so two calls are equal models in two maps.
fn trained_entropy_model() -> EntropyMissModel {
    let mut model = EntropyMissModel::new();
    for (k, kind) in PredictorKind::ALL.into_iter().enumerate() {
        let floor = 0.005 * (k + 1) as f64;
        model.train(kind, &[(0.0, floor), (0.5, 0.1 + floor), (1.0, 0.35)]);
    }
    model
}

/// The thesis' small grid, each point with a different predictor family
/// and, every other point, another clock: the entropy model, the stage
/// keys and the memory-stage-only axes all vary.
fn machines() -> Vec<MachineConfig> {
    DesignSpace::small()
        .enumerate()
        .into_iter()
        .map(|point| {
            let mut m = point.machine;
            m.predictor.kind = PredictorKind::ALL[point.id % PredictorKind::ALL.len()];
            m.core.frequency_ghz += 0.4 * (point.id % 2) as f64;
            m
        })
        .collect()
}

/// Whether `predictor`'s next prediction of `machine` computes nothing.
fn answers_warm(predictor: &mut BatchPredictor<'_, '_>, machine: &MachineConfig) -> bool {
    let before = predictor.memo_stats().misses();
    predictor.predict_summary(machine);
    predictor.memo_stats().misses() == before
}

/// Bounded predictors under three configs take turns on one prepared
/// profile, several alive at once and dropped in varying order, with
/// bounds that make some memos start over: each summary's bytes equal
/// the scalar path's under its own config.
#[test]
fn interleaved_configs_on_one_profile_keep_every_byte() {
    let profile = profile();
    let prepared = PreparedProfile::new(&profile);
    let configs = [
        ("default", ModelConfig::default()),
        ("ispass", ModelConfig::ispass_2015()),
        (
            "trained",
            ModelConfig::default().with_entropy_model(trained_entropy_model()),
        ),
    ];
    let machines = machines();
    let want: Vec<Vec<String>> = configs
        .iter()
        .map(|(_, config)| {
            machines
                .iter()
                .map(|m| {
                    json(&IntervalModel::with_config(m, config.clone()).predict_summary(&prepared))
                })
                .collect()
        })
        .collect();

    for (round, bound) in [64, 3, 1, 64, 8].into_iter().enumerate() {
        // Two predictors per config alive at once: the second cannot
        // take the memo the first holds.
        let mut live: Vec<(usize, BatchPredictor<'_, '_>)> = (0..2 * configs.len())
            .map(|i| {
                let c = (i + round) % configs.len();
                (c, BatchPredictor::bounded(&prepared, &configs[c].1, bound))
            })
            .collect();
        for (i, (c, predictor)) in live.iter_mut().enumerate() {
            // Each predictor walks the space from its own offset, so
            // memos carry different points into the next round.
            let start = (7 * i + 5 * round) % machines.len();
            let order = machines.iter().enumerate().cycle().skip(start);
            let chosen: Vec<(usize, &MachineConfig)> = order.take(machines.len() / 2).collect();
            let mut out = Vec::new();
            predictor.predict_batch_into(chosen.iter().map(|&(_, m)| m), &mut out);
            for (&(j, machine), got) in chosen.iter().zip(&out) {
                assert_eq!(
                    json(got),
                    want[*c][j],
                    "round {round}, {} predictor {i}, {}",
                    configs[*c].0,
                    machine.name
                );
            }
        }
        if round % 2 == 1 {
            live.reverse();
        }
        drop(live);
    }

    // A config equal to one in the pool takes its memo back, though its
    // entropy model is another map; a predictor under a config that
    // differs only in that model starts cold.
    let trained = ModelConfig::default().with_entropy_model(trained_entropy_model());
    let mut warm = BatchPredictor::bounded(&prepared, &trained, 64);
    let machine = &machines[0];
    warm.predict_summary(machine);
    drop(warm);
    let mut again = BatchPredictor::bounded(&prepared, &trained, 64);
    assert!(answers_warm(&mut again, machine), "an equal config is warm");
    let mut other = ModelConfig::default().with_entropy_model(trained_entropy_model());
    other
        .entropy_model
        .train(PredictorKind::Tournament, &[(0.0, 0.0), (1.0, 0.5)]);
    let mut cold = BatchPredictor::bounded(&prepared, &other, 64);
    assert!(!answers_warm(&mut cold, machine), "another model is cold");
}

/// The pool keeps at most one memo per rayon worker: after more bounded
/// predictors than that are dropped at once, exactly that many of the
/// next ones start warm. `new` neither takes a memo nor leaves one, and
/// a predictor a panic unwinds through leaves none.
#[test]
fn the_pool_keeps_at_most_one_memo_per_worker() {
    let cap = rayon::current_num_threads();
    let profile = profile();
    let prepared = PreparedProfile::new(&profile);
    let config = ModelConfig::default();
    let machine = MachineConfig::nehalem();
    let warm_count = |n: usize| {
        let mut held: Vec<BatchPredictor<'_, '_>> = (0..n)
            .map(|_| BatchPredictor::bounded(&prepared, &config, 16))
            .collect();
        held.iter_mut()
            .map(|p| answers_warm(p, &machine))
            .filter(|&warm| warm)
            .count()
    };
    assert_eq!(warm_count(cap + 2), 0, "a fresh profile pools nothing");
    assert_eq!(warm_count(cap + 2), cap, "the pool kept its cap");

    // A zero line size divides by zero in the first cache query: the
    // predictor that took a warm memo unwinds and drops it.
    let mut poison = machine.clone();
    poison.caches.l3.line_bytes = 0;
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        BatchPredictor::bounded(&prepared, &config, 16).predict_summary(&poison)
    }));
    assert!(panicked.is_err(), "the poisoned point panics");

    let mut unpooled = BatchPredictor::new(&prepared, &config);
    assert!(!answers_warm(&mut unpooled, &machine), "`new` starts cold");
    drop(unpooled);
    assert_eq!(
        warm_count(cap + 2),
        cap - 1,
        "neither the unwound predictor nor `new` left a memo"
    );
}
