//! Input generation is a pure function of the seed: the same seed sends
//! the same request bytes, another seed sends others.

use pmt_dse::LazyDesignSpace;
use pmt_profiler::{Profiler, ProfilerConfig};
use pmt_workloads::WorkloadSpec;
use pmtbench::inputs::{self, MixedPlan, PredictStream, Uploads};

fn big() -> Box<dyn LazyDesignSpace + Send + Sync> {
    pmt_api::SpaceSpec::named("big")
        .resolve()
        .expect("big resolves")
}

fn predict_bytes(seed: u64) -> Vec<String> {
    let space = big();
    let stream = PredictStream::new(seed, ["astar", "mcf"], space.len());
    (0..256)
        .map(|i| inputs::body(&stream.request(space.as_ref(), i).1))
        .collect()
}

fn mixed_bytes(seed: u64) -> Vec<String> {
    let space = big();
    let plan = MixedPlan::new(seed, ["astar", "mcf"], space.as_ref(), 160, "thesis");
    let mut bytes: Vec<String> = plan.predicts.iter().map(|p| p.2.clone()).collect();
    bytes.extend((0..32).map(|k| plan.explore(k, false).2));
    bytes.extend((0..32).map(|r| plan.explore(r, true).2));
    bytes.extend((0..400).map(|k| plan.predict(k).to_string()));
    bytes
}

#[test]
fn same_seed_sends_the_same_predict_bytes() {
    assert_eq!(predict_bytes(7), predict_bytes(7));
    assert_ne!(predict_bytes(7), predict_bytes(8));
}

#[test]
fn predict_stream_never_repeats_a_machine() {
    let bytes = predict_bytes(11);
    let mut unique = bytes.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), bytes.len());
}

#[test]
fn mixed_explores_are_never_repeated() {
    let space = big();
    let plan = MixedPlan::new(3, ["astar", "mcf"], space.as_ref(), 160, "thesis");
    let mut bodies: Vec<String> = (0..64)
        .flat_map(|k| [plan.explore(k, false).2, plan.explore(k, true).2])
        .collect();
    bodies.sort();
    bodies.dedup();
    assert_eq!(bodies.len(), 128);
}

#[test]
fn same_seed_sends_the_same_mixed_traffic() {
    assert_eq!(mixed_bytes(3), mixed_bytes(3));
    assert_ne!(mixed_bytes(3), mixed_bytes(4));
}

#[test]
fn same_seed_sends_the_same_explore_and_uploads() {
    let explore = |seed| inputs::body(&inputs::frontier_request(seed, "astar", "big"));
    assert_eq!(explore(5), explore(5));
    assert_eq!(inputs::suite_order(5, 1, 29), inputs::suite_order(5, 1, 29));
    assert_ne!(inputs::suite_order(5, 1, 29), inputs::suite_order(5, 2, 29));

    let base = Profiler::new(ProfilerConfig::fast_test()).profile_named(
        "gcc",
        &mut WorkloadSpec::by_name("gcc")
            .expect("suite member")
            .trace(20_000),
    );
    let uploads = |seed| {
        let u = Uploads::new(seed, std::slice::from_ref(&base));
        (0..4).map(|k| u.upload(k)).collect::<Vec<_>>()
    };
    let first = uploads(9);
    assert_eq!(first, uploads(9));
    let mut names: Vec<&str> = first.iter().map(|u| u.0.as_str()).collect();
    names.dedup();
    assert_eq!(names.len(), 4, "every upload has distinct content");
}
