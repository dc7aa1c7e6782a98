//! Integration: design-space exploration and Pareto pruning quality.

use pmt::dse::{ParetoFront, PruningQuality, SpaceEvaluation, SweepConfig};
use pmt::prelude::*;

#[test]
fn pruning_quality_on_a_small_space() {
    let spec = WorkloadSpec::by_name("bzip2").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("bzip2", &mut spec.trace(60_000));
    let points = DesignSpace::small().enumerate();
    let cfg = SweepConfig {
        sim_instructions: 60_000,
        ..Default::default()
    };
    let eval = SpaceEvaluation::run(&points, &profile, Some(&spec), &cfg);
    let q = PruningQuality::evaluate(&eval.sim_points(), &eval.model_points());
    // The thesis' qualitative claims: high specificity and HVR, moderate
    // sensitivity.
    assert!(q.specificity > 0.5, "specificity {q:?}");
    assert!(q.hvr > 0.6, "hvr {q:?}");
    assert!(q.accuracy > 0.5, "accuracy {q:?}");
}

#[test]
fn model_front_is_nonempty_and_nondominated() {
    let spec = WorkloadSpec::by_name("gromacs").unwrap();
    let profile = Profiler::new(ProfilerConfig::fast_test())
        .profile_named("gromacs", &mut spec.trace(40_000));
    let points = DesignSpace::small().enumerate();
    let eval = SpaceEvaluation::run(&points, &profile, None, &SweepConfig::default());
    let pts = eval.model_points();
    let front = ParetoFront::of(&pts);
    let idx = front.indices();
    assert!(!idx.is_empty());
    // No selected point dominates another selected point.
    for &i in &idx {
        for &j in &idx {
            if i == j {
                continue;
            }
            let dominated = pts[j].0 <= pts[i].0
                && pts[j].1 <= pts[i].1
                && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1);
            assert!(!dominated, "front member {i} dominated by {j}");
        }
    }
}
