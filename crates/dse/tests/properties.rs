//! Property-based tests for the Pareto machinery and the streaming
//! accumulators.

use pmt_core::Moments;
use pmt_dse::{ParetoAccumulator, ParetoFront, PruningQuality, TopK};
use proptest::prelude::*;

fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.1f64..100.0, 0.1f64..100.0), 2..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn front_members_are_mutually_nondominated(pts in arb_points()) {
        let front = ParetoFront::of(&pts);
        let idx = front.indices();
        prop_assert!(!idx.is_empty());
        for &i in &idx {
            for &j in &idx {
                if i == j { continue; }
                let dom = pts[j].0 <= pts[i].0 && pts[j].1 <= pts[i].1
                    && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1);
                prop_assert!(!dom);
            }
        }
    }

    #[test]
    fn every_dominated_point_has_a_dominator_on_the_front(pts in arb_points()) {
        let front = ParetoFront::of(&pts);
        for i in 0..pts.len() {
            if front.is_optimal(i) { continue; }
            let found = front.indices().iter().any(|&j| {
                pts[j].0 <= pts[i].0 && pts[j].1 <= pts[i].1
                    && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1)
            });
            prop_assert!(found, "dominated point {i} lacks a frontier dominator");
        }
    }

    #[test]
    fn metrics_are_probabilities(truth in arb_points(), noise in 0.5f64..2.0) {
        let predicted: Vec<(f64, f64)> = truth
            .iter()
            .enumerate()
            .map(|(i, &(d, p))| if i % 2 == 0 { (d * noise, p) } else { (d, p * noise) })
            .collect();
        let q = PruningQuality::evaluate(&truth, &predicted);
        for v in [q.sensitivity, q.specificity, q.accuracy, q.hvr] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "{q:?}");
        }
    }

    #[test]
    fn self_prediction_is_perfect(truth in arb_points()) {
        let q = PruningQuality::evaluate(&truth, &truth);
        prop_assert_eq!(q.sensitivity, 1.0);
        prop_assert_eq!(q.specificity, 1.0);
        prop_assert!((q.hvr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_scaling_preserves_pruning(truth in arb_points(), s in 0.1f64..10.0) {
        let scaled: Vec<(f64, f64)> = truth.iter().map(|&(d, p)| (d * s, p * s)).collect();
        let q = PruningQuality::evaluate(&truth, &scaled);
        prop_assert_eq!(q.sensitivity, 1.0);
        prop_assert_eq!(q.specificity, 1.0);
    }

    // ---------------------------------------------------------------
    // Streaming accumulators vs the materialized Vec-based results.
    // ---------------------------------------------------------------

    /// The online frontier equals the materialized classification no
    /// matter how the stream is cut in two or which order the halves
    /// merge back.
    #[test]
    fn streamed_pareto_equals_materialized(
        pts in arb_points(),
        cut in 0.0f64..1.0,
        swap in any::<bool>(),
    ) {
        let expect = ParetoFront::of(&pts).indices();

        // Single stream.
        let mut whole = ParetoAccumulator::new();
        for (i, &p) in pts.iter().enumerate() {
            whole.push(i, p, ());
        }
        prop_assert_eq!(whole.ids(), expect.clone());

        // Two halves, merged in either order.
        let at = ((pts.len() as f64) * cut) as usize;
        let mut a = ParetoAccumulator::new();
        let mut b = ParetoAccumulator::new();
        for (i, &p) in pts.iter().enumerate() {
            if i < at { a.push(i, p, ()); } else { b.push(i, p, ()); }
        }
        let merged = if swap {
            b.merge(a);
            b
        } else {
            a.merge(b);
            a
        };
        prop_assert_eq!(merged.ids(), expect.clone());
        // The deterministic output order is by id.
        let sorted_ids: Vec<usize> = merged.into_sorted().iter().map(|e| e.id).collect();
        prop_assert_eq!(sorted_ids, expect);
    }

    /// The bounded heap keeps exactly the K smallest under the strict
    /// (key, id) order — i.e. sorting the materialized list and
    /// truncating — regardless of how the stream is split.
    #[test]
    fn streamed_top_k_equals_materialized_sort(
        keys in prop::collection::vec(0.0f64..10.0, 1..60),
        k in 0usize..12,
        cut in 0.0f64..1.0,
    ) {
        let mut expect: Vec<(f64, usize)> =
            keys.iter().copied().enumerate().map(|(i, x)| (x, i)).collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        expect.truncate(k);

        let mut whole = TopK::new(k);
        for (i, &x) in keys.iter().enumerate() {
            whole.push(x, i, ());
        }
        let got: Vec<(f64, usize)> =
            whole.into_sorted().iter().map(|e| (e.key, e.id)).collect();
        prop_assert_eq!(&got, &expect);

        // A split fold merges to the same set.
        let at = ((keys.len() as f64) * cut) as usize;
        let mut a = TopK::new(k);
        let mut b = TopK::new(k);
        for (i, &x) in keys.iter().enumerate() {
            if i < at { a.push(x, i, ()); } else { b.push(x, i, ()); }
        }
        b.merge(a);
        let merged: Vec<(f64, usize)> =
            b.into_sorted().iter().map(|e| (e.key, e.id)).collect();
        prop_assert_eq!(merged, expect);
    }

    /// A single-chunk streaming fold of the moments is bitwise the naive
    /// sequential fold, and a chunked merge (same chunk shape) is
    /// bitwise identical whether the chunk summaries are folded inline
    /// or merged afterwards — the serial/parallel contract.
    #[test]
    fn streamed_moments_match_materialized_and_shard_exactly(
        xs in prop::collection::vec(-100.0f64..100.0, 1..80),
        chunk in 1usize..20,
    ) {
        // Single chunk == naive fold.
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        let naive_sum: f64 = xs.iter().fold(0.0, |acc, &x| acc + x);
        prop_assert_eq!(m.n, xs.len());
        prop_assert_eq!(m.sum.to_bits(), naive_sum.to_bits());
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.min.to_bits(), min.to_bits());
        prop_assert_eq!(m.max.to_bits(), max.to_bits());

        // Chunked: "serial" (merge as you go) == "parallel" (fold chunks
        // independently, merge in chunk order).
        let mut serial = Moments::new();
        for c in xs.chunks(chunk) {
            let mut part = Moments::new();
            for &x in c {
                part.push(x);
            }
            serial.merge(&part);
        }
        let parts: Vec<Moments> = xs
            .chunks(chunk)
            .map(|c| {
                let mut part = Moments::new();
                for &x in c {
                    part.push(x);
                }
                part
            })
            .collect();
        let mut parallel = Moments::new();
        for p in &parts {
            parallel.merge(p);
        }
        prop_assert_eq!(serial.sum.to_bits(), parallel.sum.to_bits());
        prop_assert_eq!(serial, parallel);
    }
}

// ---------------------------------------------------------------------
// The full streaming engine on random small spaces (few cases: each one
// pays real model predictions).
// ---------------------------------------------------------------------

mod streaming_engine {
    use super::*;
    use pmt_dse::{LazyDesignSpace, ParetoFront, SpaceEvaluation, StreamingSweep, SweepConfig};
    use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
    use pmt_uarch::{DesignPoint, DesignSpace};
    use pmt_workloads::WorkloadSpec;
    use std::sync::OnceLock;

    fn profile() -> &'static ApplicationProfile {
        static PROFILE: OnceLock<ApplicationProfile> = OnceLock::new();
        PROFILE.get_or_init(|| {
            let spec = WorkloadSpec::by_name("astar").unwrap();
            Profiler::new(ProfilerConfig::fast_test())
                .profile_named("astar", &mut spec.trace(20_000))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// On a random subspace with a random chunk size, the streaming
        /// engine reproduces the materialized sweep exactly (frontier
        /// membership and coordinates bit-for-bit), and its parallel
        /// fold equals its serial fold bit-for-bit.
        #[test]
        fn engine_matches_materialized_on_random_small_spaces(
            mask in 1u32..(1 << 5),
            chunk in 1usize..40,
            k in 1usize..8,
        ) {
            // A random axis-subset of the 32-point test grid.
            let full = DesignSpace::small();
            let pick = |values: &[u32], bit: u32| -> Vec<u32> {
                if mask & (1 << bit) != 0 { values.to_vec() } else { values[..1].to_vec() }
            };
            let space = DesignSpace {
                dispatch_widths: pick(&full.dispatch_widths, 0),
                rob_sizes: pick(&full.rob_sizes, 1),
                l1_kb: pick(&full.l1_kb, 2),
                l2_kb: pick(&full.l2_kb, 3),
                l3_kb: pick(&full.l3_kb, 4),
            };
            let points: Vec<DesignPoint> = space.enumerate();
            let eval =
                SpaceEvaluation::run_serial(&points, profile(), None, &SweepConfig::default());

            let ser = StreamingSweep::new(profile())
                .chunk(chunk)
                .top_k(k)
                .serial()
                .run(&space);
            let par = StreamingSweep::new(profile()).chunk(chunk).top_k(k).run(&space);

            // Streaming == materialized.
            prop_assert_eq!(ser.evaluated, points.len());
            let front = ParetoFront::of(&eval.model_points());
            prop_assert_eq!(ser.frontier_ids(), front.indices());
            for e in &ser.frontier {
                let o = &eval.outcomes[e.id];
                prop_assert_eq!(e.coords.0.to_bits(), o.model_seconds.to_bits());
                prop_assert_eq!(e.coords.1.to_bits(), o.model_power.to_bits());
            }

            // Parallel == serial, bit for bit.
            prop_assert_eq!(ser.frontier_ids(), par.frontier_ids());
            prop_assert_eq!(ser.cpi.sum.to_bits(), par.cpi.sum.to_bits());
            prop_assert_eq!(ser.power.sum.to_bits(), par.power.sum.to_bits());
            prop_assert_eq!(ser.seconds.sum.to_bits(), par.seconds.sum.to_bits());
            let ser_top: Vec<(u64, usize)> =
                ser.top.iter().map(|e| (e.key.to_bits(), e.id)).collect();
            let par_top: Vec<(u64, usize)> =
                par.top.iter().map(|e| (e.key.to_bits(), e.id)).collect();
            prop_assert_eq!(ser_top, par_top);

            // Sanity: the space the engine saw is the one we enumerated.
            prop_assert_eq!(LazyDesignSpace::len(&space), points.len());
        }
    }
}
