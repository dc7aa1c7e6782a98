//! Branch misprediction penalty (thesis §3.5): the number of mispredicts
//! comes from linear branch entropy; the resolution time from the
//! leaky-bucket algorithm (Alg 3.2).

use pmt_profiler::DependenceProfile;
use serde::{Deserialize, Serialize};

/// Resolution + refill penalty for one misprediction interval.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BranchPenalty {
    /// Branch resolution time `c_res` in cycles.
    pub resolution: f64,
    /// Front-end refill time `c_fe` in cycles.
    pub refill: f64,
}

impl BranchPenalty {
    /// Total penalty per misprediction.
    pub fn total(&self) -> f64 {
        self.resolution + self.refill
    }
}

/// The leaky-bucket algorithm of thesis Alg 3.2.
///
/// Fills the ROB at the dispatch width while draining it at the average
/// number of independent instructions `I(ROB) = ROB/(lat·CP(ROB))` per
/// cycle, until the `interval_uops` of one misprediction interval have
/// been dispatched; the resolution time is then the average instruction
/// latency times the average branch path of the *occupied* ROB fraction.
///
/// A pass's fill and drain read only the occupancy it starts from, never
/// the remaining μop count. So once a pass ends at exactly the occupancy
/// it started from, every later pass would too, and the loop stops there:
/// the result reads only the final occupancy, so stopping early cannot
/// change a bit. Without the exit, long intervals run up to `max_iters`
/// passes (each a `CP` lookup) after the bucket has settled.
pub fn branch_resolution_time(
    deps: &DependenceProfile,
    rob_size: u32,
    dispatch_width: u32,
    interval_uops: f64,
    avg_latency: f64,
) -> f64 {
    let (occupancy, _passes) =
        leaky_bucket(deps, rob_size, dispatch_width, interval_uops, avg_latency);
    // The branch resolves against the ABP of the instructions still in
    // flight (Alg 3.2 last line).
    let occ_rounded = (occupancy.round() as u32).max(1);
    avg_latency * deps.abp(occ_rounded).max(1.0)
}

/// Alg 3.2's fill/drain passes: the final ROB occupancy and the number of
/// passes run.
fn leaky_bucket(
    deps: &DependenceProfile,
    rob_size: u32,
    dispatch_width: u32,
    interval_uops: f64,
    avg_latency: f64,
) -> (f64, u32) {
    let rob = rob_size as f64;
    let d = dispatch_width as f64;
    let mut remaining = interval_uops.max(1.0);
    let mut occupancy: f64 = 0.0;

    // Guard against degenerate profiles.
    let cp_full = deps.cp(rob_size).max(1.0);
    let drain_full = (rob / (avg_latency.max(0.1) * cp_full)).max(0.1);

    let max_iters = 100_000;
    let mut iters = 0;
    while remaining > d && iters < max_iters {
        let start = occupancy;
        // Fill.
        if occupancy + d <= rob {
            remaining -= d;
            occupancy += d;
        } else {
            remaining -= rob - occupancy;
            occupancy = rob;
        }
        // Drain at I(ROB_i).
        let occ_rounded = (occupancy.round() as u32).max(1);
        let cp_i = deps.cp(occ_rounded).max(1.0);
        let drain = (occupancy / (avg_latency.max(0.1) * cp_i))
            .min(d)
            .max(drain_full.min(d).min(occupancy));
        occupancy = (occupancy - drain).max(0.0);
        iters += 1;
        // Fixed point: every later pass would end here too.
        if occupancy == start {
            break;
        }
    }
    (occupancy, iters)
}

/// Assemble the full penalty.
pub fn branch_penalty(
    deps: &DependenceProfile,
    rob_size: u32,
    dispatch_width: u32,
    frontend_depth: u32,
    interval_uops: f64,
    avg_latency: f64,
) -> BranchPenalty {
    BranchPenalty {
        resolution: branch_resolution_time(
            deps,
            rob_size,
            dispatch_width,
            interval_uops,
            avg_latency,
        ),
        refill: frontend_depth as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::DependenceProfile;
    use pmt_trace::{MicroOp, UopClass};

    fn profile_with_chains(serial: bool) -> DependenceProfile {
        let uops: Vec<MicroOp> = (0..2048)
            .map(|i| {
                let mut u = if i % 7 == 0 {
                    MicroOp::branch(i * 4, 0, true)
                } else {
                    MicroOp::compute(UopClass::IntAlu, i * 4, 0)
                };
                if serial && i > 0 {
                    u.dep1 = 1;
                }
                u
            })
            .collect();
        DependenceProfile::profile(&uops, &[16, 32, 64, 128, 256])
    }

    #[test]
    fn serial_code_has_longer_resolution() {
        let serial = profile_with_chains(true);
        let parallel = profile_with_chains(false);
        let r_serial = branch_resolution_time(&serial, 128, 4, 1000.0, 1.0);
        let r_parallel = branch_resolution_time(&parallel, 128, 4, 1000.0, 1.0);
        assert!(
            r_serial > r_parallel,
            "serial {r_serial} vs parallel {r_parallel}"
        );
    }

    #[test]
    fn resolution_scales_with_latency() {
        let p = profile_with_chains(true);
        let r1 = branch_resolution_time(&p, 128, 4, 1000.0, 1.0);
        let r2 = branch_resolution_time(&p, 128, 4, 1000.0, 2.0);
        assert!(r2 > r1);
    }

    #[test]
    fn penalty_includes_refill() {
        let p = profile_with_chains(false);
        let pen = branch_penalty(&p, 128, 4, 5, 1000.0, 1.0);
        assert!((pen.refill - 5.0).abs() < 1e-12);
        assert!(pen.total() > 5.0);
    }

    #[test]
    fn short_intervals_leave_emptier_robs() {
        // Frequent mispredictions never fill the ROB, so the branch path
        // is evaluated at a smaller occupancy.
        let p = profile_with_chains(true);
        let frequent = branch_resolution_time(&p, 256, 4, 40.0, 1.0);
        let rare = branch_resolution_time(&p, 256, 4, 100_000.0, 1.0);
        assert!(frequent <= rare, "frequent {frequent} vs rare {rare}");
    }

    /// The loop without the fixed-point exit: the test oracle. Returns the
    /// resolution time, the passes run and the first pass that ended at
    /// the occupancy it started from.
    fn unbroken_resolution_time(
        deps: &DependenceProfile,
        rob_size: u32,
        dispatch_width: u32,
        interval_uops: f64,
        avg_latency: f64,
    ) -> (f64, u32, Option<u32>) {
        let rob = rob_size as f64;
        let d = dispatch_width as f64;
        let mut remaining = interval_uops.max(1.0);
        let mut occupancy: f64 = 0.0;
        let cp_full = deps.cp(rob_size).max(1.0);
        let drain_full = (rob / (avg_latency.max(0.1) * cp_full)).max(0.1);
        let max_iters = 100_000;
        let mut iters = 0;
        let mut settled_at = None;
        while remaining > d && iters < max_iters {
            let start = occupancy;
            if occupancy + d <= rob {
                remaining -= d;
                occupancy += d;
            } else {
                remaining -= rob - occupancy;
                occupancy = rob;
            }
            let occ_rounded = (occupancy.round() as u32).max(1);
            let cp_i = deps.cp(occ_rounded).max(1.0);
            let drain = (occupancy / (avg_latency.max(0.1) * cp_i))
                .min(d)
                .max(drain_full.min(d).min(occupancy));
            occupancy = (occupancy - drain).max(0.0);
            iters += 1;
            if occupancy == start && settled_at.is_none() {
                settled_at = Some(iters);
            }
        }
        let occ_rounded = (occupancy.round() as u32).max(1);
        (
            avg_latency * deps.abp(occ_rounded).max(1.0),
            iters,
            settled_at,
        )
    }

    /// The fixed-point exit changes no bit, and fires on the first settled
    /// pass: real micro-trace dependence profiles across ROB sizes,
    /// widths, latencies and intervals from 1 to 10^6 μops, covering calls
    /// that hit `max_iters` and calls that end while the bucket is still
    /// filling.
    #[test]
    fn fixed_point_exit_matches_the_unbroken_loop_bit_for_bit() {
        use pmt_profiler::{Profiler, ProfilerConfig};
        use pmt_workloads::WorkloadSpec;

        let mut profiles = Vec::new();
        for name in ["lbm", "cactusADM", "astar", "mcf"] {
            let spec = WorkloadSpec::by_name(name).unwrap();
            let p = Profiler::new(ProfilerConfig::fast_test())
                .profile_named(name, &mut spec.trace(10_000));
            profiles.push(p.micro_traces[0].deps.clone());
        }
        // Half decades up to 10^4, then whole decades: above 10^5 μops
        // every call is capped, and the unbroken oracle is slow there.
        let intervals: Vec<f64> = (0..=8)
            .map(|k| 10f64.powf(k as f64 / 2.0))
            .chain([1e5, 1e6])
            .collect();
        let (mut capped, mut ramping, mut settled) = (0, 0, 0);
        for deps in &profiles {
            for rob in [16, 64, 256] {
                for width in [2, 4, 8] {
                    for lat in [0.05, 1.0, 2.7] {
                        for &interval in &intervals {
                            let ctx =
                                format!("rob {rob} width {width} interval {interval} lat {lat}");
                            let (want, iters, settled_at) =
                                unbroken_resolution_time(deps, rob, width, interval, lat);
                            let got = branch_resolution_time(deps, rob, width, interval, lat);
                            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                            let (_, passes) = leaky_bucket(deps, rob, width, interval, lat);
                            assert_eq!(passes, settled_at.unwrap_or(iters), "{ctx}");
                            capped += (iters == 100_000) as u32;
                            ramping += (iters > 0 && settled_at.is_none()) as u32;
                            settled += settled_at.is_some() as u32;
                        }
                    }
                }
            }
        }
        assert!(capped > 0 && ramping > 0 && settled > 0);
    }

    #[test]
    fn terminates_on_degenerate_input() {
        let p = profile_with_chains(false);
        let r = branch_resolution_time(&p, 16, 1, 1e9, 0.0);
        assert!(r.is_finite());
    }
}
