//! DVFS exploration (thesis §7.3, Table 7.2, Fig 7.3).
//!
//! Changing the clock changes memory latency *in cycles* (DRAM
//! nanoseconds are fixed), so every operating point gets a rescaled
//! machine description before the model runs.

use pmt_core::{BatchPredictor, ModelConfig, PreparedProfile};
use pmt_power::PowerModel;
use pmt_profiler::ApplicationProfile;
use pmt_uarch::{MachineConfig, OperatingPoint};
use serde::{Deserialize, Serialize};

/// One evaluated operating point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DvfsOutcome {
    /// The operating point.
    pub point: OperatingPoint,
    /// Predicted CPI at this point.
    pub cpi: f64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Total power in watts.
    pub power: f64,
    /// Energy in joules.
    pub energy: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Energy-delay-squared product (the thesis' metric).
    pub ed2p: f64,
}

/// Rescale a machine description to an operating point: clock, voltage
/// and the memory-subsystem latencies expressed in core cycles.
pub fn machine_at(base: &MachineConfig, point: OperatingPoint) -> MachineConfig {
    let mut m = base.clone();
    set_clock(&mut m, point.frequency_ghz);
    m.core.vdd = point.vdd;
    m.name = format!("{}@{:.2}GHz", base.name, point.frequency_ghz);
    m
}

/// Move `machine`'s clock to `ghz` at its current voltage, rescaling the
/// memory latencies expressed in core cycles by the clock ratio (rounded,
/// at least one cycle) — the one rescale every frequency change shares.
pub(crate) fn set_clock(machine: &mut MachineConfig, ghz: f64) {
    let scale = ghz / machine.core.frequency_ghz;
    let rescale = |cycles: u32| ((cycles as f64) * scale).round().max(1.0) as u32;
    machine.core.frequency_ghz = ghz;
    machine.mem.dram_latency = rescale(machine.mem.dram_latency);
    machine.mem.bus_transfer_cycles = rescale(machine.mem.bus_transfer_cycles);
}

/// Evaluate a profile across operating points (prepared once; every
/// operating point reuses the same machine-independent fits). A sweep
/// too large to materialize is a [`crate::ProductSpace`] with a
/// frequency or operating-point axis, folded by a
/// [`crate::StreamingSweep`].
///
/// ```
/// use pmt_core::ModelConfig;
/// use pmt_dse::dvfs::{best_ed2p, explore};
/// use pmt_profiler::{Profiler, ProfilerConfig};
/// use pmt_uarch::{nehalem_dvfs_points, MachineConfig};
/// use pmt_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("gcc").unwrap();
/// let profile =
///     Profiler::new(ProfilerConfig::fast_test()).profile_named("gcc", &mut spec.trace(20_000));
/// let ladder = nehalem_dvfs_points();
/// let outcomes = explore(&MachineConfig::nehalem(), &ladder, &profile, &ModelConfig::default());
/// assert_eq!(outcomes.len(), ladder.len());
/// let best = best_ed2p(&outcomes).unwrap();
/// assert!(outcomes.iter().all(|o| best.ed2p <= o.ed2p));
/// ```
pub fn explore(
    base: &MachineConfig,
    points: &[OperatingPoint],
    profile: &ApplicationProfile,
    model_cfg: &ModelConfig,
) -> Vec<DvfsOutcome> {
    let prepared = PreparedProfile::new(profile);
    // One batched predictor for the whole ladder: operating points share
    // their cache geometry, so the SoA curve queries — and, when no
    // prefetcher rescales with the clock, the stride-MLP walks — memoize
    // across it. Bit-identical to the one-point path by the kernel
    // conformance suite.
    let mut batch = BatchPredictor::new(&prepared, model_cfg);
    let machines: Vec<MachineConfig> = points.iter().map(|&p| machine_at(base, p)).collect();
    let mut predictions = Vec::with_capacity(machines.len());
    batch.predict_batch_into(&machines, &mut predictions);
    points
        .iter()
        .zip(machines.iter().zip(&predictions))
        .map(|(&point, (machine, prediction))| {
            let seconds = prediction.seconds_at(point.frequency_ghz);
            let power = PowerModel::power_of(machine, &prediction.activity);
            DvfsOutcome {
                point,
                cpi: prediction.cpi(),
                seconds,
                power: power.total(),
                energy: power.energy(seconds),
                edp: power.edp(seconds),
                ed2p: power.ed2p(seconds),
            }
        })
        .collect()
}

/// The operating point minimizing ED²P.
pub fn best_ed2p(outcomes: &[DvfsOutcome]) -> Option<&DvfsOutcome> {
    outcomes
        .iter()
        .min_by(|a, b| a.ed2p.partial_cmp(&b.ed2p).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_uarch::nehalem_dvfs_points;
    use pmt_workloads::WorkloadSpec;

    fn profile(name: &str) -> ApplicationProfile {
        let spec = WorkloadSpec::by_name(name).unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(30_000))
    }

    #[test]
    fn memory_latency_scales_with_clock() {
        let base = MachineConfig::nehalem();
        let fast = machine_at(&base, OperatingPoint::new(5.32, 1.3));
        assert_eq!(fast.mem.dram_latency, 400);
        let slow = machine_at(&base, OperatingPoint::new(1.33, 0.9));
        assert_eq!(slow.mem.dram_latency, 100);
    }

    #[test]
    fn higher_frequency_is_faster_but_hotter() {
        let base = MachineConfig::nehalem();
        let p = profile("hmmer");
        let out = explore(&base, &nehalem_dvfs_points(), &p, &ModelConfig::default());
        assert_eq!(out.len(), 5);
        let slowest = &out[0];
        let fastest = out.last().unwrap();
        assert!(fastest.seconds < slowest.seconds);
        assert!(fastest.power > slowest.power);
    }

    #[test]
    fn memory_bound_workload_gains_less_from_frequency() {
        let base = MachineConfig::nehalem();
        let out_mem = explore(
            &base,
            &nehalem_dvfs_points(),
            &profile("milc"),
            &ModelConfig::default(),
        );
        let out_cpu = explore(
            &base,
            &nehalem_dvfs_points(),
            &profile("hmmer"),
            &ModelConfig::default(),
        );
        let speedup = |o: &[DvfsOutcome]| o[0].seconds / o.last().unwrap().seconds;
        assert!(
            speedup(&out_cpu) > speedup(&out_mem),
            "cpu-bound {} vs mem-bound {}",
            speedup(&out_cpu),
            speedup(&out_mem)
        );
    }

    #[test]
    fn best_ed2p_is_an_interior_or_boundary_point() {
        let base = MachineConfig::nehalem();
        let out = explore(
            &base,
            &nehalem_dvfs_points(),
            &profile("gcc"),
            &ModelConfig::default(),
        );
        let best = best_ed2p(&out).unwrap();
        assert!(out.iter().all(|o| best.ed2p <= o.ed2p));
    }
}
