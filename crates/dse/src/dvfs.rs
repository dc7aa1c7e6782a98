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
/// operating point reuses the same machine-independent fits).
///
/// This materializes the outcome `Vec`; for large frequency sweeps or
/// online reduction, use [`explore_iter`] directly — `explore` is a thin
/// `collect` over it, so the two are bit-identical.
pub fn explore(
    base: &MachineConfig,
    points: &[OperatingPoint],
    profile: &ApplicationProfile,
    model_cfg: &ModelConfig,
) -> Vec<DvfsOutcome> {
    let prepared = PreparedProfile::new(profile);
    explore_iter(base, points.iter().copied(), &prepared, model_cfg).collect()
}

/// Lazily evaluate operating points against an already-prepared profile:
/// the streaming DVFS path. Nothing is materialized — chain it straight
/// into an online reduction like [`best_ed2p_of`], or sweep a dense
/// frequency grid ([`frequency_sweep`]) without holding the outcomes.
///
/// ```
/// use pmt_core::{ModelConfig, PreparedProfile};
/// use pmt_dse::dvfs::{best_ed2p_of, explore_iter, frequency_sweep};
/// use pmt_profiler::{Profiler, ProfilerConfig};
/// use pmt_uarch::MachineConfig;
/// use pmt_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::by_name("gcc").unwrap();
/// let profile =
///     Profiler::new(ProfilerConfig::fast_test()).profile_named("gcc", &mut spec.trace(20_000));
/// let prepared = PreparedProfile::new(&profile);
/// let base = MachineConfig::nehalem();
/// // A 100-point frequency sweep, reduced online: O(1) memory.
/// let grid = frequency_sweep(1.33, 3.99, 100, |f| 0.8 + 0.1 * f);
/// let best = best_ed2p_of(explore_iter(
///     &base,
///     grid,
///     &prepared,
///     &ModelConfig::default(),
/// ))
/// .unwrap();
/// assert!(best.point.frequency_ghz >= 1.33 && best.point.frequency_ghz <= 3.99);
/// ```
pub fn explore_iter<'a>(
    base: &'a MachineConfig,
    points: impl IntoIterator<Item = OperatingPoint> + 'a,
    prepared: &'a PreparedProfile<'a>,
    model_cfg: &'a ModelConfig,
) -> impl Iterator<Item = DvfsOutcome> + 'a {
    // One batched predictor is captured for the whole sweep (the map
    // closure is `FnMut`, so laziness is untouched): operating points
    // share their cache geometry, so the SoA curve queries — and, when no
    // prefetcher rescales with the clock, the stride-MLP walks — memoize
    // across the stream. Bit-identical to the one-point path by the
    // kernel conformance suite.
    let mut batch = BatchPredictor::new(prepared, model_cfg);
    points.into_iter().map(move |point| {
        let machine = machine_at(base, point);
        let prediction = batch.predict_summary(&machine);
        let seconds = prediction.seconds_at(point.frequency_ghz);
        let power = PowerModel::power_of(&machine, &prediction.activity);
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
}

/// A lazily generated linear frequency grid: `steps` operating points
/// from `f_lo` to `f_hi` GHz (inclusive), voltage given by `vdd_at`.
/// The DVFS analogue of a [`crate::ProductSpace`] axis — declare a dense
/// sweep in one line, never materialize it.
pub fn frequency_sweep(
    f_lo: f64,
    f_hi: f64,
    steps: usize,
    vdd_at: impl Fn(f64) -> f64,
) -> impl Iterator<Item = OperatingPoint> {
    assert!(steps >= 2, "a sweep needs at least its two endpoints");
    let df = (f_hi - f_lo) / (steps - 1) as f64;
    (0..steps).map(move |i| {
        let f = f_lo + df * i as f64;
        OperatingPoint::new(f, vdd_at(f))
    })
}

/// The operating point minimizing ED²P.
pub fn best_ed2p(outcomes: &[DvfsOutcome]) -> Option<&DvfsOutcome> {
    outcomes
        .iter()
        .min_by(|a, b| a.ed2p.partial_cmp(&b.ed2p).unwrap())
}

/// Online ED²P minimization over any outcome stream (ties keep the
/// earliest outcome, matching [`best_ed2p`]).
pub fn best_ed2p_of(outcomes: impl IntoIterator<Item = DvfsOutcome>) -> Option<DvfsOutcome> {
    outcomes
        .into_iter()
        .reduce(|best, o| if o.ed2p < best.ed2p { o } else { best })
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
    fn explore_iter_is_lazy_and_matches_explore() {
        let base = MachineConfig::nehalem();
        let p = profile("gcc");
        let cfg = ModelConfig::default();
        let eager = explore(&base, &nehalem_dvfs_points(), &p, &cfg);
        let prepared = PreparedProfile::new(&p);
        let lazy: Vec<DvfsOutcome> =
            explore_iter(&base, nehalem_dvfs_points(), &prepared, &cfg).collect();
        assert_eq!(lazy.len(), eager.len());
        for (a, b) in lazy.iter().zip(&eager) {
            assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
            assert_eq!(a.ed2p.to_bits(), b.ed2p.to_bits());
        }
        // Online reduction equals the materialized argmin.
        let best = best_ed2p_of(explore_iter(&base, nehalem_dvfs_points(), &prepared, &cfg));
        assert_eq!(
            best.unwrap().ed2p.to_bits(),
            best_ed2p(&eager).unwrap().ed2p.to_bits()
        );
    }

    #[test]
    fn frequency_sweep_spans_the_grid() {
        let pts: Vec<OperatingPoint> = frequency_sweep(1.0, 2.0, 5, |f| f / 2.0).collect();
        assert_eq!(pts.len(), 5);
        assert!((pts[0].frequency_ghz - 1.0).abs() < 1e-12);
        assert!((pts[4].frequency_ghz - 2.0).abs() < 1e-12);
        assert!((pts[2].vdd - 0.75).abs() < 1e-12);
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
