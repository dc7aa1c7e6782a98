//! The parameterized power model.

use crate::breakdown::{PowerBreakdown, PowerComponent};
use pmt_trace::UopClass;
use pmt_uarch::{ActivityVector, MachineConfig, OperatingPoint};

/// Nominal supply voltage the energy tables are calibrated at (45 nm).
const V_NOM: f64 = 1.1;

/// Per-event dynamic energies in nanojoules at `V_NOM` (McPAT-calibre
/// magnitudes for a 45 nm out-of-order core).
mod energy {
    /// ROB/IQ/rename work per μop (dispatch + wakeup + commit share).
    pub const UOP_CORE: f64 = 0.55;
    /// Register file read.
    pub const REG_READ: f64 = 0.15;
    /// Register file write.
    pub const REG_WRITE: f64 = 0.20;
    /// Integer ALU / move op.
    pub const INT_OP: f64 = 0.25;
    /// Integer multiply.
    pub const INT_MUL: f64 = 0.9;
    /// Integer divide.
    pub const INT_DIV: f64 = 3.0;
    /// FP add/sub.
    pub const FP_OP: f64 = 1.0;
    /// FP multiply.
    pub const FP_MUL: f64 = 1.4;
    /// FP divide.
    pub const FP_DIV: f64 = 4.0;
    /// Load/store address generation + LSQ.
    pub const MEM_OP: f64 = 0.45;
    /// Branch unit op.
    pub const BRANCH_OP: f64 = 0.2;
    /// L1 (I or D) array access.
    pub const L1_ACCESS: f64 = 0.35;
    /// L2 array access.
    pub const L2_ACCESS: f64 = 1.3;
    /// L3 array access.
    pub const L3_ACCESS: f64 = 4.5;
    /// Memory-controller transaction (DRAM energy itself excluded, as in
    /// the thesis' core-power focus).
    pub const DRAM_ACCESS: f64 = 18.0;
    /// One cache-line bus transfer.
    pub const BUS_TRANSFER: f64 = 6.0;
    /// Branch predictor lookup + update.
    pub const BP_LOOKUP: f64 = 0.12;
    /// Misprediction recovery (flush + restart).
    pub const BP_RECOVERY: f64 = 2.5;
    /// Front-end work per instruction (fetch/decode).
    pub const FETCH_DECODE: f64 = 0.35;
}

/// Static leakage coefficients, watts at `V_NOM` (Eq 2.1, `I_l ∝ area`).
mod leak {
    /// Per ROB entry.
    pub const ROB_ENTRY: f64 = 0.008;
    /// Per IQ entry.
    pub const IQ_ENTRY: f64 = 0.012;
    /// Per unit of dispatch width squared (rename/bypass wiring).
    pub const WIDTH_SQ: f64 = 0.14;
    /// Register file block.
    pub const REGFILE: f64 = 0.9;
    /// Per integer functional unit.
    pub const INT_FU: f64 = 0.25;
    /// Per FP functional unit.
    pub const FP_FU: f64 = 0.55;
    /// Front-end block.
    pub const FRONTEND: f64 = 1.3;
    /// Per KB of branch predictor storage.
    pub const BP_KB: f64 = 0.05;
    /// Per MB of cache.
    pub const CACHE_MB: f64 = 0.30;
    /// Memory controller + PHY.
    pub const MEMORY_IF: f64 = 0.8;
}

/// The analytical power model for one machine configuration.
#[derive(Clone, Debug)]
pub struct PowerModel {
    machine: MachineConfig,
}

impl PowerModel {
    /// Build the model for a machine.
    pub fn new(machine: &MachineConfig) -> PowerModel {
        PowerModel {
            machine: machine.clone(),
        }
    }

    /// Static (leakage) power in watts at the machine's voltage.
    pub fn static_power(&self) -> f64 {
        PowerModel::static_power_of(&self.machine)
    }

    /// [`static_power`](PowerModel::static_power) without constructing a
    /// model — borrows the machine. The batched sweep path calls this per
    /// design point and must not clone a `MachineConfig` each time.
    pub fn static_power_of(m: &MachineConfig) -> f64 {
        let core = m.core.rob_size as f64 * leak::ROB_ENTRY
            + m.core.iq_size as f64 * leak::IQ_ENTRY
            + (m.core.dispatch_width as f64).powi(2) * leak::WIDTH_SQ;
        let mut fus = 0.0;
        for class in UopClass::ALL {
            let r = m.exec.resources(class);
            let per = match class {
                UopClass::FpAlu | UopClass::FpMul | UopClass::FpDiv => leak::FP_FU,
                _ => leak::INT_FU,
            };
            fus += r.units as f64 * per;
        }
        let bp_kb = m.predictor.storage_bytes() as f64 / 1024.0;
        let frontend = leak::FRONTEND + bp_kb * leak::BP_KB;
        let cache_mb = (m.caches.l1i.size_bytes()
            + m.caches.l1d.size_bytes()
            + m.caches.l2.size_bytes()
            + m.caches.l3.size_bytes()) as f64
            / (1024.0 * 1024.0);
        let base =
            core + fus + leak::REGFILE + frontend + cache_mb * leak::CACHE_MB + leak::MEMORY_IF;
        // Leakage current grows with the supply voltage: P_s ∝ V².
        base * (m.core.vdd / V_NOM).powi(2)
    }

    /// Full power breakdown for an activity vector (measured by the
    /// simulator or predicted by the interval model).
    ///
    /// Returns zero dynamic power when `activity.cycles == 0`.
    pub fn power(&self, activity: &ActivityVector) -> PowerBreakdown {
        PowerModel::power_of(&self.machine, activity)
    }

    /// [`power`](PowerModel::power) without constructing a model — borrows
    /// the machine (same no-clone contract as
    /// [`static_power_of`](PowerModel::static_power_of)).
    pub fn power_of(m: &MachineConfig, activity: &ActivityVector) -> PowerBreakdown {
        let mut b = PowerBreakdown::default();
        b.static_w = PowerModel::static_power_of(m);
        if activity.cycles <= 0.0 {
            return b;
        }
        let seconds = activity.cycles / (m.core.frequency_ghz * 1e9);
        let vscale = (m.core.vdd / V_NOM).powi(2);
        // nJ → W: count × nJ / seconds × 1e-9.
        let w = |count: f64, nj: f64| count * nj * vscale * 1e-9 / seconds;

        b.add_dynamic(
            PowerComponent::Core,
            w(
                activity.rob_accesses + activity.iq_accesses,
                energy::UOP_CORE / 2.0,
            ),
        );
        b.add_dynamic(
            PowerComponent::RegisterFile,
            w(activity.regfile_reads, energy::REG_READ)
                + w(activity.regfile_writes, energy::REG_WRITE),
        );
        let mut fu_w = 0.0;
        for class in UopClass::ALL {
            let count = activity.issue_per_class[class.index()];
            let nj = match class {
                UopClass::IntAlu | UopClass::Move => energy::INT_OP,
                UopClass::IntMul => energy::INT_MUL,
                UopClass::IntDiv => energy::INT_DIV,
                UopClass::FpAlu => energy::FP_OP,
                UopClass::FpMul => energy::FP_MUL,
                UopClass::FpDiv => energy::FP_DIV,
                UopClass::Load | UopClass::Store => energy::MEM_OP,
                UopClass::Branch => energy::BRANCH_OP,
            };
            fu_w += w(count, nj);
        }
        b.add_dynamic(PowerComponent::FunctionalUnits, fu_w);
        b.add_dynamic(
            PowerComponent::FrontEnd,
            w(activity.instructions, energy::FETCH_DECODE)
                + w(activity.branch_lookups, energy::BP_LOOKUP)
                + w(activity.branch_misses, energy::BP_RECOVERY),
        );
        b.add_dynamic(
            PowerComponent::L1Caches,
            w(
                activity.l1d_accesses + activity.l1i_accesses,
                energy::L1_ACCESS,
            ),
        );
        b.add_dynamic(
            PowerComponent::L2Cache,
            w(activity.l2_accesses, energy::L2_ACCESS),
        );
        b.add_dynamic(
            PowerComponent::L3Cache,
            w(activity.l3_accesses, energy::L3_ACCESS),
        );
        b.add_dynamic(
            PowerComponent::Memory,
            w(activity.dram_accesses, energy::DRAM_ACCESS)
                + w(activity.bus_transfers, energy::BUS_TRANSFER),
        );
        b
    }

    /// Power at a different DVFS operating point: cycles are unchanged
    /// (the core's relative timing shifts are modeled elsewhere); dynamic
    /// power scales with V² (the frequency change is captured through the
    /// shorter/longer execution time of the same cycle count), static with
    /// V².
    pub fn power_at(&self, activity: &ActivityVector, point: OperatingPoint) -> PowerBreakdown {
        let mut m = self.machine.clone();
        m.core.frequency_ghz = point.frequency_ghz;
        m.core.vdd = point.vdd;
        PowerModel::new(&m).power(activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_uarch::MachineConfig;

    fn busy_activity(cycles: f64) -> ActivityVector {
        let mut a = ActivityVector::default();
        a.cycles = cycles;
        a.instructions = cycles * 2.0; // IPC 2
        a.uops = a.instructions * 1.2;
        a.rob_accesses = 2.0 * a.uops;
        a.iq_accesses = 2.0 * a.uops;
        a.regfile_reads = 1.4 * a.uops;
        a.regfile_writes = 0.8 * a.uops;
        a.issue_per_class[UopClass::IntAlu.index()] = 0.5 * a.uops;
        a.issue_per_class[UopClass::Load.index()] = 0.3 * a.uops;
        a.issue_per_class[UopClass::Store.index()] = 0.1 * a.uops;
        a.issue_per_class[UopClass::Branch.index()] = 0.1 * a.uops;
        a.l1i_accesses = a.instructions;
        a.l1d_accesses = 0.4 * a.uops;
        a.l2_accesses = 0.02 * a.uops;
        a.l3_accesses = 0.004 * a.uops;
        a.dram_accesses = 0.001 * a.uops;
        a.bus_transfers = a.dram_accesses;
        a.branch_lookups = 0.1 * a.uops;
        a.branch_misses = 0.005 * a.uops;
        a
    }

    #[test]
    fn reference_budget_is_realistic() {
        let m = MachineConfig::nehalem();
        let b = PowerModel::new(&m).power(&busy_activity(1e9));
        let total = b.total();
        assert!(total > 10.0 && total < 60.0, "total {total} W");
        // ~40% static at 45 nm (thesis §2.4).
        let sf = b.static_fraction();
        assert!(sf > 0.2 && sf < 0.6, "static fraction {sf}");
    }

    #[test]
    fn idle_machine_burns_only_leakage() {
        let m = MachineConfig::nehalem();
        let b = PowerModel::new(&m).power(&ActivityVector::default());
        assert_eq!(b.dynamic_total(), 0.0);
        assert!(b.static_w > 0.0);
    }

    #[test]
    fn bigger_caches_leak_more() {
        let small = MachineConfig::low_power();
        let big = MachineConfig::nehalem();
        assert!(PowerModel::new(&big).static_power() > PowerModel::new(&small).static_power());
    }

    #[test]
    fn lower_voltage_saves_power() {
        let m = MachineConfig::nehalem();
        let model = PowerModel::new(&m);
        let a = busy_activity(1e9);
        let hi = model.power_at(&a, OperatingPoint::new(3.2, 1.2));
        let lo = model.power_at(&a, OperatingPoint::new(1.6, 0.9));
        assert!(lo.total() < hi.total());
        assert!(lo.static_w < hi.static_w);
    }

    #[test]
    fn memory_activity_shows_in_memory_component() {
        let m = MachineConfig::nehalem();
        let model = PowerModel::new(&m);
        let mut a = busy_activity(1e9);
        let base = model.power(&a).dynamic(crate::PowerComponent::Memory);
        a.dram_accesses *= 50.0;
        a.bus_transfers *= 50.0;
        let heavy = model.power(&a).dynamic(crate::PowerComponent::Memory);
        assert!(heavy > base * 10.0);
    }

    #[test]
    fn faster_clock_same_cycles_means_more_power() {
        // Same cycle count at a higher frequency = same work in less time
        // → higher dynamic power.
        let m = MachineConfig::nehalem();
        let model = PowerModel::new(&m);
        let a = busy_activity(1e9);
        let slow = model.power_at(&a, OperatingPoint::new(1.6, 1.1));
        let fast = model.power_at(&a, OperatingPoint::new(3.2, 1.1));
        assert!(fast.dynamic_total() > slow.dynamic_total() * 1.5);
    }
}
