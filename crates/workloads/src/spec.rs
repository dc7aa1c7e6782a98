//! Workload specification: the per-benchmark knobs of the generative model.

use crate::generator::WorkloadTrace;
use serde::{Deserialize, Serialize};

/// Instruction-level class mix. Weights need not sum to one; the remainder
/// after loads/stores/branches and the listed compute classes becomes
/// integer-ALU work. Extra μops of multi-μop instructions are emitted as
/// `Move` μops, so the μop-level mix differs slightly from these weights
/// (exactly as x86 cracking skews instruction mixes, thesis §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MixSpec {
    /// Fraction of instructions that are loads.
    pub load: f64,
    /// Fraction of instructions that are stores.
    pub store: f64,
    /// Fraction of instructions that are branches.
    pub branch: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of integer divides.
    pub int_div: f64,
    /// Fraction of FP add/sub.
    pub fp_alu: f64,
    /// Fraction of FP multiplies.
    pub fp_mul: f64,
    /// Fraction of FP divides.
    pub fp_div: f64,
}

impl MixSpec {
    /// A typical integer-code mix.
    pub fn int_default() -> MixSpec {
        MixSpec {
            load: 0.25,
            store: 0.10,
            branch: 0.15,
            int_mul: 0.01,
            int_div: 0.001,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
        }
    }

    /// A typical floating-point-code mix.
    pub fn fp_default() -> MixSpec {
        MixSpec {
            load: 0.30,
            store: 0.12,
            branch: 0.05,
            int_mul: 0.005,
            int_div: 0.0005,
            fp_alu: 0.18,
            fp_mul: 0.12,
            fp_div: 0.005,
        }
    }

    /// Sum of the explicit weights (must stay ≤ 1; the remainder is
    /// integer ALU).
    pub fn explicit_sum(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.int_mul
            + self.int_div
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
    }
}

/// Register dependence structure knobs (drives AP/ABP/CP, thesis §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DepSpec {
    /// Fraction of value-consuming μops that chain to the *most recent*
    /// producer; long serial chains raise the critical path.
    pub serial_frac: f64,
    /// Mean rank (k-th most recent producer) of the first operand for
    /// non-serial dependences; larger values mean more ILP.
    pub mean_rank: f64,
    /// Probability a μop has a second register operand.
    pub second_operand_prob: f64,
    /// Probability a load's address depends on a recent load (pointer
    /// chasing); drives the inter-load dependence distribution f(ℓ).
    pub load_dep_prob: f64,
    /// Mean producer rank for branch operands (drives the average branch
    /// path).
    pub branch_mean_rank: f64,
    /// Probability a branch's compare chains into general dataflow (and
    /// hence possibly into in-flight loads) instead of the short
    /// loop-counter chain. High values couple branch resolution to memory
    /// latency (mcf-style data-dependent control flow).
    pub branch_load_coupling: f64,
    /// Probability a (non-pointer-chasing) load's address depends on a
    /// recent register value at all; most real loads use a long-lived base
    /// register and dispatch with their address ready.
    pub addr_dep_prob: f64,
}

impl DepSpec {
    /// Moderate ILP defaults.
    pub fn default_ilp() -> DepSpec {
        DepSpec {
            serial_frac: 0.15,
            mean_rank: 8.0,
            second_operand_prob: 0.4,
            load_dep_prob: 0.1,
            branch_mean_rank: 4.0,
            branch_load_coupling: 0.12,
            addr_dep_prob: 0.45,
        }
    }
}

/// Branch-outcome process knobs (drives linear branch entropy, §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BranchSpec {
    /// Probability that a conditional branch outcome deviates from its
    /// deterministic per-branch pattern; 0 = perfectly predictable,
    /// 0.5 = random.
    pub noise: f64,
    /// Length of the deterministic per-branch patterns (in outcomes).
    pub pattern_len: u8,
}

impl BranchSpec {
    /// Well-predictable branches.
    pub fn predictable() -> BranchSpec {
        BranchSpec {
            noise: 0.01,
            pattern_len: 4,
        }
    }
}

/// Static code layout knobs (drives I-cache behaviour and load spacing).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodeSpec {
    /// Number of inner-loop blocks per phase.
    pub blocks: u32,
    /// Mean static instructions per block (actual lengths vary ±50%).
    pub block_len_mean: u32,
    /// Inner-loop trip count for each block before moving to the next.
    pub block_iterations: u32,
}

impl CodeSpec {
    /// A small, hot loop nest (I-cache resident).
    pub fn small_loops() -> CodeSpec {
        CodeSpec {
            blocks: 8,
            block_len_mean: 60,
            block_iterations: 50,
        }
    }
}

/// Memory behaviour knobs (drives Fig 4.2 MPKI, Fig 4.7 stride classes).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemSpec {
    /// Probability a static memory op's region is L1-resident.
    pub ws_l1: f64,
    /// Probability it is L2-resident.
    pub ws_l2: f64,
    /// Probability it is L3-resident (remainder: DRAM-sized region).
    pub ws_l3: f64,
    /// Probability a static load uses a random-in-region pattern.
    pub random_frac: f64,
    /// Probability a static load streams through fresh memory (cold
    /// misses, "unique" loads of Fig 4.7).
    pub streaming_frac: f64,
    /// Among strided loads, probability of a 2–4-stride mixture instead of
    /// a single stride.
    pub multi_stride_frac: f64,
    /// L1-resident region size in bytes.
    pub region_l1: u64,
    /// L2-resident region size in bytes.
    pub region_l2: u64,
    /// L3-resident region size in bytes.
    pub region_l3: u64,
    /// DRAM-resident region size in bytes.
    pub region_mem: u64,
    /// Probability that a strided load's stride exceeds a DRAM page
    /// (defeats the prefetcher, thesis §4.9).
    pub huge_stride_frac: f64,
}

impl MemSpec {
    /// Cache-friendly defaults.
    pub fn cache_friendly() -> MemSpec {
        MemSpec {
            ws_l1: 0.70,
            ws_l2: 0.20,
            ws_l3: 0.08,
            random_frac: 0.15,
            streaming_frac: 0.05,
            multi_stride_frac: 0.25,
            region_l1: 8 * 1024,
            region_l2: 96 * 1024,
            region_l3: 2 * 1024 * 1024,
            region_mem: 48 * 1024 * 1024,
            huge_stride_frac: 0.02,
        }
    }
}

/// Phase behaviour: the generator cycles through per-phase scalings of the
/// memory working sets and branch noise (thesis §6.5, Fig 4.9).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Instructions per phase before switching to the next.
    pub phase_len: u64,
    /// Per-phase multiplier on region sizes (cycled).
    pub mem_scale: Vec<f64>,
    /// Per-phase multiplier on branch noise (cycled).
    pub branch_noise_scale: Vec<f64>,
    /// Per-phase multiplier on the probability that a memory op lives in
    /// the L3-resident region (mass moves from the L1 share); empty = 1.0.
    /// Drives LLC-hit-heavy phases (Fig 4.9).
    pub ws_l3_mult: Vec<f64>,
    /// Per-phase multiplier on the pointer-chasing probability
    /// (`deps.load_dep_prob`), clamped to 0.9; empty = 1.0.
    pub load_dep_scale: Vec<f64>,
}

/// A complete workload description; see the crate docs for the modelling
/// rationale.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// SPEC CPU 2006 benchmark this stands in for.
    pub name: String,
    /// RNG seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Target μops per instruction (thesis Fig 3.1: 1.07–1.38).
    pub uops_per_instruction: f64,
    /// Instruction class mix.
    pub mix: MixSpec,
    /// Dependence structure.
    pub deps: DepSpec,
    /// Branch behaviour.
    pub branches: BranchSpec,
    /// Code layout.
    pub code: CodeSpec,
    /// Memory behaviour.
    pub mem: MemSpec,
    /// Optional phase behaviour.
    pub phases: Option<PhaseSpec>,
}

impl WorkloadSpec {
    /// A neutral baseline spec; the suite entries override fields.
    pub fn baseline(name: &str, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.to_string(),
            seed,
            uops_per_instruction: 1.20,
            mix: MixSpec::int_default(),
            deps: DepSpec::default_ilp(),
            branches: BranchSpec::predictable(),
            code: CodeSpec::small_loops(),
            mem: MemSpec::cache_friendly(),
            phases: None,
        }
    }

    /// Look up a suite workload by SPEC name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        crate::suite::suite().into_iter().find(|w| w.name == name)
    }

    /// Instantiate a deterministic trace of `instructions` instructions.
    pub fn trace(&self, instructions: u64) -> WorkloadTrace {
        WorkloadTrace::new(self.clone(), instructions)
    }

    /// Validate invariants: probabilities in range, mix sums ≤ 1,
    /// μops/instruction ≥ 1. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let check01 = |v: f64, what: &str| -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) {
                Err(format!("{}: {what} = {v} out of [0,1]", self.name))
            } else {
                Ok(())
            }
        };
        check01(self.mix.load, "mix.load")?;
        check01(self.mix.store, "mix.store")?;
        check01(self.mix.branch, "mix.branch")?;
        if self.mix.explicit_sum() > 1.0 {
            return Err(format!("{}: mix sums to > 1", self.name));
        }
        if self.uops_per_instruction < 1.0 {
            return Err(format!("{}: uops/inst < 1", self.name));
        }
        check01(self.deps.serial_frac, "deps.serial_frac")?;
        check01(self.deps.second_operand_prob, "deps.second_operand_prob")?;
        check01(self.deps.load_dep_prob, "deps.load_dep_prob")?;
        check01(self.deps.branch_load_coupling, "deps.branch_load_coupling")?;
        check01(self.deps.addr_dep_prob, "deps.addr_dep_prob")?;
        check01(self.branches.noise, "branches.noise")?;
        check01(self.mem.random_frac, "mem.random_frac")?;
        check01(self.mem.streaming_frac, "mem.streaming_frac")?;
        if self.mem.random_frac + self.mem.streaming_frac > 1.0 {
            return Err(format!("{}: load pattern fractions sum to > 1", self.name));
        }
        if self.mem.ws_l1 + self.mem.ws_l2 + self.mem.ws_l3 > 1.0 {
            return Err(format!("{}: working-set fractions sum to > 1", self.name));
        }
        if self.code.blocks == 0 || self.code.block_len_mean < 4 {
            return Err(format!("{}: degenerate code layout", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid() {
        assert_eq!(WorkloadSpec::baseline("x", 1).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_mix() {
        let mut w = WorkloadSpec::baseline("bad", 1);
        w.mix.load = 0.9;
        w.mix.store = 0.9;
        assert!(w.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_upi() {
        let mut w = WorkloadSpec::baseline("bad", 1);
        w.uops_per_instruction = 0.5;
        assert!(w.validate().is_err());
    }

    #[test]
    fn by_name_finds_suite_members() {
        assert!(WorkloadSpec::by_name("mcf").is_some());
        assert!(WorkloadSpec::by_name("not-a-benchmark").is_none());
    }
}
