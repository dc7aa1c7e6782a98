//! The deterministic trace generator.
//!
//! A workload is materialized as a loop-structured static program: per
//! phase, a list of blocks; each block is a body of static instructions
//! ending in a loop-back branch, iterated a fixed trip count before control
//! moves to the next block (and wraps). Static loads/stores own address
//! pattern state machines walking *shared* per-working-set regions, so the
//! union of hot data fits the intended cache level. All randomness comes
//! from a single seeded RNG whose draw sequence is identical whether
//! instructions are emitted or skipped, making sampled and full profiling
//! observe the same program.

use crate::patterns::{AddrPattern, BranchProcess};
use crate::spec::WorkloadSpec;
use pmt_trace::{MicroOp, TraceSource, UopClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ring buffer of recent μop stream positions. The capacity is a power of
/// two, so indices wrap with a mask instead of a division.
#[derive(Clone, Debug)]
struct PosRing {
    buf: Vec<u64>,
    head: usize,
    len: usize,
}

impl PosRing {
    fn new(capacity: usize) -> PosRing {
        assert!(capacity.is_power_of_two(), "ring capacity {capacity}");
        PosRing {
            buf: vec![0; capacity],
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, pos: u64) {
        self.buf[self.head] = pos;
        self.head = (self.head + 1) & (self.buf.len() - 1);
        if self.len < self.buf.len() {
            self.len += 1;
        }
    }

    /// `k`-th most recent entry (k = 1 is the newest).
    #[inline]
    fn kth_most_recent(&self, k: usize) -> Option<u64> {
        if k == 0 || k > self.len {
            return None;
        }
        let idx = (self.head + self.buf.len() - k) & (self.buf.len() - 1);
        Some(self.buf[idx])
    }
}

/// Samples a `1 + Geometric` rank with a fixed mean (≥ 1).
///
/// The log of the per-draw continue probability is computed once, by the
/// same expression a per-draw computation would use, and a mean ≤ 1 still
/// draws nothing from the RNG: every sample, and the RNG's draw sequence,
/// is bit-identical to computing the log on each draw.
#[derive(Clone, Copy, Debug)]
struct RankSampler {
    ln_q: Option<f64>,
}

impl RankSampler {
    fn new(mean: f64) -> RankSampler {
        let ln_q = if mean <= 1.0 {
            None
        } else {
            Some((1.0 - 1.0 / mean).ln())
        };
        RankSampler { ln_q }
    }

    #[inline]
    fn sample(self, rng: &mut StdRng) -> usize {
        match self.ln_q {
            None => 1,
            Some(ln_q) => {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                1 + (u.ln() / ln_q) as usize
            }
        }
    }
}

/// What a static branch does.
#[derive(Clone, Debug)]
enum BranchKind {
    /// Block loop-back branch: taken while iterations remain.
    LoopBack,
    /// Data-dependent conditional.
    Conditional(BranchProcess),
}

/// One static instruction.
#[derive(Clone, Debug)]
struct StaticInst {
    class: UopClass,
    /// Extra `Move` μops beyond the primary μop.
    extra_uops: u8,
    pattern: Option<AddrPattern>,
    branch: Option<BranchKind>,
    pc: u64,
}

#[derive(Clone, Debug)]
struct Block {
    insts: Vec<StaticInst>,
    iterations: u32,
}

/// Per-phase scaling derived from [`crate::spec::PhaseSpec`].
#[derive(Clone, Debug)]
struct PhaseProgram {
    blocks: Vec<Block>,
    noise_scale: f64,
    load_dep_prob: f64,
}

/// A deterministic dynamic instruction stream for one workload.
///
/// Implements [`TraceSource`]; see the crate docs for an example.
#[derive(Clone, Debug)]
pub struct WorkloadTrace {
    spec: WorkloadSpec,
    rng: StdRng,
    phases: Vec<PhaseProgram>,
    phase_len: u64,
    // Cursor.
    phase_idx: usize,
    insts_into_phase: u64,
    block_idx: usize,
    iters_left: u32,
    slot_idx: usize,
    produced: u64,
    limit: u64,
    uop_pos: u64,
    producers: PosRing,
    short_producers: PosRing,
    recent_loads: PosRing,
    /// Operand ranks (`deps.mean_rank`).
    rank: RankSampler,
    /// Compare-μop operand ranks (`deps.branch_mean_rank`).
    branch_rank: RankSampler,
    /// Pointer-chasing load ranks (mean 2).
    load_rank: RankSampler,
}

/// Bump allocator for non-overlapping data regions.
struct RegionAlloc {
    next: u64,
}

impl RegionAlloc {
    fn new() -> RegionAlloc {
        RegionAlloc { next: 1 << 20 }
    }

    fn alloc(&mut self, size: u64) -> u64 {
        let base = (self.next + 63) & !63;
        self.next = base + size.max(64);
        base
    }
}

impl WorkloadTrace {
    /// Build the static program and position the cursor at the start.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn new(spec: WorkloadSpec, limit: u64) -> WorkloadTrace {
        if let Err(e) = spec.validate() {
            panic!("invalid workload spec: {e}");
        }
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut alloc = RegionAlloc::new();

        let (phase_count, phase_len, mem_scales, noise_scales, l3_mults, dep_scales) =
            match &spec.phases {
                Some(p) => {
                    let n = p
                        .mem_scale
                        .len()
                        .max(p.branch_noise_scale.len())
                        .max(p.ws_l3_mult.len())
                        .max(p.load_dep_scale.len())
                        .max(1);
                    (
                        n,
                        p.phase_len,
                        p.mem_scale.clone(),
                        p.branch_noise_scale.clone(),
                        p.ws_l3_mult.clone(),
                        p.load_dep_scale.clone(),
                    )
                }
                None => (1, u64::MAX, vec![1.0], vec![1.0], vec![1.0], vec![1.0]),
            };

        let pick = |v: &Vec<f64>, p: usize| -> f64 {
            if v.is_empty() {
                1.0
            } else {
                v[p % v.len()]
            }
        };
        let mut phases = Vec::with_capacity(phase_count);
        for p in 0..phase_count {
            let mem_scale = pick(&mem_scales, p);
            let noise_scale = pick(&noise_scales, p);
            let l3_mult = pick(&l3_mults, p);
            let blocks = build_phase_blocks(&spec, p, mem_scale, l3_mult, &mut rng, &mut alloc);
            phases.push(PhaseProgram {
                blocks,
                noise_scale,
                load_dep_prob: (spec.deps.load_dep_prob * pick(&dep_scales, p)).min(0.9),
            });
        }

        let iters0 = phases[0].blocks[0].iterations;
        let rank = RankSampler::new(spec.deps.mean_rank);
        let branch_rank = RankSampler::new(spec.deps.branch_mean_rank);
        WorkloadTrace {
            spec,
            rng,
            phases,
            phase_len,
            phase_idx: 0,
            insts_into_phase: 0,
            block_idx: 0,
            iters_left: iters0,
            slot_idx: 0,
            produced: 0,
            limit,
            uop_pos: 0,
            producers: PosRing::new(1024),
            short_producers: PosRing::new(256),
            recent_loads: PosRing::new(64),
            rank,
            branch_rank,
            load_rank: RankSampler::new(2.0),
        }
    }

    /// The workload this trace was generated from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Total instruction budget.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Generate one instruction; if `out` is given, μops are appended.
    /// Returns false at end of trace.
    fn gen_instruction(&mut self, mut out: Option<&mut Vec<MicroOp>>) -> bool {
        if self.produced >= self.limit {
            return false;
        }
        // Phase switch.
        if self.insts_into_phase >= self.phase_len {
            self.insts_into_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.phases.len();
            self.block_idx = 0;
            self.slot_idx = 0;
            self.iters_left = self.phases[self.phase_idx].blocks[0].iterations;
        }
        let mut deps = self.spec.deps;
        deps.load_dep_prob = self.phases[self.phase_idx].load_dep_prob;
        // Split borrows: the static program and the RNG are disjoint fields.
        let rng = &mut self.rng;
        let producers = &self.producers;
        let short_producers = &self.short_producers;
        let recent_loads = &self.recent_loads;
        let uop_pos = self.uop_pos;
        let (rank, branch_rank, load_rank) = (self.rank, self.branch_rank, self.load_rank);
        let producer_dist = |k: usize| -> u32 {
            match producers.kth_most_recent(k) {
                Some(pos) => (uop_pos - pos).min(u32::MAX as u64) as u32,
                None => 0,
            }
        };
        let load_dist = |k: usize| -> u32 {
            match recent_loads.kth_most_recent(k) {
                Some(pos) => (uop_pos - pos).min(u32::MAX as u64) as u32,
                None => 0,
            }
        };
        // The "loop-counter closure": compare μops form their own shallow
        // dependence community, so branch resolution stays short unless a
        // workload explicitly couples control flow to loaded data.
        let short_dist = |k: usize| -> u32 {
            match short_producers.kth_most_recent(k) {
                Some(pos) => (uop_pos - pos).min(u32::MAX as u64) as u32,
                None => 0,
            }
        };
        let phase = &mut self.phases[self.phase_idx];
        let noise_scale = phase.noise_scale;
        let block = &mut phase.blocks[self.block_idx];
        let last_slot = self.slot_idx + 1 == block.insts.len();
        let sinst = &mut block.insts[self.slot_idx];
        let n_uops = 1 + sinst.extra_uops as usize;

        // --- Primary μop ---------------------------------------------------
        let class = sinst.class;
        let mut addr = 0u64;
        let mut taken = false;
        match class {
            UopClass::Load | UopClass::Store => {
                addr = sinst
                    .pattern
                    .as_mut()
                    .expect("memory op without pattern")
                    .next_addr(rng);
            }
            UopClass::Branch => {
                taken = match sinst.branch.as_mut().expect("branch without process") {
                    BranchKind::LoopBack => self.iters_left > 1,
                    BranchKind::Conditional(proc) => {
                        let raw = proc.next_outcome(rng);
                        // Phase-scaled extra noise on top of the process.
                        if noise_scale > 1.0
                            && rng.gen::<f64>() < (noise_scale - 1.0).min(1.0) * 0.25
                        {
                            !raw
                        } else {
                            raw
                        }
                    }
                };
            }
            _ => {}
        }

        // Dependences for the primary μop.
        let (dep1, dep2) = match class {
            UopClass::Load => {
                let d1 = if rng.gen::<f64>() < deps.load_dep_prob {
                    // Pointer chasing: the address comes from a loaded value.
                    let k = load_rank.sample(rng);
                    let d = load_dist(k);
                    if d != 0 {
                        d
                    } else {
                        producer_dist(rank.sample(rng))
                    }
                } else if rng.gen::<f64>() < deps.addr_dep_prob {
                    // Index arithmetic feeding the address.
                    let k = rank.sample(rng);
                    producer_dist(k)
                } else {
                    // Long-lived base register: address ready at dispatch.
                    0
                };
                (d1, 0)
            }
            UopClass::Store => {
                let kd = rank.sample(rng);
                let ka = rank.sample(rng);
                (producer_dist(kd), producer_dist(ka))
            }
            UopClass::Branch => {
                // The jump consumes the flags of the compare μop emitted
                // just before it (below); distance 1.
                (1, 0)
            }
            _ => {
                let d1 = if rng.gen::<f64>() < deps.serial_frac {
                    producer_dist(1)
                } else {
                    let k = rank.sample(rng);
                    producer_dist(k)
                };
                let d2 = if rng.gen::<f64>() < deps.second_operand_prob {
                    let k = rank.sample(rng);
                    producer_dist(k)
                } else {
                    0
                };
                (d1, d2)
            }
        };

        let pc = sinst.pc;
        // Branch instructions first emit their compare μop: a short, fresh
        // flag computation (rank-sampled operands, never a serial chain),
        // which is what keeps real branch resolution times small.
        if class == UopClass::Branch {
            let k = branch_rank.sample(rng);
            let cmp_dep = if rng.gen::<f64>() < deps.branch_load_coupling {
                // Data-dependent control flow: chain into general dataflow.
                producer_dist(rank.sample(rng))
            } else {
                let sd = short_dist(k);
                if sd != 0 {
                    sd
                } else {
                    0 // no compare seen yet: flags from an immediate test
                }
            };
            if let Some(buf) = out.as_deref_mut() {
                let mut u = MicroOp::compute(UopClass::IntAlu, pc, 0);
                u.dep1 = cmp_dep;
                buf.push(u);
            }
            self.producers.push(self.uop_pos);
            self.short_producers.push(self.uop_pos);
            self.uop_pos += 1;
        }
        if let Some(buf) = out.as_deref_mut() {
            let mut u = match class {
                UopClass::Load => MicroOp::load(pc, 0, addr),
                UopClass::Store => MicroOp::store(pc, 0, addr),
                UopClass::Branch => {
                    let mut b = MicroOp::branch(pc, 1, taken);
                    b.begins_instruction = false;
                    b
                }
                c => MicroOp::compute(c, pc, 0),
            };
            u.begins_instruction = class != UopClass::Branch;
            u.dep1 = dep1;
            u.dep2 = dep2;
            buf.push(u);
        }
        if class.produces_value() {
            self.producers.push(self.uop_pos);
        }
        if class == UopClass::Load {
            self.recent_loads.push(self.uop_pos);
        }
        self.uop_pos += 1;

        // --- Extra (cracked) μops: a Move chain off the primary ------------
        for j in 1..n_uops {
            // Chain to the previous μop of this instruction, unless that μop
            // produces no register value (stores, branches).
            let dep = if j > 1 || class.produces_value() {
                1
            } else {
                0
            };
            if let Some(buf) = out.as_deref_mut() {
                let mut u = MicroOp::compute(UopClass::Move, pc, j as u8);
                u.begins_instruction = false;
                u.dep1 = dep;
                buf.push(u);
            }
            self.producers.push(self.uop_pos);
            self.uop_pos += 1;
        }

        // --- Advance the cursor --------------------------------------------
        self.produced += 1;
        self.insts_into_phase += 1;
        if last_slot {
            self.slot_idx = 0;
            if self.iters_left > 1 {
                self.iters_left -= 1;
            } else {
                let nblocks = self.phases[self.phase_idx].blocks.len();
                self.block_idx = (self.block_idx + 1) % nblocks;
                self.iters_left = self.phases[self.phase_idx].blocks[self.block_idx].iterations;
            }
        } else {
            self.slot_idx += 1;
        }
        true
    }
}

/// Build the blocks of one phase.
fn build_phase_blocks(
    spec: &WorkloadSpec,
    phase: usize,
    mem_scale: f64,
    ws_l3_mult: f64,
    rng: &mut StdRng,
    alloc: &mut RegionAlloc,
) -> Vec<Block> {
    let mem = &spec.mem;
    let scale = |v: u64| -> u64 { ((v as f64 * mem_scale) as u64).max(256) };
    // Shared per-working-set regions so the union of hot data has the
    // intended size.
    let region_l1 = (alloc.alloc(scale(mem.region_l1)), scale(mem.region_l1));
    let region_l2 = (alloc.alloc(scale(mem.region_l2)), scale(mem.region_l2));
    let region_l3 = (alloc.alloc(scale(mem.region_l3)), scale(mem.region_l3));
    let region_mem = (alloc.alloc(scale(mem.region_mem)), scale(mem.region_mem));

    let mut blocks = Vec::new();
    for b in 0..spec.code.blocks {
        let len_lo = (spec.code.block_len_mean / 2).max(4);
        let len_hi = (spec.code.block_len_mean * 3 / 2).max(len_lo + 1);
        let len = rng.gen_range(len_lo..=len_hi) as usize;
        let iterations = rng.gen_range(
            (spec.code.block_iterations / 2).max(2)..=spec.code.block_iterations * 3 / 2,
        );
        // Spread blocks over the I-cache index space (a shared 24-bit-
        // aligned base would alias every block into the same few sets).
        let pc_base = ((phase as u64) << 40) + b as u64 * (16 * 1024 + 320);

        let mut insts = Vec::with_capacity(len);
        // Reserve the final slot for the loop-back branch.
        let body_branch_w = (spec.mix.branch - 1.0 / len as f64).max(0.0);
        for slot in 0..len - 1 {
            let class = draw_class(spec, body_branch_w, rng);
            let pattern = if class.is_memory() {
                Some(make_pattern(
                    spec, ws_l3_mult, rng, alloc, region_l1, region_l2, region_l3, region_mem,
                ))
            } else {
                None
            };
            let branch = if class.is_branch() {
                Some(BranchKind::Conditional(BranchProcess::new(
                    rng,
                    spec.branches.pattern_len.max(1),
                    spec.branches.noise,
                )))
            } else {
                None
            };
            insts.push(StaticInst {
                class,
                extra_uops: draw_extra_uops(spec, rng),
                pattern,
                branch,
                pc: pc_base + slot as u64 * 4,
            });
        }
        insts.push(StaticInst {
            class: UopClass::Branch,
            extra_uops: 0,
            pattern: None,
            branch: Some(BranchKind::LoopBack),
            pc: pc_base + (len as u64 - 1) * 4,
        });
        blocks.push(Block { insts, iterations });
    }
    blocks
}

fn draw_extra_uops(spec: &WorkloadSpec, rng: &mut StdRng) -> u8 {
    // Branch instructions crack into an implicit compare μop plus the jump
    // (the x86 cmp+jcc idiom), so the Move padding budget shrinks by the
    // branch fraction to keep the Fig 3.1 μops/instruction target.
    let mean_extra = (spec.uops_per_instruction - 1.0 - spec.mix.branch).max(0.0);
    let whole = mean_extra.floor() as u8;
    let frac = mean_extra - whole as f64;
    whole + if rng.gen::<f64>() < frac { 1 } else { 0 }
}

fn draw_class(spec: &WorkloadSpec, branch_w: f64, rng: &mut StdRng) -> UopClass {
    let m = &spec.mix;
    let draw: f64 = rng.gen();
    let mut acc = 0.0;
    let table = [
        (UopClass::Load, m.load),
        (UopClass::Store, m.store),
        (UopClass::Branch, branch_w),
        (UopClass::IntMul, m.int_mul),
        (UopClass::IntDiv, m.int_div),
        (UopClass::FpAlu, m.fp_alu),
        (UopClass::FpMul, m.fp_mul),
        (UopClass::FpDiv, m.fp_div),
    ];
    for (class, w) in table {
        acc += w;
        if draw < acc {
            return class;
        }
    }
    UopClass::IntAlu
}

#[allow(clippy::too_many_arguments)]
fn make_pattern(
    spec: &WorkloadSpec,
    ws_l3_mult: f64,
    rng: &mut StdRng,
    alloc: &mut RegionAlloc,
    region_l1: (u64, u64),
    region_l2: (u64, u64),
    region_l3: (u64, u64),
    region_mem: (u64, u64),
) -> AddrPattern {
    let mem = &spec.mem;
    // Per-phase L3 emphasis: extra L3 mass comes out of the L1 share.
    let ws_l3 = (mem.ws_l3 * ws_l3_mult).min(0.8);
    let ws_l1 = (mem.ws_l1 - (ws_l3 - mem.ws_l3)).max(0.05);
    // Pick the working set.
    let ws: f64 = rng.gen();
    let (base, region) = if ws < ws_l1 {
        region_l1
    } else if ws < ws_l1 + mem.ws_l2 {
        region_l2
    } else if ws < ws_l1 + mem.ws_l2 + ws_l3 {
        region_l3
    } else {
        region_mem
    };
    // Pick the pattern kind.
    let kind: f64 = rng.gen();
    if kind < mem.streaming_frac {
        let stride = *[64u64, 64, 128, 192].get(rng.gen_range(0..4usize)).unwrap();
        return AddrPattern::Streaming {
            stride,
            base: alloc.alloc(256 * 1024 * 1024),
            offset: 0,
            limit: 256 * 1024 * 1024,
        };
    }
    if kind < mem.streaming_frac + mem.random_frac {
        return AddrPattern::Random { region, base };
    }
    // Strided.
    let n_strides = if rng.gen::<f64>() < mem.multi_stride_frac {
        rng.gen_range(2..=4usize)
    } else {
        1
    };
    let mut strides = Vec::with_capacity(n_strides);
    let choices: [i64; 8] = [4, 8, 8, 16, 32, 64, 128, -8];
    for _ in 0..n_strides {
        let s = if rng.gen::<f64>() < spec.mem.huge_stride_frac {
            8192 // > DRAM page: defeats the prefetcher
        } else {
            choices[rng.gen_range(0..choices.len())]
        };
        strides.push(s);
    }
    // Cumulative probabilities: dominant first stride, per thesis Fig 4.7's
    // filter thresholds (60/70/80/90%).
    let mut cum = Vec::with_capacity(n_strides);
    let dominant = match n_strides {
        1 => 1.0,
        2 => 0.65,
        3 => 0.55,
        _ => 0.50,
    };
    let rest = (1.0 - dominant) / (n_strides as f64 - 1.0).max(1.0);
    let mut acc = 0.0;
    for (i, s) in strides.iter().enumerate() {
        acc += if i == 0 { dominant } else { rest };
        cum.push((*s, acc.min(1.0)));
    }
    let offset = rng.gen_range(0..region / 8) * 8;
    AddrPattern::Strided {
        strides: cum,
        region,
        base,
        offset,
    }
}

impl TraceSource for WorkloadTrace {
    fn fill(&mut self, buf: &mut Vec<MicroOp>, max_instructions: usize) -> usize {
        let mut n = 0;
        while n < max_instructions {
            if !self.gen_instruction(Some(buf)) {
                break;
            }
            n += 1;
        }
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let mut done = 0;
        while done < n {
            if !self.gen_instruction(None) {
                break;
            }
            done += 1;
        }
        done
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use pmt_trace::{collect_trace, count_instructions};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::baseline("test", 7)
    }

    #[test]
    fn generates_exactly_the_budget() {
        let uops = collect_trace(spec().trace(5_000), u64::MAX);
        assert_eq!(count_instructions(&uops), 5_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = collect_trace(spec().trace(3_000), u64::MAX);
        let b = collect_trace(spec().trace(3_000), u64::MAX);
        assert_eq!(a, b);
    }

    #[test]
    fn skip_matches_full_generation() {
        let full = collect_trace(spec().trace(2_000), u64::MAX);
        // Find the μop offset of instruction 1200.
        let mut starts = full
            .iter()
            .enumerate()
            .filter(|(_, u)| u.begins_instruction)
            .map(|(i, _)| i);
        let off = starts.nth(1200).unwrap();

        let mut t = spec().trace(2_000);
        assert_eq!(t.skip(1200), 1200);
        let mut buf = Vec::new();
        while t.fill(&mut buf, 1024) > 0 {}
        assert_eq!(&full[off..], &buf[..]);
    }

    #[test]
    fn deps_point_backwards_and_resolve() {
        let uops = collect_trace(spec().trace(4_000), u64::MAX);
        let mut resolved = 0u64;
        for (i, u) in uops.iter().enumerate() {
            // Zero encodes "no dependence" and `deps()` filters it, so
            // self-dependence is structurally impossible; the checkable
            // invariant is that every in-trace distance (d > i merely
            // crosses the trace start) lands on a value producer.
            for d in u.deps() {
                if (d as usize) <= i {
                    resolved += 1;
                    let producer = &uops[i - d as usize];
                    assert!(
                        producer.class.produces_value(),
                        "dep at {i} points to non-producer {:?}",
                        producer.class
                    );
                }
            }
        }
        assert!(resolved > 0, "no dependence ever resolved inside the trace");
    }

    #[test]
    fn mix_approximates_spec() {
        let s = spec();
        let uops = collect_trace(s.trace(50_000), u64::MAX);
        let mix = pmt_trace::InstructionMix::from_uops(&uops);
        // Instruction-level load fraction.
        let loads = uops
            .iter()
            .filter(|u| u.begins_instruction && u.class == UopClass::Load)
            .count() as f64;
        let insts = mix.instructions() as f64;
        assert!((loads / insts - s.mix.load).abs() < 0.03);
        // μops per instruction close to target.
        assert!((mix.uops_per_instruction() - s.uops_per_instruction).abs() < 0.05);
    }

    #[test]
    fn loopback_branches_mostly_taken() {
        let uops = collect_trace(spec().trace(30_000), u64::MAX);
        let branches: Vec<_> = uops.iter().filter(|u| u.class.is_branch()).collect();
        assert!(!branches.is_empty());
        let taken = branches.iter().filter(|u| u.taken).count() as f64;
        // Loop branches dominate and are mostly taken.
        assert!(taken / branches.len() as f64 > 0.4);
    }

    #[test]
    fn phases_change_behavior() {
        let mut s = spec();
        s.phases = Some(crate::spec::PhaseSpec {
            phase_len: 1_000,
            mem_scale: vec![1.0, 40.0],
            branch_noise_scale: vec![1.0, 1.0],
            ..crate::spec::PhaseSpec::default()
        });
        let t = s.trace(4_000);
        let uops = collect_trace(t, u64::MAX);
        assert_eq!(count_instructions(&uops), 4_000);
        // Distinct phases use distinct pc ranges.
        let high_pc = uops.iter().filter(|u| u.pc >> 40 == 1).count();
        assert!(high_pc > 0, "phase 1 code never executed");
    }

    #[test]
    fn memory_ops_have_addresses() {
        let uops = collect_trace(spec().trace(10_000), u64::MAX);
        for u in uops.iter().filter(|u| u.class.is_memory()) {
            assert_ne!(u.addr, 0);
        }
    }
}
