//! The assembled interval model (Eq 3.1) and its predictions.

use crate::branch_penalty::{branch_penalty, BranchPenalty};
use crate::cache_model::CacheModel;
use crate::config::{EvaluationMode, MlpModelKind, ModelConfig};
use crate::dispatch::{DispatchBreakdown, ExecLimits};
use crate::kernels::arena::CurveArena;
use crate::kernels::batch::Memo;
use crate::llc_chaining::{chain_penalty_total, ChainInputs};
use crate::mlp::{cold_miss_mlp, MemoryBehavior, StrideMlpModel, VirtualStream};
use crate::prepared::{PreparedProfile, PreparedWindow};
use pmt_profiler::{
    ApplicationProfile, DependenceProfile, LoadDependenceDistribution, MicroTraceProfile,
    StaticLoadProfile,
};
use pmt_trace::UopClass;
use pmt_uarch::{ActivityVector, CpiComponent, CpiStack, MachineConfig};
use serde::{Deserialize, Serialize};

/// Prediction for one evaluation window (a micro-trace's window, or the
/// whole application in combined mode).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowPrediction {
    /// Window index.
    pub index: u64,
    /// Instructions this window stands for.
    pub instructions: f64,
    /// Predicted cycles.
    pub cycles: f64,
    /// CPI stack of the window.
    pub stack: CpiStack,
    /// Effective-dispatch-rate breakdown (Fig 3.6).
    pub dispatch: DispatchBreakdown,
    /// Memory behaviour (MLP, misses).
    pub memory: MemoryBehavior,
    /// Predicted branch misprediction rate.
    pub branch_miss_rate: f64,
    /// Predicted activity factors of this window.
    pub activity: ActivityVector,
}

impl WindowPrediction {
    /// Window CPI.
    pub fn cpi(&self) -> f64 {
        if self.instructions > 0.0 {
            self.cycles / self.instructions
        } else {
            0.0
        }
    }
}

/// The complete performance prediction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Prediction {
    /// Workload name.
    pub name: String,
    /// Instructions modeled.
    pub instructions: u64,
    /// μops modeled.
    pub uops: f64,
    /// Predicted cycles.
    pub cycles: f64,
    /// CPI stack (sums to `cpi()`).
    pub cpi_stack: CpiStack,
    /// Predicted activity factors (Eq 3.16) for the power model.
    pub activity: ActivityVector,
    /// Miss-weighted average MLP.
    pub mlp: f64,
    /// Branch-weighted misprediction rate.
    pub branch_miss_rate: f64,
    /// Per-window predictions (phase behaviour, Fig 6.14).
    pub windows: Vec<WindowPrediction>,
}

impl Prediction {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions > 0 {
            self.cycles / self.instructions as f64
        } else {
            0.0
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions as f64 / self.cycles
        } else {
            0.0
        }
    }

    /// Execution time in seconds at a clock frequency.
    pub fn seconds_at(&self, frequency_ghz: f64) -> f64 {
        self.cycles / (frequency_ghz * 1e9)
    }

    /// **Signed** relative CPI error of this prediction against a
    /// reference CPI (typically the cycle-level simulator's):
    /// `(model − reference) / reference`. Positive means the model
    /// over-predicts.
    ///
    /// This is the single error convention of the workspace — the sweep
    /// (`pmt_dse::PointOutcome::cpi_error`), the experiment harness and
    /// the validation subsystem (`pmt_validate`) all report signed
    /// relative errors so systematic bias survives averaging, and take
    /// magnitudes explicitly (`abs_*` helpers, `ErrorStats::mean_abs`)
    /// when only size matters.
    pub fn cpi_error_vs(&self, reference_cpi: f64) -> f64 {
        (self.cpi() - reference_cpi) / reference_cpi
    }

    /// The aggregate view of this prediction — the fields
    /// [`IntervalModel::predict_summary`] produces, bit for bit.
    pub fn summary(&self) -> PredictionSummary {
        PredictionSummary {
            instructions: self.instructions,
            uops: self.uops,
            cycles: self.cycles,
            cpi_stack: self.cpi_stack.clone(),
            activity: self.activity.clone(),
            mlp: self.mlp,
            branch_miss_rate: self.branch_miss_rate,
        }
    }
}

/// The aggregate part of a [`Prediction`]: everything a design-space
/// sweep consumes (CPI, activity factors for power, runtime), without the
/// per-window breakdown or the workload-name clone.
///
/// Produced by [`IntervalModel::predict_summary`] on the prepared fast
/// path; numerically bit-identical to the corresponding fields of
/// [`IntervalModel::predict`] / [`Prediction::summary`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PredictionSummary {
    /// Instructions modeled.
    pub instructions: u64,
    /// μops modeled.
    pub uops: f64,
    /// Predicted cycles.
    pub cycles: f64,
    /// CPI stack (sums to `cpi()`).
    pub cpi_stack: CpiStack,
    /// Predicted activity factors (Eq 3.16) for the power model.
    pub activity: ActivityVector,
    /// Miss-weighted average MLP.
    pub mlp: f64,
    /// Branch-weighted misprediction rate.
    pub branch_miss_rate: f64,
}

impl PredictionSummary {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions > 0 {
            self.cycles / self.instructions as f64
        } else {
            0.0
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions as f64 / self.cycles
        } else {
            0.0
        }
    }

    /// Execution time in seconds at a clock frequency.
    pub fn seconds_at(&self, frequency_ghz: f64) -> f64 {
        self.cycles / (frequency_ghz * 1e9)
    }
}

/// The micro-architecture independent interval model.
#[derive(Clone, Debug)]
pub struct IntervalModel {
    machine: MachineConfig,
    config: ModelConfig,
}

/// Everything one window evaluation needs.
pub(crate) struct WindowInputs<'a> {
    /// Position of this window in evaluation order (0 in combined mode) —
    /// the identity the memo keys per-window state under.
    pub(crate) window: u32,
    index: u64,
    instructions: f64,
    class_counts: [f64; UopClass::COUNT],
    pub(crate) deps: &'a DependenceProfile,
    load_deps: &'a LoadDependenceDistribution,
    entropy: f64,
    /// The window's fitted load and store curves.
    loads_curve: CurveId,
    stores_curve: CurveId,
    static_loads: &'a [StaticLoadProfile],
    /// Prebuilt virtual-stream skeleton for the stride-MLP model.
    stream: &'a VirtualStream,
    stream_uops: u64,
    /// Exact cold misses in the window (profiler-counted).
    window_cold: f64,
    /// Exact store cold misses in the window.
    window_cold_stores: f64,
}

/// The core + cache stage of one window's Eq 3.1: everything that
/// reads only the cache hierarchy, the ROB size, the dispatch width, the
/// front-end depth, the predictor kind and the issue stage. A run of
/// machines equal in those fields computes it once per window for all
/// of them, and a batched predictor keeps it for the next run with the
/// same fields (`kernels::batch` has the rules); the memory stage reads
/// it and runs once per machine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoreStage {
    /// The window's load and store cache queries.
    loads_model: CacheModel,
    stores_model: CacheModel,
    n_uops: f64,
    dispatch: DispatchBreakdown,
    base_cycles: f64,
    /// Predicted branch misprediction rate and mispredictions.
    miss_rate: f64,
    mispredicts: f64,
    branch_cycles: f64,
    /// LLC-hit chaining cycles (§4.8).
    chain_cycles: f64,
    /// L̄(ROB): loads per ROB window.
    loads_per_rob: f64,
    /// LLC store misses (bandwidth/power accounting).
    store_llc_misses: f64,
}

/// Running sums of the terms that read only a run's stage key and issue
/// stage (the base, branch and LLC cycles, every activity count but the
/// DRAM and bus ones, the branch weights), added once per run in window
/// order with the arithmetic the collect-then-fold loop always used.
/// Every lane of the run would add these very values in this very
/// order, so each lane takes the run's sums as its own, bit for bit.
#[derive(Default)]
struct StageSums {
    /// Per-component cycles; the icache and DRAM entries stay zero (each
    /// lane keeps its own).
    stack_cycles: [f64; CpiComponent::ALL.len()],
    /// Activity sums; cycles, instructions, DRAM and bus entries are
    /// filled per lane by [`LaneSums::finish`].
    activity: ActivityVector,
    br_num: f64,
    br_den: f64,
}

/// One lane's running sums of the terms its memory stage feeds, added in
/// window order like [`StageSums`].
#[derive(Default)]
struct LaneSums {
    cycles: f64,
    icache_cycles: f64,
    dram_cycles: f64,
    /// DRAM accesses, which are also the bus transfers.
    dram_accesses: f64,
    mlp_num: f64,
    mlp_den: f64,
}

impl LaneSums {
    fn finish(self, shared: &StageSums, profile: &ApplicationProfile) -> PredictionSummary {
        let instructions = profile.total_instructions;
        let mut stack_cycles = shared.stack_cycles;
        stack_cycles[CpiComponent::ICache as usize] = self.icache_cycles;
        stack_cycles[CpiComponent::Dram as usize] = self.dram_cycles;
        let mut cpi_stack = CpiStack::default();
        if instructions > 0 {
            for c in CpiComponent::ALL {
                cpi_stack.add(c, stack_cycles[c as usize] / instructions as f64);
            }
        }
        let mut activity = shared.activity.clone();
        activity.cycles = self.cycles;
        activity.instructions = instructions as f64;
        activity.dram_accesses = self.dram_accesses;
        activity.bus_transfers = self.dram_accesses;
        PredictionSummary {
            instructions,
            uops: profile.total_uops,
            cycles: self.cycles,
            cpi_stack,
            activity,
            mlp: if self.mlp_den > 0.0 {
                self.mlp_num / self.mlp_den
            } else {
                1.0
            },
            branch_miss_rate: if shared.br_den > 0.0 {
                shared.br_num / shared.br_den
            } else {
                0.0
            },
        }
    }
}

impl IntervalModel {
    /// Model with the default (thesis-best) configuration.
    pub fn new(machine: &MachineConfig) -> IntervalModel {
        Self::with_config(machine, ModelConfig::default())
    }

    /// Model with an explicit configuration.
    pub fn with_config(machine: &MachineConfig, config: ModelConfig) -> IntervalModel {
        IntervalModel {
            machine: machine.clone(),
            config,
        }
    }

    /// The machine being modeled.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Predict performance for a profiled application.
    ///
    /// Thin wrapper over the prepared fast path: it compiles the profile
    /// with [`PreparedProfile::new`] and immediately evaluates it, so a
    /// one-off prediction and a prepared sweep run the exact same
    /// arithmetic (bit-identical results). Callers evaluating the same
    /// profile for many machines should prepare once themselves and call
    /// [`predict_prepared`](Self::predict_prepared) /
    /// [`predict_summary`](Self::predict_summary) per machine.
    pub fn predict(&self, profile: &ApplicationProfile) -> Prediction {
        self.predict_prepared(&PreparedProfile::new(profile))
    }

    /// Predict performance from a prepared profile: only the
    /// machine-dependent work (StatStack queries + Eq 3.1 arithmetic)
    /// runs; every machine-independent model was fitted once in
    /// [`PreparedProfile::new`]. Bit-identical to
    /// [`predict`](Self::predict).
    pub fn predict_prepared(&self, prepared: &PreparedProfile<'_>) -> Prediction {
        let (summary, windows) = self.evaluate_prepared(prepared, true);
        Prediction {
            name: prepared.profile().name.clone(),
            instructions: summary.instructions,
            uops: summary.uops,
            cycles: summary.cycles,
            cpi_stack: summary.cpi_stack,
            activity: summary.activity,
            mlp: summary.mlp,
            branch_miss_rate: summary.branch_miss_rate,
            windows,
        }
    }

    /// The sweep-oriented variant of
    /// [`predict_prepared`](Self::predict_prepared): identical arithmetic,
    /// but the per-window predictions are folded on the fly instead of
    /// collected and the workload name is not cloned — no per-point heap
    /// traffic beyond the model's own scratch. Every summary field is
    /// bit-identical to the corresponding [`Prediction`] field
    /// ([`Prediction::summary`]).
    pub fn predict_summary(&self, prepared: &PreparedProfile<'_>) -> PredictionSummary {
        self.evaluate_prepared(prepared, false).0
    }

    /// Shared evaluation core: walk the windows once, combining as we go;
    /// keep the per-window predictions only when `collect_windows` asks.
    fn evaluate_prepared(
        &self,
        prepared: &PreparedProfile<'_>,
        collect_windows: bool,
    ) -> (PredictionSummary, Vec<WindowPrediction>) {
        let (mut summary, mut windows) = (Vec::with_capacity(1), Vec::new());
        Evaluator {
            lanes: &[&self.machine],
            config: &self.config,
            arena: prepared.arena(),
            memo: None,
        }
        .run(
            prepared,
            &mut summary,
            collect_windows.then_some(&mut windows),
        );
        (summary.pop().expect("one lane, one summary"), windows)
    }
}

/// Identifies one fitted StatStack curve of a [`PreparedProfile`] across
/// an evaluation — the key the evaluator uses to find the curve in the
/// arena and the memo keys its queries under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum CurveId {
    /// The instruction-path model.
    Inst,
    /// The global (combined-mode) load model.
    GlobalLoads,
    /// The global (combined-mode) store model.
    GlobalStores,
    /// Window `i`'s load model.
    WindowLoads(u32),
    /// Window `i`'s store model.
    WindowStores(u32),
}

impl CurveId {
    /// Position of this curve in [`PreparedProfile`] evaluation order
    /// (instruction, global loads, global stores, then each window's
    /// loads/stores pair) — the layout `kernels::CurveArena` builds.
    pub(crate) fn arena_index(self) -> u32 {
        match self {
            CurveId::Inst => 0,
            CurveId::GlobalLoads => 1,
            CurveId::GlobalStores => 2,
            CurveId::WindowLoads(i) => 3 + 2 * i,
            CurveId::WindowStores(i) => 4 + 2 * i,
        }
    }
}

/// The evaluation core behind [`IntervalModel`] and
/// [`BatchPredictor`](crate::BatchPredictor): the one path every
/// prediction takes. It evaluates a *run* of machines that share one
/// stage key and issue stage (a single point is a run of one), window by
/// window: each window's core + cache stage once, on the run's lead
/// machine, then each machine's memory stage as a lane. It borrows
/// machines and config, so batched callers evaluate design points
/// without cloning a `MachineConfig`/`ModelConfig` pair per point, and
/// queries the prepared profile's curve arena. With a [`Memo`], the four
/// machine-dependent computations (cache queries, stride walks, CP(ROB),
/// branch penalties) replay earlier points' results for identical
/// inputs, and each window's port and unit limits are reused while the
/// issue stage stays the same; without one they are computed directly —
/// the same functions either way, so both runs give the same bits
/// (`tests/batch_identity.rs` pins it).
pub(crate) struct Evaluator<'m> {
    /// The run's machines, equal in every field the core + cache stage
    /// reads (`kernels::batch` splits a batch into such runs); the first
    /// leads.
    pub(crate) lanes: &'m [&'m MachineConfig],
    pub(crate) config: &'m ModelConfig,
    pub(crate) arena: &'m CurveArena,
    pub(crate) memo: Option<&'m mut Memo>,
}

impl<'m> Evaluator<'m> {
    /// The machine the run's core + cache stages are computed on.
    fn lead(&self) -> &'m MachineConfig {
        self.lanes[0]
    }

    /// Walk the windows once, folding each into the run's sums, and
    /// append one summary per lane to `out`, in lane order. The
    /// per-window predictions are kept only when `windows` collects them
    /// (a run of one).
    pub(crate) fn run(
        &mut self,
        prepared: &PreparedProfile<'_>,
        out: &mut Vec<PredictionSummary>,
        mut windows: Option<&mut Vec<WindowPrediction>>,
    ) {
        assert!(
            windows.is_none() || self.lanes.len() == 1,
            "only a run of one keeps its windows"
        );
        let profile = prepared.profile();
        let lead = self.lead();
        let followers = self.lanes.len() as u64 - 1;
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.bind_exec(&lead.exec);
            memo.bind_stage(lead);
        }
        let inst_model = self.cache_model(CurveId::Inst, CacheModel::inst_lines(&lead.caches));
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.replay_inst(followers);
        }
        let miss_rate_of = self.config.entropy_model.miss_rate_fn(lead.predictor.kind);

        let mut stage_sums = StageSums::default();
        let mut lanes: Vec<LaneSums> = self.lanes.iter().map(|_| LaneSums::default()).collect();
        match self.config.evaluation {
            EvaluationMode::PerMicroTrace if !profile.micro_traces.is_empty() => {
                for (wi, (t, pw)) in profile
                    .micro_traces
                    .iter()
                    .zip(prepared.windows())
                    .enumerate()
                {
                    self.evaluate_window(
                        &trace_inputs(wi as u32, t, pw),
                        profile,
                        &inst_model,
                        miss_rate_of,
                        &mut stage_sums,
                        &mut lanes,
                        windows.as_deref_mut(),
                    );
                }
            }
            _ => self.evaluate_window(
                &combined_inputs(profile, prepared),
                profile,
                &inst_model,
                miss_rate_of,
                &mut stage_sums,
                &mut lanes,
                windows,
            ),
        }
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.stages_kept(lead);
        }
        out.extend(
            lanes
                .into_iter()
                .map(|lane| lane.finish(&stage_sums, profile)),
        );
    }

    /// One fitted curve's machine-dependent cache queries: critical
    /// reuse distances and miss ratios at `lines`.
    fn cache_model(&mut self, id: CurveId, lines: [u64; 3]) -> CacheModel {
        let (arena, curve) = (self.arena, id.arena_index());
        match self.memo.as_deref_mut() {
            Some(memo) => arena.evaluate_by(curve, lines, |level, lines| {
                memo.cache_level(curve, level, lines, || arena.level(curve, lines))
            }),
            None => arena.evaluate(curve, lines),
        }
    }

    /// The window's port and unit limits (Eq 3.10's terms that read
    /// only its class counts and the issue stage).
    fn exec_limits(&mut self, inp: &WindowInputs<'_>) -> ExecLimits {
        let exec = &self.lead().exec;
        let limits = || ExecLimits::new(exec, &inp.class_counts);
        match self.memo.as_deref_mut() {
            Some(memo) => memo.exec_limits(inp.window, limits),
            None => limits(),
        }
    }

    /// The stride-MLP virtual-stream walk for one window on `machine`,
    /// then its MSHR cap. A memo miss computes through this very walk, so
    /// a hit replays its bytes; the cap runs after the lookup on both
    /// paths.
    fn stride(
        &mut self,
        machine: &MachineConfig,
        inp: &WindowInputs<'_>,
        stage: &CoreStage,
        loads: f64,
    ) -> MemoryBehavior {
        let deff = stage.dispatch.effective;
        let model = StrideMlpModel::new(machine, deff);
        let walk = || {
            model.walk_stream(
                inp.stream,
                inp.static_loads,
                &stage.loads_model,
                inp.stream_uops,
                loads,
                inp.window_cold,
            )
        };
        let crit_l3 = stage.loads_model.critical_rd[2];
        let walk = match self.memo.as_deref_mut() {
            Some(memo) => memo.stride(machine, deff, inp.window, crit_l3, walk),
            None => walk(),
        };
        model.finish_walk(walk, stage.store_llc_misses)
    }

    /// CP(ROB): the window dependency profile's critical-path length.
    fn critical_path(&mut self, inp: &WindowInputs<'_>, rob: u32) -> f64 {
        let cp = || inp.deps.cp(rob);
        match self.memo.as_deref_mut() {
            Some(memo) => memo.critical_path(inp.window, rob, cp),
            None => cp(),
        }
    }

    /// The branch-misprediction penalty (leaky-bucket Alg 3.2) for one
    /// window.
    fn branch(&mut self, inp: &WindowInputs<'_>, interval: f64, lat: f64) -> BranchPenalty {
        let lead = self.lead();
        let core = &lead.core;
        let (rob, width, depth) = (core.rob_size, core.dispatch_width, core.frontend_depth);
        let penalty = || branch_penalty(inp.deps, rob, width, depth, interval, lat);
        match self.memo.as_deref_mut() {
            Some(memo) => memo.branch(lead, inp.window, interval, lat, penalty),
            None => penalty(),
        }
    }

    /// Eq 3.1 for one window, for every lane of the run: the core +
    /// cache stage and the terms that read only it, once, folded into
    /// `stage_sums`; then each lane's memory stage, folded into its own
    /// [`LaneSums`]. The window's [`WindowPrediction`] is built only when
    /// `windows` collects them.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_window(
        &mut self,
        inp: &WindowInputs<'_>,
        profile: &ApplicationProfile,
        inst_model: &CacheModel,
        miss_rate_of: impl Fn(f64) -> f64,
        stage_sums: &mut StageSums,
        lanes: &mut [LaneSums],
        mut windows: Option<&mut Vec<WindowPrediction>>,
    ) {
        let stage = self.core_stage(inp, miss_rate_of);
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.replay_followers(inp.window, lanes.len() as u64 - 1);
        }
        let lead = self.lead();
        let n_uops = stage.n_uops;
        let instructions = inp.instructions;

        // --- Instruction cache hits (§2.5.1); the misses go to DRAM ----------
        let ir = &inst_model.ratios;
        let l2_lat = lead.caches.l2.latency as f64;
        let l3_lat = lead.caches.l3.latency as f64;
        let inst_accesses = instructions * profile.memory.inst_accesses_per_instruction;
        let icache_hit_cycles = ir.l2_hit() * l2_lat + ir.l3_hit() * l3_lat;

        // --- What the core + cache stage alone decides ------------------------
        let loads = inp.class_counts[UopClass::Load.index()];
        let stores = inp.class_counts[UopClass::Store.index()];
        let branches = inp.class_counts[UopClass::Branch.index()];
        // The window ahead of a miss drains concurrently with it, hiding
        // up to ROB/D_eff cycles of every miss group's latency — the same
        // threshold below which out-of-order execution hides latencies
        // entirely (§4.8).
        let rob_fill = lead.core.rob_size as f64 / stage.dispatch.effective;
        let core_cycles = stage.base_cycles + stage.branch_cycles;
        let mut core_stack = CpiStack::default();
        if instructions > 0.0 {
            core_stack.add(CpiComponent::Base, stage.base_cycles / instructions);
            core_stack.add(CpiComponent::Branch, stage.branch_cycles / instructions);
            core_stack.add(CpiComponent::L3Data, stage.chain_cycles / instructions);
        }
        // Predicted activity factors (Eq 3.16).
        let (lr, sr) = (&stage.loads_model.ratios, &stage.stores_model.ratios);
        let regfile_writes = n_uops - stores - branches;
        let l2_accesses = lr.l1 * loads + sr.l1 * stores + ir.l1 * instructions;
        let l3_accesses = lr.l2 * loads + sr.l2 * stores + ir.l2 * instructions;

        for c in CpiComponent::ALL {
            stage_sums.stack_cycles[c as usize] += core_stack.get(c) * instructions;
        }
        let sum = &mut stage_sums.activity;
        sum.uops += n_uops;
        for (sum, count) in sum.issue_per_class.iter_mut().zip(&inp.class_counts) {
            *sum += count;
        }
        sum.rob_accesses += 2.0 * n_uops;
        sum.iq_accesses += 2.0 * n_uops;
        sum.regfile_reads += 1.4 * n_uops;
        sum.regfile_writes += regfile_writes;
        sum.l1i_accesses += instructions;
        sum.l1d_accesses += loads + stores;
        sum.l2_accesses += l2_accesses;
        sum.l3_accesses += l3_accesses;
        sum.branch_lookups += branches;
        sum.branch_misses += stage.mispredicts;
        stage_sums.br_num += stage.miss_rate * instructions;
        stage_sums.br_den += instructions;

        // --- Each lane's memory stage: MLP + DRAM penalty (Ch 4) --------------
        let machines = self.lanes;
        for (&m, lane) in machines.iter().zip(lanes.iter_mut()) {
            let dram = m.mem.dram_latency as f64;
            let icache_cycles = inst_accesses * (icache_hit_cycles + ir.l3 * dram);
            let memory = self.memory_behavior(m, inp, &stage, loads, profile);
            let density = memory.miss_window_density.clamp(0.0, 1.0);
            let bus = if self.config.bus_queuing && memory.llc_load_misses > 0.0 {
                // Eq 4.6: include store bandwidth.
                let mlp_prime = memory.mlp * (memory.llc_load_misses + memory.llc_store_misses)
                    / memory.llc_load_misses;
                // Eq 4.5, active only while misses are dense enough to queue.
                density * (mlp_prime + 1.0) / 2.0 * m.mem.bus_transfer_cycles as f64
            } else {
                0.0
            };
            let effective_latency =
                (dram + bus - rob_fill).max((m.mem.bus_transfer_cycles as f64).max(20.0));
            let dram_cycles = memory.stalling_load_misses * effective_latency / memory.mlp.max(1.0);

            // --- Assemble and fold, in the order the summaries always summed
            let cycles = core_cycles + icache_cycles + dram_cycles + stage.chain_cycles;
            let mut stack = core_stack.clone();
            if instructions > 0.0 {
                stack.add(CpiComponent::ICache, icache_cycles / instructions);
                stack.add(CpiComponent::Dram, dram_cycles / instructions);
            }
            let dram_accesses =
                memory.llc_load_misses + memory.llc_store_misses + ir.l3 * instructions;
            lane.cycles += cycles;
            lane.icache_cycles += stack.get(CpiComponent::ICache) * instructions;
            lane.dram_cycles += stack.get(CpiComponent::Dram) * instructions;
            lane.dram_accesses += dram_accesses;
            lane.mlp_num += memory.mlp * memory.llc_load_misses.max(1e-9);
            lane.mlp_den += memory.llc_load_misses.max(1e-9);

            if let Some(windows) = windows.as_deref_mut() {
                windows.push(WindowPrediction {
                    index: inp.index,
                    instructions,
                    cycles,
                    stack,
                    dispatch: stage.dispatch,
                    memory,
                    branch_miss_rate: stage.miss_rate,
                    activity: ActivityVector {
                        uops: n_uops,
                        instructions,
                        cycles,
                        issue_per_class: inp.class_counts,
                        rob_accesses: 2.0 * n_uops,
                        iq_accesses: 2.0 * n_uops,
                        regfile_reads: 1.4 * n_uops,
                        regfile_writes,
                        l1i_accesses: instructions,
                        l1d_accesses: loads + stores,
                        l2_accesses,
                        l3_accesses,
                        dram_accesses,
                        bus_transfers: dram_accesses,
                        branch_lookups: branches,
                        branch_misses: stage.mispredicts,
                    },
                });
            }
        }
    }

    /// The window's core + cache stage ([`CoreStage`]) on the run's lead:
    /// replayed from the memo when the run's stage key equals the last
    /// run's, computed through the memo lookups otherwise.
    fn core_stage(
        &mut self,
        inp: &WindowInputs<'_>,
        miss_rate_of: impl Fn(f64) -> f64,
    ) -> CoreStage {
        if let Some(stage) = self
            .memo
            .as_deref_mut()
            .and_then(|memo| memo.replay_stage(inp.window))
        {
            return stage;
        }
        let m = self.lead();
        let data_lines = CacheModel::data_lines(&m.caches);
        let loads_model = self.cache_model(inp.loads_curve, data_lines);
        let stores_model = self.cache_model(inp.stores_curve, data_lines);
        let n_uops: f64 = inp.class_counts.iter().sum();
        let rob = m.core.rob_size;

        // --- Average latency, with short (L1/L2) load misses folded in ----
        let lr = &loads_model.ratios;
        let l1_lat = m.caches.l1d.latency as f64;
        let l2_lat = m.caches.l2.latency as f64;
        let load_lat = l1_lat + (l2_lat - l1_lat) * lr.l1;
        let mut lat = 0.0;
        if n_uops > 0.0 {
            for c in UopClass::ALL {
                let frac = inp.class_counts[c.index()] / n_uops;
                let base = if c == UopClass::Load {
                    load_lat
                } else {
                    m.exec.latency(c) as f64
                };
                lat += frac * base;
            }
        } else {
            lat = 1.0;
        }

        // --- Base: effective dispatch rate (Eq 3.10) ----------------------
        let cp = self.critical_path(inp, rob);
        let dispatch = self.exec_limits(inp).dispatch_rate(m, cp, lat);
        let base_cycles = n_uops / dispatch.effective;

        // --- Branches (§3.5) -----------------------------------------------
        let miss_rate = miss_rate_of(inp.entropy);
        let branches = inp.class_counts[UopClass::Branch.index()];
        let mispredicts = branches * miss_rate;
        let branch_cycles = if mispredicts > 0.5 {
            let interval = n_uops / mispredicts;
            let pen = self.branch(inp, interval, lat);
            mispredicts * pen.total()
        } else {
            0.0
        };

        // --- Memory-stage inputs that read only the hierarchy and ROB -----
        let loads = inp.class_counts[UopClass::Load.index()];
        let stores = inp.class_counts[UopClass::Store.index()];
        let loads_per_rob = if n_uops > 0.0 {
            loads / n_uops * rob as f64
        } else {
            0.0
        };
        let store_cold_frac = stores_model.cold_fraction();
        let store_llc_misses =
            (stores_model.ratios.l3 - store_cold_frac).max(0.0) * stores + inp.window_cold_stores;

        // --- LLC hit chaining (§4.8) ----------------------------------------
        let chain_cycles = if self.config.llc_chaining {
            let chain = ChainInputs::from_distribution(
                inp.load_deps,
                lr.l3_hit(),
                loads_per_rob,
                m.caches.l3.latency as f64,
                rob as f64,
                dispatch.effective,
            );
            chain_penalty_total(&chain, n_uops)
        } else {
            0.0
        };

        let stage = CoreStage {
            loads_model,
            stores_model,
            n_uops,
            dispatch,
            base_cycles,
            miss_rate,
            mispredicts,
            branch_cycles,
            chain_cycles,
            loads_per_rob,
            store_llc_misses,
        };
        if let Some(memo) = self.memo.as_deref_mut() {
            memo.keep_stage(inp.window, stage);
        }
        stage
    }

    /// One lane's memory behaviour in one window: the stride walk or the
    /// cold-miss model on `m`, over the run's core + cache stage.
    fn memory_behavior(
        &mut self,
        m: &MachineConfig,
        inp: &WindowInputs<'_>,
        stage: &CoreStage,
        loads: f64,
        profile: &ApplicationProfile,
    ) -> MemoryBehavior {
        let loads_model = &stage.loads_model;
        match self.config.mlp_model {
            MlpModelKind::Stride if !inp.static_loads.is_empty() && inp.stream_uops > 0 => {
                let mut behavior = self.stride(m, inp, stage, loads);
                if !self.config.mshr_cap {
                    // Undo the cap by re-flooring at the raw value — the
                    // cap is inside evaluate; approximate by scaling up.
                    behavior.mlp = behavior.mlp.max(1.0);
                }
                if !self.config.prefetch_model || !m.prefetcher.enabled {
                    behavior.stalling_load_misses = behavior.llc_load_misses;
                    behavior.prefetch_coverage = 0.0;
                }
                behavior
            }
            _ => {
                // Cold-miss model (Eqs 4.1–4.3).
                let cold_frac_access = loads_model.cold_fraction();
                let m_llc = loads_model.ratios.l3.max(cold_frac_access);
                let cold_frac_misses = if m_llc > 0.0 {
                    (cold_frac_access / m_llc).min(1.0)
                } else {
                    0.0
                };
                let mean_cold = profile.memory.cold.mean_cold_per_rob(m.core.rob_size);
                let mshr = if self.config.mshr_cap {
                    m.mem.mshr_entries
                } else {
                    u32::MAX
                };
                let mlp = cold_miss_mlp(
                    inp.load_deps,
                    m_llc,
                    cold_frac_misses,
                    mean_cold,
                    stage.loads_per_rob,
                    mshr,
                );
                // Reuse misses extrapolate as a rate; cold misses are the
                // window's exact count.
                let reuse_ratio = (m_llc - cold_frac_access).max(0.0);
                let llc_load_misses = reuse_ratio * loads + inp.window_cold;
                // Poisson estimate of the miss-window density.
                let misses_per_rob = m_llc * stage.loads_per_rob;
                let miss_window_density = 1.0 - (-misses_per_rob).exp();
                MemoryBehavior {
                    mlp,
                    llc_load_misses,
                    stalling_load_misses: llc_load_misses,
                    llc_store_misses: stage.store_llc_misses,
                    prefetch_coverage: 0.0,
                    miss_window_density,
                }
            }
        }
    }
}

/// Per-micro-trace inputs: the machine-independent parts from the
/// preparation. `wi` is the window's position in evaluation order.
fn trace_inputs<'a>(wi: u32, t: &'a MicroTraceProfile, pw: &'a PreparedWindow) -> WindowInputs<'a> {
    WindowInputs {
        window: wi,
        index: t.index,
        instructions: t.weight_instructions as f64,
        class_counts: pw.class_counts,
        deps: &t.deps,
        load_deps: &t.load_deps,
        entropy: pw.entropy,
        loads_curve: CurveId::WindowLoads(wi),
        stores_curve: CurveId::WindowStores(wi),
        static_loads: &t.static_loads,
        stream: &pw.stream,
        stream_uops: t.uops,
        window_cold: t.window_cold_misses as f64,
        window_cold_stores: t.window_cold_store_misses as f64,
    }
}

/// Whole-application inputs (combined mode).
fn combined_inputs<'a>(
    profile: &'a ApplicationProfile,
    prepared: &'a PreparedProfile<'_>,
) -> WindowInputs<'a> {
    // The stride sample (the first micro-trace's static loads), its
    // length and its skeleton come from the preparation as one unit so
    // the skeleton's owner indices always match the slice (the thesis'
    // combined variant pairs with the cold-miss model, where these
    // inputs are unused).
    let (static_loads, stream_uops, stream) = prepared.combined_stride_inputs();
    WindowInputs {
        window: 0,
        index: 0,
        instructions: profile.total_instructions as f64,
        class_counts: *prepared.combined_class_counts(),
        deps: &profile.deps,
        load_deps: &profile.load_deps,
        entropy: profile.branch.entropy,
        loads_curve: CurveId::GlobalLoads,
        stores_curve: CurveId::GlobalStores,
        static_loads,
        stream,
        stream_uops,
        window_cold: profile.memory.cold.total_cold() as f64,
        window_cold_stores: profile.memory.stores.cold() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_sim::{OooSimulator, SimConfig};
    use pmt_workloads::WorkloadSpec;

    fn profile_of(name: &str, n: u64) -> ApplicationProfile {
        let spec = WorkloadSpec::by_name(name).expect("suite member");
        Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(n))
    }

    fn predict(name: &str, n: u64) -> Prediction {
        IntervalModel::new(&MachineConfig::nehalem()).predict(&profile_of(name, n))
    }

    fn simulate(name: &str, n: u64) -> pmt_sim::SimResult {
        let spec = WorkloadSpec::by_name(name).unwrap();
        OooSimulator::new(SimConfig::new(MachineConfig::nehalem())).run(&mut spec.trace(n))
    }

    #[test]
    fn prediction_is_positive_and_consistent() {
        let p = predict("astar", 40_000);
        assert!(p.cycles > 0.0);
        assert!(p.cpi() > 0.25, "CPI below width limit: {}", p.cpi());
        assert!((p.cpi_stack.total() - p.cpi()).abs() < 1e-6);
        assert_eq!(p.windows.len(), 8);
        assert!(p.mlp >= 1.0);
    }

    #[test]
    fn memory_bound_workload_has_dram_component() {
        let p = predict("mcf", 40_000);
        assert!(
            p.cpi_stack.get(CpiComponent::Dram) > 0.2,
            "mcf DRAM: {:?}",
            p.cpi_stack
        );
    }

    #[test]
    fn namd_stack_shape_tracks_simulator() {
        // At short horizons even namd is cold-miss dominated (thesis
        // Fig 4.4); what matters is that the model's component shares
        // track the simulator's.
        let p = predict("namd", 40_000);
        let s = simulate("namd", 40_000);
        let m_base = p.cpi_stack.get(CpiComponent::Base) / p.cpi();
        let s_base = s.cpi_stack.get(CpiComponent::Base) / s.cpi();
        assert!(
            (m_base - s_base).abs() < 0.25,
            "base share: model {m_base} vs sim {s_base}"
        );
        let m_dram = p.cpi_stack.get(CpiComponent::Dram) / p.cpi();
        let s_dram = s.cpi_stack.get(CpiComponent::Dram) / s.cpi();
        assert!(
            (m_dram - s_dram).abs() < 0.3,
            "DRAM share: model {m_dram} vs sim {s_dram}"
        );
    }

    #[test]
    fn model_tracks_simulator_ranking() {
        // Relative accuracy: the model must order a memory-bound and a
        // compute-bound workload like the simulator does.
        let m_mcf = predict("mcf", 40_000);
        let m_namd = predict("namd", 40_000);
        let s_mcf = simulate("mcf", 40_000);
        let s_namd = simulate("namd", 40_000);
        assert!(s_mcf.cpi() > s_namd.cpi());
        assert!(
            m_mcf.cpi() > m_namd.cpi(),
            "model ranking: mcf {} vs namd {}",
            m_mcf.cpi(),
            m_namd.cpi()
        );
    }

    #[test]
    fn model_is_within_2x_of_simulator_for_compute_code() {
        for name in ["hmmer", "namd", "gamess"] {
            let m = predict(name, 40_000);
            let s = simulate(name, 40_000);
            let ratio = m.cpi() / s.cpi();
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "{name}: model {} vs sim {}",
                m.cpi(),
                s.cpi()
            );
        }
    }

    #[test]
    fn wider_machine_predicts_fewer_cycles() {
        let profile = profile_of("h264ref", 40_000);
        let narrow = {
            let mut m = MachineConfig::nehalem();
            m.core = m.core.with_dispatch_width(2).with_rob(64);
            IntervalModel::new(&m).predict(&profile)
        };
        let wide = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
        assert!(
            wide.cycles < narrow.cycles,
            "wide {} vs narrow {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn bigger_llc_predicts_fewer_dram_misses() {
        let profile = profile_of("astar", 40_000);
        let small = {
            let mut m = MachineConfig::nehalem();
            m.caches.l3 = pmt_uarch::CacheConfig::new(1024, 16, 64, 26);
            IntervalModel::new(&m).predict(&profile)
        };
        let big = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
        assert!(
            big.cpi_stack.get(CpiComponent::Dram) <= small.cpi_stack.get(CpiComponent::Dram),
            "big {:?} vs small {:?}",
            big.cpi_stack,
            small.cpi_stack
        );
    }

    #[test]
    fn combined_mode_gives_one_window() {
        let profile = profile_of("bzip2", 40_000);
        let p = IntervalModel::with_config(&MachineConfig::nehalem(), ModelConfig::ispass_2015())
            .predict(&profile);
        assert_eq!(p.windows.len(), 1);
        assert!(p.cycles > 0.0);
    }

    #[test]
    fn activity_factors_are_filled() {
        let p = predict("gcc", 40_000);
        let a = &p.activity;
        assert!(a.uops > 0.0);
        assert!(a.l1d_accesses > 0.0);
        assert!(a.l2_accesses <= a.l1d_accesses + a.l1i_accesses);
        assert!(a.dram_accesses >= 0.0);
        assert!(a.branch_lookups > 0.0);
        assert!((a.cycles - p.cycles).abs() < 1e-6);
    }

    #[test]
    fn per_sample_evaluation_sees_phases() {
        let p = predict("gcc", 100_000);
        let cpis: Vec<f64> = p.windows.iter().map(|w| w.cpi()).collect();
        let min = cpis.iter().cloned().fold(f64::MAX, f64::min);
        let max = cpis.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min * 1.2, "gcc phases should vary: {cpis:?}");
    }

    #[test]
    fn prefetcher_reduces_predicted_stalls() {
        let profile = profile_of("libquantum", 60_000);
        let without = IntervalModel::new(&MachineConfig::nehalem()).predict(&profile);
        let with = IntervalModel::new(&MachineConfig::nehalem_with_prefetcher()).predict(&profile);
        assert!(
            with.cpi_stack.get(CpiComponent::Dram) < without.cpi_stack.get(CpiComponent::Dram),
            "with {:?} vs without {:?}",
            with.cpi_stack,
            without.cpi_stack
        );
    }
}
