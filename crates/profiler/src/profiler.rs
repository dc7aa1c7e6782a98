//! The single-pass streaming profiler.
//!
//! A profile runs as a two-stage pipeline. The calling thread generates
//! the trace: it alone runs the record/skip window schedule over the
//! [`TraceSource`], filling chunks of at most [`CHUNK_INSTRUCTIONS`]
//! instructions, each tagged with its segment and whether it closes a
//! window. One scoped thread per call owns the streaming state ([`Pass`])
//! and folds the chunks in stream order, following their tags. The stages
//! meet in a channel of at most [`CHANNEL_CHUNKS`] chunks, and spent
//! buffers travel back to the generating stage for reuse, so memory is
//! bounded and the steady state allocates nothing. One consumer in stream
//! order and one schedule make the profile the same, byte for byte,
//! however the threads interleave.

use crate::cold::ColdMissProfile;
use crate::config::ProfilerConfig;
use crate::deps::{DependenceProfile, LoadDependenceDistribution};
use crate::profile::{ApplicationProfile, BranchProfile, MemoryProfile, MicroTraceProfile};
use crate::strides::StaticLoadBuilder;
use pmt_branch::EntropyProfiler;
use pmt_statstack::{ReuseHistogram, ReuseRecorder};
use pmt_trace::{FastHashMap, InstructionMix, MicroOp, SamplingConfig, TraceSource, UopClass};
use std::panic;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread;

/// Recording-segment capture target: the micro-trace buffer plus the
/// per-load (line, reuse-distance) stream captured alongside it.
type CaptureTarget<'a> = (&'a mut Vec<MicroOp>, &'a mut Vec<(u32, Option<u64>)>);

/// Most instructions in one chunk passed from the generating stage to the
/// analysing stage.
const CHUNK_INSTRUCTIONS: u64 = 4_096;

/// Most chunks waiting in the channel between the two stages. The stages
/// run at similar, steady rates, so two chunks of slack keep both busy;
/// each further chunk is one more resident buffer.
const CHANNEL_CHUNKS: usize = 2;

/// The part of a sampling window a chunk belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Segment {
    /// Recorded into the window's micro-trace.
    Record,
    /// Fast-forwarded: seen only by the full-stream statistics.
    Skip,
}

/// A run of whole instructions on its way from the generating stage to
/// the analysing stage.
struct Chunk {
    uops: Vec<MicroOp>,
    instructions: u64,
    segment: Segment,
    /// This chunk ends its window: the micro-trace closes after it.
    closes_window: bool,
}

/// The micro-architecture independent profiler.
///
/// One [`Profiler::profile`] call streams the full trace once. Statistics
/// that are cheap to maintain (mix, reuse distances, branch entropy, cold
/// misses) are collected over the *whole* stream; the expensive
/// dependence-chain and per-static-load analyses run only inside the
/// sampled micro-traces (thesis Ch 5), whose union is typically 0.1% of
/// the stream.
///
/// Each call starts one scoped thread and joins it before returning: the
/// calling thread generates the trace (so the source need not be `Send`)
/// while the scoped thread analyses it, chunk by chunk and in stream order,
/// so the profile does not depend on how the two threads interleave. A
/// panic on either side is re-raised from the call; neither side can be
/// left waiting on the other.
#[derive(Clone, Debug)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Create a profiler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ProfilerConfig) -> Profiler {
        if let Err(e) = config.validate() {
            panic!("invalid profiler config: {e}");
        }
        Profiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Profile an anonymous trace.
    pub fn profile<S: TraceSource>(&self, source: &mut S) -> ApplicationProfile {
        self.profile_named("anonymous", source)
    }

    /// Profile a named trace.
    pub fn profile_named<S: TraceSource>(&self, name: &str, source: &mut S) -> ApplicationProfile {
        thread::scope(|scope| {
            // Both channels live inside the scope: if generating panics,
            // unwinding drops the sender, and the analysing stage ends
            // instead of waiting forever.
            let (chunks, inbox) = mpsc::sync_channel(CHANNEL_CHUNKS);
            let (spent, spares) = mpsc::channel();
            let analyser = scope.spawn(move || analyse(&self.config, name, inbox, spent));
            generate(&self.config.sampling, source, chunks, spares);
            match analyser.join() {
                Ok(profile) => profile,
                Err(payload) => panic::resume_unwind(payload),
            }
        })
    }
}

/// The generating stage: run the window schedule over `source` and send
/// its instructions in chunks, until the source runs dry or the analysing
/// stage hangs up (it only does so by panicking). Returning drops the
/// sender, which tells the analysing stage the stream has ended.
fn generate<S: TraceSource>(
    sampling: &SamplingConfig,
    source: &mut S,
    chunks: SyncSender<Chunk>,
    spares: Receiver<Vec<MicroOp>>,
) {
    let micro_len = sampling.micro_trace_instructions;
    let skip_len = sampling.window_instructions - micro_len;
    loop {
        for (segment, len) in [(Segment::Record, micro_len), (Segment::Skip, skip_len)] {
            let mut done = 0u64;
            while done < len {
                let mut uops = spares.try_recv().unwrap_or_default();
                uops.clear();
                let want = (len - done).min(CHUNK_INSTRUCTIONS) as usize;
                let instructions = source.fill(&mut uops, want) as u64;
                if instructions == 0 {
                    return;
                }
                done += instructions;
                let closes_window = done == len && (segment == Segment::Skip || skip_len == 0);
                let chunk = Chunk {
                    uops,
                    instructions,
                    segment,
                    closes_window,
                };
                if chunks.send(chunk).is_err() {
                    return;
                }
            }
        }
    }
}

/// The analysing stage: fold every chunk into one [`Pass`] in stream
/// order, closing a micro-trace wherever a chunk says its window ends, and
/// the open one when the stream ends.
fn analyse(
    config: &ProfilerConfig,
    name: &str,
    chunks: Receiver<Chunk>,
    spent: Sender<Vec<MicroOp>>,
) -> ApplicationProfile {
    let mut pass = Pass::new(config);
    let mut trace_uops: Vec<MicroOp> = Vec::with_capacity(2048);
    let mut trace_dists: Vec<(u32, Option<u64>)> = Vec::new();
    let (mut recorded, mut skipped) = (0u64, 0u64);
    for chunk in chunks {
        match chunk.segment {
            Segment::Record => {
                pass.consume(&chunk.uops, Some((&mut trace_uops, &mut trace_dists)));
                recorded += chunk.instructions;
            }
            Segment::Skip => {
                pass.consume(&chunk.uops, None);
                skipped += chunk.instructions;
            }
        }
        // The generating stage may already be done and gone.
        let _ = spent.send(chunk.uops);
        if chunk.closes_window {
            pass.finish_micro_trace(&trace_uops, &trace_dists, recorded, skipped);
            trace_uops.clear();
            trace_dists.clear();
            (recorded, skipped) = (0, 0);
        }
    }
    pass.finish_micro_trace(&trace_uops, &trace_dists, recorded, skipped);
    pass.finish(name, config)
}

/// All streaming state of one profiling pass.
struct Pass {
    // Global (full-stream) statistics.
    full_mix: InstructionMix,
    mem_recorder: ReuseRecorder,
    loads_hist: ReuseHistogram,
    stores_hist: ReuseHistogram,
    inst_recorder: ReuseRecorder,
    inst_hist: ReuseHistogram,
    last_inst_line: u64,
    inst_line_accesses: u64,
    entropy: EntropyProfiler,
    cold_positions: Vec<u64>,
    window_cold: u64,
    window_cold_stores: u64,
    total_instructions: u64,
    total_uops: u64,
    total_loads: u64,
    total_stores: u64,
    total_branches: u64,
    line_shift: u32,
    // Per-micro-trace scratch + outputs.
    micro_traces: Vec<MicroTraceProfile>,
    profiled_instructions: u64,
    rob_grid: Vec<u32>,
    load_dep_window: u32,
    max_strides: usize,
    entropy_bits: u32,
}

impl Pass {
    fn new(cfg: &ProfilerConfig) -> Pass {
        Pass {
            full_mix: InstructionMix::new(),
            mem_recorder: ReuseRecorder::new(),
            loads_hist: ReuseHistogram::new(),
            stores_hist: ReuseHistogram::new(),
            inst_recorder: ReuseRecorder::new(),
            inst_hist: ReuseHistogram::new(),
            last_inst_line: u64::MAX,
            inst_line_accesses: 0,
            entropy: EntropyProfiler::new(cfg.entropy_history_bits),
            cold_positions: Vec::new(),
            window_cold: 0,
            window_cold_stores: 0,
            total_instructions: 0,
            total_uops: 0,
            total_loads: 0,
            total_stores: 0,
            total_branches: 0,
            line_shift: cfg.line_bytes.trailing_zeros(),
            micro_traces: Vec::new(),
            profiled_instructions: 0,
            rob_grid: cfg.rob_grid.clone(),
            load_dep_window: cfg.load_dep_window,
            max_strides: cfg.max_strides_tracked,
            entropy_bits: cfg.entropy_history_bits,
        }
    }

    /// Process a chunk. When `capture` is given (recording segment), μops
    /// are appended to the micro-trace buffer and per-load reuse distances
    /// are captured alongside.
    fn consume(&mut self, uops: &[MicroOp], mut capture: Option<CaptureTarget<'_>>) {
        for u in uops {
            if u.begins_instruction {
                self.total_instructions += 1;
                // The I-cache sees one access per fetch-line *transition*
                // (sequential fetch within a line is free), so reuse
                // distances are measured on the line-access stream.
                let line = u.pc >> self.line_shift;
                if line != self.last_inst_line {
                    self.last_inst_line = line;
                    self.inst_line_accesses += 1;
                    match self.inst_recorder.observe(line) {
                        Some(d) => self.inst_hist.record(d),
                        None => self.inst_hist.record_cold(),
                    }
                }
            }
            self.full_mix.record(u);
            match u.class {
                UopClass::Load | UopClass::Store => {
                    let line = u.addr >> self.line_shift;
                    let dist = self.mem_recorder.observe(line);
                    match u.class {
                        UopClass::Load => {
                            self.total_loads += 1;
                            match dist {
                                Some(d) => self.loads_hist.record(d),
                                None => self.loads_hist.record_cold(),
                            }
                        }
                        _ => {
                            self.total_stores += 1;
                            match dist {
                                Some(d) => self.stores_hist.record(d),
                                None => self.stores_hist.record_cold(),
                            }
                        }
                    }
                    if dist.is_none() {
                        if u.class == UopClass::Load {
                            self.cold_positions.push(self.total_uops);
                            self.window_cold += 1;
                        } else {
                            self.window_cold_stores += 1;
                        }
                    }
                    if let Some((buf, dists)) = capture.as_mut().map(|(a, b)| (&mut **a, &mut **b))
                    {
                        dists.push((buf.len() as u32, dist));
                    }
                }
                UopClass::Branch => {
                    self.total_branches += 1;
                    self.entropy.record(u.static_id, u.taken);
                }
                _ => {}
            }
            if let Some((buf, _)) = capture.as_mut().map(|(a, b)| (&mut **a, &mut **b)) {
                buf.push(*u);
            }
            self.total_uops += 1;
        }
    }

    /// Close the current micro-trace and push its profile. An empty one
    /// (the stream ended on a window boundary) pushes nothing.
    fn finish_micro_trace(
        &mut self,
        uops: &[MicroOp],
        load_dists: &[(u32, Option<u64>)],
        recorded: u64,
        skipped: u64,
    ) {
        if uops.is_empty() {
            return;
        }
        let mix = InstructionMix::from_uops(uops);
        let deps = DependenceProfile::profile(uops, &self.rob_grid);
        let load_deps = LoadDependenceDistribution::profile(uops, self.load_dep_window as usize);

        // Static load analysis.
        let mut builders: FastHashMap<u64, StaticLoadBuilder> = FastHashMap::default();
        let mut dist_iter = load_dists.iter().peekable();
        let mut loads_hist = ReuseHistogram::new();
        let mut stores_hist = ReuseHistogram::new();
        let mut cold_misses = 0u64;
        let mut trace_entropy = EntropyProfiler::new(self.entropy_bits.min(4));
        for (pos, u) in uops.iter().enumerate() {
            match u.class {
                UopClass::Load => {
                    let dist = match dist_iter.peek() {
                        Some(&&(p, d)) if p as usize == pos => {
                            dist_iter.next();
                            d
                        }
                        _ => None,
                    };
                    match builders.entry(u.static_id) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().recur(pos as u32, u.addr)
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(StaticLoadBuilder::new(
                                u.static_id,
                                pos as u32,
                                u.addr,
                                self.max_strides,
                            ));
                        }
                    }
                    builders
                        .get_mut(&u.static_id)
                        .expect("just inserted")
                        .record_reuse(dist);
                    match dist {
                        Some(d) => loads_hist.record(d),
                        None => {
                            loads_hist.record_cold();
                            cold_misses += 1;
                        }
                    }
                }
                UopClass::Store => {
                    let dist = match dist_iter.peek() {
                        Some(&&(p, d)) if p as usize == pos => {
                            dist_iter.next();
                            d
                        }
                        _ => None,
                    };
                    match dist {
                        Some(d) => stores_hist.record(d),
                        None => stores_hist.record_cold(),
                    }
                }
                UopClass::Branch => {
                    trace_entropy.record(u.static_id, u.taken);
                }
                _ => {}
            }
        }

        let mut static_loads: Vec<_> = builders.into_values().map(|b| b.finish()).collect();
        static_loads.sort_by_key(|l| l.first_pos);

        let window_cold_misses = self.window_cold;
        self.window_cold = 0;
        let window_cold_store_misses = self.window_cold_stores;
        self.window_cold_stores = 0;
        let index = self.micro_traces.len() as u64;
        let start_instruction = self.total_instructions - recorded - skipped;
        self.profiled_instructions += recorded;
        self.micro_traces.push(MicroTraceProfile {
            index,
            start_instruction,
            instructions: recorded,
            weight_instructions: recorded + skipped,
            uops: uops.len() as u64,
            mix,
            deps,
            load_deps,
            static_loads,
            loads: loads_hist,
            stores: stores_hist,
            branch_entropy: trace_entropy.entropy(),
            branches: trace_entropy.branches(),
            cold_misses,
            window_cold_misses,
            window_cold_store_misses,
        });
    }

    fn finish(self, name: &str, cfg: &ProfilerConfig) -> ApplicationProfile {
        // Aggregate sampled mix.
        let mut mix = InstructionMix::new();
        for t in &self.micro_traces {
            mix.merge(&t.mix);
        }
        // Aggregate dependence chains, weighted by instructions.
        let deps = if self.micro_traces.is_empty() {
            DependenceProfile::profile(&[], &cfg.rob_grid)
        } else {
            let pairs: Vec<(&DependenceProfile, f64)> = self
                .micro_traces
                .iter()
                .map(|t| (&t.deps, t.instructions as f64))
                .collect();
            DependenceProfile::weighted_average(&pairs)
        };
        // Aggregate f(ℓ), weighted by load counts.
        let load_deps = average_load_deps(&self.micro_traces);

        let upi = if mix.instructions() > 0 {
            mix.uops_per_instruction()
        } else {
            self.full_mix.uops_per_instruction()
        };
        let total_uops_estimate = self.total_instructions as f64 * upi;

        let branch = BranchProfile {
            entropy: self.entropy.entropy(),
            branches_per_instruction: if self.total_instructions == 0 {
                0.0
            } else {
                self.total_branches as f64 / self.total_instructions as f64
            },
            branches: self.total_branches,
            static_branches: self.entropy.static_branches() as u64,
        };

        let cold =
            ColdMissProfile::from_positions(&self.cold_positions, self.total_uops, &cfg.rob_grid);
        let memory = MemoryProfile {
            inst_accesses_per_instruction: if self.total_instructions == 0 {
                0.0
            } else {
                self.inst_line_accesses as f64 / self.total_instructions as f64
            },
            loads: self.loads_hist,
            stores: self.stores_hist,
            inst: self.inst_hist,
            cold,
            loads_per_uop: if self.total_uops == 0 {
                0.0
            } else {
                self.total_loads as f64 / self.total_uops as f64
            },
            stores_per_uop: if self.total_uops == 0 {
                0.0
            } else {
                self.total_stores as f64 / self.total_uops as f64
            },
        };

        ApplicationProfile {
            name: name.to_string(),
            sampling: cfg.sampling,
            total_instructions: self.total_instructions,
            profiled_instructions: self.profiled_instructions,
            total_uops: total_uops_estimate,
            mix,
            full_mix: self.full_mix,
            deps,
            load_deps,
            branch,
            memory,
            micro_traces: self.micro_traces,
        }
    }
}

/// Load-count-weighted average of the per-trace f(ℓ) distributions.
fn average_load_deps(traces: &[MicroTraceProfile]) -> LoadDependenceDistribution {
    let mut acc: Vec<f64> = Vec::new();
    let mut weight = 0.0;
    let mut lpw = 0.0;
    for t in traces {
        let w = t.mix.count(UopClass::Load) as f64;
        if w == 0.0 {
            continue;
        }
        for (l, f) in t.load_deps.iter() {
            if acc.len() < l {
                acc.resize(l, 0.0);
            }
            acc[l - 1] += f * w;
        }
        lpw += t.load_deps.loads_per_window * w;
        weight += w;
    }
    if weight == 0.0 {
        return LoadDependenceDistribution::from_fractions(vec![1.0], 0.0);
    }
    for f in acc.iter_mut() {
        *f /= weight;
    }
    LoadDependenceDistribution::from_fractions(acc, lpw / weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProfilerConfig;
    use pmt_workloads::{WorkloadSpec, WorkloadTrace};
    use std::time::Duration;

    fn profile_of(name: &str, n: u64) -> ApplicationProfile {
        let spec = WorkloadSpec::by_name(name).expect("suite member");
        Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(n))
    }

    #[test]
    fn covers_whole_stream() {
        let p = profile_of("astar", 20_000);
        assert_eq!(p.total_instructions, 20_000);
        assert_eq!(p.micro_traces.len(), 4);
        assert_eq!(p.profiled_instructions, 4 * 500);
        let weight: u64 = p.micro_traces.iter().map(|t| t.weight_instructions).sum();
        assert_eq!(weight, 20_000);
    }

    #[test]
    fn sampled_mix_matches_full_mix() {
        let p = profile_of("gcc", 50_000);
        let errs = p.mix.sampling_error(&p.full_mix);
        for (i, e) in errs.iter().enumerate() {
            assert!(
                *e < 0.05,
                "class {} sampling error {e}",
                pmt_trace::UopClass::from_index(i)
            );
        }
    }

    #[test]
    fn upi_matches_spec() {
        let p = profile_of("lbm", 30_000);
        let spec = WorkloadSpec::by_name("lbm").unwrap();
        assert!((p.uops_per_instruction() - spec.uops_per_instruction).abs() < 0.06);
    }

    #[test]
    fn chains_grow_with_rob() {
        let p = profile_of("mcf", 30_000);
        assert!(p.deps.cp(256) > p.deps.cp(16));
        assert!(p.deps.ap(128) >= 1.0);
        assert!(p.deps.cp(128) >= p.deps.ap(128), "CP ≥ AP always");
    }

    #[test]
    fn pointer_chasing_has_deeper_load_deps() {
        let mcf = profile_of("mcf", 30_000);
        let namd = profile_of("namd", 30_000);
        assert!(
            mcf.load_deps.mean_depth() > namd.load_deps.mean_depth(),
            "mcf {} vs namd {}",
            mcf.load_deps.mean_depth(),
            namd.load_deps.mean_depth()
        );
    }

    #[test]
    fn noisy_branches_have_higher_entropy() {
        let gobmk = profile_of("gobmk", 30_000);
        let hmmer = profile_of("hmmer", 30_000);
        assert!(
            gobmk.branch.entropy > hmmer.branch.entropy,
            "gobmk {} vs hmmer {}",
            gobmk.branch.entropy,
            hmmer.branch.entropy
        );
    }

    #[test]
    fn streaming_workload_has_cold_misses() {
        let p = profile_of("libquantum", 30_000);
        assert!(p.memory.cold.total_cold() > 100);
        assert!(p.memory.loads.cold_fraction() > 0.05);
    }

    #[test]
    fn static_loads_are_classified() {
        let p = profile_of("milc", 30_000);
        let all: usize = p.micro_traces.iter().map(|t| t.static_loads.len()).sum();
        assert!(all > 0);
        let strided: usize = p
            .micro_traces
            .iter()
            .flat_map(|t| &t.static_loads)
            .filter(|l| l.category.is_strided())
            .count();
        assert!(strided > 0, "milc must expose strided loads");
    }

    #[test]
    fn exhaustive_profile_has_identical_mixes() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let p = Profiler::new(ProfilerConfig::exhaustive(5_000))
            .profile_named("astar", &mut spec.trace(10_000));
        assert_eq!(p.mix, p.full_mix);
        assert_eq!(p.profiled_instructions, p.total_instructions);
    }

    /// A source that fails on its fourth fill, after three chunks.
    struct FailingSource {
        inner: WorkloadTrace,
        fills: u32,
    }

    impl TraceSource for FailingSource {
        fn fill(&mut self, buf: &mut Vec<MicroOp>, max_instructions: usize) -> usize {
            self.fills += 1;
            if self.fills > 3 {
                panic!("source failed");
            }
            self.inner.fill(buf, max_instructions)
        }

        fn skip(&mut self, n: u64) -> u64 {
            self.inner.skip(n)
        }
    }

    #[test]
    fn a_failing_source_fails_the_profile_instead_of_hanging() {
        let (done, outcome) = mpsc::channel();
        // The call runs on a helper thread so that a hang fails the test
        // at the timeout rather than stalling the suite.
        let helper = thread::spawn(move || {
            let mut source = FailingSource {
                inner: WorkloadSpec::by_name("astar").unwrap().trace(50_000),
                fills: 0,
            };
            let profiler = Profiler::new(ProfilerConfig::fast_test());
            let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                profiler.profile_named("astar", &mut source)
            }));
            let _ = done.send(result.map(|p| p.total_instructions));
        });
        let result = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("the profile hung instead of re-raising the source's panic");
        helper.join().expect("the helper catches the panic");
        let payload = result.expect_err("a failing source must fail the profile");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"source failed"));
    }
}
