//! The one-time, machine-independent compilation of an
//! [`ApplicationProfile`] — fit once, predict the whole design space.
//!
//! The paper's headline claim is that design-space exploration is fast
//! *because* profiling is micro-architecture independent: profile once,
//! predict many. [`PreparedProfile`] makes the "once" part explicit. It
//! precomputes the per-window μop class counts, entropy fallbacks and
//! the stride-MLP virtual-stream skeletons, and owns the profile's curve
//! arena: every StatStack model the interval model will ever query (the
//! instruction path, the global load/store histograms for combined mode,
//! and each micro-trace's load/store pair) fitted once, in query order
//! (`kernels::arena`) — all of which depend only on the profile. It is
//! shared read-only, so rayon workers evaluating different design
//! points never refit or copy any of it.
//!
//! The arena is built lazily, on the first prediction, behind a
//! `OnceLock` — a prepared profile that is never predicted (a registered
//! upload nobody queries yet) never fits a curve, and every later
//! prediction, sweep chunk, DVFS sweep and served flight borrows the
//! same one.
//!
//! Per design point, [`IntervalModel::predict_prepared`] then performs
//! only the machine-*dependent* work: branchless miss-ratio /
//! critical-reuse-distance searches over the arena plus the Eq 3.1
//! arithmetic.
//!
//! ```
//! use pmt_core::{IntervalModel, PreparedProfile};
//! use pmt_profiler::{Profiler, ProfilerConfig};
//! use pmt_uarch::{DesignSpace, MachineConfig};
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("astar").unwrap();
//! let profile = Profiler::new(ProfilerConfig::fast_test())
//!     .profile_named("astar", &mut spec.trace(20_000));
//! let prepared = PreparedProfile::new(&profile); // fit once...
//! for point in DesignSpace::small().enumerate() {
//!     // ...query many: bit-identical to `predict`, far cheaper.
//!     let summary = IntervalModel::new(&point.machine).predict_summary(&prepared);
//!     assert!(summary.cpi() > 0.0);
//! }
//! ```
//!
//! [`IntervalModel::predict_prepared`]: crate::IntervalModel::predict_prepared

use crate::kernels::arena::CurveArena;
use crate::kernels::batch::MemoPool;
use crate::mlp::VirtualStream;
use pmt_profiler::{ApplicationProfile, StaticLoadProfile};
use pmt_trace::UopClass;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Machine-independent precomputation for one micro-trace window.
pub(crate) struct PreparedWindow {
    /// μop class counts scaled to the window weight.
    pub class_counts: [f64; UopClass::COUNT],
    /// Branch entropy with the too-few-branches fallback applied.
    pub entropy: f64,
    /// Prebuilt virtual-stream skeleton for the stride-MLP model.
    pub stream: VirtualStream,
}

/// A one-time, machine-independent compilation of an
/// [`ApplicationProfile`]: every per-window scalar precomputed, and every
/// StatStack model fitted into the curve arena on first use. It borrows
/// the profile ([`PreparedProfile::new`]) or owns it
/// ([`PreparedProfile::owned`], for a holder such as the daemon's
/// registry that outlives the caller's copy); it is `Sync`, so one
/// instance serves a whole rayon-parallel sweep.
pub struct PreparedProfile<'a> {
    /// The profile, borrowed or owned.
    profile: Cow<'a, ApplicationProfile>,
    /// Per-micro-trace precomputation, parallel to `profile.micro_traces`.
    windows: Vec<PreparedWindow>,
    /// Combined-mode μop class counts.
    combined_class_counts: [f64; UopClass::COUNT],
    /// Combined-mode virtual-stream skeleton: the first micro-trace's
    /// static loads (the stride sample) with the *global* dependence
    /// distribution.
    combined_stream: VirtualStream,
    /// Every fitted StatStack curve, built on the first prediction and
    /// shared by all later ones.
    arena: OnceLock<CurveArena>,
    /// Warm memos bounded predictors left behind, for the next ones.
    memos: MemoPool,
}

impl<'a> PreparedProfile<'a> {
    /// Precompute the machine-independent per-window state of `profile`,
    /// borrowing it; the StatStack fits wait for the first prediction.
    pub fn new(profile: &'a ApplicationProfile) -> PreparedProfile<'a> {
        PreparedProfile::prepare(Cow::Borrowed(profile))
    }

    fn prepare(profile: Cow<'a, ApplicationProfile>) -> PreparedProfile<'a> {
        let windows = profile
            .micro_traces
            .iter()
            .map(|t| {
                let upi = if t.mix.instructions() > 0 {
                    t.mix.uops_per_instruction()
                } else {
                    profile.uops_per_instruction().max(1.0)
                };
                let n_uops = t.weight_instructions as f64 * upi;
                let mut class_counts = [0.0; UopClass::COUNT];
                for c in UopClass::ALL {
                    class_counts[c.index()] = t.mix.fraction(c) * n_uops;
                }
                // Fall back to the global entropy when the micro-trace saw
                // too few branches to estimate its own.
                let entropy = if t.branches >= 64 {
                    t.branch_entropy
                } else {
                    profile.branch.entropy
                };
                PreparedWindow {
                    class_counts,
                    entropy,
                    stream: VirtualStream::build(&t.static_loads, &t.load_deps, t.uops),
                }
            })
            .collect();

        let n_uops = profile.total_uops.max(1.0);
        let mut combined_class_counts = [0.0; UopClass::COUNT];
        for c in UopClass::ALL {
            combined_class_counts[c.index()] = profile.mix.fraction(c) * n_uops;
        }
        // Combined mode samples strides from the first micro-trace but
        // draws dependence depths from the global distribution.
        let (combined_static, combined_uops) = combined_sample(&profile);
        let combined_stream =
            VirtualStream::build(combined_static, &profile.load_deps, combined_uops);
        PreparedProfile {
            windows,
            combined_class_counts,
            combined_stream,
            arena: OnceLock::new(),
            memos: MemoPool::default(),
            profile,
        }
    }

    /// The profile this preparation was compiled from.
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// The curve arena every prediction queries, built on first use.
    pub(crate) fn arena(&self) -> &CurveArena {
        self.arena.get_or_init(|| CurveArena::new(&self.profile))
    }

    /// The warm memos bounded predictors over this profile share.
    pub(crate) fn memos(&self) -> &MemoPool {
        &self.memos
    }

    /// Per-micro-trace precomputations, parallel to
    /// `profile().micro_traces`.
    pub(crate) fn windows(&self) -> &[PreparedWindow] {
        &self.windows
    }

    /// Combined-mode class counts.
    pub(crate) fn combined_class_counts(&self) -> &[f64; UopClass::COUNT] {
        &self.combined_class_counts
    }

    /// Combined-mode stride sample, stream length and skeleton, as one
    /// unit: `combined_stream`'s `owner` indices index into exactly this
    /// slice.
    pub(crate) fn combined_stride_inputs(&self) -> (&[StaticLoadProfile], u64, &VirtualStream) {
        let (static_loads, uops) = combined_sample(&self.profile);
        (static_loads, uops, &self.combined_stream)
    }
}

impl PreparedProfile<'static> {
    /// [`PreparedProfile::new`], owning `profile`: the preparation lives
    /// as long as its holder wants, and dropping it frees the profile.
    pub fn owned(profile: ApplicationProfile) -> PreparedProfile<'static> {
        PreparedProfile::prepare(Cow::Owned(profile))
    }
}

/// The combined-mode stride sample: the first micro-trace's static loads
/// and its stream length (none for a profile without micro-traces).
fn combined_sample(profile: &ApplicationProfile) -> (&[StaticLoadProfile], u64) {
    profile
        .micro_traces
        .first()
        .map(|t| (t.static_loads.as_slice(), t.uops))
        .unwrap_or((&[], 0))
}

// Registries and parallel sweeps share one preparation across threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<PreparedProfile<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchPredictor, IntervalModel, ModelConfig};
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_uarch::MachineConfig;
    use pmt_workloads::WorkloadSpec;

    #[test]
    fn predictors_and_single_points_share_one_lazily_built_arena() {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        let profile = Profiler::new(ProfilerConfig::fast_test())
            .profile_named("astar", &mut spec.trace(20_000));
        let prepared = PreparedProfile::new(&profile);
        assert!(
            prepared.arena.get().is_none(),
            "built before any prediction"
        );

        let machine = MachineConfig::nehalem();
        let single = IntervalModel::new(&machine).predict_summary(&prepared);
        let built = prepared.arena.get().expect("the single point built it");

        let config = ModelConfig::default();
        let mut first = BatchPredictor::new(&prepared, &config);
        let second = BatchPredictor::new(&prepared, &config);
        assert!(std::ptr::eq(first.arena, built));
        assert!(std::ptr::eq(second.arena, built));
        assert_eq!(
            first.predict_summary(&machine).cycles.to_bits(),
            single.cycles.to_bits()
        );
    }
}
