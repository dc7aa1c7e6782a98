//! Experiment harness for the thesis figures and tables (Ch 3–7).
//!
//! Every thesis table and figure is an experiment in the registry — the
//! generated `docs/PAPER_MAP.md` is the index — and `pmt figure NAME…`
//! (or `pmt figure all`) runs it over three layers here:
//!
//! * [`harness`] — common plumbing: suite iteration, smoke/env scale
//!   knobs, entropy-model training, error metrics, and the memoized
//!   reference simulations ([`harness::simulate`]) experiments compare
//!   against,
//! * [`figures`] — one builder per experiment returning typed
//!   [`Figure`](pmt_report::Figure) values, plus the [`figures::REGISTRY`]
//!   that maps every experiment to its paper artifact and the crates it
//!   exercises, and [`run`], the one loop that builds and emits entries,
//! * [`emit`](mod@emit) — the shared output path rendering figures to
//!   stdout text (and, under `PMT_REPORT_DIR`, to SVG/Markdown files).
//!
//! The `pmt report` subcommand drives the same registry to regenerate
//! `docs/REPRODUCTION.md`.

pub mod emit;
pub mod figures;
pub mod harness;
pub mod report_gen;

pub use emit::{emit, emit_all};
pub use figures::{build_entry, by_name, run, select, Experiment, REGISTRY};
pub use harness::{
    evaluate_suite, mean_abs_error, parallel_map, profile_suite, simulate_suite,
    train_entropy_model, Evaluated, HarnessConfig,
};
