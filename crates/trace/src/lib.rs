//! Dynamic micro-operation trace intermediate representation.
//!
//! The analytical model of Van den Steen et al. operates on the *dynamic
//! instruction stream* of an application, decomposed into micro-operations
//! (μops) the way an x86 decoder would (thesis §3.2). This crate defines the
//! trace IR shared by every other crate in the workspace:
//!
//! * [`UopClass`] — the μop taxonomy used by the instruction-mix profile and
//!   the issue-port model (thesis Table 2.1 / Fig 3.5),
//! * [`MicroOp`] — one dynamic μop with register dependences encoded as
//!   backward distances in the μop stream, plus memory address and branch
//!   outcome payloads,
//! * [`TraceSource`] — a streaming producer of instructions (the Pin
//!   equivalent), with fast-forward support for sampled profiling,
//! * [`sampling`] — the micro-trace/window sampling methodology of thesis
//!   §5.1 (e.g. 1k-instruction micro-traces every 1M instructions),
//! * [`mix::InstructionMix`] — μop histograms and the sampling-error metric
//!   of Eq 5.1,
//! * [`FastHashMap`] — the deterministic hash map the profiler's per-event
//!   tables use.
//!
//! # Example
//!
//! ```
//! use pmt_trace::{MicroOp, UopClass, VecTrace, TraceSource};
//!
//! // A two-instruction trace: a load feeding an ALU op.
//! let uops = vec![
//!     MicroOp::load(0x40, 0, 0x1000),
//!     MicroOp::compute(UopClass::IntAlu, 0x44, 0).with_dep1(1),
//! ];
//! let mut trace = VecTrace::new(uops);
//! let mut buf = Vec::new();
//! assert_eq!(trace.fill(&mut buf, 16), 2);
//! assert_eq!(buf[1].dep1, 1); // depends on the load one μop earlier
//! ```

mod hash;
pub mod mix;
pub mod sampling;
mod stream;
mod uop;

pub use hash::{FastHashMap, FastHasher};
pub use mix::InstructionMix;
pub use sampling::{sample_micro_traces, MicroTrace, SamplingConfig};
pub use stream::{collect_trace, count_instructions, TraceSource, VecTrace};
pub use uop::{MicroOp, UopClass};
