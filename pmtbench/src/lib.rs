//! The PMT benchmark: four seeded workloads, from suite profiling to
//! served predicts, driven through the library's public API.
//!
//! A run sets its workload up several times (reporting the median as
//! `setup_s`), measures for a fixed number of seconds, then checks the
//! outputs against an independent in-process path outside the timed
//! phase. An untraced run reports the end-to-end metrics; a traced run
//! reports the per-layer metrics from spans the benchmark records around
//! its calls into each layer (see `README.md`).

pub mod calib;
pub mod client;
pub mod inputs;
pub mod stats;
pub mod trace;
mod workloads;

use calib::Calibration;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Span, Tracer};

/// Calibration bursts taken before and after each set-up, and before and
/// after the timed phase.
const BRACKET_BURSTS: usize = 4;

/// End-to-end metrics: every workload reports every one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, named `<layer>.<metric>`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("profiler.profile_ms", "ms"),
    ("profiler.instr_per_s", "1/s"),
    ("api.profile_serialize_ms", "ms"),
    ("api.profile_parse_ms", "ms"),
    ("api.request_parse_us", "us"),
    ("api.response_serialize_us", "us"),
    ("core.prepare_ms", "ms"),
    ("core.arena_build_ms", "ms"),
    ("core.point_us", "us"),
    ("core.batch_point_us", "us"),
    ("core.memo_hit_ratio", "ratio"),
    ("power.point_us", "us"),
    ("dse.explore_s", "s"),
    ("dse.fold_self_frac", "ratio"),
    ("serve.http_read_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.register_ms", "ms"),
    ("serve.compute_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.flights", "count"),
    ("serve.batch_mean_size", "count"),
    ("serve.batched_frac", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_frac", "ratio"),
    ("client.predict_p50_ms", "ms"),
    ("client.predict_p99_ms", "ms"),
    ("client.explore_p50_ms", "ms"),
    ("client.explore_p90_ms", "ms"),
    ("client.register_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SuiteProfile,
    FrontierSweep,
    ServePredict,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SuiteProfile,
        Workload::FrontierSweep,
        Workload::ServePredict,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteProfile => "suite_profile",
            Workload::FrontierSweep => "frontier_sweep",
            Workload::ServePredict => "serve_predict",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Cores the workload keeps busy: the sweep is parallel, the rest
    /// run one thread at a time.
    pub fn cores(self) -> usize {
        match self {
            Workload::FrontierSweep => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does. [`Scale::full`] is the benchmark;
/// [`Scale::smoke`] runs the same code paths in a second or two.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Instructions per profile (CLI sampling: 1k-instruction
    /// micro-traces every n/100 instructions).
    pub instructions: u64,
    /// Suite members `suite_profile` cycles through.
    pub suite_len: usize,
    /// Suite members whose outputs are re-derived independently.
    pub suite_checks: usize,
    /// Space `frontier_sweep` explores.
    pub frontier_space: &'static str,
    /// Space the daemon's predict machines are drawn from.
    pub predict_space: &'static str,
    /// Space `serve_mixed` explores.
    pub explore_space: &'static str,
    /// Distinct predicts in `serve_mixed`'s pool (above the 64-entry
    /// response cache).
    pub predict_pool: usize,
    /// Profile uploads in one `serve_mixed` phase (the registry admits 64
    /// profiles; a traced run has two phases).
    pub uploads: u64,
    /// Suite profiles the uploads are renamed copies of.
    pub upload_bases: usize,
    /// Times each run sets its workload up (`setup_s` is the median).
    pub setup_repeats: usize,
    /// Most served predicts checked byte for byte per run.
    pub verify_predicts: usize,
    /// Most distinct served explores checked byte for byte per run.
    pub verify_explores: usize,
    /// Requests replayed through the in-process serve path when traced.
    pub replay: usize,
    /// Design points the traced fold/kernel split is measured over.
    pub fold_probe_points: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            instructions: 1_000_000,
            suite_len: pmt_workloads::SUITE.len(),
            suite_checks: 3,
            frontier_space: "big",
            predict_space: "big",
            explore_space: "thesis",
            predict_pool: 160,
            uploads: 24,
            upload_bases: 2,
            setup_repeats: 3,
            verify_predicts: 1_500,
            verify_explores: 12,
            replay: 200,
            fold_probe_points: 8_192,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            instructions: 20_000,
            suite_len: 3,
            suite_checks: 1,
            frontier_space: "small",
            predict_space: "small",
            explore_space: "small",
            predict_pool: 24,
            uploads: 2,
            upload_bases: 1,
            setup_repeats: 2,
            verify_predicts: 50,
            verify_explores: 4,
            replay: 10,
            fold_probe_points: 16,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One measured metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: the result line's fields, plus record details.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs for the record line.
    pub record: Vec<(String, String)>,
    /// Every span of a traced run.
    pub spans: Vec<Span>,
}

/// What the timed phase produced.
#[derive(Debug)]
pub(crate) struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// The workload's operations per second (see README), scaled to the
    /// reference host's speed.
    pub rate: f64,
    /// Median latency of one call, scaled to the reference host's speed;
    /// a failed call counts as infinitely slow.
    pub p50_ms: f64,
    /// `rate` and `p50_ms` as the wall clock read them.
    pub host_rate: f64,
    pub host_p50_ms: f64,
    pub elapsed_s: f64,
}

impl Measured {
    /// The medians over every call of the phase, timed (`latencies_ms`)
    /// and scaled to the reference host (`scaled_ms`).
    pub fn pooled(
        attempted: u64,
        (rate, host_rate): (f64, f64),
        scaled_ms: &[f64],
        latencies_ms: &[f64],
        elapsed_s: f64,
    ) -> Measured {
        Measured {
            attempted,
            failed: 0,
            rate,
            p50_ms: stats::quantile(scaled_ms, 0.50),
            host_rate,
            host_p50_ms: stats::quantile(latencies_ms, 0.50),
            elapsed_s,
        }
    }
}

/// Output checks made outside the timed phase.
#[derive(Debug, Default)]
pub(crate) struct Checked {
    pub checks: u64,
    pub mismatches: u64,
}

impl Checked {
    /// Count one check; a failed one is reported on stderr with the
    /// line that made it.
    #[track_caller]
    pub fn expect(&mut self, ok: bool) {
        self.checks += 1;
        if !ok {
            self.mismatches += 1;
            eprintln!(
                "pmtbench: output mismatch (check at {})",
                std::panic::Location::caller()
            );
        }
    }
}

/// Per-layer values a workload supplies beyond what its spans give.
#[derive(Debug, Default)]
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// Shared run context.
pub(crate) struct Ctx<'a> {
    pub seed: u64,
    pub scale: &'a Scale,
    pub tracer: &'a Tracer,
    /// Workloads tick it between operations.
    pub calib: &'a Calibration,
}

/// One workload's phases.
pub(crate) trait Bench: Sized {
    /// Everything before timing begins: profiles, prepare, daemon.
    fn setup(ctx: &Ctx) -> Result<Self, String>;
    /// Run the timed phase for `seconds`.
    fn measure(&mut self, ctx: &Ctx, seconds: f64) -> Result<Measured, String>;
    /// Check every output recorded so far.
    fn verify(&mut self, ctx: &Ctx) -> Result<Checked, String>;
    /// Probes and counters for the per-layer metrics, after the traced
    /// phase (the tracer is on).
    fn layers(&mut self, ctx: &Ctx, layers: &mut Layers) -> Result<Checked, String>;
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload {
        Workload::SuiteProfile => drive::<workloads::suite::Suite>(opts),
        Workload::FrontierSweep => drive::<workloads::frontier::Frontier>(opts),
        Workload::ServePredict => drive::<workloads::serve::Serve<false>>(opts),
        Workload::ServeMixed => drive::<workloads::serve::Serve<true>>(opts),
    }
}

fn drive<B: Bench>(opts: &Opts) -> Result<Outcome, String> {
    let tracer = Tracer::new(opts.trace);
    let calib = Calibration::new(!opts.trace);
    let ctx = Ctx {
        seed: opts.seed,
        scale: &opts.scale,
        tracer: &tracer,
        calib: &calib,
    };
    let mut setups = Vec::new();
    let mut bench = None;
    calib.sample(BRACKET_BURSTS);
    for _ in 0..opts.scale.setup_repeats.max(1) {
        drop(bench.take());
        let started = Instant::now();
        bench = Some(B::setup(&ctx)?);
        setups.push((started.elapsed().as_secs_f64(), Instant::now()));
        calib.sample(BRACKET_BURSTS);
    }
    let host_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let setup_s = stats::median(
        &setups
            .iter()
            .map(|&(s, ended)| calib.scale_ms(s * 1e3, ended) / 1e3)
            .collect::<Vec<_>>(),
    );
    let mut bench = bench.expect("at least one setup ran");
    let mut record = vec![("setup_samples_s".to_string(), format!("{host_setups:?}"))];

    if !opts.trace {
        calib.set_threads(opts.workload.cores());
        let timed_mark = calib.mark();
        calib.sample(BRACKET_BURSTS);
        let faults = stats::minor_faults();
        let m = bench.measure(&ctx, opts.seconds)?;
        let faults = stats::minor_faults() - faults;
        calib.sample(BRACKET_BURSTS);
        let bursts: Vec<String> = calib.bursts().iter().map(|ms| format!("{ms:.3}")).collect();
        record.extend([
            (
                "calibration_bursts_ms".to_string(),
                format!("[{}]", bursts.join(", ")),
            ),
            (
                "timed_slowdown".to_string(),
                calib.slowdown_since(timed_mark).to_string(),
            ),
            (
                "host_setup_s".to_string(),
                stats::median(&host_setups).to_string(),
            ),
            ("host_ops_per_s".to_string(), m.host_rate.to_string()),
            ("host_call_p50_ms".to_string(), m.host_p50_ms.to_string()),
        ]);
        let checked = bench.verify(&ctx)?;
        record.extend(sample_record("timed", &m, &checked));
        record.push(("timed_minor_faults".to_string(), faults.to_string()));
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: match name {
                    "setup_s" => setup_s,
                    "ops_per_s" => m.rate,
                    "call_p50_ms" => m.p50_ms,
                    "peak_rss_mb" => stats::peak_rss_mb(),
                    other => unreachable!("unlisted end-to-end metric {other}"),
                },
            })
            .collect();
        return Ok(Outcome {
            attempted: m.attempted,
            failed: m.failed + checked.mismatches,
            metrics,
            record,
            spans: Vec::new(),
        });
    }

    // Traced: half the time untraced, half traced, so the difference is
    // the tracing overhead; the per-layer numbers come from the traced
    // half and the probes after it.
    tracer.set_on(false);
    let plain = bench.measure(&ctx, opts.seconds / 2.0)?;
    tracer.set_on(true);
    let traced = bench.measure(&ctx, opts.seconds / 2.0)?;
    let mut layers = Layers::default();
    let probed = bench.layers(&ctx, &mut layers)?;
    tracer.set_on(false);
    let checked = bench.verify(&ctx)?;
    record.extend(sample_record("untraced", &plain, &Checked::default()));
    record.extend(sample_record("traced", &traced, &checked));
    layers.set(
        "trace.overhead_pct",
        if traced.rate > 0.0 {
            (plain.rate / traced.rate - 1.0) * 100.0
        } else {
            0.0
        },
    );
    let spans = tracer.spans();
    let metrics = layer_metrics(&spans, &layers);
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + checked.mismatches + probed.mismatches,
        metrics,
        record,
        spans,
    })
}

fn sample_record(phase: &str, m: &Measured, checked: &Checked) -> Vec<(String, String)> {
    vec![
        (format!("{phase}_operations"), m.attempted.to_string()),
        (format!("{phase}_failed"), m.failed.to_string()),
        (format!("{phase}_seconds"), format!("{:.3}", m.elapsed_s)),
        (format!("{phase}_output_checks"), checked.checks.to_string()),
        (
            format!("{phase}_mismatches"),
            checked.mismatches.to_string(),
        ),
    ]
}

/// Every per-layer metric: span-derived timings plus the values the
/// workload set; 0 for a layer this workload never called.
fn layer_metrics(spans: &[Span], layers: &Layers) -> Vec<Metric> {
    use trace::by_name;
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let profile = by_name(spans, "profiler.profile");
    let power_point = by_name(spans, "power.point");
    let power_batch = by_name(spans, "power.batch");
    let power_items = power_batch.count + power_point.durations.len() as u64;
    let from_spans = |name: &str| -> Option<f64> {
        Some(match name {
            "profiler.profile_ms" => profile.median(MS),
            "profiler.instr_per_s" => {
                if profile.total_ns == 0 {
                    0.0
                } else {
                    profile.count as f64 / (profile.total_ns as f64 / 1e9)
                }
            }
            "api.profile_serialize_ms" => by_name(spans, "api.profile_serialize").median(MS),
            "api.profile_parse_ms" => by_name(spans, "api.profile_parse").median(MS),
            "api.request_parse_us" => by_name(spans, "api.request_parse").median(US),
            "api.response_serialize_us" => by_name(spans, "api.response_serialize").median(US),
            "core.prepare_ms" => by_name(spans, "core.prepare").median(MS),
            "core.arena_build_ms" => by_name(spans, "core.batch_new").median(MS),
            "core.point_us" => by_name(spans, "core.point").median(US),
            "core.batch_point_us" => by_name(spans, "core.predict_batch").per_item(US),
            "power.point_us" => {
                if power_items == 0 {
                    0.0
                } else {
                    (power_batch.total_ns + power_point.total_ns) as f64 / power_items as f64 / US
                }
            }
            "dse.explore_s" => by_name(spans, "dse.explore").median(1e9),
            "serve.http_read_us" => by_name(spans, "serve.read_request").median(US),
            "serve.http_write_us" => by_name(spans, "serve.write_to").median(US),
            "serve.register_ms" => by_name(spans, "serve.register").median(MS),
            _ => return None,
        })
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layers
                .0
                .get(name)
                .copied()
                .or_else(|| from_spans(name))
                .unwrap_or(0.0),
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                stats::json_str(m.name),
                json_number(m.value),
                stats::json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// A finite number with every digit Rust's shortest round-trip format
/// gives; non-finite values (which the smoke test forbids) become null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
