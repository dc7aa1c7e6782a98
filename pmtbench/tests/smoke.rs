//! Every workload, traced and untraced, at a tiny scale: every named
//! metric is present and finite, and no operation fails. Also the
//! binary's usage errors and the host-speed calibration.

use pmtbench::calib::Calibration;
use pmtbench::{result_line, run, Metric, Opts, Scale, Workload, END_TO_END, PER_LAYER};

/// Runs `workload` untraced, then traced; returns the per-layer metrics.
fn smoke(workload: Workload) -> Vec<Metric> {
    let mut layers = Vec::new();
    for trace in [false, true] {
        let opts = Opts {
            workload,
            seed: 3,
            seconds: 0.4,
            trace,
            scale: Scale::smoke(),
        };
        let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            outcome.attempted >= 1,
            "{} attempted nothing",
            workload.name()
        );
        assert_eq!(
            outcome.failed,
            0,
            "{} trace={trace} failed operations",
            workload.name()
        );
        let expected = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, wanted);
        for m in &outcome.metrics {
            assert!(
                m.value.is_finite(),
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
            if !trace {
                assert!(
                    m.value > 0.0,
                    "{} {} is not positive",
                    workload.name(),
                    m.name
                );
            }
        }
        assert!(result_line(&outcome).starts_with("{\"correct\": true, \"attempted\": "));
        layers = outcome.metrics;
    }
    layers
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn suite_profile_smoke() {
    smoke(Workload::SuiteProfile);
}

#[test]
fn frontier_sweep_smoke() {
    smoke(Workload::FrontierSweep);
}

#[test]
fn serve_predict_smoke() {
    // The default daemon runs every predict as a batch flight, so the
    // replay must time the arena build and the batched kernel.
    let layers = smoke(Workload::ServePredict);
    for name in [
        "core.arena_build_ms",
        "core.batch_point_us",
        "core.point_us",
    ] {
        assert!(value(&layers, name) > 0.0, "serve_predict {name} is 0");
    }
}

#[test]
fn serve_mixed_smoke() {
    smoke(Workload::ServeMixed);
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_pmtbench"))
        .args([
            "--workload",
            "serve_predict",
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing --trace"), "{stderr}");
}

#[test]
fn calibration_scales_only_when_on() {
    let off = Calibration::new(false);
    off.sample(3);
    assert!(off.bursts().is_empty());
    assert_eq!(off.slowdown_since(off.mark()), 1.0);
    assert_eq!(off.scale_ms(12.5, std::time::Instant::now()), 12.5);

    let on = Calibration::new(true);
    let mark = on.mark();
    on.sample(3);
    on.set_threads(2);
    on.sample(2);
    assert_eq!(on.bursts().len(), 5);
    let slowdown = on.slowdown_since(mark);
    assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    assert!(on.spent_since(mark) > 0.0);
    let scaled = on.scale_ms(12.5, std::time::Instant::now());
    assert!(scaled.is_finite() && scaled > 0.0, "{scaled}");
    assert_eq!(
        on.scale_ms(f64::INFINITY, std::time::Instant::now()),
        f64::INFINITY
    );
    assert_eq!(on.slowdown_since(on.mark()), 1.0);
}
