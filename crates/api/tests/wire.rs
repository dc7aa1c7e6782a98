//! Wire-schema contract tests: every type on the wire round-trips
//! through the vendored serde bit-for-bit, version mismatches are
//! refused with a structured error, and malformed specs (unknown axes,
//! unknown spaces) come back as [`ErrorBody`]s that name the offender.
//!
//! These are the compatibility guarantees `docs/API.md` documents; the
//! golden snapshots in the facade crate (`tests/wire_golden.rs`) pin the
//! concrete bytes.

use pmt_api::{
    check_schema_version, AxisSpec, ErrorBody, ExploreRequest, ExploreResponse, HealthResponse,
    MachineSpec, MetricsResponse, PredictRequest, PredictResponse, ProfileInfo, ProfilesResponse,
    RegisterProfileRequest, RegisterProfileResponse, ResidualModel, SpaceSpec, StackEntry,
    WIRE_SCHEMA_VERSION,
};
use pmt_dse::{DesignConstraints, Objective, StreamingSweep};
use pmt_profiler::{Profiler, ProfilerConfig};
use pmt_workloads::WorkloadSpec;

/// Serialize, parse back, re-serialize: the bytes must be identical.
/// (Bit-stable serialization is what response caching and the CLI/daemon
/// byte-identity contract stand on.)
fn round_trips<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).unwrap();
    let back: T = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, value, "value drifted through a round trip");
    let again = serde_json::to_string(&back).unwrap();
    assert_eq!(again, json, "bytes drifted through a round trip");
    back
}

#[test]
fn every_request_type_round_trips() {
    round_trips(&PredictRequest::new("mcf", MachineSpec::named("nehalem")));
    round_trips(&PredictRequest::new(
        "mcf",
        MachineSpec::inline(pmt_uarch::MachineConfig::low_power()),
    ));

    let mut explore = ExploreRequest::new("mcf", SpaceSpec::named("big"));
    explore.top_k = 7;
    explore.objective = "edp".to_string();
    explore.constraints = Some(DesignConstraints::new().max_rob(256).max_frequency_ghz(3.2));
    explore.max_power_w = Some(35.0);
    round_trips(&explore);

    let product = SpaceSpec::product(
        Some("low-power"),
        vec![
            AxisSpec::new("w", &[2.0, 4.0]),
            AxisSpec::new("f", &[1.2, 2.66]),
        ],
    );
    round_trips(&ExploreRequest::new("mcf", product));

    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    round_trips(&RegisterProfileRequest::new(profile));
}

/// An unknown field holding 100,000 nested arrays is skipped with a
/// bounded depth: an ordinary parse error, not a stack overflow.
#[test]
fn deeply_nested_unknown_fields_are_an_error() {
    let json =
        serde_json::to_string(&PredictRequest::new("mcf", MachineSpec::named("nehalem"))).unwrap();
    let deep = format!("{{\"junk\":{}{}", "[".repeat(100_000), &json[1..]);
    let err = serde_json::from_str::<PredictRequest>(&deep).unwrap_err();
    assert!(err.to_string().contains("nested"), "{err}");
}

#[test]
fn every_response_type_round_trips() {
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));

    // Deliberately gnarly floats: shortest-round-trip formatting is the
    // hard case for bit-stability.
    let predict = PredictResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        workload: "astar".to_string(),
        machine: "nehalem-ref".to_string(),
        frequency_ghz: 2.66,
        cpi: 5.538_147_569_788_316_5,
        ipc: 0.180_565_791_611_476_12,
        seconds: 1.041_005_182_291_036_8e-4,
        mlp: 7.348_194_657_620_153,
        branch_miss_rate: 0.043_400_139_259_656_81,
        cpi_stack: vec![StackEntry {
            label: "DRAM".to_string(),
            cpi: 4.975_387_166_821_43,
        }],
        power_w: 18.3,
        static_w: 13.8,
        corrected: false,
        corrected_cpi: None,
        corrected_power_w: None,
    };
    let back: PredictResponse = round_trips(&predict);
    assert_eq!(back.cpi.to_bits(), predict.cpi.to_bits());

    // The corrected variant: additive fields populated, analytical
    // fields untouched.
    let mut fused = predict.clone();
    fused.corrected = true;
    fused.corrected_cpi = Some(5.401_223_984_441_107);
    fused.corrected_power_w = Some(17.905_512_880_415_63);
    let back = round_trips(&fused);
    assert_eq!(back.cpi.to_bits(), predict.cpi.to_bits());
    assert_eq!(
        back.corrected_cpi.unwrap().to_bits(),
        fused.corrected_cpi.unwrap().to_bits()
    );

    // A real streaming summary (frontier, top-K, moments) through a
    // genuinely populated ExploreResponse.
    let space = pmt_uarch::DesignSpace::small();
    let summary = StreamingSweep::new(&profile)
        .top_k(3)
        .objective(Objective::Energy)
        .run(&space);
    let explore = ExploreResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        workload: "astar".to_string(),
        space: "small".to_string(),
        objective: "energy".to_string(),
        frontier_machines: summary.frontier.iter().map(|e| e.id.to_string()).collect(),
        top_machines: summary.top.iter().map(|e| e.id.to_string()).collect(),
        summary,
    };
    let back: ExploreResponse = round_trips(&explore);
    assert_eq!(back.summary.evaluated, 32);

    round_trips(&RegisterProfileResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        name: "astar".to_string(),
        total_instructions: 20_000,
        micro_traces: 20,
        replaced: false,
    });
    round_trips(&ProfilesResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        profiles: vec![ProfileInfo {
            name: "astar".to_string(),
            total_instructions: 20_000,
            micro_traces: 20,
        }],
    });
    round_trips(&HealthResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        status: "ok".to_string(),
        profiles: 1,
    });
    round_trips(&StackEntry {
        label: "DRAM".to_string(),
        cpi: 4.975,
    });
    round_trips(&ErrorBody {
        schema_version: WIRE_SCHEMA_VERSION,
        code: "busy".to_string(),
        message: "2 sweeps in flight".to_string(),
        retry_after_s: Some(2),
    });
}

#[test]
fn metrics_response_round_trips() {
    let json = r#"{"schema_version":1,"profiles":1,"requests":4,"predict_requests":0,
        "explore_requests":2,"errors":0,"rejected_busy":0,"coalesced_requests":0,
        "batched_requests":3,"batch_flights":1,"batch_points":4,
        "batch_mean_size":4.0,"failed_requests":0,"flight_leaders":1,
        "response_cache_hits":1,"response_cache_collisions":0,
        "response_cache_entries":1,"points_predicted":32,
        "predict_seconds":0.5,"points_per_s":64.0,"inflight_sweeps":0,
        "max_inflight_sweeps":2,"queue_depth":0,"worker_threads":4,
        "memo":{"cache_entries":2,"cache_hits":6,"cache_misses":2,
        "stride_entries":5,"stride_hits":15,"stride_misses":5,
        "cp_entries":5,"cp_hits":15,"cp_misses":5,
        "branch_entries":5,"branch_hits":15,"branch_misses":5},
        "corrector":{"loaded":true,"corrected_requests":2,"skipped_requests":1}}"#;
    let m: MetricsResponse = serde_json::from_str(json).unwrap();
    assert_eq!(m.points_predicted, 32);
    assert_eq!(m.batched_requests, 3);
    assert_eq!(m.batch_mean_size, 4.0);
    assert_eq!(m.memo.cache_hits, 6);
    assert_eq!(m.memo.branch_misses, 5);
    assert!(m.corrector.loaded);
    assert_eq!(m.corrector.corrected_requests, 2);
    assert_eq!(m.corrector.skipped_requests, 1);
    round_trips(&m);
}

#[test]
fn wrong_corrector_schema_version_is_refused() {
    // A structurally valid artifact claiming a future schema: parsing
    // must fail with the structured `bad_corrector_version` code, not
    // load and mispredict.
    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    let rows: Vec<pmt_ml::TrainingRow> = pmt_uarch::DesignSpace::small()
        .enumerate()
        .into_iter()
        .take(4)
        .map(|p| pmt_ml::TrainingRow {
            workload: "astar".to_string(),
            machine: p.machine,
            model_cpi: 1.0,
            sim_cpi: 1.1,
            model_power: 10.0,
            sim_power: 10.5,
        })
        .collect();
    let model = pmt_ml::train(
        &rows,
        std::slice::from_ref(&profile),
        &pmt_ml::TrainOptions::default(),
    )
    .unwrap();
    // The good artifact loads and round-trips byte-for-byte.
    let json = model.to_json();
    let back = ResidualModel::from_json(&json).unwrap();
    assert_eq!(back.to_json(), json);

    let skewed = json.replacen("\"schema_version\":1", "\"schema_version\":99", 1);
    let err = ResidualModel::from_json(&skewed).unwrap_err();
    assert_eq!(err.code, "bad_corrector_version");
    assert!(err.message.contains("99"), "{}", err.message);

    // Garbage is a structured parse error, not a panic.
    assert_eq!(
        ResidualModel::from_json("{").unwrap_err().code,
        "bad_corrector"
    );
}

#[test]
fn wrong_schema_version_is_refused_everywhere() {
    let err = check_schema_version(WIRE_SCHEMA_VERSION + 1).unwrap_err();
    assert_eq!(err.status, 400);
    assert_eq!(err.body.code, "bad_schema_version");
    assert!(err.body.message.contains(&WIRE_SCHEMA_VERSION.to_string()));

    let mut predict = PredictRequest::new("mcf", MachineSpec::named("nehalem"));
    predict.schema_version = 0;
    assert_eq!(
        predict.check_version().unwrap_err().body.code,
        "bad_schema_version"
    );

    let mut explore = ExploreRequest::new("mcf", SpaceSpec::named("small"));
    explore.schema_version = 99;
    assert_eq!(
        explore.check_version().unwrap_err().body.code,
        "bad_schema_version"
    );

    let spec = WorkloadSpec::by_name("astar").unwrap();
    let profile =
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(20_000));
    let mut register = RegisterProfileRequest::new(profile);
    register.schema_version = 2;
    assert_eq!(
        register.check_version().unwrap_err().body.code,
        "bad_schema_version"
    );
}

#[test]
fn unknown_axis_is_a_structured_error_naming_the_axis() {
    let spec = SpaceSpec::product(None, vec![AxisSpec::new("cores", &[2.0, 4.0])]);
    let err = match spec.resolve() {
        Err(e) => e,
        Ok(_) => panic!("expected unknown_axis"),
    };
    assert_eq!(err.status, 400);
    assert_eq!(err.body.code, "unknown_axis");
    assert!(err.body.message.contains("cores"), "{}", err.body.message);
    assert!(err.body.message.contains("rob"), "lists the known axes");

    // The same shape survives the wire: an ErrorBody a client can match.
    let body: ErrorBody = serde_json::from_str(&serde_json::to_string(&err.body).unwrap()).unwrap();
    assert_eq!(body, err.body);
}

#[test]
fn named_spaces_resolve_to_the_documented_sizes() {
    for (name, points) in [
        ("thesis", 243),
        ("full", 243),
        ("validation", 27),
        ("small", 32),
        ("big", 103_680),
        ("demo", 103_680),
    ] {
        let space = SpaceSpec::named(name).resolve().unwrap_or_else(|e| {
            panic!("space `{name}`: {e}");
        });
        assert_eq!(space.len(), points, "space `{name}`");
    }
}
