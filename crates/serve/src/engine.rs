//! Request → response, as pure functions.
//!
//! Both front-ends call these: the daemon's HTTP handlers and the `pmt`
//! CLI (`pmt predict --json`, `pmt explore --out`). One code path plus
//! the deterministic vendored serde is what makes a served response
//! byte-identical to the file the equivalent CLI run writes — the
//! contract the serve-smoke CI job asserts.

use pmt_api::{
    ApiError, ExploreRequest, ExploreResponse, PredictRequest, PredictResponse, StackEntry,
    WIRE_SCHEMA_VERSION,
};
use pmt_core::{IntervalModel, PredictionSummary, PreparedProfile};
use pmt_dse::{Objective, StreamingSweep};
use pmt_power::PowerModel;
use pmt_uarch::MachineConfig;

/// Predict one (profile, machine) point.
pub fn predict_response(
    prepared: &PreparedProfile<'_>,
    req: &PredictRequest,
) -> Result<PredictResponse, ApiError> {
    req.check_version()?;
    let machine = req.machine.resolve()?;
    let summary = IntervalModel::new(&machine).predict_summary(prepared);
    Ok(summary_response(
        &prepared.profile().name,
        &machine,
        &summary,
    ))
}

/// Assemble the wire response from an evaluated summary — the one
/// function both the single-point path above and every `pmt serve`
/// predict flight call, so a served request's bytes are the CLI's bytes
/// by construction, whoever shared its flight (given the summaries match
/// bit for bit, which the `BatchPredictor` conformance suite pins).
pub fn summary_response(
    workload: &str,
    machine: &MachineConfig,
    summary: &PredictionSummary,
) -> PredictResponse {
    let power = PowerModel::new(machine).power(&summary.activity);
    PredictResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        workload: workload.to_string(),
        machine: machine.name.clone(),
        frequency_ghz: machine.core.frequency_ghz,
        cpi: summary.cpi(),
        ipc: summary.ipc(),
        seconds: summary.seconds_at(machine.core.frequency_ghz),
        mlp: summary.mlp,
        branch_miss_rate: summary.branch_miss_rate,
        cpi_stack: summary
            .cpi_stack
            .iter()
            .map(|(component, cpi)| StackEntry {
                label: component.label().to_string(),
                cpi,
            })
            .collect(),
        power_w: power.total(),
        static_w: power.static_w,
        corrected: false,
        corrected_cpi: None,
        corrected_power_w: None,
    }
}

/// Overlay a learned residual corrector onto an assembled
/// [`PredictResponse`], when one is loaded and it covers the profile.
///
/// The analytical `cpi`/`power_w` fields are never touched — correction
/// is additive wire data. Returns whether the corrector was applied
/// (`false` both when `corrector` is `None` and when the loaded
/// corrector does not cover `fingerprint`; the caller's metrics
/// distinguish the two cases by whether a corrector is loaded at all).
pub fn apply_corrector(
    response: &mut PredictResponse,
    corrector: Option<&pmt_api::ResidualModel>,
    fingerprint: &str,
    machine: &MachineConfig,
    profile: &pmt_profiler::ApplicationProfile,
) -> bool {
    let Some(model) = corrector else { return false };
    if model.check_version().is_err() || !model.covers(&response.workload, fingerprint) {
        return false;
    }
    let corrected = model.correct(machine, profile, response.cpi, response.power_w);
    response.corrected = true;
    response.corrected_cpi = Some(corrected.cpi);
    response.corrected_power_w = Some(corrected.power_w);
    true
}

/// Stream a design space through the prepared profile: Pareto frontier,
/// top-K by the requested objective, moments. The sweep predicts through
/// the batched kernels (the [`StreamingSweep`] default, bit-identical to
/// per-point prediction), so explore responses stay byte-stable while
/// the single-point [`predict_response`] path above keeps the simple
/// one-machine `predict_prepared` call. Survivors are named through the
/// (lazy) space; the workload field is the request's profile name — the
/// registry key, which equals the profile's own name.
pub fn explore_response(
    prepared: &PreparedProfile<'_>,
    req: &ExploreRequest,
) -> Result<ExploreResponse, ApiError> {
    req.check_version()?;
    let space = req.space.resolve()?;
    let objective = Objective::from_name(&req.objective).ok_or_else(|| {
        ApiError::bad_request(
            "unknown_objective",
            format!(
                "unknown objective `{}` (known: seconds, cpi, power, energy, edp, ed2p)",
                req.objective
            ),
        )
    })?;
    let mut sweep = StreamingSweep::new(prepared.profile())
        .top_k(req.top_k)
        .objective(objective);
    if let Some(constraints) = req.constraints {
        if !constraints.is_unconstrained() {
            sweep = sweep.constraints(constraints);
        }
    }
    if let Some(watts) = req.max_power_w {
        sweep = sweep.max_power_w(watts);
    }
    if let Some(seconds) = req.max_seconds {
        sweep = sweep.max_seconds(seconds);
    }
    let summary = sweep.run_prepared(prepared, space.as_ref());
    let frontier_machines = summary
        .frontier
        .iter()
        .map(|e| space.point_at(e.id).machine.name)
        .collect();
    let top_machines = summary
        .top
        .iter()
        .map(|e| space.point_at(e.id).machine.name)
        .collect();
    Ok(ExploreResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        workload: req.profile.clone(),
        space: req.space.label(),
        objective: req.objective.clone(),
        summary,
        frontier_machines,
        top_machines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_api::{MachineSpec, SpaceSpec};
    use pmt_dse::DesignConstraints;
    use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
    use pmt_workloads::WorkloadSpec;

    fn profile() -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test()).profile_named("astar", &mut spec.trace(30_000))
    }

    #[test]
    fn predict_matches_the_direct_model_bit_for_bit() {
        let profile = profile();
        let prepared = PreparedProfile::new(&profile);
        let req = PredictRequest::new("astar", MachineSpec::named("nehalem"));
        let resp = predict_response(&prepared, &req).unwrap();

        let machine = pmt_uarch::MachineConfig::nehalem();
        let direct = IntervalModel::new(&machine).predict_prepared(&prepared);
        assert_eq!(resp.cpi.to_bits(), direct.cpi().to_bits());
        assert_eq!(resp.ipc.to_bits(), direct.ipc().to_bits());
        assert_eq!(resp.workload, "astar");
        assert_eq!(resp.machine, machine.name);
        assert_eq!(resp.frequency_ghz, machine.core.frequency_ghz);
        // The stack sums to the CPI and labels are in display order.
        let sum: f64 = resp.cpi_stack.iter().map(|e| e.cpi).sum();
        assert!((sum - resp.cpi).abs() < 1e-9);
        assert!(resp.power_w > resp.static_w);
        assert!(resp.static_w > 0.0);
    }

    #[test]
    fn explore_matches_a_direct_streaming_sweep() {
        let profile = profile();
        let prepared = PreparedProfile::new(&profile);
        let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
        req.top_k = 3;
        req.objective = "energy".to_string();
        let resp = explore_response(&prepared, &req).unwrap();

        let direct = StreamingSweep::new(&profile)
            .top_k(3)
            .objective(Objective::Energy)
            .run(&pmt_uarch::DesignSpace::small());
        assert_eq!(resp.summary, direct);
        assert_eq!(resp.workload, "astar");
        assert_eq!(resp.space, "small");
        assert_eq!(resp.objective, "energy");
        assert_eq!(resp.frontier_machines.len(), resp.summary.frontier.len());
        assert_eq!(resp.top_machines.len(), 3);
    }

    #[test]
    fn constraints_and_budgets_flow_through() {
        let profile = profile();
        let prepared = PreparedProfile::new(&profile);
        let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
        req.constraints = Some(DesignConstraints::new().max_dispatch_width(2));
        let resp = explore_response(&prepared, &req).unwrap();
        assert_eq!(resp.summary.evaluated, 16);
        assert_eq!(resp.summary.rejected, 16);

        // An unconstrained constraints object is a no-op, not a filter.
        req.constraints = Some(DesignConstraints::new());
        let resp = explore_response(&prepared, &req).unwrap();
        assert_eq!(resp.summary.rejected, 0);

        req.constraints = None;
        req.max_power_w = Some(resp.summary.power.min / 2.0);
        let capped = explore_response(&prepared, &req).unwrap();
        assert_eq!(capped.summary.over_budget, 32);
        assert!(capped.summary.frontier.is_empty());
    }

    #[test]
    fn bad_objective_space_and_version_become_structured_errors() {
        let profile = profile();
        let prepared = PreparedProfile::new(&profile);

        let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
        req.objective = "joules".to_string();
        let err = explore_response(&prepared, &req).unwrap_err();
        assert_eq!(err.body.code, "unknown_objective");
        assert!(err.body.message.contains("joules"));

        let req = ExploreRequest::new("astar", SpaceSpec::named("galaxy"));
        assert_eq!(
            explore_response(&prepared, &req).unwrap_err().body.code,
            "unknown_space"
        );

        let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
        req.schema_version = 99;
        assert_eq!(
            explore_response(&prepared, &req).unwrap_err().body.code,
            "bad_schema_version"
        );
    }
}
