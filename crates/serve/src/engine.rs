//! Request → response, as pure functions.
//!
//! Both front-ends call these: the daemon's HTTP handlers and the `pmt`
//! CLI (`pmt predict --json`, `pmt explore --out`). One code path plus
//! the deterministic vendored serde is what makes a served response
//! byte-identical to the file the equivalent CLI run writes — the
//! contract the serve-smoke CI job asserts.

use pmt_api::{
    profile_fingerprint, AccumulatorSnapshot, ApiError, ExploreRequest, ExploreResponse,
    PredictRequest, PredictResponse, StackEntry, WIRE_SCHEMA_VERSION,
};
use pmt_core::{IntervalModel, PredictionSummary, PreparedProfile};
use pmt_dse::{merge_shards, Objective, StreamingSweep};
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
/// one-machine `predict_prepared` call.
pub fn explore_response(
    prepared: &PreparedProfile<'_>,
    req: &ExploreRequest,
) -> Result<ExploreResponse, ApiError> {
    req.check_version()?;
    let space = req.space.resolve()?;
    let sweep = sweep_for(prepared, req)?;
    let summary = sweep.run_prepared(prepared, space.as_ref());
    Ok(assemble_response(req, space.as_ref(), summary))
}

/// Build the [`StreamingSweep`] an [`ExploreRequest`] describes —
/// shared by the single-process and sharded paths so both fold the
/// identical computation.
fn sweep_for<'p>(
    prepared: &'p PreparedProfile<'_>,
    req: &ExploreRequest,
) -> Result<StreamingSweep<'p>, ApiError> {
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
    Ok(sweep)
}

/// Wrap a finished summary into the wire response, resolving machine
/// names through the (lazy) space. The workload field is the request's
/// profile name — the registry key, which equals the profile's own name.
fn assemble_response(
    req: &ExploreRequest,
    space: &(dyn pmt_dse::LazyDesignSpace + Send + Sync),
    summary: pmt_dse::StreamingSummary,
) -> ExploreResponse {
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
    ExploreResponse {
        schema_version: WIRE_SCHEMA_VERSION,
        workload: req.profile.clone(),
        space: req.space.label(),
        objective: req.objective.clone(),
        summary,
        frontier_machines,
        top_machines,
    }
}

/// Fold shard `shard_index` of `shard_count` of an explore request,
/// optionally resuming from a checkpoint snapshot, and return the
/// complete shard snapshot. `on_checkpoint` sees the running snapshot
/// after every `checkpoint_every` chunks (`0` disables intermediate
/// checkpoints).
///
/// A `resume` snapshot must carry the identical request, the same
/// profile fingerprint, and the same shard coordinates — resuming
/// against a different sweep is refused with a structured 400
/// (`snapshot_mismatch`), not silently folded.
pub fn explore_shard(
    prepared: &PreparedProfile<'_>,
    req: &ExploreRequest,
    shard_index: usize,
    shard_count: usize,
    resume: Option<&AccumulatorSnapshot>,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&AccumulatorSnapshot),
) -> Result<AccumulatorSnapshot, ApiError> {
    req.check_version()?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(ApiError::bad_request(
            "bad_shard",
            format!("shard index {shard_index} is out of range for {shard_count} shards"),
        ));
    }
    let fingerprint = profile_fingerprint(prepared.profile());
    if let Some(snap) = resume {
        snap.check_version()?;
        if snap.request != *req {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                "resume snapshot was taken for a different explore request",
            ));
        }
        if snap.profile_fingerprint != fingerprint {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                format!(
                    "resume snapshot was taken over profile {} but this profile is {}",
                    snap.profile_fingerprint, fingerprint
                ),
            ));
        }
        if (snap.shard_index, snap.shard_count) != (shard_index, shard_count) {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                format!(
                    "resume snapshot is shard {}/{} but this run is shard {}/{}",
                    snap.shard_index, snap.shard_count, shard_index, shard_count
                ),
            ));
        }
    }
    let space = req.space.resolve()?;
    let sweep = sweep_for(prepared, req)?;
    let shard = sweep.run_shard_prepared(
        prepared,
        space.as_ref(),
        shard_index,
        shard_count,
        resume.map(|s| &s.shard),
        checkpoint_every,
        |acc| {
            on_checkpoint(&AccumulatorSnapshot::new(
                req.clone(),
                fingerprint.clone(),
                shard_index,
                shard_count,
                acc.clone(),
            ));
        },
    );
    Ok(AccumulatorSnapshot::new(
        req.clone(),
        fingerprint,
        shard_index,
        shard_count,
        shard,
    ))
}

/// Fold N complete shard snapshots into the [`ExploreResponse`] the
/// equivalent single-process run produces — byte for byte.
///
/// The snapshots must agree on request, profile fingerprint and shard
/// count, cover shard indices `0..shard_count` exactly once each, and
/// each be complete; anything else is a structured 400.
pub fn merge_response(snapshots: &[AccumulatorSnapshot]) -> Result<ExploreResponse, ApiError> {
    let Some(first) = snapshots.first() else {
        return Err(ApiError::bad_request(
            "snapshot_mismatch",
            "no snapshots to merge",
        ));
    };
    for snap in snapshots {
        snap.check_version()?;
        if snap.request != first.request {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                "snapshots were taken for different explore requests",
            ));
        }
        if snap.profile_fingerprint != first.profile_fingerprint {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                format!(
                    "snapshots cover different profiles ({} vs {})",
                    snap.profile_fingerprint, first.profile_fingerprint
                ),
            ));
        }
        if snap.shard_count != first.shard_count {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                format!(
                    "snapshots disagree on the shard count ({} vs {})",
                    snap.shard_count, first.shard_count
                ),
            ));
        }
        if !snap.is_complete() {
            return Err(ApiError::bad_request(
                "snapshot_incomplete",
                format!(
                    "shard {}/{} is incomplete ({} of {} chunks done) — resume it with \
                     `pmt explore --resume` before merging",
                    snap.shard_index,
                    snap.shard_count,
                    snap.shard.chunks_done,
                    snap.shard.chunk_hi.saturating_sub(snap.shard.chunk_lo)
                ),
            ));
        }
    }
    let mut seen = vec![false; first.shard_count];
    for snap in snapshots {
        if snap.shard_index >= first.shard_count || seen[snap.shard_index] {
            return Err(ApiError::bad_request(
                "snapshot_mismatch",
                format!(
                    "shard indices must cover 0..{} exactly once (index {} is invalid or \
                     duplicated)",
                    first.shard_count, snap.shard_index
                ),
            ));
        }
        seen[snap.shard_index] = true;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(ApiError::bad_request(
            "snapshot_mismatch",
            format!("shard {missing}/{} is missing", first.shard_count),
        ));
    }
    let req = first.request.clone();
    req.check_version()?;
    let summary = merge_shards(snapshots.iter().map(|s| s.shard.clone()).collect())
        .map_err(|msg| ApiError::bad_request("snapshot_mismatch", msg))?;
    let space = req.space.resolve()?;
    Ok(assemble_response(&req, space.as_ref(), summary))
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
