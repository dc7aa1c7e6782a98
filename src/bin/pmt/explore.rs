//! `pmt explore` — stream a (possibly huge) design space through the
//! online accumulators: Pareto frontier, top-K, moments, in bounded
//! memory.
//!
//! The command is a thin shell around the wire schema: flags build an
//! [`ExploreRequest`], [`pmt::serve::engine::explore_response`] answers
//! it — the *same* function the daemon calls — and `--out` writes the
//! [`ExploreResponse`] verbatim. That is what makes the file
//! byte-identical to the body a running `pmt serve` returns for the same
//! request (CI's serve-smoke job asserts exactly this, using
//! `--emit-request` to capture the request it replays over HTTP).

use crate::args::{CliError, Command, Flag};
use crate::commands::api_err;
use pmt::dse::{DesignConstraints, Objective};
use pmt::prelude::*;

pub const EXPLORE: Command = Command {
    name: "explore",
    about: "streaming sweep of a large (lazy) design space",
    positionals: "",
    flags: &[
        Flag::value(
            "--profile",
            "FILE",
            "application profile JSON (from `pmt profile`)",
        ),
        Flag::value(
            "--space",
            "NAME",
            "thesis | validation | small | big (103,680-point demo)",
        ),
        Flag::value("--top", "K", "keep the K best designs (default 10)"),
        Flag::value(
            "--objective",
            "OBJ",
            "seconds | cpi | power | energy | edp | ed2p",
        ),
        Flag::value("--max-power", "W", "skip designs over this power budget"),
        Flag::value(
            "--max-seconds",
            "S",
            "skip designs over this runtime budget",
        ),
        Flag::value("--max-width", "N", "pre-filter: dispatch width at most N"),
        Flag::value("--max-rob", "N", "pre-filter: ROB at most N entries"),
        Flag::value("--max-l3-kb", "N", "pre-filter: L3 at most N KB"),
        Flag::value(
            "--out",
            "FILE",
            "write the wire-schema ExploreResponse here",
        ),
        Flag::value(
            "--corrector",
            "FILE",
            "residual corrector (from `pmt train`): also print corrected top-K",
        ),
        Flag::value(
            "--emit-request",
            "FILE",
            "also write the ExploreRequest this run answers",
        ),
    ],
};

pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = match EXPLORE.parse(args)? {
        Some(parsed) => parsed,
        None => return Ok(()),
    };
    let profile = crate::load_profile(&parsed, "explore")?;

    // Flags → the versioned wire request.
    let space_name = parsed.value("--space").unwrap_or("big");
    let mut req = ExploreRequest::new(&profile.name, SpaceSpec::named(space_name));
    req.top_k = parsed.parsed_or("--top", "a count", 10)?;
    if let Some(objective) = parsed.value("--objective") {
        req.objective = objective.to_string();
    }
    req.max_power_w = parsed.parsed("--max-power", "watts")?;
    req.max_seconds = parsed.parsed("--max-seconds", "seconds")?;
    let mut constraints = DesignConstraints::new();
    if let Some(w) = parsed.parsed::<u32>("--max-width", "a dispatch width")? {
        constraints = constraints.max_dispatch_width(w);
    }
    if let Some(r) = parsed.parsed::<u32>("--max-rob", "an entry count")? {
        constraints = constraints.max_rob(r);
    }
    if let Some(kb) = parsed.parsed::<u32>("--max-l3-kb", "a size in KB")? {
        constraints = constraints.max_l3_kb(kb);
    }
    if !constraints.is_unconstrained() {
        req.constraints = Some(constraints);
    }
    if let Some(path) = parsed.value("--emit-request") {
        let json = serde_json::to_string(&req).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wire request -> {path}");
    }

    // Load (and sanity-check) the corrector *before* the sweep: a wrong
    // schema version or a profile the model was never trained over must
    // fail fast, not after minutes of folding. The sweep itself never
    // sees the corrector — correction is applied to the survivors after
    // the fold, so `--out` bytes are identical with or without it.
    let corrector = match parsed.value("--corrector") {
        Some(path) => {
            let model = pmt::ml::ResidualModel::from_json(
                &std::fs::read_to_string(path)
                    .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?,
            )
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            model
                .check_profile(&profile.name, &pmt::ml::profile_fingerprint(&profile))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            Some(model)
        }
        None => None,
    };

    eprintln!("streaming space `{space_name}` for {}...", profile.name);
    let prepared = PreparedProfile::new(&profile);
    let resp = pmt::serve::engine::explore_response(&prepared, &req).map_err(api_err)?;
    print_response(&resp);

    if let Some(model) = &corrector {
        let space = req.space.resolve().map_err(api_err)?;
        let corrected = pmt::dse::corrected_top(&resp.summary, space.as_ref(), model, &profile);
        println!(
            "top {} with the learned residual applied (ranking unchanged):",
            corrected.len()
        );
        println!(
            "{:>8} {:>34} {:>9} {:>9} {:>9} {:>9}",
            "id", "design", "CPI", "corr CPI", "watts", "corr W"
        );
        for (c, name) in corrected.iter().zip(&resp.top_machines) {
            println!(
                "{:>8} {:>34} {:>9.3} {:>9.3} {:>9.2} {:>9.2}",
                c.id, name, c.cpi, c.corrected_cpi, c.power_w, c.corrected_power_w
            );
        }
    }

    if let Some(path) = parsed.value("--out") {
        let json = serde_json::to_string(&resp).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("explore response -> {path}");
    }
    Ok(())
}

/// The human-readable report of an [`ExploreResponse`].
fn print_response(resp: &ExploreResponse) {
    let summary = &resp.summary;
    println!("workload    : {}", resp.workload);
    println!(
        "space       : {} ({} points)",
        resp.space, summary.space_points
    );
    println!(
        "evaluated   : {}  (pre-filtered {}, over budget {})",
        summary.evaluated, summary.rejected, summary.over_budget
    );
    let stat = |name: &str, m: &pmt::model::Moments| {
        println!(
            "{name:<12}: mean {:.3}  min {:.3}  max {:.3}",
            m.mean(),
            m.min,
            m.max
        );
    };
    stat("CPI", &summary.cpi);
    stat("power (W)", &summary.power);
    stat("time (ms)", &{
        let mut ms = summary.seconds;
        ms.sum *= 1e3;
        ms.min *= 1e3;
        ms.max *= 1e3;
        ms
    });

    println!(
        "frontier    : {} non-dominated designs",
        summary.frontier.len()
    );
    const SHOWN: usize = 20;
    println!(
        "{:>8} {:>34} {:>10} {:>9} {:>9}",
        "id", "design", "ms", "watts", "CPI"
    );
    for (e, name) in summary
        .frontier
        .iter()
        .zip(&resp.frontier_machines)
        .take(SHOWN)
    {
        println!(
            "{:>8} {:>34} {:>10.3} {:>9.2} {:>9.3}",
            e.id,
            name,
            e.item.seconds * 1e3,
            e.item.power,
            e.item.cpi
        );
    }
    if summary.frontier.len() > SHOWN {
        println!(
            "  ... {} more (write --out FILE for all)",
            summary.frontier.len() - SHOWN
        );
    }

    let label = Objective::from_name(&resp.objective)
        .map(|o| o.label())
        .unwrap_or(&resp.objective);
    println!("top {} by {}:", summary.top.len(), label);
    for (e, name) in summary.top.iter().zip(&resp.top_machines) {
        println!("{:>8} {:>34}  {} = {:.4}", e.id, name, label, e.key);
    }
}
