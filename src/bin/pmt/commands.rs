//! Every subcommand except `explore` and `serve` (which get their own
//! modules): the [`Command`] grammar each one parses with, plus its body.
//!
//! Human-readable output is unchanged from the pre-redesign CLI; the
//! machine-readable outputs (`predict --json`, `validate --out`) are the
//! versioned wire types of [`pmt::api`], produced by the same
//! [`pmt::serve::engine`] functions the daemon answers with.

use crate::args::{CliError, Command, Flag, Parsed};
use pmt::model::{MulticoreModel, SmtModel};
use pmt::prelude::*;
use pmt::profiler::ApplicationProfile;
use pmt::validate::{ValidationConfig, Validator};

/// Map a structured wire error onto the CLI's exit-code split: client
/// mistakes (4xx) are usage errors (exit 2), everything else is runtime
/// (exit 1).
pub fn api_err(e: pmt::api::ApiError) -> CliError {
    if (400..500).contains(&e.status) {
        CliError::Usage(e.body.message)
    } else {
        CliError::Runtime(e.body.message)
    }
}

/// Parse, short-circuiting `Ok(())` when `--help` was printed.
macro_rules! parse_or_return {
    ($command:expr, $args:expr) => {
        match $command.parse($args)? {
            Some(parsed) => parsed,
            None => return Ok(()),
        }
    };
}

fn instructions(parsed: &Parsed) -> Result<u64, CliError> {
    parsed.parsed_or("--instructions", "an instruction count", 1_000_000)
}

// ---------------------------------------------------------------- list

pub const LIST: Command = Command {
    name: "list",
    about: "list the workload suite",
    positionals: "",
    flags: &[],
};

pub fn list(args: &[String]) -> Result<(), CliError> {
    parse_or_return!(LIST, args);
    println!("the 29 SPEC CPU 2006 stand-ins:");
    for name in SUITE {
        println!("  {name}");
    }
    Ok(())
}

// ------------------------------------------------------------- profile

pub const PROFILE: Command = Command {
    name: "profile",
    about: "profile a workload once, micro-architecture independently (AIP step)",
    positionals: "<workload>",
    flags: &[
        Flag::value(
            "--instructions",
            "N",
            "instructions to profile (default 1000000)",
        ),
        Flag::value(
            "--out",
            "FILE",
            "write the profile JSON here instead of stdout",
        ),
    ],
};

pub fn profile(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(PROFILE, args);
    let name = parsed.required_positional("a workload name", "profile")?;
    let n = instructions(&parsed)?;
    let profile = crate::profile_workload(name, n)?;
    let json = serde_json::to_string(&profile).map_err(|e| e.to_string())?;
    match parsed.value("--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "profiled {} instructions of {name} → {path} ({} micro-traces, {} bytes)",
                profile.total_instructions,
                profile.micro_traces.len(),
                json.len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

// ------------------------------------------------------------- predict

pub const PREDICT: Command = Command {
    name: "predict",
    about: "predict CPI stack + power for one (profile, machine) point",
    positionals: "",
    flags: &[
        Flag::value(
            "--profile",
            "FILE",
            "application profile JSON (from `pmt profile`)",
        ),
        Flag::value(
            "--machine",
            "M",
            "nehalem (default) | nehalem-pf | low-power",
        ),
        Flag::switch(
            "--json",
            "print the wire-schema PredictResponse instead of text",
        ),
        Flag::value("--out", "FILE", "write the PredictResponse JSON here"),
        Flag::value(
            "--emit-request",
            "FILE",
            "also write the wire PredictRequest (machine inlined) here",
        ),
    ],
};

pub fn predict(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(PREDICT, args);
    let profile = crate::load_profile(&parsed, "predict")?;
    let machine_name = parsed.value("--machine").unwrap_or("nehalem");

    if let Some(path) = parsed.value("--emit-request") {
        // The machine is inlined (not named) so scripted callers can
        // mutate individual fields — e.g. `frequency_ghz` — to
        // synthesize distinct design points against a daemon.
        let m = MachineSpec::named(machine_name)
            .resolve()
            .map_err(api_err)?;
        let req = PredictRequest::new(&profile.name, MachineSpec::inline(m));
        let json = serde_json::to_string(&req).map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("predict request -> {path}");
    }

    if parsed.switch("--json") || parsed.value("--out").is_some() {
        // The wire path: the same engine call the daemon answers with,
        // so these bytes match a served `/v1/predict` response.
        let prepared = PreparedProfile::new(&profile);
        let req = PredictRequest::new(&profile.name, MachineSpec::named(machine_name));
        let resp = pmt::serve::engine::predict_response(&prepared, &req).map_err(api_err)?;
        let json = serde_json::to_string(&resp).map_err(|e| e.to_string())?;
        if let Some(path) = parsed.value("--out") {
            std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("prediction -> {path}");
        }
        if parsed.switch("--json") {
            println!("{json}");
        }
        return Ok(());
    }

    let m = crate::machine(&parsed)?;
    let prediction = IntervalModel::new(&m).predict(&profile);
    let power = PowerModel::new(&m).power(&prediction.activity);
    println!("workload   : {}", profile.name);
    println!("machine    : {}", m.name);
    println!(
        "CPI        : {:.3}  (IPC {:.2}, MLP {:.2})",
        prediction.cpi(),
        prediction.ipc(),
        prediction.mlp
    );
    for (c, v) in prediction.cpi_stack.iter() {
        if v > 0.0005 {
            println!("  {:<8} {:.3}", c.label(), v);
        }
    }
    println!(
        "power      : {:.1} W  ({:.1} W static, {:.0}%)",
        power.total(),
        power.static_w,
        power.static_fraction() * 100.0
    );
    println!(
        "time       : {:.3} ms at {:.2} GHz",
        prediction.seconds_at(m.core.frequency_ghz) * 1e3,
        m.core.frequency_ghz
    );
    Ok(())
}

// ------------------------------------------------------------ simulate

pub const SIMULATE: Command = Command {
    name: "simulate",
    about: "cycle-level out-of-order simulation (ground truth)",
    positionals: "<workload>",
    flags: &[
        Flag::value(
            "--instructions",
            "N",
            "instructions to simulate (default 1000000)",
        ),
        Flag::value(
            "--machine",
            "M",
            "nehalem (default) | nehalem-pf | low-power",
        ),
    ],
};

pub fn simulate(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(SIMULATE, args);
    let name = parsed.required_positional("a workload name", "simulate")?;
    let spec = crate::workload(name)?;
    let m = crate::machine(&parsed)?;
    let n = instructions(&parsed)?;
    let r = OooSimulator::new(SimConfig::new(m.clone())).run(&mut spec.trace(n));
    println!("workload   : {name}  ({n} instructions)");
    println!("machine    : {}", m.name);
    println!(
        "CPI        : {:.3}  (MLP {:.2}, branch MPKI {:.2})",
        r.cpi(),
        r.mlp,
        r.branch_mpki()
    );
    for (c, v) in r.cpi_stack.iter() {
        if v > 0.0005 {
            println!("  {:<8} {:.3}", c.label(), v);
        }
    }
    let power = PowerModel::new(&m).power(&r.activity);
    println!("power      : {:.1} W", power.total());
    Ok(())
}

// ------------------------------------------------------------ validate

/// The `--cache FILE` flag every simulating command shares: the file its
/// memoized reference simulations load from and save back to.
pub const CACHE_FLAG: Flag =
    Flag::value("--cache", "FILE", "memoized simulation cache to load/save");

pub const VALIDATE: Command = Command {
    name: "validate",
    about: "model-vs-simulator accuracy report (memoized sim runs)",
    positionals: "",
    flags: &[
        Flag::value(
            "--workloads",
            "A,B|all",
            "comma list of workloads (default astar,mcf,…)",
        ),
        Flag::value("--space", "NAME", "full | validation | small"),
        Flag::value("--instructions", "N", "profile instructions per workload"),
        Flag::value(
            "--sim-instructions",
            "N",
            "simulated instructions per point",
        ),
        Flag::value("--out", "FILE", "write the ValidationReport JSON here"),
        CACHE_FLAG,
        Flag::value(
            "--corrector",
            "FILE",
            "residual corrector (from `pmt train`) to grade alongside",
        ),
        Flag::value(
            "--max-mean-cpi-error",
            "F",
            "fail if mean |CPI error| exceeds F",
        ),
        Flag::switch("--smoke", "tiny CI scale"),
    ],
};

/// The (workload × design point) grid `pmt validate` and `pmt train`
/// both run, parsed from the flags they share: `--smoke`,
/// `--instructions`, `--sim-instructions`, `--space`, `--workloads` and
/// `--cache`. One parser, so a corrector is always trained on the rows
/// validation grades it on.
pub struct Grid<'a> {
    config: ValidationConfig,
    space: DesignSpace,
    /// Workload names, `all` expanded to the suite.
    names: Vec<&'a str>,
    cache_path: Option<&'a str>,
}

impl<'a> Grid<'a> {
    pub fn parse(parsed: &'a Parsed) -> Result<Grid<'a>, CliError> {
        let smoke = parsed.switch("--smoke");
        let mut config = if smoke {
            ValidationConfig::smoke()
        } else {
            ValidationConfig::default_scale()
        };
        if let Some(n) = parsed.parsed("--instructions", "an instruction count")? {
            config.profile_instructions = n;
        }
        if let Some(n) = parsed.parsed("--sim-instructions", "an instruction count")? {
            config.sim_instructions = n;
        }

        let space_name =
            parsed
                .value("--space")
                .unwrap_or(if smoke { "validation" } else { "full" });
        let space = match space_name {
            "full" => DesignSpace::thesis_table_6_3(),
            "validation" => DesignSpace::validation_subspace(),
            "small" => DesignSpace::small(),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown space `{other}` for `--space` (full|validation|small)"
                )))
            }
        };

        let default_workloads = if smoke {
            "astar,mcf"
        } else {
            "astar,gcc,mcf,milc"
        };
        let workloads = parsed.value("--workloads").unwrap_or(default_workloads);
        let names = if workloads == "all" {
            SUITE.to_vec()
        } else {
            workloads.split(',').map(str::trim).collect()
        };
        Ok(Grid {
            config,
            space,
            names,
            cache_path: parsed.value("--cache"),
        })
    }

    /// A validator over the grid, with every workload resolved by name
    /// and the `--cache` file loaded when it exists.
    pub fn validator(&self) -> Result<Validator, CliError> {
        let mut validator = Validator::new(self.config.clone()).space(&self.space);
        for name in &self.names {
            validator = validator.workload_named(name)?;
        }
        if let Some(path) = self.cache_path {
            if std::path::Path::new(path).exists() {
                validator = validator.cache(std::sync::Arc::new(SimCache::load(path)?));
            }
        }
        Ok(validator)
    }

    /// "N workloads x M points (K sim instructions each)", for progress
    /// lines.
    pub fn describe(&self) -> String {
        format!(
            "{} workloads x {} points ({} sim instructions each)",
            self.names.len(),
            self.space.len(),
            self.config.sim_instructions
        )
    }

    /// Write `validator`'s simulation cache back to `--cache`, if given.
    pub fn save_cache(&self, validator: &Validator) -> Result<(), CliError> {
        if let Some(path) = self.cache_path {
            validator.shared_cache().save(path)?;
            eprintln!("simulation cache -> {path}");
        }
        Ok(())
    }
}

pub fn validate(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(VALIDATE, args);
    let grid = Grid::parse(&parsed)?;
    let validator = grid.validator()?;
    let corrector = match parsed.value("--corrector") {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
            Some(
                pmt::ml::ResidualModel::from_json(&json)
                    .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?,
            )
        }
        None => None,
    };

    eprintln!("validating {}...", grid.describe());
    // A fingerprint mismatch (corrector trained on different profiles)
    // is a structured runtime error, not a silently self-graded report.
    let report = validator
        .run_corrected(corrector.as_ref())
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    print!("{}", report.render_table());

    grid.save_cache(&validator)?;
    if let Some(path) = parsed.value("--out") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("validation report -> {path}");
    }
    // A malformed threshold must fail loudly, never silently skip the
    // check — CI's accuracy gate depends on it.
    if let Some(threshold) =
        parsed.parsed::<f64>("--max-mean-cpi-error", "a fraction, e.g. 0.15")?
    {
        if !report.within_cpi_threshold(threshold) {
            return Err(CliError::Runtime(format!(
                "mean |CPI error| {:.2}% exceeds threshold {:.2}%",
                report.mean_abs_cpi_error() * 100.0,
                threshold * 100.0
            )));
        }
        println!(
            "threshold check: mean |CPI error| {:.2}% <= {:.2}% — OK",
            report.mean_abs_cpi_error() * 100.0,
            threshold * 100.0
        );
    }
    Ok(())
}

// -------------------------------------------------------------- figure

pub const FIGURE: Command = Command {
    name: "figure",
    about: "reproduce thesis figures/tables by experiment name (docs/PAPER_MAP.md), or all",
    positionals: "<name>.. | all",
    flags: &[
        CACHE_FLAG,
        Flag::switch("--smoke", "tiny trace budget, same pipeline"),
    ],
};

/// The experiment scale `pmt figure` and `pmt report` run at: the
/// `--smoke` switch is its only input.
fn harness_scale(parsed: &Parsed) -> pmt::bench::HarnessConfig {
    if parsed.switch("--smoke") {
        pmt::bench::HarnessConfig::smoke()
    } else {
        pmt::bench::HarnessConfig::default_scale()
    }
}

/// Run `body` with the process-wide reference-simulation memo started
/// from the `--cache` file, if given, and written back to it after.
fn with_shared_sim_cache<T>(parsed: &Parsed, body: impl FnOnce() -> T) -> Result<T, CliError> {
    let path = parsed.value("--cache");
    if let Some(path) = path {
        pmt::bench::harness::load_shared_sim_cache(path)?;
    }
    let out = body();
    if let Some(path) = path {
        pmt::bench::harness::shared_sim_cache().save(path)?;
    }
    Ok(out)
}

pub fn figure(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(FIGURE, args);
    if parsed.positionals().is_empty() {
        return Err(CliError::Usage(
            "`pmt figure` needs experiment names or `all` (see `pmt figure --help`)".into(),
        ));
    }
    let entries = pmt::bench::select(parsed.positionals()).map_err(CliError::Usage)?;
    let scale = harness_scale(&parsed);
    let failed = with_shared_sim_cache(&parsed, || pmt::bench::run(&entries, &scale))?;
    if failed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        )))
    }
}

// -------------------------------------------------------------- report

pub const REPORT: Command = Command {
    name: "report",
    about: "regenerate docs/REPRODUCTION.md, figures and docs/PAPER_MAP.md",
    positionals: "",
    flags: &[
        Flag::value("--out-dir", "DIR", "output directory (default docs)"),
        CACHE_FLAG,
        Flag::switch("--smoke", "tiny CI scale (the committed document's scale)"),
    ],
};

pub fn report(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(REPORT, args);
    let out_dir = parsed.value("--out-dir").unwrap_or("docs");
    let scale = harness_scale(&parsed);
    eprintln!(
        "generating the reproduction report at {} instructions per workload...",
        scale.instructions
    );
    // A warm `--cache` regeneration re-runs only the perfect-mode and
    // interval-sampled simulations the cache key cannot describe.
    let report = with_shared_sim_cache(&parsed, || pmt::bench::report_gen::generate(&scale))?;
    let files = pmt::bench::report_gen::write(&report, std::path::Path::new(out_dir))?;
    let charts = report.figures().filter(|f| f.is_chart()).count();
    let total = report.figures().count();
    println!("report -> {out_dir}/REPRODUCTION.md ({total} figures, {charts} SVGs, {files} files)");
    println!("index  -> {out_dir}/PAPER_MAP.md");
    Ok(())
}

// --------------------------------------------------------------- corun

pub const CORUN: Command = Command {
    name: "corun",
    about: "shared-LLC co-run model",
    positionals: "<w1> <w2> [..]",
    flags: &[
        Flag::value(
            "--instructions",
            "N",
            "instructions to profile (default 1000000)",
        ),
        Flag::value(
            "--machine",
            "M",
            "nehalem (default) | nehalem-pf | low-power",
        ),
    ],
};

pub fn corun(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(CORUN, args);
    let names = parsed.positionals();
    if names.len() < 2 {
        return Err(CliError::Usage(
            "`pmt corun` needs at least two workloads (see `pmt corun --help`)".into(),
        ));
    }
    let n = instructions(&parsed)?;
    let m = crate::machine(&parsed)?;
    let profiles: Vec<ApplicationProfile> = names
        .iter()
        .map(|name| crate::profile_workload(name, n))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&ApplicationProfile> = profiles.iter().collect();
    let out = MulticoreModel::new(&m, pmt::model::ModelConfig::default()).predict(&refs);
    println!("co-run on {} ({} cores):", m.name, refs.len());
    println!(
        "{:<12} {:>9} {:>9} {:>10} {:>10}",
        "workload", "soloCPI", "coCPI", "slowdown", "LLC share"
    );
    for c in &out.cores {
        println!(
            "{:<12} {:>9.3} {:>9.3} {:>9.2}x {:>9.0}%",
            c.workload,
            c.solo.cpi(),
            c.shared.cpi(),
            c.slowdown(),
            c.llc_share * 100.0
        );
    }
    println!(
        "throughput {:.2} IPC, mean slowdown {:.2}x ({} fixed-point iterations)",
        out.throughput_ipc(),
        out.mean_slowdown(),
        out.iterations
    );
    Ok(())
}

// ----------------------------------------------------------------- smt

pub const SMT: Command = Command {
    name: "smt",
    about: "SMT (shared-core) model",
    positionals: "<w1> <w2> [..]",
    flags: &[
        Flag::value(
            "--instructions",
            "N",
            "instructions to profile (default 1000000)",
        ),
        Flag::value(
            "--machine",
            "M",
            "nehalem (default) | nehalem-pf | low-power",
        ),
    ],
};

pub fn smt(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_or_return!(SMT, args);
    let names = parsed.positionals();
    if names.len() < 2 {
        return Err(CliError::Usage(
            "`pmt smt` needs at least two workloads (see `pmt smt --help`)".into(),
        ));
    }
    let n = instructions(&parsed)?;
    let m = crate::machine(&parsed)?;
    let profiles: Vec<ApplicationProfile> = names
        .iter()
        .map(|name| crate::profile_workload(name, n))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&ApplicationProfile> = profiles.iter().collect();
    let out = SmtModel::new(&m, pmt::model::ModelConfig::default()).predict(&refs);
    println!("SMT on {} ({} hardware threads):", m.name, refs.len());
    println!(
        "{:<12} {:>9} {:>9} {:>10}",
        "thread", "soloCPI", "smtCPI", "slowdown"
    );
    for t in &out.threads {
        println!(
            "{:<12} {:>9.3} {:>9.3} {:>9.2}x",
            t.workload,
            t.solo.cpi(),
            t.smt.cpi(),
            t.slowdown()
        );
    }
    println!(
        "throughput {:.2} IPC → gain {:.2}x over single-threaded",
        out.throughput_ipc(),
        out.throughput_gain()
    );
    Ok(())
}
