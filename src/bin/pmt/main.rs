//! `pmt` — the command-line front-end of the framework, mirroring the
//! paper's open-sourced AIP (profiler) + PMT (modeling tool) pair.
//!
//! ```console
//! $ pmt list
//! $ pmt profile mcf --instructions 1000000 --out mcf.profile.json
//! $ pmt predict --profile mcf.profile.json --machine nehalem
//! $ pmt simulate mcf --instructions 200000
//! $ pmt explore --profile mcf.profile.json --space big --out summary.json
//! $ pmt corun milc mcf --instructions 200000
//! $ pmt validate --workloads astar,mcf --smoke
//! $ pmt train --smoke --cache sim.cache.json --out corrector.json
//! $ pmt validate --smoke --corrector corrector.json
//! $ pmt figure fig7_4_pareto --smoke
//! $ pmt serve --profile-file mcf.profile.json --addr 127.0.0.1:7071
//! ```
//!
//! Every subcommand parses flags through the shared [`args`] helper
//! (per-subcommand `--help`, usage errors exit 2, runtime errors exit 1),
//! and the JSON the CLI emits (`predict --json`, `explore --out`,
//! `validate --out`) is the versioned wire schema of [`pmt::api`] — the
//! same bytes the `pmt serve` daemon answers with.

mod args;
mod commands;
mod explore;
mod serve;
mod train;

use args::CliError;
use pmt::prelude::*;
use pmt::profiler::ApplicationProfile;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{}", overview());
        return ExitCode::from(2);
    };
    let rest = &argv[1..];
    let result = match command.as_str() {
        "list" => commands::list(rest),
        "profile" => commands::profile(rest),
        "predict" => commands::predict(rest),
        "simulate" => commands::simulate(rest),
        "explore" => explore::run(rest),
        "validate" => commands::validate(rest),
        "train" => train::run(rest),
        "figure" => commands::figure(rest),
        "report" => commands::report(rest),
        "corun" => commands::corun(rest),
        "smt" => commands::smt(rest),
        "serve" => serve::run(rest),
        "help" | "--help" | "-h" => {
            println!("{}", overview());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            overview()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}

/// The top-level help: one line per subcommand, generated from the same
/// [`args::Command`] declarations the parser uses.
fn overview() -> String {
    let mut out = String::from(
        "pmt — micro-architecture independent processor performance & power modeling\n\nCOMMANDS:",
    );
    for c in all_commands() {
        out.push_str(&format!("\n  {:<10} {}", c.name, c.about));
    }
    out.push_str(
        "\n\nRun `pmt <command> --help` for the command's flags.\n\
         MACHINES: nehalem (default) | nehalem-pf | low-power",
    );
    out
}

/// Every subcommand's grammar, for the overview.
fn all_commands() -> Vec<&'static args::Command> {
    vec![
        &commands::LIST,
        &commands::PROFILE,
        &commands::PREDICT,
        &commands::SIMULATE,
        &explore::EXPLORE,
        &commands::VALIDATE,
        &train::TRAIN,
        &commands::FIGURE,
        &commands::REPORT,
        &commands::CORUN,
        &commands::SMT,
        &serve::SERVE,
    ]
}

/// Look a workload up by name, with a friendly error.
fn workload(name: &str) -> Result<WorkloadSpec, CliError> {
    WorkloadSpec::by_name(name)
        .ok_or_else(|| CliError::Runtime(format!("unknown workload `{name}` — try `pmt list`")))
}

/// Profile a workload at CLI scale (window scaled so short runs still
/// yield many micro-traces).
fn profile_workload(name: &str, n: u64) -> Result<ApplicationProfile, CliError> {
    let spec = workload(name)?;
    let mut cfg = ProfilerConfig::thesis_default();
    cfg.sampling = pmt::trace::SamplingConfig {
        micro_trace_instructions: 1_000,
        window_instructions: (n / 100).clamp(1_000, 1_000_000),
    };
    Ok(Profiler::new(cfg).profile_named(name, &mut spec.trace(n)))
}

/// Load an [`ApplicationProfile`] from a `--profile FILE` flag.
fn load_profile(parsed: &args::Parsed, command: &str) -> Result<ApplicationProfile, CliError> {
    let Some(path) = parsed.value("--profile") else {
        return Err(CliError::Usage(format!(
            "`pmt {command}` needs `--profile FILE` (see `pmt {command} --help`)"
        )));
    };
    read_profile(path)
}

/// Load an [`ApplicationProfile`] from a path.
fn read_profile(path: &str) -> Result<ApplicationProfile, CliError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
    serde_json::from_str(&json).map_err(|e| CliError::Runtime(format!("parsing {path}: {e}")))
}

/// Resolve `--machine` through the shared wire registry
/// ([`pmt::api::machine_by_name`]), defaulting to `nehalem`.
fn machine(parsed: &args::Parsed) -> Result<MachineConfig, CliError> {
    let name = parsed.value("--machine").unwrap_or("nehalem");
    pmt::api::machine_by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown machine `{name}` for `--machine` (known: {})",
            pmt::api::MACHINE_NAMES.join(", ")
        ))
    })
}
