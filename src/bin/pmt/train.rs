//! `pmt train` — train a learned residual corrector from a validation
//! sweep.
//!
//! The command runs exactly the (workload × design point) grid
//! `pmt validate` would — same flags, same memoized simulation cache —
//! but instead of a report it emits one supervised row per simulated
//! point ([`pmt::validate::Validator::training_data`]) and fits the
//! ridge corrector of [`pmt::ml`] to the relative CPI/power residuals.
//! `--out` receives the versioned [`pmt::ml::ResidualModel`] JSON
//! artifact, which `pmt validate --corrector`, `pmt explore --corrector`
//! and `pmt serve --corrector` then apply.
//!
//! Training is bit-deterministic: a fixed `--seed` drives the
//! train/test split, accumulation is chunk-ordered, and the rows arrive
//! in deterministic workload-major point order — so two independent
//! runs over the same grid write byte-identical artifacts (CI's
//! fusion-smoke job asserts exactly this).

use crate::args::{CliError, Command, Flag};
use crate::commands::{Grid, CACHE_FLAG};
use pmt::ml::TrainOptions;

pub const TRAIN: Command = Command {
    name: "train",
    about: "train a residual corrector from a validation sweep",
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
        Flag::value("--out", "FILE", "write the ResidualModel JSON here"),
        CACHE_FLAG,
        Flag::value("--seed", "N", "train/test split seed (default 42)"),
        Flag::value("--lambda", "F", "ridge penalty (default 0.001)"),
        Flag::value(
            "--test-fraction",
            "F",
            "held-out fraction in [0,0.9] (default 0.25)",
        ),
        Flag::switch("--smoke", "tiny CI scale"),
    ],
};

pub fn run(args: &[String]) -> Result<(), CliError> {
    let parsed = match TRAIN.parse(args)? {
        Some(parsed) => parsed,
        None => return Ok(()),
    };
    let Some(out) = parsed.value("--out") else {
        return Err(CliError::Usage(
            "`pmt train` needs `--out FILE` (the corrector artifact is the whole point)"
                .to_string(),
        ));
    };
    // The grid is parsed by `pmt validate`'s own parser: a corrector
    // must be trained on the same rows validation grades it on.
    let grid = Grid::parse(&parsed)?;

    let defaults = TrainOptions::default();
    let options = TrainOptions {
        seed: parsed.parsed_or("--seed", "a split seed", defaults.seed)?,
        lambda: parsed.parsed_or("--lambda", "a positive penalty", defaults.lambda)?,
        test_fraction: parsed.parsed_or(
            "--test-fraction",
            "a fraction in [0, 0.9]",
            defaults.test_fraction,
        )?,
    };

    let validator = grid.validator()?;
    eprintln!("training rows: {}...", grid.describe());
    let data = validator.training_data();
    let model = pmt::ml::train(&data.rows, &data.profiles, &options)
        .map_err(|e| CliError::Runtime(e.to_string()))?;

    println!(
        "trained on {} rows ({} train / {} held out), seed {}, lambda {}",
        model.rows_total, model.rows_train, model.rows_test, model.seed, model.lambda
    );
    println!(
        "train mean |CPI error|: {:.2}% analytical -> {:.2}% corrected",
        model.train_mean_abs_cpi_before * 100.0,
        model.train_mean_abs_cpi_after * 100.0
    );
    if model.rows_test > 0 {
        println!(
            "held-out mean |CPI error|: {:.2}% analytical -> {:.2}% corrected",
            model.test_mean_abs_cpi_before * 100.0,
            model.test_mean_abs_cpi_after * 100.0
        );
    }

    grid.save_cache(&validator)?;
    std::fs::write(out, model.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("corrector artifact -> {out}");
    Ok(())
}
