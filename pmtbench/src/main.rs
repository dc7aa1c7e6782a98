//! `pmtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a record line (host, seed, commit, sample counts), then, as
//! the last line, the result object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, the per-layer
//! metrics traced. A traced run also writes its spans to
//! `.bench_out/<workload>-seed<n>.spans.json`.

use pmtbench::stats::{json_str, Host};
use pmtbench::{result_line, run, trace, Opts, Outcome, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: pmtbench --workload <suite_profile|frontier_sweep|serve_predict|serve_mixed> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::full(),
    })
}

fn record_line(opts: &Opts, host: &Host, outcome: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), json_str(opts.workload.name())),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), opts.seconds.to_string()),
        ("trace".to_string(), opts.trace.to_string()),
        (
            "available_parallelism".to_string(),
            host.available_parallelism.to_string(),
        ),
        ("cpu_model".to_string(), json_str(&host.cpu_model)),
        ("simd_level".to_string(), json_str(host.simd_level)),
        ("commit".to_string(), json_str(&host.commit)),
    ];
    // Allocator settings change what the serve workloads measure; the
    // benchmark sets none, but records any the caller did.
    for (name, value) in std::env::vars() {
        if name.starts_with("MALLOC_") || name == "GLIBC_TUNABLES" {
            fields.push((name, json_str(&value)));
        }
    }
    fields.extend(outcome.record.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Spans plus per-name totals and self times, written when the run ends.
fn write_spans(opts: &Opts, record: &str, outcome: &Outcome) -> std::io::Result<()> {
    let spans = &outcome.spans;
    let selfs = trace::self_times(spans);
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let summary: Vec<String> = names
        .iter()
        .map(|&name| {
            let (mut calls, mut total, mut own) = (0u64, 0u64, 0u64);
            for (s, self_ns) in spans.iter().zip(&selfs) {
                if s.name == name {
                    calls += 1;
                    total += s.ns();
                    own += self_ns;
                }
            }
            format!(
                "{{\"name\": {}, \"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                json_str(name)
            )
        })
        .collect();
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"id\": {}, \"count\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.id,
                s.count
            )
        })
        .collect();
    std::fs::create_dir_all(".bench_out")?;
    std::fs::write(
        format!(
            ".bench_out/{}-seed{}.spans.json",
            opts.workload.name(),
            opts.seed
        ),
        format!(
            "{{\"record\": {record},\n\"by_name\": [\n{}\n],\n\"spans\": [\n{}\n]}}\n",
            summary.join(",\n"),
            rows.join(",\n")
        ),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pmtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pmtbench: {} failed: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    let record = record_line(&opts, &host, &outcome);
    if opts.trace {
        if let Err(e) = write_spans(&opts, &record, &outcome) {
            eprintln!("pmtbench: writing spans: {e}");
        }
    }
    println!("{record}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
