//! The one flag parser every subcommand shares.
//!
//! Each subcommand declares its [`Command`]: positionals, flags (with or
//! without a value), one-line help per flag. Parsing then behaves
//! identically everywhere:
//!
//! * `--help`/`-h` prints the subcommand's generated help and exits 0;
//! * an unknown flag is a usage error **naming the flag and the
//!   subcommand** and listing what the subcommand accepts;
//! * a value flag without a value, or an unparsable value, is a usage
//!   error naming the flag;
//! * usage errors exit 2, runtime errors exit 1 (see [`CliError`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// A CLI failure, split by whose fault it is: `Usage` (the invocation is
/// wrong — exit 2) or `Runtime` (the work failed — exit 1).
#[derive(Debug)]
pub enum CliError {
    /// The invocation is malformed; the message names the offender.
    Usage(String),
    /// The command ran and failed.
    Runtime(String),
}

impl CliError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Runtime(_) => ExitCode::FAILURE,
        }
    }

    /// The message.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => m,
        }
    }
}

/// Runtime errors are the common case for `?` on I/O and model failures.
impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError::Runtime(message)
    }
}

/// One flag a subcommand accepts.
pub struct Flag {
    /// The flag, with dashes (`--out`).
    pub name: &'static str,
    /// Metavariable when the flag takes a value (`Some("FILE")`), `None`
    /// for a switch.
    pub value: Option<&'static str>,
    /// One-line help.
    pub help: &'static str,
}

impl Flag {
    /// A flag taking a value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(metavar),
            help,
        }
    }

    /// A boolean switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }
}

/// A subcommand's full flag grammar.
pub struct Command {
    /// Subcommand name (`explore`).
    pub name: &'static str,
    /// One-line description for the top-level help.
    pub about: &'static str,
    /// Positional-argument sketch (`"<workload>"`, `""` for none).
    pub positionals: &'static str,
    /// Every accepted flag.
    pub flags: &'static [Flag],
}

impl Command {
    /// The generated `--help` text.
    pub fn help(&self) -> String {
        let mut out = format!(
            "pmt {} — {}\n\nUSAGE:\n  pmt {}",
            self.name, self.about, self.name
        );
        if !self.positionals.is_empty() {
            let _ = write!(out, " {}", self.positionals);
        }
        if !self.flags.is_empty() {
            out.push_str(" [FLAGS]\n\nFLAGS:");
            for f in self.flags {
                let mut left = f.name.to_string();
                if let Some(metavar) = f.value {
                    let _ = write!(left, " {metavar}");
                }
                let _ = write!(out, "\n  {left:<24} {}", f.help);
            }
        }
        out.push_str("\n  --help                   show this help");
        out
    }

    /// Parse `args`. Returns `Ok(None)` when `--help` was printed (the
    /// caller exits 0), `Err` on a usage mistake.
    pub fn parse(&self, args: &[String]) -> Result<Option<Parsed>, CliError> {
        let mut parsed = Parsed {
            positionals: Vec::new(),
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", self.help());
                return Ok(None);
            }
            if arg.starts_with("--") {
                let flag = arg.as_str();
                let Some(spec) = self.flags.iter().find(|f| f.name == flag) else {
                    let known: Vec<&str> = self.flags.iter().map(|f| f.name).collect();
                    return Err(CliError::Usage(format!(
                        "unknown flag `{flag}` for `pmt {}` (accepted: {}{}--help)",
                        self.name,
                        known.join(", "),
                        if known.is_empty() { "" } else { ", " },
                    )));
                };
                if spec.value.is_some() {
                    let Some(value) = it.next() else {
                        return Err(CliError::Usage(format!(
                            "flag `{flag}` of `pmt {}` needs a value ({})",
                            self.name,
                            spec.value.unwrap_or("VALUE"),
                        )));
                    };
                    parsed
                        .values
                        .entry(spec.name)
                        .or_default()
                        .push(value.clone());
                } else {
                    parsed.switches.push(spec.name);
                }
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        Ok(Some(parsed))
    }
}

/// The parsed invocation of one subcommand.
pub struct Parsed {
    positionals: Vec<String>,
    values: HashMap<&'static str, Vec<String>>,
    switches: Vec<&'static str>,
}

impl Parsed {
    /// All positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The one positional argument a command requires.
    pub fn required_positional(&self, what: &str, command: &str) -> Result<&str, CliError> {
        self.positionals.first().map(String::as_str).ok_or_else(|| {
            CliError::Usage(format!(
                "`pmt {command}` needs {what} (see `pmt {command} --help`)"
            ))
        })
    }

    /// Last value of a flag (`--x a --x b` → `b`), `None` if absent.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every value of a repeatable flag, in order.
    pub fn values(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Parse a flag's value, or report a usage error naming the flag.
    pub fn parsed<T: FromStr>(&self, name: &str, want: &str) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| {
                CliError::Usage(format!("invalid value `{raw}` for `{name}` (want {want})"))
            }),
        }
    }

    /// [`parsed`](Self::parsed) with a default.
    pub fn parsed_or<T: FromStr>(&self, name: &str, want: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(name, want)?.unwrap_or(default))
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CMD: Command = Command {
        name: "demo",
        about: "a test command",
        positionals: "<thing>",
        flags: &[
            Flag::value("--out", "FILE", "write here"),
            Flag::value("--n", "N", "how many"),
            Flag::switch("--fast", "go fast"),
        ],
    };

    #[test]
    fn parses_positionals_values_switches_and_repeats() {
        let args: Vec<String> = ["x", "--n", "5", "--fast", "--out", "a", "--out", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = CMD.parse(&args).unwrap().unwrap();
        assert_eq!(p.positionals(), &["x".to_string()]);
        assert_eq!(p.required_positional("a thing", "demo").unwrap(), "x");
        assert_eq!(p.parsed::<u32>("--n", "a count").unwrap(), Some(5));
        assert!(p.switch("--fast"));
        assert_eq!(p.value("--out"), Some("b"));
        assert_eq!(p.values("--out"), &["a".to_string(), "b".to_string()]);
        assert_eq!(p.parsed_or::<u64>("--missing", "a count", 7).unwrap(), 7);
    }

    #[test]
    fn unknown_flag_names_flag_and_subcommand() {
        let args = vec!["--bogus".to_string()];
        let err = match CMD.parse(&args) {
            Err(e) => e,
            Ok(_) => panic!("expected a usage error"),
        };
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.message().contains("--bogus"));
        assert!(err.message().contains("pmt demo"));
        assert!(err.message().contains("--out"));
        assert_eq!(err.exit_code(), ExitCode::from(2));
    }

    #[test]
    fn missing_value_and_bad_value_name_the_flag() {
        let args = vec!["--out".to_string()];
        let err = CMD.parse(&args).err().unwrap();
        assert!(err.message().contains("--out"));
        assert!(err.message().contains("FILE"));

        let args: Vec<String> = ["--n", "lots"].iter().map(|s| s.to_string()).collect();
        let p = CMD.parse(&args).unwrap().unwrap();
        let err = p.parsed::<u32>("--n", "a count").err().unwrap();
        assert!(err.message().contains("lots"));
        assert!(err.message().contains("--n"));
    }

    /// One argv token: a flag the command declares, `--`-prefixed junk,
    /// an empty string, non-ASCII text, or a plain positional.
    fn token(command: &Command, kind: u8, pick: usize) -> String {
        const OTHER: [&str; 6] = ["", "--", "--é", "ünïcode", "--日本", "-"];
        match kind {
            0 | 1 if !command.flags.is_empty() => {
                command.flags[pick % command.flags.len()].name.to_string()
            }
            2 => format!("--junk{}", pick % 7),
            3 => OTHER[pick % OTHER.len()].to_string(),
            _ => format!("value{}", pick % 5),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile argv for every subcommand never panics the parser, and
        /// every refusal is a usage error (exit 2), never a runtime one.
        #[test]
        fn hostile_argv_is_parsed_or_refused_as_usage(
            which in any::<usize>(),
            raw in prop::collection::vec((0u8..5, any::<usize>()), 0..10),
        ) {
            let commands = crate::all_commands();
            let command = commands[which % commands.len()];
            let argv: Vec<String> =
                raw.iter().map(|&(kind, pick)| token(command, kind, pick)).collect();
            match command.parse(&argv) {
                Ok(_) => {}
                Err(e) => prop_assert!(
                    matches!(e, CliError::Usage(_)),
                    "`pmt {}` {argv:?}: {}",
                    command.name,
                    e.message()
                ),
            }
        }
    }

    /// A value flag takes the next token verbatim, even one that looks
    /// like a flag: `--out-dir --smoke` writes into `--smoke` and leaves
    /// the switch off.
    #[test]
    fn a_value_flag_consumes_the_next_token_verbatim() {
        let args: Vec<String> = ["--out-dir", "--smoke"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let p = crate::commands::REPORT.parse(&args).unwrap().unwrap();
        assert_eq!(p.value("--out-dir"), Some("--smoke"));
        assert!(!p.switch("--smoke"));
    }

    #[test]
    fn help_lists_every_flag() {
        let help = CMD.help();
        for f in CMD.flags {
            assert!(help.contains(f.name), "help misses {}", f.name);
        }
        assert!(help.contains("pmt demo"));
        assert!(help.contains("<thing>"));
    }
}
