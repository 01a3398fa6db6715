//! A small, dependency-free command-line argument parser.
//!
//! Each subcommand declares its accepted value options and boolean switches
//! up front; unknown flags are rejected with a pointer to `--help` instead
//! of being silently ignored, so campaign scripts fail fast on typos.
//! Supported spellings: `--name value`, `--name=value`, `--switch`, and
//! bare positionals (file paths). `-h` is an alias for `--help`.

use std::fmt;

/// What a subcommand accepts.
pub struct Spec {
    /// Options that take a value (`--seeds 0..200`).
    pub options: &'static [&'static str],
    /// Boolean switches (`--quiet`).
    pub switches: &'static [&'static str],
    /// Whether bare positional arguments (file paths) are accepted.
    pub positionals: bool,
}

/// The parsed arguments of one subcommand invocation.
#[derive(Debug, Default)]
pub struct Parsed {
    options: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// A command-line usage error (reported on stderr with exit code 1, like
/// every hard failure).
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl Parsed {
    /// Parse `args` against a spec. `--help`/`-h` always parse as the
    /// `help` switch.
    pub fn parse(args: &[String], spec: &Spec) -> Result<Parsed, UsageError> {
        let mut parsed = Parsed::default();
        let mut iter = args.iter();
        while let Some(token) = iter.next() {
            if token == "--help" || token == "-h" {
                parsed.switches.push("help".to_owned());
                continue;
            }
            if let Some(flag) = token.strip_prefix("--") {
                if let Some((name, value)) = flag.split_once('=') {
                    if spec.switches.contains(&name) {
                        return Err(UsageError(format!(
                            "switch `--{name}` does not take a value"
                        )));
                    }
                    if !spec.options.contains(&name) {
                        return Err(unknown_flag(name, spec));
                    }
                    parsed.options.push((name.to_owned(), value.to_owned()));
                } else if spec.switches.contains(&flag) {
                    parsed.switches.push(flag.to_owned());
                } else if spec.options.contains(&flag) {
                    let value = iter
                        .next()
                        .ok_or_else(|| UsageError(format!("option `--{flag}` expects a value")))?;
                    parsed.options.push((flag.to_owned(), value.clone()));
                } else {
                    return Err(unknown_flag(flag, spec));
                }
            } else if spec.positionals {
                parsed.positionals.push(token.clone());
            } else {
                return Err(UsageError(format!(
                    "unexpected positional argument `{token}`"
                )));
            }
        }
        Ok(parsed)
    }

    /// The last value given for an option, if any.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// An option's value parsed into `T`, or `default` when absent.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, UsageError>
    where
        T::Err: fmt::Display,
    {
        match self.opt(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| UsageError(format!("invalid value for `--{name}`: {e}"))),
        }
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The bare positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

fn unknown_flag(name: &str, spec: &Spec) -> UsageError {
    let mut known: Vec<String> = spec
        .options
        .iter()
        .chain(spec.switches.iter())
        .map(|f| format!("--{f}"))
        .collect();
    known.sort();
    UsageError(format!(
        "unknown flag `--{name}` (accepted: {})",
        known.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        options: &["seeds", "out"],
        switches: &["quiet"],
        positionals: true,
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_options_switches_and_positionals() {
        let parsed = Parsed::parse(
            &strings(&[
                "--seeds",
                "0..4",
                "--quiet",
                "a.json",
                "--out=x.json",
                "b.json",
            ]),
            &SPEC,
        )
        .unwrap();
        assert_eq!(parsed.opt("seeds"), Some("0..4"));
        assert_eq!(parsed.opt("out"), Some("x.json"));
        assert!(parsed.switch("quiet"));
        assert!(!parsed.switch("help"));
        assert_eq!(parsed.positionals(), ["a.json", "b.json"]);
    }

    #[test]
    fn last_occurrence_of_an_option_wins() {
        let parsed =
            Parsed::parse(&strings(&["--seeds", "0..4", "--seeds", "1..2"]), &SPEC).unwrap();
        assert_eq!(parsed.opt("seeds"), Some("1..2"));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(Parsed::parse(&strings(&["--bogus"]), &SPEC).is_err());
        assert!(Parsed::parse(&strings(&["--seeds"]), &SPEC).is_err());
        assert!(Parsed::parse(&strings(&["--bogus=1"]), &SPEC).is_err());
        let switch_value = Parsed::parse(&strings(&["--quiet=true"]), &SPEC).unwrap_err();
        assert!(
            switch_value.to_string().contains("does not take a value"),
            "{switch_value}"
        );
        let no_positionals = Spec {
            positionals: false,
            ..SPEC
        };
        assert!(Parsed::parse(&strings(&["stray"]), &no_positionals).is_err());
    }

    #[test]
    fn help_aliases_parse_everywhere() {
        for alias in ["--help", "-h"] {
            let parsed = Parsed::parse(&strings(&[alias]), &SPEC).unwrap();
            assert!(parsed.switch("help"));
        }
    }

    #[test]
    fn opt_parse_applies_defaults_and_reports_bad_values() {
        let parsed = Parsed::parse(&strings(&["--seeds", "oops"]), &SPEC).unwrap();
        assert!(parsed
            .opt_parse::<holes::progen::SeedRange>("seeds", holes::progen::SeedRange::new(0, 1))
            .is_err());
        let empty = Parsed::parse(&[], &SPEC).unwrap();
        assert_eq!(empty.opt_parse("seeds", 7u64).unwrap(), 7);
    }
}
