//! The repository benchmark.
//!
//! Four workloads are timed end to end from outside the program, one
//! fresh sample process at a time; a separate traced run splits each
//! simulation's host time by layer. See `benchmark/README.md` for the
//! workloads, the metrics and the measurement discipline.
//!
//! This library holds everything except the paper suite itself, so the
//! sim sample binary never links `mapg-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

use mapg::fuzz::JsonValue;

pub mod metrics;
pub mod record;
pub mod sim;
pub mod stats;

/// The sample process's peak resident set in MiB (`VmHWM` of
/// `/proc/self/status`).
///
/// # Errors
///
/// Fails where `/proc` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Prints a sample process's result as its one JSON line, `"ok"` first,
/// and returns its exit code: success with the result's fields, or
/// failure with the error.
pub fn report_sample<K: Into<String>>(result: Result<Vec<(K, JsonValue)>, String>) -> ExitCode {
    let (ok, mut fields) = match result {
        Ok(fields) => (
            true,
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ),
        Err(error) => (false, vec![("error".to_owned(), JsonValue::String(error))]),
    };
    fields.insert(0, ("ok".to_owned(), JsonValue::Bool(ok)));
    println!("{}", mapg::fuzz::write_json(&JsonValue::Object(fields)));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A command line of `--flag value` pairs plus the `--smoke` switch
/// (a tiny run, for tests).
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    /// Whether `--smoke` was given.
    pub smoke: bool,
}

impl Args {
    /// Splits `args`, accepting only the flags named in `flags`.
    ///
    /// # Errors
    ///
    /// Names a stray argument, an unknown flag, or a flag missing its
    /// value.
    pub fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => parsed.smoke = true,
                Some(name) if flags.contains(&name) => {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    parsed.pairs.push((name.to_owned(), value.clone()));
                }
                _ => return Err(format!("unexpected argument '{arg}'")),
            }
        }
        Ok(parsed)
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Names a value that does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{raw}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_flags_and_smoke() {
        let flags = ["workload", "seed", "seconds"];
        let args = Args::parse(
            &strings(&["--workload", "w", "--smoke", "--seed", "3"]),
            &flags,
        )
        .unwrap();
        assert_eq!(args.get("workload"), Some("w"));
        assert_eq!(args.parsed("seed", 0u64), Ok(3));
        assert_eq!(args.parsed("seconds", 1.5f64), Ok(1.5));
        assert!(args.smoke);
        assert!(args.parsed::<u64>("workload", 0).is_err());
        assert!(Args::parse(&strings(&["--seed"]), &flags).is_err());
        assert!(Args::parse(&strings(&["--sed", "3"]), &flags).is_err());
        assert!(Args::parse(&strings(&["stray"]), &flags).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
