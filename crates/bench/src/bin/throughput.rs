//! The dedicated throughput-benchmark binary.
//!
//! Runs exactly the `experiments --bench-throughput` mode and nothing
//! else. The measurement lives in its own binary on purpose: linking the
//! timed hot loop into the full experiment driver demonstrably shifts
//! LTO inlining and code layout enough to slow the optimized stack by
//! ~25% while leaving the reference stack untouched, which corrupts the
//! committed speedup ratios. Keeping this binary minimal lets dead-code
//! elimination strip the driver before LTO, so the measured code matches
//! what a focused consumer of the simulator would build.
//!
//! Usage: `throughput FILE [--throughput-baseline FILE] [--repeats N]
//! [--scale smoke|quick|paper|full]`

use std::process::ExitCode;

use mapg_bench::{run_throughput_cli, Scale};

const USAGE: &str = "usage: throughput FILE [--throughput-baseline FILE] [--repeats N] \
     [--scale smoke|quick|paper|full]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut scale = Scale::Smoke;
    let mut repeats = 7usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(name) = iter.next() else {
                    eprintln!("--scale needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Some(parsed) = Scale::parse(name) else {
                    eprintln!("unknown scale '{name}'\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = parsed;
            }
            "--repeats" => {
                let Some(value) = iter.next() else {
                    eprintln!("--repeats needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(parsed) if parsed > 0 => repeats = parsed,
                    _ => {
                        eprintln!("--repeats needs a positive integer, got '{value}'\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--throughput-baseline" => {
                let Some(path) = iter.next() else {
                    eprintln!("--throughput-baseline needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                baseline_path = Some(path.clone());
            }
            other if !other.starts_with('-') && out_path.is_none() => {
                out_path = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    run_throughput_cli(&out_path, baseline_path.as_deref(), scale, repeats)
}
