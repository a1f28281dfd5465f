//! `mapgd` — the MAPG simulation-as-a-service daemon.
//!
//! ```bash
//! mapgd [--addr 127.0.0.1:7070] [--max-jobs N] [--workers N]
//!       [--quota N] [--feed-capacity N] [--journal PATH]
//!       [--port-file PATH] [--paused]
//! ```
//!
//! Serves the line-delimited JSON protocol described in DESIGN.md §14.
//! `--port-file` writes the bound `host:port` atomically once
//! listening — the handshake a launcher (or the CI smoke step) uses
//! with `--addr 127.0.0.1:0`. Runs until a client sends `shutdown`.

use std::process::ExitCode;

use mapg_bench::{Daemon, DaemonConfig};

fn main() -> ExitCode {
    let mut config = DaemonConfig::default();
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => return usage("--addr needs a host:port"),
            },
            "--max-jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.max_jobs = n,
                _ => return usage("--max-jobs needs an integer >= 1"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.workers_total = n,
                _ => return usage("--workers needs an integer >= 1"),
            },
            "--quota" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.default_quota = n,
                _ => return usage("--quota needs an integer >= 1"),
            },
            "--feed-capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.feed_capacity = n,
                _ => return usage("--feed-capacity needs an integer >= 1"),
            },
            "--journal" => match args.next() {
                Some(path) => config.journal = Some(path.into()),
                None => return usage("--journal needs a path"),
            },
            "--port-file" => match args.next() {
                Some(path) => port_file = Some(path.into()),
                None => return usage("--port-file needs a path"),
            },
            "--paused" => config.paused = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let daemon = match Daemon::start(config) {
        Ok(daemon) => daemon,
        Err(error) => {
            eprintln!("mapgd: {error}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = port_file {
        let addr = daemon.local_addr().to_string();
        if let Err(error) = mapg::write_atomic(&path, addr.as_bytes()) {
            eprintln!("mapgd: cannot write port file {}: {error}", path.display());
            daemon.shutdown();
            daemon.wait();
            return ExitCode::FAILURE;
        }
    }
    daemon.wait();
    ExitCode::SUCCESS
}

const USAGE: &str = "\
mapgd — MAPG simulation-as-a-service daemon

USAGE:
    mapgd [OPTIONS]

OPTIONS:
    --addr HOST:PORT     bind address (default 127.0.0.1:0 = free port)
    --max-jobs N         concurrently running jobs (default 2)
    --workers N          host worker budget split across jobs
    --quota N            default per-client in-flight quota (default 2)
    --feed-capacity N    retained trace records per job feed
    --journal PATH       completion journal (replay results on restart)
    --port-file PATH     write the bound host:port here once listening
    --paused             start with dispatch paused ('resume' op starts it)";

fn usage(error: &str) -> ExitCode {
    eprintln!("mapgd: {error}\n\n{USAGE}");
    ExitCode::FAILURE
}
