//! `mapg-client` — CLI for the `mapgd` daemon.
//!
//! ```bash
//! mapg-client --addr HOST:PORT submit R-T1 [--scale smoke] [--format csv]
//!             [--client NAME] [--priority N] [--wait]
//! mapg-client --addr HOST:PORT status ID
//! mapg-client --addr HOST:PORT cancel ID
//! mapg-client --addr HOST:PORT fetch ID          # payload to stdout
//! mapg-client --addr HOST:PORT stream ID         # event lines to stdout
//! mapg-client --addr HOST:PORT stats | ping | pause | resume | shutdown
//! mapg-client --addr HOST:PORT quota CLIENT N
//! ```
//!
//! `fetch` writes the job's rendered payload to stdout verbatim — for
//! CSV jobs those bytes diff cleanly against the `experiments` binary's
//! output and the committed goldens.

use std::process::ExitCode;
use std::time::Duration;

use mapg_bench::{Client, ClientError};
use mapg_obs::json;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(error) => {
            eprintln!("mapg-client: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, ClientError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = std::env::var("MAPGD_ADDR").unwrap_or_default();
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--addr" {
            match iter.next() {
                Some(value) => addr = value,
                None => return Ok(usage("--addr needs a host:port")),
            }
        } else {
            rest.push(arg);
        }
    }
    if addr.is_empty() {
        return Ok(usage("no daemon address (--addr or MAPGD_ADDR)"));
    }
    let client = Client::new(addr);
    let Some(command) = rest.first().map(String::as_str) else {
        return Ok(usage("no command"));
    };
    match command {
        "ping" => {
            let protocol = client.ping()?;
            println!("mapgd protocol v{protocol}");
        }
        "submit" => {
            let mut experiment = None;
            let mut scale = "smoke".to_owned();
            let mut format = "csv".to_owned();
            let mut client_name = "cli".to_owned();
            let mut priority = 0u8;
            let mut wait = false;
            let mut iter = rest[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--scale" => match iter.next() {
                        Some(value) => scale = value.clone(),
                        None => return Ok(usage("--scale needs a value")),
                    },
                    "--format" => match iter.next() {
                        Some(value) => format = value.clone(),
                        None => return Ok(usage("--format needs a value")),
                    },
                    "--client" => match iter.next() {
                        Some(value) => client_name = value.clone(),
                        None => return Ok(usage("--client needs a value")),
                    },
                    "--priority" => match iter.next().and_then(|v| v.parse().ok()) {
                        Some(value) => priority = value,
                        None => return Ok(usage("--priority needs 0-255")),
                    },
                    "--wait" => wait = true,
                    other if experiment.is_none() => experiment = Some(other.to_owned()),
                    other => return Ok(usage(&format!("unexpected argument '{other}'"))),
                }
            }
            let Some(experiment) = experiment else {
                return Ok(usage("submit needs an experiment id"));
            };
            let id = client.submit(&client_name, &experiment, &scale, &format, priority)?;
            eprintln!("job {id} submitted");
            if wait {
                let status = client.wait_terminal(id, Duration::from_secs(600))?;
                eprintln!("job {id} {}", status.state);
                if status.state != "done" {
                    return Ok(ExitCode::FAILURE);
                }
                print!("{}", client.fetch(id)?.payload);
            } else {
                println!("{id}");
            }
        }
        "status" => {
            let status = client.status(parse_id(&rest)?)?;
            let seq = status
                .started_seq
                .map(|s| format!(" started_seq={s}"))
                .unwrap_or_default();
            let error = status
                .error
                .map(|e| format!(" error={e:?}"))
                .unwrap_or_default();
            println!(
                "job {} {}{}{}{}",
                status.id,
                status.state,
                if status.replayed { " (replayed)" } else { "" },
                seq,
                error
            );
            if !status.terminal {
                return Ok(ExitCode::from(2)); // distinguishable "still going"
            }
        }
        "cancel" => {
            let id = parse_id(&rest)?;
            let cancelled = client.cancel(id)?;
            eprintln!(
                "job {id} {}",
                if cancelled {
                    "cancelled"
                } else {
                    "not cancellable"
                }
            );
            if !cancelled {
                return Ok(ExitCode::FAILURE);
            }
        }
        "fetch" => {
            let result = client.fetch(parse_id(&rest)?)?;
            print!("{}", result.payload);
        }
        "stream" => {
            let id = parse_id(&rest)?;
            let end = client.stream(id, 0, |event| {
                println!("{} {} {} {}", event.seq, event.at, event.scope, event.kind);
            })?;
            eprintln!(
                "stream end: total={} missed={} dropped={} state={}",
                end.total, end.missed, end.dropped, end.state
            );
        }
        "stats" => {
            println!("{}", json::write(&client.stats()?));
        }
        "quota" => {
            let (Some(client_name), Some(quota)) = (
                rest.get(1),
                rest.get(2).and_then(|v| v.parse::<usize>().ok()),
            ) else {
                return Ok(usage("quota needs CLIENT and N"));
            };
            client.set_quota(client_name, quota)?;
            eprintln!("quota for '{client_name}' set to {quota}");
        }
        "pause" => client.pause()?,
        "resume" => client.resume()?,
        "shutdown" => client.shutdown()?,
        other => return Ok(usage(&format!("unknown command '{other}'"))),
    }
    Ok(ExitCode::SUCCESS)
}

fn parse_id(rest: &[String]) -> Result<u64, ClientError> {
    rest.get(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ClientError::Protocol("this command needs a numeric job id".into()))
}

const USAGE: &str = "\
mapg-client — CLI for the mapgd daemon

USAGE:
    mapg-client --addr HOST:PORT COMMAND [ARGS]
    (MAPGD_ADDR env var also sets the address)

COMMANDS:
    ping
    submit EXPERIMENT [--scale S] [--format F] [--client C]
                      [--priority P] [--wait]
    status ID
    cancel ID
    fetch ID
    stream ID
    stats
    quota CLIENT N
    pause | resume | shutdown";

fn usage(error: &str) -> ExitCode {
    eprintln!("mapg-client: {error}\n\n{USAGE}");
    ExitCode::FAILURE
}
