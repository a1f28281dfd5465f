//! End-to-end tests of the `mapgd` daemon and `mapg-client` library:
//! multi-client fairness, quotas, cancellation, byte-identity of a
//! daemon-fetched CSV against the `experiments` binary and the
//! committed goldens, SIGKILL-the-daemon + journal resume (including
//! stale-lock takeover), and streaming reconciliation against the
//! final metrics counters (the PR 3 invariant, over the wire).

#![deny(unused)]

use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use mapg_bench::{Client, Daemon, DaemonConfig};

const WAIT: Duration = Duration::from_secs(300);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mapg-daemon-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// An in-process daemon bound to a free port, plus a client for it.
fn start(config: DaemonConfig) -> (Daemon, Client) {
    let daemon = Daemon::start(config).expect("daemon starts");
    let client = Client::new(daemon.local_addr().to_string());
    (daemon, client)
}

fn stop(daemon: Daemon, client: &Client) {
    client.shutdown().expect("shutdown accepted");
    daemon.wait();
}

/// A submit still carrying the removed `shards` option is refused with an
/// error reply, and nothing is queued for it.
#[test]
fn submit_with_a_retired_option_is_refused() {
    use mapg_obs::json::JsonValue;
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        paused: true,
        ..DaemonConfig::default()
    });
    let text = |s: &str| JsonValue::String(s.to_owned());
    for shards in ["1", "4"] {
        let request = JsonValue::Object(vec![
            ("op".into(), text("submit")),
            ("client".into(), text("a")),
            ("experiment".into(), text("R-T1")),
            ("shards".into(), JsonValue::Number(shards.to_owned())),
        ]);
        match client.roundtrip(&request) {
            Err(mapg_bench::ClientError::Daemon(message)) => {
                assert!(message.contains("'shards'"), "shards={shards}: {message}");
            }
            other => panic!("shards={shards}: expected an error reply, got {other:?}"),
        }
    }
    // The refusals registered no job at all.
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("jobs"),
        Some(&JsonValue::Object(Vec::new())),
        "{stats:?}"
    );
    stop(daemon, &client);
}

/// A request line nested far past the codec's depth limit gets a typed
/// error reply on its own connection; the daemon keeps serving.
#[test]
fn deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        paused: true,
        ..DaemonConfig::default()
    });
    let mut wire = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    writeln!(wire, "{}", "[".repeat(100_000)).expect("request");
    let mut reply = String::new();
    BufReader::new(wire).read_line(&mut reply).expect("reply");
    let reply = mapg_obs::json::parse(&reply).expect("reply is JSON");
    assert_eq!(
        reply.get("ok").and_then(|v| v.as_bool()),
        Some(false),
        "{reply:?}"
    );
    let error = reply.get("error").and_then(|v| v.as_str()).unwrap_or("");
    assert!(error.contains("malformed request"), "{error}");
    assert!(error.contains("nesting deeper than 64 levels"), "{error}");
    client.ping().expect("the daemon still answers ping");
    stop(daemon, &client);
}

/// Round-robin across clients, FIFO within a client, priority on top:
/// with one runner and a paused start, the dispatch order
/// (`started_seq`) is fully deterministic.
#[test]
fn dispatch_is_fair_across_clients_and_respects_priority() {
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        paused: true,
        ..DaemonConfig::default()
    });

    // Three tenants, all at priority 0: a has three jobs, b and c one
    // each. Round-robin must interleave a's backlog behind b and c.
    let a1 = client.submit("a", "R-T1", "smoke", "csv", 0).unwrap();
    let a2 = client.submit("a", "R-T2", "smoke", "csv", 0).unwrap();
    let a3 = client.submit("a", "R-T3", "smoke", "csv", 0).unwrap();
    let b1 = client.submit("b", "R-T1", "smoke", "csv", 0).unwrap();
    let c1 = client.submit("c", "R-T1", "smoke", "csv", 0).unwrap();
    // A latecomer at priority 9 jumps every queued priority-0 job.
    let urgent = client.submit("b", "R-T4", "smoke", "csv", 9).unwrap();

    client.resume().expect("resume accepted");
    let ids = [a1, a2, a3, b1, c1, urgent];
    for id in ids {
        let status = client.wait_terminal(id, WAIT).expect("job finishes");
        assert_eq!(status.state, "done", "job {id}: {status:?}");
    }

    let seq = |id| {
        client
            .status(id)
            .expect("status")
            .started_seq
            .expect("terminal job has started_seq")
    };
    let order: Vec<u64> = ids.iter().map(|&id| seq(id)).collect();
    // urgent (priority 9, client b) first; the round-robin cursor then
    // resumes *after* b: c1, a1, b1, a2, a3.
    assert_eq!(
        order,
        vec![2, 4, 5, 3, 1, 0],
        "dispatch order must be urgent, c1, a1, b1, a2, a3 (ids {ids:?})"
    );
    stop(daemon, &client);
}

/// A queued job cancels out of the queue; terminal jobs refuse; the
/// cancelled job's stream closes with state `cancelled`.
#[test]
fn cancellation_hits_queued_jobs_and_is_idempotent() {
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        paused: true,
        ..DaemonConfig::default()
    });
    let keep = client.submit("a", "R-T1", "smoke", "csv", 0).unwrap();
    let doomed = client.submit("a", "R-T2", "smoke", "csv", 0).unwrap();

    assert!(client.cancel(doomed).expect("cancel accepted"));
    let status = client.status(doomed).expect("status");
    assert_eq!(status.state, "cancelled");
    assert!(status.terminal);
    // Idempotent: a second cancel changes nothing.
    assert!(!client.cancel(doomed).expect("cancel accepted"));

    // The cancelled feed is closed: a stream subscription returns
    // immediately instead of waiting for a job that will never run.
    let end = client.stream(doomed, 0, |_| {}).expect("stream");
    assert_eq!(end.state, "cancelled");
    assert_eq!(end.total, 0);

    client.resume().expect("resume accepted");
    let status = client.wait_terminal(keep, WAIT).expect("job finishes");
    assert_eq!(status.state, "done");
    // Done jobs are not cancellable either.
    assert!(!client.cancel(keep).expect("cancel accepted"));
    stop(daemon, &client);
}

/// An in-flight quota of 1 keeps a tenant's jobs serialized even when
/// runners are free: the daemon never runs two of its jobs at once.
#[test]
fn per_client_quota_limits_concurrent_jobs() {
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 2,
        default_quota: 1,
        paused: true,
        ..DaemonConfig::default()
    });
    // Two simulating jobs — long enough (debug build) that a quota
    // violation would be observable as two concurrent running jobs.
    let j1 = client.submit("a", "R-F1", "smoke", "csv", 0).unwrap();
    let j2 = client.submit("a", "R-F2", "smoke", "csv", 0).unwrap();
    client.resume().expect("resume accepted");

    let deadline = Instant::now() + WAIT;
    loop {
        let stats = client.stats().expect("stats");
        let running = stats
            .get("jobs")
            .and_then(|jobs| jobs.get("running"))
            .and_then(mapg_obs::json::JsonValue::as_u64)
            .unwrap_or(0);
        assert!(running <= 1, "quota 1 must never admit 2 running jobs");
        let s1 = client.status(j1).expect("status");
        let s2 = client.status(j2).expect("status");
        if s1.terminal && s2.terminal {
            assert_eq!(s1.state, "done");
            assert_eq!(s2.state, "done");
            break;
        }
        assert!(Instant::now() < deadline, "jobs did not finish in time");
        std::thread::sleep(Duration::from_millis(5));
    }
    // FIFO under quota: j1 dispatched before j2.
    let seq1 = client.status(j1).unwrap().started_seq.unwrap();
    let seq2 = client.status(j2).unwrap().started_seq.unwrap();
    assert!(seq1 < seq2, "quota must preserve the tenant's FIFO order");
    stop(daemon, &client);
}

/// The acceptance gate: a daemon-fetched CSV is byte-identical to the
/// `experiments` binary's `--out-dir` file for the same config, and to
/// the committed golden.
#[test]
fn daemon_payload_matches_experiments_binary_and_golden() {
    let dir = temp_dir("byte-identity");
    let out_dir = dir.join("out");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--scale",
            "smoke",
            "--csv",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "rt1",
            "rf5",
        ])
        .output()
        .expect("experiments binary should spawn");
    assert!(output.status.success(), "{output:?}");

    let (daemon, client) = start(DaemonConfig::default());
    for id in ["R-T1", "R-F5"] {
        let job = client.submit("ci", id, "smoke", "csv", 0).unwrap();
        let status = client.wait_terminal(job, WAIT).expect("job finishes");
        assert_eq!(status.state, "done", "{status:?}");
        let fetched = client.fetch(job).expect("fetch");
        let reference = std::fs::read_to_string(out_dir.join(format!("{id}.csv")))
            .expect("experiments binary wrote the CSV");
        assert_eq!(
            fetched.payload, reference,
            "daemon {id} payload must be byte-identical to the experiments binary"
        );
    }
    // And against the committed golden, closing the loop to the repo's
    // regression corpus.
    let job = client.submit("ci", "rt1", "smoke", "csv", 0).unwrap();
    client.wait_terminal(job, WAIT).expect("job finishes");
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/r-t1.csv"),
    )
    .expect("committed golden");
    assert_eq!(client.fetch(job).expect("fetch").payload, golden);
    stop(daemon, &client);
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_mapgd(
    journal: &std::path::Path,
    port_file: &std::path::Path,
    log: &std::path::Path,
) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mapgd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--max-jobs",
            "1",
            "--journal",
            journal.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::fs::File::create(log).expect("log file"))
        .spawn()
        .expect("mapgd binary should spawn")
}

fn read_port_file(port_file: &std::path::Path, child: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("mapgd exited before listening: {status}");
        }
        assert!(Instant::now() < deadline, "mapgd wrote no port file");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Kill the daemon mid-job (SIGKILL — the journal lock sentinel stays
/// behind with a dead pid), restart on the same journal, and prove:
/// the completed job replays byte-identically, the interrupted job
/// re-runs, and the stale lock was taken over.
#[test]
fn sigkill_daemon_then_restart_resumes_from_journal() {
    let dir = temp_dir("kill-resume");
    let journal = dir.join("journal.json");
    let port_file = dir.join("port");

    let mut child = spawn_mapgd(&journal, &port_file, &dir.join("mapgd-1.log"));
    let client = Client::new(read_port_file(&port_file, &mut child).trim().to_owned());
    client.ping().expect("daemon answers");

    // One job to completion: journaled.
    let done = client.submit("a", "R-T1", "smoke", "csv", 0).unwrap();
    let status = client.wait_terminal(done, WAIT).expect("job finishes");
    assert_eq!(status.state, "done");
    assert!(!status.replayed, "first run is fresh");
    let reference = client.fetch(done).expect("fetch").payload;

    // A second, simulating job: kill the daemon while it runs (or, if
    // it wins the race and finishes, the restart replays it — the
    // byte-identity assertion below holds either way).
    let victim = client.submit("a", "R-F1", "smoke", "csv", 0).unwrap();
    let deadline = Instant::now() + WAIT;
    loop {
        let state = client.status(victim).expect("status").state;
        if state == "running" || state == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "victim never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL daemon");
    child.wait().expect("reap daemon");
    assert!(
        journal.with_file_name("journal.json.lock").exists(),
        "a SIGKILLed daemon must leave its lock sentinel behind"
    );

    // Restart on the same journal: stale-lock takeover + replay.
    std::fs::remove_file(&port_file).ok();
    let mut child = spawn_mapgd(&journal, &port_file, &dir.join("mapgd-2.log"));
    let client = Client::new(read_port_file(&port_file, &mut child).trim().to_owned());

    let replay = client.submit("a", "R-T1", "smoke", "csv", 0).unwrap();
    let status = client.wait_terminal(replay, WAIT).expect("job finishes");
    assert_eq!(status.state, "done");
    assert!(status.replayed, "journaled job must replay, not re-run");
    assert_eq!(
        client.fetch(replay).expect("fetch").payload,
        reference,
        "replayed payload must be byte-identical to the original run"
    );

    let rerun = client.submit("a", "R-F1", "smoke", "csv", 0).unwrap();
    let status = client.wait_terminal(rerun, WAIT).expect("job finishes");
    assert_eq!(status.state, "done");
    let fetched = client.fetch(rerun).expect("fetch");
    assert!(
        fetched.payload.starts_with("# R-F1 — "),
        "{}",
        fetched.payload
    );

    client.shutdown().expect("shutdown accepted");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "mapgd did not exit on shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR 3 reconciliation invariant, over the wire: the number of
/// `sleep-enter` events streamed from a job's feed equals the job's
/// final `gates + regates` counters — the stream is a faithful,
/// incremental view of the same activity the metrics aggregate.
#[test]
fn streamed_events_reconcile_with_final_metrics() {
    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        // Roomy feed: the invariant needs a lossless stream.
        feed_capacity: 1 << 22,
        ..DaemonConfig::default()
    });
    // R-F5 runs the MAPG gating policy, so the stream carries
    // sleep-enter events (R-F1 only measures ungated stalls).
    let job = client.submit("a", "R-F5", "smoke", "csv", 0).unwrap();

    // Subscribe while the job runs (the stream drains incrementally and
    // only ends when the feed closes at job completion).
    let mut sleep_enters = 0u64;
    let mut total_seen = 0u64;
    let end = client
        .stream(job, 0, |event| {
            total_seen += 1;
            if event.kind == "sleep-enter" {
                sleep_enters += 1;
            }
        })
        .expect("stream");
    assert_eq!(end.state, "done");
    assert_eq!(end.missed, 0, "subscriber started at cursor 0");
    assert_eq!(end.dropped, 0, "feed must not evict at smoke scale");
    assert_eq!(end.total, total_seen, "every published record was seen");
    assert!(sleep_enters > 0, "a gating run must gate at least once");

    let counters = client.fetch(job).expect("fetch").counters;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(
        sleep_enters,
        counter("gates") + counter("regates"),
        "streamed sleep-enter events must equal the final gate counters"
    );
    stop(daemon, &client);
}

/// Pins the rendered event lines of one job's `stream` (and its end
/// line) by FNV-1a digest. One runner with one worker publishes the
/// job's runs in order into a roomy feed, so the wire bytes are a pure
/// function of the experiment.
#[test]
fn streamed_event_lines_are_pinned() {
    use std::io::{BufRead, BufReader, Write};

    let (daemon, client) = start(DaemonConfig {
        max_jobs: 1,
        workers_total: 1,
        feed_capacity: 1 << 22,
        ..DaemonConfig::default()
    });
    let job = client.submit("a", "R-F5", "smoke", "csv", 0).unwrap();
    let mut wire = std::net::TcpStream::connect(daemon.local_addr()).expect("connect");
    writeln!(wire, "{{\"op\": \"stream\", \"id\": {job}, \"from\": 0}}").expect("request");
    let mut lines = BufReader::new(wire).lines();
    let header = lines.next().expect("header").expect("read header");
    assert!(header.contains("\"stream\": true"), "header: {header}");
    let (mut events, mut rendered) = (0u64, String::new());
    for line in lines {
        let line = line.expect("read line");
        rendered.push_str(&line);
        rendered.push('\n');
        if line.contains("\"stream_end\"") {
            break;
        }
        events += 1;
    }
    let digest = mapg_bench::fnv1a64(rendered.as_bytes());
    assert_eq!((events, digest), (108_222, 0x6a80_4283_84b9_ab78));
    stop(daemon, &client);
}
