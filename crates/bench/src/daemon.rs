//! `mapgd`: the simulation-as-a-service daemon.
//!
//! A long-running TCP server that accepts experiment jobs from many
//! concurrent clients, schedules them fairly across tenants, executes
//! them through the shared [`ExperimentJob`](crate::ExperimentJob)
//! engine (so a daemon-run CSV is byte-identical to the `experiments`
//! binary's), and streams each job's trace events to subscribers while
//! the job is still running.
//!
//! # Wire protocol (v1)
//!
//! Line-delimited JSON over TCP, one request per connection. The
//! client sends a single request line `{"op": "...", ...}`; the server
//! answers with one response line — except `stream`, which keeps the
//! connection open and writes one line per event followed by a
//! terminator line. Every non-stream response carries `"ok": true` or
//! `"ok": false` with an `"error"` string. The grammar (DESIGN §14):
//!
//! ```text
//! request    = object NL
//! op         = "ping" | "submit" | "status" | "cancel" | "fetch"
//!            | "stream" | "stats" | "quota" | "pause" | "resume"
//!            | "shutdown"
//! submit     = {op, client?, experiment, scale?, format?, priority?}
//! event-line = {"seq", "at", "scope", "kind"}
//! end-line   = {"stream_end": true, "total", "missed", "dropped", "state"}
//! ```
//!
//! # Scheduling model
//!
//! Jobs land in a [`FairQueue`]: FIFO per client, round-robin across
//! clients, higher [`Priority`] first, and a per-client in-flight
//! quota. `max_jobs` runner threads pull from the queue; each job's
//! *inner* fan-out (its `mapg::run_all` batches) is budgeted to
//! `workers_total / max_jobs` via the pool's thread-local override, so
//! N concurrent jobs never oversubscribe the host N-fold. Each job runs
//! as a single-item supervised batch, inheriting the supervisor's
//! cancellation and panic quarantine: a panicking experiment fails its
//! job, never the daemon.
//!
//! # Durability
//!
//! With a journal configured, every completed job is appended under the
//! key `<ID>@<scale>@<format>`; a restarted daemon replays completed
//! keys verbatim (byte-identical payloads) instead of re-running them.
//! The journal's advisory lock (see [`crate::JournalError::Held`])
//! keeps two daemons from interleaving rewrites of the same file; a
//! SIGKILLed daemon's stale lock is taken over on restart.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use mapg_obs::json::{self, JsonValue};
use mapg_obs::{EventHub, MetricsHub};
use mapg_pool::{CancelToken, FairQueue, JobOutcome, Priority, Supervisor};

use crate::engine::{ExperimentJob, OutputFormat};
use crate::experiments::{self, Experiment};
use crate::journal::{Journal, JournalEntry};
use crate::scale::Scale;

/// Wire protocol version, echoed by `ping`.
pub const PROTOCOL_VERSION: u32 = 1;

/// How often a streaming connection re-polls an idle feed (also the
/// granularity at which it notices daemon shutdown).
const STREAM_POLL: Duration = Duration::from_millis(100);

/// Everything [`Daemon::start`] needs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Concurrently *running* jobs (runner threads).
    pub max_jobs: usize,
    /// Host worker budget split evenly across the runners: each job's
    /// inner fan-out gets `max(1, workers_total / max_jobs)` workers.
    pub workers_total: usize,
    /// Default per-client in-flight quota (overridable per client with
    /// the `quota` op).
    pub default_quota: usize,
    /// Retained records per job event feed.
    pub feed_capacity: usize,
    /// Completion journal: completed jobs are appended and replayed
    /// byte-identically after a restart.
    pub journal: Option<PathBuf>,
    /// Start with dispatch paused (`resume` op starts it) — lets a
    /// test or operator stage a precise queue before anything runs.
    pub paused: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_jobs: 2,
            workers_total: mapg_pool::default_jobs(),
            default_quota: 2,
            feed_capacity: mapg_obs::DEFAULT_FEED_CAPACITY,
            journal: None,
            paused: false,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed(String),
    Cancelled,
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// What a runner needs to execute a job (the [`FairQueue`] payload).
#[derive(Debug, Clone)]
struct JobSpec {
    experiment: Experiment,
    scale: Scale,
    format: OutputFormat,
}

impl JobSpec {
    /// The journal entry id: pins everything that shapes the payload.
    fn journal_key(&self) -> String {
        format!(
            "{}@{}@{}",
            self.experiment.id,
            self.scale.name(),
            self.format.name()
        )
    }
}

/// Everything the daemon remembers about a job.
#[derive(Debug)]
struct JobRecord {
    client: String,
    spec: JobSpec,
    priority: Priority,
    state: JobState,
    /// Global dispatch ordinal, assigned when a runner picks the job
    /// up — the observable FIFO/fairness order for tests and tooling.
    started_seq: Option<u64>,
    attempts: u32,
    replayed: bool,
    payload: Option<String>,
    /// Metrics counters snapshot of a completed fresh run (empty for
    /// replays, whose runs were counted when first executed).
    counters: Vec<(String, u64)>,
    feed: EventHub,
    cancel: CancelToken,
}

/// Queue + registry under one lock: every scheduling decision and every
/// state read sees one consistent world.
#[derive(Debug)]
struct Core {
    fair: FairQueue<JobSpec>,
    jobs: BTreeMap<u64, JobRecord>,
}

struct Shared {
    core: Mutex<Core>,
    /// Runners park here; submit/resume/cancel/shutdown notify.
    work: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    started_seq: AtomicU64,
    journal: Option<Mutex<Journal>>,
    /// Per-job inner worker budget (precomputed from the config).
    job_budget: usize,
    feed_capacity: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("daemon core poisoned")
    }
}

/// A running daemon: accept thread + runner threads around a [`Shared`]
/// scheduler. Use [`Daemon::start`] then [`Daemon::wait`].
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    runners: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds, opens the journal (taking its lock), and spawns the
    /// accept and runner threads.
    ///
    /// # Errors
    ///
    /// A bind failure or journal error (held / malformed / mismatched)
    /// as a displayable message.
    pub fn start(config: DaemonConfig) -> Result<Daemon, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind '{}': {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let journal = match &config.journal {
            Some(path) => Some(Mutex::new(
                Journal::open(path, "mapgd").map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        let max_jobs = config.max_jobs.max(1);
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                fair: FairQueue::new(config.default_quota.max(1)),
                jobs: BTreeMap::new(),
            }),
            work: Condvar::new(),
            paused: AtomicBool::new(config.paused),
            shutdown: AtomicBool::new(false),
            started_seq: AtomicU64::new(0),
            journal,
            job_budget: (config.workers_total / max_jobs).max(1),
            feed_capacity: config.feed_capacity.max(1),
        });

        let runners = (0..max_jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mapgd-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn runner thread")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mapgd-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        eprintln!(
            "[mapgd] listening on {addr} ({max_jobs} runner(s) x {} worker(s), quota {})",
            shared.job_budget,
            config.default_quota.max(1)
        );
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            runners,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop: no new dispatches, runners drain, the
    /// accept loop exits. Equivalent to the `shutdown` op.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the daemon has shut down and every thread joined.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
        eprintln!("[mapgd] stopped");
    }
}

/// Flags shutdown, wakes the runners, and pokes the accept loop with a
/// throwaway connection so it re-checks the flag.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::Release);
    shared.work.notify_all();
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let addr = listener.local_addr().expect("listener address");
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("mapgd-conn".to_owned())
            .spawn(move || {
                if let Err(error) = handle_connection(stream, &shared, addr) {
                    eprintln!("[mapgd] connection error: {error}");
                }
            });
        if let Err(error) = spawned {
            eprintln!("[mapgd] cannot spawn connection thread: {error}");
        }
    }
}

fn runner_loop(shared: &Arc<Shared>) {
    loop {
        // Park until there is dispatchable work (or shutdown).
        let dispatch = {
            let mut core = shared.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !shared.paused.load(Ordering::Acquire) {
                    if let Some(dispatch) = core.fair.next() {
                        break dispatch;
                    }
                }
                core = shared.work.wait(core).expect("daemon core poisoned");
            }
        };
        let id = dispatch.id;
        let seq = shared.started_seq.fetch_add(1, Ordering::Relaxed);
        let (spec, feed, cancel) = {
            let mut core = shared.lock();
            let record = core.jobs.get_mut(&id).expect("dispatched job registered");
            record.state = JobState::Running;
            record.started_seq = Some(seq);
            (
                record.spec.clone(),
                record.feed.clone(),
                record.cancel.clone(),
            )
        };
        eprintln!(
            "[mapgd] job {id} start: {} for '{}' (dispatch #{seq})",
            spec.journal_key(),
            dispatch.client
        );

        let state = execute_job(shared, &spec, feed.clone(), cancel, id);

        {
            let mut core = shared.lock();
            core.fair.mark_done(&dispatch.client);
            let record = core.jobs.get_mut(&id).expect("running job registered");
            // A cancel that raced job completion keeps the cancel: the
            // client was already told the job was going away.
            if record.state == JobState::Running {
                eprintln!("[mapgd] job {id} {}", state.label());
                record.state = state;
            }
        }
        feed.close();
        shared.work.notify_all();
    }
}

/// Runs one job to a terminal state: replay from the journal when
/// completed before, otherwise a single-item supervised batch through
/// the shared engine (then journaled).
fn execute_job(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    feed: EventHub,
    cancel: CancelToken,
    id: u64,
) -> JobState {
    let key = spec.journal_key();
    if let Some(journal) = &shared.journal {
        let replay = journal
            .lock()
            .expect("journal poisoned")
            .completed("experiment", &key)
            .map(|e| (e.payload.clone(), e.attempts));
        if let Some((payload, attempts)) = replay {
            let mut core = shared.lock();
            let record = core.jobs.get_mut(&id).expect("job registered");
            record.payload = Some(payload);
            record.attempts = attempts;
            record.replayed = true;
            return JobState::Done;
        }
    }

    let supervisor = Supervisor::new(1).with_cancel_token(cancel);
    let budget = shared.job_budget;
    let job_spec = spec.clone();
    let started = std::time::Instant::now();
    let outcomes = supervisor.map_supervised(vec![()], move |_: &(), _| {
        let hub = MetricsHub::new();
        let mut job =
            ExperimentJob::new(job_spec.experiment, job_spec.scale, job_spec.format, budget);
        job.metrics_hub = Some(hub.clone());
        job.event_hub = Some(feed.clone());
        let output = job.execute();
        (output, hub.snapshot())
    });
    match outcomes.into_iter().next().expect("one outcome per job") {
        JobOutcome::Ok((output, metrics)) => {
            // Every job runs once; the journal and the wire keep the
            // attempt count their schema has always carried.
            let entry = JournalEntry::new(
                "experiment",
                key,
                0,
                1,
                started.elapsed().as_secs_f64() * 1e3,
                output.rendered.clone(),
                output.tables.clone(),
            );
            if let Some(journal) = &shared.journal {
                let appended = journal.lock().expect("journal poisoned").append(entry);
                if let Err(error) = appended {
                    eprintln!("[mapgd] job {id}: journal append failed: {error}");
                }
            }
            let mut core = shared.lock();
            let record = core.jobs.get_mut(&id).expect("job registered");
            record.payload = Some(output.rendered);
            record.attempts = 1;
            record.counters = metrics
                .counters()
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            JobState::Done
        }
        JobOutcome::Cancelled => JobState::Cancelled,
        JobOutcome::Panicked { message } => JobState::Failed(format!("panicked: {message}")),
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(()); // bare connect (the shutdown poke) — nothing to do
    }
    let mut stream = stream;
    let request = match json::parse(&line) {
        Ok(doc) => doc,
        Err(error) => return respond(&mut stream, &fail(format!("malformed request: {error}"))),
    };
    let Some(op) = request.get("op").and_then(JsonValue::as_str) else {
        return respond(&mut stream, &fail("missing 'op'".to_owned()));
    };
    match op {
        "ping" => respond(
            &mut stream,
            &ok(vec![
                ("server".into(), JsonValue::String("mapgd".into())),
                (
                    "protocol".into(),
                    JsonValue::Number(PROTOCOL_VERSION.to_string()),
                ),
            ]),
        ),
        "submit" => {
            let response = op_submit(shared, &request);
            respond(&mut stream, &response)
        }
        "status" => {
            let response = op_status(shared, &request);
            respond(&mut stream, &response)
        }
        "cancel" => {
            let response = op_cancel(shared, &request);
            respond(&mut stream, &response)
        }
        "fetch" => {
            let response = op_fetch(shared, &request);
            respond(&mut stream, &response)
        }
        "stream" => op_stream(shared, &request, &mut stream),
        "stats" => {
            let response = op_stats(shared);
            respond(&mut stream, &response)
        }
        "quota" => {
            let response = op_quota(shared, &request);
            respond(&mut stream, &response)
        }
        "pause" => {
            shared.paused.store(true, Ordering::Release);
            respond(&mut stream, &ok(vec![paused_field(true)]))
        }
        "resume" => {
            shared.paused.store(false, Ordering::Release);
            shared.work.notify_all();
            respond(&mut stream, &ok(vec![paused_field(false)]))
        }
        "shutdown" => {
            eprintln!("[mapgd] shutdown requested");
            let result = respond(&mut stream, &ok(Vec::new()));
            request_shutdown(shared, addr);
            result
        }
        other => respond(&mut stream, &fail(format!("unknown op '{other}'"))),
    }
}

fn op_submit(shared: &Arc<Shared>, request: &JsonValue) -> JsonValue {
    if shared.shutdown.load(Ordering::Acquire) {
        return fail("daemon is shutting down".to_owned());
    }
    let client = request
        .get("client")
        .and_then(JsonValue::as_str)
        .unwrap_or("anon")
        .to_owned();
    let Some(experiment_id) = request.get("experiment").and_then(JsonValue::as_str) else {
        return fail("submit needs 'experiment'".to_owned());
    };
    let Some(experiment) = experiments::find(experiment_id) else {
        return fail(format!("unknown experiment '{experiment_id}'"));
    };
    let scale_name = request
        .get("scale")
        .and_then(JsonValue::as_str)
        .unwrap_or("smoke");
    let Some(scale) = Scale::parse(scale_name) else {
        return fail(format!("unknown scale '{scale_name}'"));
    };
    let format_name = request
        .get("format")
        .and_then(JsonValue::as_str)
        .unwrap_or("csv");
    let Some(format) = OutputFormat::parse(format_name) else {
        return fail(format!("unknown format '{format_name}'"));
    };
    let priority = request
        .get("priority")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let Ok(priority) = Priority::try_from(priority) else {
        return fail(format!("priority {priority} out of range (0-255)"));
    };
    // Sharded runs were removed; a client still asking for them gets told
    // so instead of having the option silently dropped.
    if request.get("shards").is_some() {
        return fail("submit option 'shards' is no longer supported".to_owned());
    }
    let spec = JobSpec {
        experiment,
        scale,
        format,
    };
    let id = {
        let mut core = shared.lock();
        let id = core.fair.submit(&client, priority, spec.clone());
        core.jobs.insert(
            id,
            JobRecord {
                client: client.clone(),
                spec,
                priority,
                state: JobState::Queued,
                started_seq: None,
                attempts: 0,
                replayed: false,
                payload: None,
                counters: Vec::new(),
                feed: EventHub::new(shared.feed_capacity),
                cancel: CancelToken::new(),
            },
        );
        id
    };
    shared.work.notify_all();
    eprintln!("[mapgd] job {id} queued: {experiment_id} for '{client}' (priority {priority})");
    ok(vec![("id".into(), JsonValue::Number(id.to_string()))])
}

fn op_status(shared: &Arc<Shared>, request: &JsonValue) -> JsonValue {
    let Some(id) = request.get("id").and_then(JsonValue::as_u64) else {
        return fail("status needs 'id'".to_owned());
    };
    let core = shared.lock();
    let Some(record) = core.jobs.get(&id) else {
        return fail(format!("unknown job {id}"));
    };
    ok(status_fields(id, record))
}

fn op_cancel(shared: &Arc<Shared>, request: &JsonValue) -> JsonValue {
    let Some(id) = request.get("id").and_then(JsonValue::as_u64) else {
        return fail("cancel needs 'id'".to_owned());
    };
    let mut core = shared.lock();
    let Some(record) = core.jobs.get(&id) else {
        return fail(format!("unknown job {id}"));
    };
    let cancelled = match record.state {
        JobState::Queued => {
            // Still waiting: pull it out of the queue before a runner
            // can dispatch it.
            let removed = core.fair.cancel(id).is_some();
            let record = core.jobs.get_mut(&id).expect("job registered");
            if removed {
                record.state = JobState::Cancelled;
                record.feed.close();
            }
            removed
        }
        JobState::Running => {
            // Cancel the supervisor's batch token: the job thread is
            // abandoned (supervisor semantics) and the runner freed.
            record.cancel.cancel();
            let record = core.jobs.get_mut(&id).expect("job registered");
            record.state = JobState::Cancelled;
            true
        }
        _ => false, // already terminal
    };
    let record = core.jobs.get(&id).expect("job registered");
    let state = record.state.label().to_owned();
    drop(core);
    if cancelled {
        eprintln!("[mapgd] job {id} cancelled");
        shared.work.notify_all();
    }
    ok(vec![
        ("id".into(), JsonValue::Number(id.to_string())),
        ("cancelled".into(), JsonValue::Bool(cancelled)),
        ("state".into(), JsonValue::String(state)),
    ])
}

fn op_fetch(shared: &Arc<Shared>, request: &JsonValue) -> JsonValue {
    let Some(id) = request.get("id").and_then(JsonValue::as_u64) else {
        return fail("fetch needs 'id'".to_owned());
    };
    let core = shared.lock();
    let Some(record) = core.jobs.get(&id) else {
        return fail(format!("unknown job {id}"));
    };
    let JobState::Done = record.state else {
        return fail(format!("job {id} is {}, not done", record.state.label()));
    };
    let payload = record.payload.clone().unwrap_or_default();
    let counters = JsonValue::Object(
        record
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), JsonValue::Number(value.to_string())))
            .collect(),
    );
    ok(vec![
        ("id".into(), JsonValue::Number(id.to_string())),
        ("replayed".into(), JsonValue::Bool(record.replayed)),
        ("payload".into(), JsonValue::String(payload)),
        ("counters".into(), counters),
    ])
}

fn op_stream(
    shared: &Arc<Shared>,
    request: &JsonValue,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let Some(id) = request.get("id").and_then(JsonValue::as_u64) else {
        return respond(stream, &fail("stream needs 'id'".to_owned()));
    };
    let cursor = request.get("from").and_then(JsonValue::as_u64).unwrap_or(0);
    let feed = {
        let core = shared.lock();
        match core.jobs.get(&id) {
            Some(record) => record.feed.clone(),
            None => return respond(stream, &fail(format!("unknown job {id}"))),
        }
    };
    respond(
        stream,
        &ok(vec![
            ("id".into(), JsonValue::Number(id.to_string())),
            ("stream".into(), JsonValue::Bool(true)),
        ]),
    )?;
    let mut cursor = cursor;
    let mut missed = 0u64;
    loop {
        let batch = feed.wait(cursor, STREAM_POLL);
        missed += batch.missed;
        for (offset, record) in batch.records.iter().enumerate() {
            let seq = cursor + batch.missed + offset as u64;
            let line = JsonValue::Object(vec![
                ("seq".into(), JsonValue::Number(seq.to_string())),
                ("at".into(), JsonValue::Number(record.at.to_string())),
                ("scope".into(), JsonValue::String(record.scope.to_string())),
                (
                    "kind".into(),
                    JsonValue::String(record.kind.record_name().to_owned()),
                ),
            ]);
            respond(stream, &line)?;
        }
        cursor = batch.next_cursor;
        if batch.closed || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    let state = {
        let core = shared.lock();
        core.jobs
            .get(&id)
            .map(|r| r.state.label())
            .unwrap_or("unknown")
    };
    respond(
        stream,
        &JsonValue::Object(vec![
            ("stream_end".into(), JsonValue::Bool(true)),
            (
                "total".into(),
                JsonValue::Number(feed.published().to_string()),
            ),
            ("missed".into(), JsonValue::Number(missed.to_string())),
            (
                "dropped".into(),
                JsonValue::Number(feed.evicted().to_string()),
            ),
            ("state".into(), JsonValue::String(state.to_owned())),
        ]),
    )
}

fn op_stats(shared: &Arc<Shared>) -> JsonValue {
    let core = shared.lock();
    let clients = JsonValue::Array(
        core.fair
            .stats()
            .into_iter()
            .map(|stats| {
                JsonValue::Object(vec![
                    ("client".into(), JsonValue::String(stats.client)),
                    ("queued".into(), JsonValue::Number(stats.queued.to_string())),
                    (
                        "inflight".into(),
                        JsonValue::Number(stats.inflight.to_string()),
                    ),
                    ("quota".into(), JsonValue::Number(stats.quota.to_string())),
                ])
            })
            .collect(),
    );
    let mut by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
    for record in core.jobs.values() {
        *by_state.entry(record.state.label()).or_insert(0) += 1;
    }
    let jobs = JsonValue::Object(
        by_state
            .into_iter()
            .map(|(state, n)| (state.to_owned(), JsonValue::Number(n.to_string())))
            .collect(),
    );
    ok(vec![
        paused_field(shared.paused.load(Ordering::Acquire)),
        ("clients".into(), clients),
        ("jobs".into(), jobs),
    ])
}

fn op_quota(shared: &Arc<Shared>, request: &JsonValue) -> JsonValue {
    let Some(client) = request.get("client").and_then(JsonValue::as_str) else {
        return fail("quota needs 'client'".to_owned());
    };
    let Some(quota) = request.get("quota").and_then(JsonValue::as_usize) else {
        return fail("quota needs 'quota' (>= 1)".to_owned());
    };
    if quota == 0 {
        return fail("quota must be >= 1".to_owned());
    }
    shared.lock().fair.set_quota(client, quota);
    shared.work.notify_all();
    ok(vec![
        ("client".into(), JsonValue::String(client.to_owned())),
        ("quota".into(), JsonValue::Number(quota.to_string())),
    ])
}

fn status_fields(id: u64, record: &JobRecord) -> Vec<(String, JsonValue)> {
    let mut fields = vec![
        ("id".into(), JsonValue::Number(id.to_string())),
        (
            "state".into(),
            JsonValue::String(record.state.label().to_owned()),
        ),
        ("client".into(), JsonValue::String(record.client.clone())),
        (
            "experiment".into(),
            JsonValue::String(record.spec.experiment.id.to_owned()),
        ),
        (
            "scale".into(),
            JsonValue::String(record.spec.scale.name().to_owned()),
        ),
        (
            "format".into(),
            JsonValue::String(record.spec.format.name().to_owned()),
        ),
        (
            "priority".into(),
            JsonValue::Number(record.priority.to_string()),
        ),
        (
            "attempts".into(),
            JsonValue::Number(record.attempts.to_string()),
        ),
        ("replayed".into(), JsonValue::Bool(record.replayed)),
        (
            "terminal".into(),
            JsonValue::Bool(record.state.is_terminal()),
        ),
    ];
    if let Some(seq) = record.started_seq {
        fields.push(("started_seq".into(), JsonValue::Number(seq.to_string())));
    }
    if let JobState::Failed(reason) = &record.state {
        fields.push(("error".into(), JsonValue::String(reason.clone())));
    }
    fields
}

fn paused_field(paused: bool) -> (String, JsonValue) {
    ("paused".into(), JsonValue::Bool(paused))
}

fn ok(mut fields: Vec<(String, JsonValue)>) -> JsonValue {
    fields.insert(0, ("ok".into(), JsonValue::Bool(true)));
    JsonValue::Object(fields)
}

fn fail(error: String) -> JsonValue {
    JsonValue::Object(vec![
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::String(error)),
    ])
}

/// Writes one response line (the protocol is line-delimited).
fn respond(stream: &mut TcpStream, value: &JsonValue) -> std::io::Result<()> {
    let mut line = json::write(value);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One done job's status fields, byte for byte: the wire shape that
    /// clients parse, `"attempts": 1` included.
    #[test]
    fn done_job_status_renders_byte_for_byte() {
        let daemon = Daemon::start(DaemonConfig {
            max_jobs: 1,
            workers_total: 1,
            ..DaemonConfig::default()
        })
        .expect("daemon starts");
        let shared = Arc::clone(&daemon.shared);
        let submit = json::parse(
            r#"{"op": "submit", "client": "pin", "experiment": "R-T1", "scale": "smoke"}"#,
        )
        .unwrap();
        let id = op_submit(&shared, &submit)
            .get("id")
            .and_then(JsonValue::as_u64)
            .expect("submit returns an id");
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !shared.lock().jobs[&id].state.is_terminal() {
            assert!(
                std::time::Instant::now() < deadline,
                "job did not finish in time"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let request = json::parse(&format!(r#"{{"op": "status", "id": {id}}}"#)).unwrap();
        let status = json::write(&op_status(&shared, &request));
        daemon.shutdown();
        daemon.wait();
        assert_eq!(
            status,
            concat!(
                r#"{"ok": true, "id": 1, "state": "done", "client": "pin", "#,
                r#""experiment": "R-T1", "scale": "smoke", "format": "csv", "priority": 0, "#,
                r#""attempts": 1, "replayed": false, "terminal": true, "started_seq": 0}"#
            )
        );
    }
}
