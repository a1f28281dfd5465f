//! `mapg-client`: a thin typed client for the [`mapgd`](crate::daemon)
//! wire protocol.
//!
//! Every method opens one TCP connection, writes one request line, and
//! reads the response line(s) — mirroring the daemon's
//! one-request-per-connection model. There is no connection state to
//! manage; a [`Client`] is just the daemon's address.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mapg_obs::json::{self, JsonValue};

/// Errors a client call can hit: transport trouble, a malformed
/// response, or a daemon-side `"ok": false` refusal.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect, write, or read.
    Io(String),
    /// The response line was not the JSON the protocol promises.
    Protocol(String),
    /// The daemon answered `"ok": false` with this error message.
    Daemon(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(detail) => write!(f, "transport error: {detail}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Daemon(message) => write!(f, "daemon refused: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A submitted job's terminal summary, as reported by `status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// `queued` / `running` / `done` / `failed` / `cancelled`.
    pub state: String,
    /// True once the state can no longer change.
    pub terminal: bool,
    /// Global dispatch ordinal (present once the job started).
    pub started_seq: Option<u64>,
    /// Whether the payload was replayed from the daemon's journal.
    pub replayed: bool,
    /// Failure reason (`failed` only).
    pub error: Option<String>,
}

/// A fetched result: the rendered payload plus the run's counters.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id.
    pub id: u64,
    /// The rendered tables — byte-identical to the `experiments`
    /// binary's output for the same `(experiment, scale, format)`.
    pub payload: String,
    /// Metrics counter snapshot of the fresh run (empty for replays).
    pub counters: Vec<(String, u64)>,
    /// Whether this payload came from the journal.
    pub replayed: bool,
}

/// One streamed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEvent {
    /// Feed sequence number.
    pub seq: u64,
    /// Cycle timestamp.
    pub at: u64,
    /// Scope label (`core3`, `bank1`, `global`).
    pub scope: String,
    /// Per-variant event label (`sleep-enter`, `wake-done`, …).
    pub kind: String,
}

/// How a stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEnd {
    /// Records the feed published over its lifetime.
    pub total: u64,
    /// Records this subscriber skipped (cursor behind the buffer).
    pub missed: u64,
    /// Records the feed evicted before anyone could see them.
    pub dropped: u64,
    /// The job's state when the stream closed.
    pub state: String,
}

/// Client handle: the daemon's `host:port`.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7070`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client { addr: addr.into() }
    }

    /// Sends one request object, returns the parsed single-line
    /// response after checking `"ok"`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure, unparseable response, or a
    /// daemon-side refusal.
    pub fn roundtrip(&self, request: &JsonValue) -> Result<JsonValue, ClientError> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::Io(format!("connect '{}': {e}", self.addr)))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        send_line(&stream, request)?;
        let response = read_line(&mut reader)?
            .ok_or_else(|| ClientError::Protocol("daemon closed without responding".into()))?;
        check_ok(response)
    }

    /// `ping`: protocol handshake; returns the protocol version.
    pub fn ping(&self) -> Result<u64, ClientError> {
        let response = self.roundtrip(&request("ping", Vec::new()))?;
        response
            .get("protocol")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ClientError::Protocol("ping response lacks 'protocol'".into()))
    }

    /// `submit`: enqueues `experiment` for `client_name` and returns
    /// the job id.
    pub fn submit(
        &self,
        client_name: &str,
        experiment: &str,
        scale: &str,
        format: &str,
        priority: u8,
    ) -> Result<u64, ClientError> {
        let response = self.roundtrip(&request(
            "submit",
            vec![
                ("client".into(), JsonValue::String(client_name.to_owned())),
                (
                    "experiment".into(),
                    JsonValue::String(experiment.to_owned()),
                ),
                ("scale".into(), JsonValue::String(scale.to_owned())),
                ("format".into(), JsonValue::String(format.to_owned())),
                ("priority".into(), JsonValue::Number(priority.to_string())),
            ],
        ))?;
        response
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ClientError::Protocol("submit response lacks 'id'".into()))
    }

    /// `status` for one job.
    pub fn status(&self, id: u64) -> Result<JobStatus, ClientError> {
        let response = self.roundtrip(&request("status", vec![id_field(id)]))?;
        Ok(JobStatus {
            id,
            state: response
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            terminal: response
                .get("terminal")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            started_seq: response.get("started_seq").and_then(JsonValue::as_u64),
            replayed: response
                .get("replayed")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
            error: response
                .get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
        })
    }

    /// Polls `status` until the job reaches a terminal state.
    ///
    /// # Errors
    ///
    /// Any `status` error, or [`ClientError::Io`] when `timeout`
    /// elapses first.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Result<JobStatus, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.terminal {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Io(format!(
                    "job {id} still '{}' after {timeout:?}",
                    status.state
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// `cancel`: true if this call changed the job's fate.
    pub fn cancel(&self, id: u64) -> Result<bool, ClientError> {
        let response = self.roundtrip(&request("cancel", vec![id_field(id)]))?;
        Ok(response
            .get("cancelled")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false))
    }

    /// `fetch`: the rendered payload and counters of a `done` job.
    pub fn fetch(&self, id: u64) -> Result<JobResult, ClientError> {
        let response = self.roundtrip(&request("fetch", vec![id_field(id)]))?;
        let payload = response
            .get("payload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ClientError::Protocol("fetch response lacks 'payload'".into()))?
            .to_owned();
        let mut counters = Vec::new();
        if let Some(JsonValue::Object(fields)) = response.get("counters") {
            for (name, value) in fields {
                if let Some(value) = value.as_u64() {
                    counters.push((name.clone(), value));
                }
            }
        }
        Ok(JobResult {
            id,
            payload,
            counters,
            replayed: response
                .get("replayed")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        })
    }

    /// `stream`: subscribes to a job's trace feed from cursor `from`,
    /// calling `on_event` per record, until the feed closes. Returns
    /// the terminator's accounting.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a daemon refusal (unknown job).
    pub fn stream(
        &self,
        id: u64,
        from: u64,
        mut on_event: impl FnMut(StreamEvent),
    ) -> Result<StreamEnd, ClientError> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| ClientError::Io(format!("connect '{}': {e}", self.addr)))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        send_line(
            &stream,
            &request(
                "stream",
                vec![
                    id_field(id),
                    ("from".into(), JsonValue::Number(from.to_string())),
                ],
            ),
        )?;
        let header = read_line(&mut reader)?
            .ok_or_else(|| ClientError::Protocol("daemon closed without responding".into()))?;
        check_ok(header)?;
        loop {
            let Some(line) = read_line(&mut reader)? else {
                return Err(ClientError::Protocol(
                    "stream closed without a terminator".into(),
                ));
            };
            if line
                .get("stream_end")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false)
            {
                return Ok(StreamEnd {
                    total: line.get("total").and_then(JsonValue::as_u64).unwrap_or(0),
                    missed: line.get("missed").and_then(JsonValue::as_u64).unwrap_or(0),
                    dropped: line.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0),
                    state: line
                        .get("state")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("unknown")
                        .to_owned(),
                });
            }
            let event = StreamEvent {
                seq: line.get("seq").and_then(JsonValue::as_u64).unwrap_or(0),
                at: line.get("at").and_then(JsonValue::as_u64).unwrap_or(0),
                scope: line
                    .get("scope")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
                kind: line
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
            };
            on_event(event);
        }
    }

    /// `stats`: the daemon's queue/job overview, as raw JSON.
    pub fn stats(&self) -> Result<JsonValue, ClientError> {
        self.roundtrip(&request("stats", Vec::new()))
    }

    /// `quota`: sets `client_name`'s in-flight quota.
    pub fn set_quota(&self, client_name: &str, quota: usize) -> Result<(), ClientError> {
        self.roundtrip(&request(
            "quota",
            vec![
                ("client".into(), JsonValue::String(client_name.to_owned())),
                ("quota".into(), JsonValue::Number(quota.to_string())),
            ],
        ))?;
        Ok(())
    }

    /// `pause`: stop dispatching queued jobs (running jobs finish).
    pub fn pause(&self) -> Result<(), ClientError> {
        self.roundtrip(&request("pause", Vec::new()))?;
        Ok(())
    }

    /// `resume`: restart dispatch.
    pub fn resume(&self) -> Result<(), ClientError> {
        self.roundtrip(&request("resume", Vec::new()))?;
        Ok(())
    }

    /// `shutdown`: ask the daemon to stop.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        self.roundtrip(&request("shutdown", Vec::new()))?;
        Ok(())
    }
}

fn request(op: &str, mut fields: Vec<(String, JsonValue)>) -> JsonValue {
    fields.insert(0, ("op".into(), JsonValue::String(op.to_owned())));
    JsonValue::Object(fields)
}

fn id_field(id: u64) -> (String, JsonValue) {
    ("id".into(), JsonValue::Number(id.to_string()))
}

fn send_line(mut stream: &TcpStream, value: &JsonValue) -> Result<(), ClientError> {
    let mut line = json::write(value);
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| ClientError::Io(format!("write request: {e}")))
}

/// Reads one protocol line; `None` on clean EOF.
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<Option<JsonValue>, ClientError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| ClientError::Io(format!("read response: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    json::parse(&line)
        .map(Some)
        .map_err(|e| ClientError::Protocol(format!("bad response line: {e} in {line:?}")))
}

/// Rejects `"ok": false` responses as [`ClientError::Daemon`].
fn check_ok(response: JsonValue) -> Result<JsonValue, ClientError> {
    match response.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(response),
        Some(false) => Err(ClientError::Daemon(
            response
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified error")
                .to_owned(),
        )),
        None => Err(ClientError::Protocol(format!(
            "response lacks 'ok': {}",
            json::write(&response)
        ))),
    }
}
