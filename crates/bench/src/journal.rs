//! The crash-safe completion journal of `mapgd`.
//!
//! `mapgd --journal FILE` appends one [`JournalEntry`] per *completed*
//! job. Every append rewrites the whole journal through
//! [`mapg::write_atomic`] (staged `*.tmp` + fsync + rename), so a
//! crash — including SIGKILL — at any instant leaves either the
//! previous journal or the new one at the final path, never a
//! truncated JSON. A stale partial `*.tmp` from a killed writer is
//! ignored (and left for the next atomic rename) on reopen.
//!
//! A restarted daemon replays the journal instead of the work: a
//! digest-verified entry's payload (the rendered tables) is served
//! verbatim, so the replayed result is byte-identical to the original
//! run and no completed job is re-executed.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "context": "mapgd",
//!   "entries": [
//!     {
//!       "kind": "experiment", "id": "R-T1@smoke@csv", "seed": 0,
//!       "digest": 1234567890, "outcome": "ok", "attempts": 1,
//!       "wall_ms": 12.345, "payload": "...",
//!       "tables": [{"id": "R-T1", "rows": 7}]
//!     }
//!   ]
//! }
//! ```
//!
//! The `context` string pins what the journal belongs to; opening it
//! for a different one is rejected instead of silently mixing
//! incompatible runs. Entry order is completion order (nondeterministic
//! under parallelism) — readers index by `(kind, id)`. The layout is
//! frozen at schema 1, `"outcome"` and `"attempts"` included, so
//! journals written by earlier builds still replay.
//!
//! # Cross-process exclusivity
//!
//! Whole-file rewrites are atomic per append but not serialized across
//! *processes*: two daemons on the same file would interleave rewrites
//! and silently lose each other's completions. [`Journal::open`]
//! therefore takes an advisory lock — a sibling `<journal>.lock`
//! sentinel created with `create_new` and holding the owner's pid —
//! released when the `Journal` drops. A sentinel naming a dead pid
//! (the holder crashed or was SIGKILLed) is taken over; a live holder
//! yields the typed [`JournalError::Held`].

use std::fmt;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use mapg_obs::json::{self, JsonValue};

use crate::manifest::TableSummary;

/// Journal file schema version.
pub const JOURNAL_SCHEMA: u32 = 1;

/// Why a journal could not be opened, locked, read, or written.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The journal's advisory lock is held by a live process.
    Held {
        /// The journal path that is locked.
        path: PathBuf,
        /// Pid of the holder; 0 when the sentinel exists but its
        /// holder could not be read.
        pid: u32,
    },
    /// An underlying I/O failure (reading or writing the journal, or
    /// creating its lock sentinel).
    Io {
        /// The journal path the operation targeted.
        path: PathBuf,
        /// What failed, including the OS error.
        detail: String,
    },
    /// The file exists but is not a valid journal document.
    Malformed {
        /// The journal path that failed to parse.
        path: PathBuf,
        /// What is wrong with the document.
        detail: String,
    },
    /// The journal was written under a different run configuration.
    ContextMismatch {
        /// The journal path.
        path: PathBuf,
        /// The context string stored in the journal.
        journal: String,
        /// The context string of the run trying to open it.
        run: String,
    },
    /// The journal was written by a different schema version.
    UnsupportedSchema {
        /// The journal path.
        path: PathBuf,
        /// The schema version found in the file.
        schema: u32,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Held { path, pid: 0 } => write!(
                f,
                "journal '{}' is locked by another process (holder unknown); \
                 remove '{}' if no other run is active",
                path.display(),
                lock_path(path).display()
            ),
            JournalError::Held { path, pid } => write!(
                f,
                "journal '{}' is locked by another process (pid {pid}); \
                 wait for it to finish or use a different --journal",
                path.display()
            ),
            JournalError::Io { path, detail } | JournalError::Malformed { path, detail } => {
                write!(f, "journal '{}': {detail}", path.display())
            }
            JournalError::ContextMismatch { path, journal, run } => write!(
                f,
                "journal '{}' was written by a different run configuration\n  journal: {journal}\n  this run: {run}",
                path.display()
            ),
            JournalError::UnsupportedSchema { path, schema } => write!(
                f,
                "journal '{}': unsupported schema {schema} (this build reads {JOURNAL_SCHEMA})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Sibling lock-sentinel path for `journal`: `<journal>.lock`.
fn lock_path(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_owned())
        .unwrap_or_default();
    name.push(".lock");
    journal.with_file_name(name)
}

/// True when `pid` names a live process. Checked via `/proc`; on hosts
/// without procfs the holder is conservatively assumed alive (no
/// stale-lock takeover, only an explicit sentinel removal unblocks).
/// A zombie (state `Z` in `/proc/<pid>/stat` — SIGKILLed but not yet
/// reaped, e.g. a daemon whose launching shell already exited) counts
/// as dead: it can never release the lock.
fn pid_alive(pid: u32) -> bool {
    if !Path::new("/proc").is_dir() {
        return true;
    }
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        // State is the field after the parenthesized comm (which may
        // itself contain spaces and parens — scan from the *last* `)`).
        Ok(stat) => !matches!(
            stat[stat.rfind(')').map_or(0, |i| i + 1)..]
                .split_whitespace()
                .next(),
            Some("Z") | Some("X")
        ),
        Err(_) => false,
    }
}

/// RAII advisory lock on a journal path (see the module docs).
#[derive(Debug)]
struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    const ATTEMPTS: u32 = 5;

    fn acquire(journal: &Path) -> Result<JournalLock, JournalError> {
        let path = lock_path(journal);
        // Each failed create either reports a live holder (typed
        // error), removes a stale sentinel and retries, or grants an
        // unreadable sentinel a grace period (its creator may be
        // between create_new and the pid write).
        for attempt in 1..=Self::ATTEMPTS {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let _ = file.write_all(format!("{}\n", std::process::id()).as_bytes());
                    let _ = file.sync_all();
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid != std::process::id() && !pid_alive(pid) => {
                            // Holder is gone (crashed / SIGKILLed): take
                            // over. Another contender may win the next
                            // create_new — the loop just re-checks.
                            let _ = std::fs::remove_file(&path);
                        }
                        Some(pid) => {
                            return Err(JournalError::Held {
                                path: journal.to_owned(),
                                pid,
                            });
                        }
                        None if attempt < Self::ATTEMPTS => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        None => {
                            return Err(JournalError::Held {
                                path: journal.to_owned(),
                                pid: 0,
                            });
                        }
                    }
                }
                Err(e) => {
                    return Err(JournalError::Io {
                        path: journal.to_owned(),
                        detail: format!("cannot create lock file '{}': {e}", path.display()),
                    });
                }
            }
        }
        Err(JournalError::Held {
            path: journal.to_owned(),
            pid: 0,
        })
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Job kind (`mapgd` writes `"experiment"`).
    pub kind: String,
    /// Job id (`mapgd` writes `<ID>@<scale>@<format>`).
    pub id: String,
    /// Seed the job ran under (0 when not applicable).
    pub seed: u64,
    /// FNV-1a digest of `payload` — verified on resume; a mismatch
    /// (corruption) re-runs the job instead of trusting the entry.
    pub digest: u64,
    /// Outcome label (`ok`; failed jobs are never journaled — they
    /// re-run on resume).
    pub outcome: String,
    /// Attempts the job took (`mapgd` runs each job once: 1).
    pub attempts: u32,
    /// Wall time of the original execution, in milliseconds. Kept for
    /// observability only; deterministic outputs never include it.
    pub wall_ms: f64,
    /// The job's replayable output: the experiment's rendered tables.
    pub payload: String,
    /// Summaries of the rendered tables.
    pub tables: Vec<TableSummary>,
}

impl JournalEntry {
    /// Builds an entry, computing the payload digest.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: impl Into<String>,
        id: impl Into<String>,
        seed: u64,
        attempts: u32,
        wall_ms: f64,
        payload: impl Into<String>,
        tables: Vec<TableSummary>,
    ) -> Self {
        let payload = payload.into();
        JournalEntry {
            kind: kind.into(),
            id: id.into(),
            seed,
            digest: fnv1a64(payload.as_bytes()),
            outcome: "ok".to_owned(),
            attempts,
            wall_ms,
            payload,
            tables,
        }
    }

    /// True when the stored digest matches the payload (entry is
    /// trustworthy to replay).
    pub fn digest_ok(&self) -> bool {
        self.digest == fnv1a64(self.payload.as_bytes())
    }
}

/// A crash-safe completion journal bound to one file and one run
/// configuration. Holds the advisory cross-process lock for its whole
/// lifetime; dropping the journal releases it.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    context: String,
    entries: Vec<JournalEntry>,
    _lock: JournalLock,
}

impl Journal {
    /// Opens the journal at `path` for the run described by `context`,
    /// taking the advisory `<path>.lock` sentinel.
    ///
    /// A missing file starts an empty journal. An existing file is
    /// parsed and validated: its context must equal `context` (a
    /// journal from a different configuration is an error, not a
    /// silent skip-list). A sibling `*.tmp` left by a crashed writer
    /// is ignored, and that writer's stale lock sentinel is taken over.
    ///
    /// # Errors
    ///
    /// [`JournalError::Held`] when another live process holds the
    /// journal; otherwise the typed read/parse/validation errors.
    pub fn open(
        path: impl Into<PathBuf>,
        context: impl Into<String>,
    ) -> Result<Journal, JournalError> {
        let path = path.into();
        let context = context.into();
        let lock = JournalLock::acquire(&path)?;
        if !path.exists() {
            return Ok(Journal {
                path,
                context,
                entries: Vec::new(),
                _lock: lock,
            });
        }
        let text = std::fs::read_to_string(&path).map_err(|e| JournalError::Io {
            path: path.clone(),
            detail: format!("cannot read: {e}"),
        })?;
        let (stored_context, entries) = Journal::parse_document(&path, &text)?;
        if stored_context != context {
            return Err(JournalError::ContextMismatch {
                path,
                journal: stored_context,
                run: context,
            });
        }
        Ok(Journal {
            path,
            context,
            entries,
            _lock: lock,
        })
    }

    /// All entries, in completion order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The digest-verified entry for `(kind, id)`, if completed.
    /// Corrupted entries (digest mismatch) are treated as absent so the
    /// job re-runs.
    pub fn completed(&self, kind: &str, id: &str) -> Option<&JournalEntry> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.id == id && e.digest_ok())
    }

    /// Appends `entry` and atomically rewrites the journal file.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write fails; the in-memory entry
    /// is kept either way (the caller decides whether a journal write
    /// failure is fatal).
    pub fn append(&mut self, entry: JournalEntry) -> Result<(), JournalError> {
        self.entries.push(entry);
        mapg::write_atomic(&self.path, self.to_json_text().as_bytes()).map_err(|e| {
            JournalError::Io {
                path: self.path.clone(),
                detail: format!("cannot write: {e}"),
            }
        })
    }

    /// Renders the journal as JSON (trailing newline included).
    pub fn to_json_text(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let tables = e
                    .tables
                    .iter()
                    .map(|t| {
                        JsonValue::Object(vec![
                            ("id".into(), JsonValue::String(t.id.clone())),
                            ("rows".into(), JsonValue::Number(t.rows.to_string())),
                        ])
                    })
                    .collect();
                JsonValue::Object(vec![
                    ("kind".into(), JsonValue::String(e.kind.clone())),
                    ("id".into(), JsonValue::String(e.id.clone())),
                    ("seed".into(), JsonValue::Number(e.seed.to_string())),
                    ("digest".into(), JsonValue::Number(e.digest.to_string())),
                    ("outcome".into(), JsonValue::String(e.outcome.clone())),
                    ("attempts".into(), JsonValue::Number(e.attempts.to_string())),
                    (
                        "wall_ms".into(),
                        JsonValue::Number(format!("{:.3}", e.wall_ms.max(0.0))),
                    ),
                    ("payload".into(), JsonValue::String(e.payload.clone())),
                    ("tables".into(), JsonValue::Array(tables)),
                ])
            })
            .collect();
        let doc = JsonValue::Object(vec![
            (
                "schema".into(),
                JsonValue::Number(JOURNAL_SCHEMA.to_string()),
            ),
            ("context".into(), JsonValue::String(self.context.clone())),
            ("entries".into(), JsonValue::Array(entries)),
        ]);
        let mut text = json::write(&doc);
        text.push('\n');
        text
    }

    /// Parses a journal document into its `(context, entries)`.
    fn parse_document(
        path: &Path,
        text: &str,
    ) -> Result<(String, Vec<JournalEntry>), JournalError> {
        let fail = |what: String| JournalError::Malformed {
            path: path.to_owned(),
            detail: what,
        };
        let doc = json::parse(text).map_err(|e| fail(format!("malformed JSON ({e})")))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_u32)
            .ok_or_else(|| fail("missing schema".into()))?;
        if schema != JOURNAL_SCHEMA {
            return Err(JournalError::UnsupportedSchema {
                path: path.to_owned(),
                schema,
            });
        }
        let context = doc
            .get("context")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| fail("missing context".into()))?
            .to_owned();
        let entries = match doc.get("entries") {
            Some(JsonValue::Array(items)) => items,
            _ => return Err(fail("missing entries array".into())),
        };
        let mut parsed = Vec::with_capacity(entries.len());
        for (i, item) in entries.iter().enumerate() {
            let field = |name: &str| fail(format!("entry {i}: field '{name}' missing or mistyped"));
            let get_str = |name: &str| {
                item.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| field(name))
            };
            let get_u64 = |name: &str| {
                item.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| field(name))
            };
            let wall_ms = item
                .get("wall_ms")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| field("wall_ms"))?;
            let mut tables = Vec::new();
            if let Some(JsonValue::Array(summaries)) = item.get("tables") {
                for summary in summaries {
                    tables.push(TableSummary {
                        id: summary
                            .get("id")
                            .and_then(JsonValue::as_str)
                            .ok_or_else(|| field("tables.id"))?
                            .to_owned(),
                        rows: summary
                            .get("rows")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| field("tables.rows"))?
                            as usize,
                    });
                }
            } else {
                return Err(field("tables"));
            }
            parsed.push(JournalEntry {
                kind: get_str("kind")?,
                id: get_str("id")?,
                seed: get_u64("seed")?,
                digest: get_u64("digest")?,
                outcome: get_str("outcome")?,
                attempts: get_u64("attempts")? as u32,
                wall_ms,
                payload: get_str("payload")?,
                tables,
            });
        }
        Ok((context, parsed))
    }
}

/// 64-bit FNV-1a over `bytes` — the journal's payload digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mapg-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(lock_path(&path)).ok();
        path
    }

    fn entry(id: &str, payload: &str) -> JournalEntry {
        JournalEntry::new(
            "experiment",
            id,
            0,
            1,
            3.25,
            payload,
            vec![TableSummary {
                id: id.to_owned(),
                rows: 2,
            }],
        )
    }

    #[test]
    fn appends_persist_and_reload() {
        let path = temp_path("roundtrip.json");
        let mut journal = Journal::open(&path, "test ctx").unwrap();
        journal.append(entry("R-T1", "a,b\n1,2\n")).unwrap();
        journal.append(entry("R-F5", "c\n3\n")).unwrap();
        let written = journal.entries().to_vec();
        drop(journal);

        let back = Journal::open(&path, "test ctx").unwrap();
        assert_eq!(back.entries(), written.as_slice());
        assert_eq!(
            back.completed("experiment", "R-T1").unwrap().payload,
            "a,b\n1,2\n"
        );
        assert!(back.completed("experiment", "R-T9").is_none());
        assert!(back.completed("scenario", "R-T1").is_none());
        std::fs::remove_file(&path).ok();
    }

    /// The complete two-entry document, byte for byte: `mapgd` replays
    /// journals written by earlier builds, so layout, field order and
    /// number formatting are part of the contract.
    #[test]
    fn two_entry_journal_renders_byte_for_byte() {
        let path = temp_path("pinned.json");
        let mut journal = Journal::open(&path, "mapgd").unwrap();
        journal.append(entry("R-T1", "a,b\n1,2\n")).unwrap();
        journal
            .append(JournalEntry::new(
                "scenario",
                "17",
                7,
                1,
                0.0,
                "",
                Vec::new(),
            ))
            .unwrap();
        let expected = concat!(
            r#"{"schema": 1, "context": "mapgd", "entries": ["#,
            r#"{"kind": "experiment", "id": "R-T1", "seed": 0, "digest": 7787991481131376385, "#,
            r#""outcome": "ok", "attempts": 1, "wall_ms": 3.250, "payload": "a,b\n1,2\n", "#,
            r#""tables": [{"id": "R-T1", "rows": 2}]}, "#,
            r#"{"kind": "scenario", "id": "17", "seed": 7, "digest": 14695981039346656037, "#,
            r#""outcome": "ok", "attempts": 1, "wall_ms": 0.000, "payload": "", "tables": []}]}"#,
            "\n"
        );
        assert_eq!(journal.to_json_text(), expected);
        drop(journal);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_context_is_rejected() {
        let path = temp_path("context.json");
        let mut journal = Journal::open(&path, "scale=smoke").unwrap();
        journal.append(entry("R-T1", "x")).unwrap();
        drop(journal);
        let err = Journal::open(&path, "scale=paper").unwrap_err();
        assert!(
            matches!(err, JournalError::ContextMismatch { .. }),
            "{err:?}"
        );
        assert!(
            err.to_string().contains("different run configuration"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A partial `*.tmp` left by a killed writer must not affect the
    /// journal: the real file still loads, appends still land, and the
    /// stray is recognizable by name so directory scans can skip it.
    #[test]
    fn partial_tmp_file_is_ignored_on_resume() {
        let path = temp_path("partial.json");
        let mut journal = Journal::open(&path, "ctx").unwrap();
        journal.append(entry("R-T1", "payload")).unwrap();
        drop(journal);
        // Simulate a crash mid-write of the *next* append.
        let stale = path.with_file_name(format!("partial.json.{}.999999.tmp", std::process::id()));
        std::fs::write(
            &stale,
            b"{\"schema\": 1, \"context\": \"ctx\", \"entries\": [{\"kind\": \"exp",
        )
        .unwrap();

        let mut back = Journal::open(&path, "ctx").unwrap();
        assert_eq!(back.entries().len(), 1, "tmp garbage must be invisible");
        back.append(entry("R-F5", "more")).unwrap();
        drop(back);
        assert_eq!(Journal::open(&path, "ctx").unwrap().entries().len(), 2);
        assert!(mapg::fsutil::is_tmp_name(
            stale.file_name().unwrap().to_str().unwrap()
        ));
        std::fs::remove_file(&stale).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_digest_reads_as_not_completed() {
        let path = temp_path("digest.json");
        let mut journal = Journal::open(&path, "ctx").unwrap();
        let mut bad = entry("R-T1", "payload");
        bad.digest ^= 0xFF;
        journal.append(bad).unwrap();
        drop(journal);
        let back = Journal::open(&path, "ctx").unwrap();
        assert!(
            back.completed("experiment", "R-T1").is_none(),
            "corrupted entry must re-run, not replay"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let path = temp_path("never-written.json");
        let journal = Journal::open(&path, "ctx").unwrap();
        assert!(journal.entries().is_empty());
        assert!(!path.exists(), "open must not create the journal file");
    }

    #[test]
    fn truncated_journal_is_a_clean_error() {
        let path = temp_path("truncated.json");
        std::fs::write(&path, "{\"schema\": 1, \"context\": \"ctx\", \"ent").unwrap();
        let err = Journal::open(&path, "ctx").unwrap_err();
        assert!(matches!(err, JournalError::Malformed { .. }), "{err:?}");
        assert!(err.to_string().contains("malformed JSON"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsupported_schema_is_a_typed_error() {
        let path = temp_path("schema.json");
        std::fs::write(
            &path,
            "{\"schema\": 99, \"context\": \"ctx\", \"entries\": []}",
        )
        .unwrap();
        let err = Journal::open(&path, "ctx").unwrap_err();
        assert_eq!(
            err,
            JournalError::UnsupportedSchema {
                path: path.clone(),
                schema: 99
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payloads_with_newlines_and_quotes_round_trip() {
        let path = temp_path("escaping.json");
        let payload = "id,\"quoted\"\nline2\r\n\ttabbed";
        let mut journal = Journal::open(&path, "ctx").unwrap();
        journal.append(entry("R-T1", payload)).unwrap();
        drop(journal);
        let back = Journal::open(&path, "ctx").unwrap();
        assert_eq!(
            back.completed("experiment", "R-T1").unwrap().payload,
            payload
        );
        std::fs::remove_file(&path).ok();
    }

    /// The advisory lock makes a second open fail with the typed
    /// `Held` error while the first journal is alive, and succeed once
    /// it drops (sentinel removed with it).
    #[test]
    fn second_open_while_held_is_a_typed_error() {
        let path = temp_path("held.json");
        let journal = Journal::open(&path, "ctx").unwrap();
        assert!(lock_path(&path).exists(), "open must create the sentinel");
        let err = Journal::open(&path, "ctx").unwrap_err();
        assert_eq!(
            err,
            JournalError::Held {
                path: path.clone(),
                pid: std::process::id()
            },
            "a live holder (this process) must be reported, not taken over"
        );
        assert!(err.to_string().contains("locked by another process"));
        drop(journal);
        assert!(
            !lock_path(&path).exists(),
            "drop must remove the lock sentinel"
        );
        let reopened = Journal::open(&path, "ctx");
        assert!(reopened.is_ok(), "{reopened:?}");
    }

    /// A sentinel naming a dead pid — the holder crashed or was
    /// SIGKILLed — must be taken over instead of blocking forever.
    #[test]
    fn stale_lock_from_dead_pid_is_taken_over() {
        if !Path::new("/proc").is_dir() {
            return; // liveness is unknowable without procfs — no takeover
        }
        let dead = (3_999_000..4_000_000)
            .rev()
            .find(|&pid| !pid_alive(pid))
            .expect("some pid in range is dead");
        let path = temp_path("stale-lock.json");
        std::fs::write(lock_path(&path), format!("{dead}\n")).unwrap();
        let mut journal = Journal::open(&path, "ctx").expect("stale lock must be taken over");
        journal.append(entry("R-T1", "x")).unwrap();
        let held = std::fs::read_to_string(lock_path(&path)).unwrap();
        assert_eq!(
            held.trim(),
            std::process::id().to_string(),
            "takeover must re-stamp the sentinel with the new holder"
        );
        drop(journal);
        std::fs::remove_file(&path).ok();
    }

    /// A sentinel with no readable pid cannot prove its holder is dead:
    /// after a grace period it is reported as held (pid 0), never
    /// silently stolen.
    #[test]
    fn unreadable_sentinel_is_reported_held() {
        let path = temp_path("anon-lock.json");
        std::fs::write(lock_path(&path), b"").unwrap();
        let err = Journal::open(&path, "ctx").unwrap_err();
        assert_eq!(
            err,
            JournalError::Held {
                path: path.clone(),
                pid: 0
            }
        );
        assert!(err.to_string().contains(".lock"), "{err}");
        std::fs::remove_file(lock_path(&path)).ok();
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
