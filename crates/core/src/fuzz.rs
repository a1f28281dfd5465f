//! Deterministic differential fuzzing and crash-repro primitives.
//!
//! The fuzzer generates seeded full-system scenarios ([`Scenario`]),
//! runs each through the live event-wheel stack *and* the frozen
//! reference stack ([`run_scenario`]), and classifies any disagreement —
//! report mismatch, broken invariant, non-reconciling ledger,
//! trace/metrics asymmetry, or outright panic — as a typed [`Finding`].
//! Findings are [shrunk](shrink) to minimal scenarios and written as
//! self-contained JSON [repro files](ReproFile) that `mapgsim --repro`
//! and committed regression tests replay bit-for-bit. Repro files go
//! through the workspace's one JSON codec, [`mapg_obs::json`], whose
//! parser and writer are re-exported here as [`parse_json`] and
//! [`write_json`].
//!
//! The campaign driver (scheduling, artifact directories, CLI) lives in
//! the `mapg-bench` crate's `mapg-fuzz` binary; this module holds
//! everything replay needs, so a repro file round-trips with no
//! dependency on the bench crate.

mod differ;
mod repro;
mod scenario;
mod shrink;

pub use differ::{check_reconciliation, run_scenario, Finding, FindingClass};
pub use mapg_obs::json::{parse as parse_json, write as write_json, JsonParseError, JsonValue};
pub use repro::{ReproFile, REPRO_SCHEMA};
pub use scenario::{PhaseSpec, ProfileSpec, Scenario, SplitMix64};
pub use shrink::{shrink, ShrinkOutcome};
