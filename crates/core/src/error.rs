//! The crate's error type for user-supplied configuration.
//!
//! A run's configuration is checked in one place,
//! [`SimConfig::validate`](crate::SimConfig::validate), which
//! [`Simulation::try_run`](crate::Simulation::try_run) calls before
//! anything runs; the `SimConfig` setters only store their values. The
//! `mapgsim` CLI and other front-ends print the [`MapgError`] it returns;
//! [`Simulation::run`](crate::Simulation::run) panics with the same
//! message, which is what a bad hard-coded config in an experiment should
//! do.

use core::fmt;

/// Why a user-supplied configuration or name was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapgError {
    /// A configuration value is out of range or inconsistent. The message
    /// is the same text the component that owns the value panics with
    /// when it is built from it directly.
    InvalidConfig(String),
    /// A name (workload, policy, fault-plan preset) did not match anything
    /// known.
    UnknownName {
        /// What kind of name was looked up ("workload", "policy", ...).
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
}

impl MapgError {
    /// Shorthand for an [`MapgError::InvalidConfig`].
    pub fn invalid(message: impl Into<String>) -> Self {
        MapgError::InvalidConfig(message.into())
    }
}

impl fmt::Display for MapgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapgError::InvalidConfig(message) => f.write_str(message),
            MapgError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} '{name}'")
            }
        }
    }
}

impl std::error::Error for MapgError {}

impl From<mapg_cpu::RunError> for MapgError {
    /// Cluster/core run rejections surface as configuration errors: every
    /// one of them (zero instructions, no cores, a rejected hierarchy) is
    /// a bad user-supplied value.
    fn from(e: mapg_cpu::RunError) -> Self {
        MapgError::invalid(e.to_string())
    }
}

impl From<mapg_mem::ConfigError> for MapgError {
    /// Memory-hierarchy validation failures (zero DRAM banks, zero MSHRs,
    /// bad fault plans) surface as configuration errors with the same
    /// message text the memory constructors panic with.
    fn from(e: mapg_mem::ConfigError) -> Self {
        MapgError::invalid(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_errors_convert_to_invalid_config() {
        let e = MapgError::from(mapg_cpu::RunError::ZeroInstructions);
        assert_eq!(e, MapgError::invalid("must run at least one instruction"));
    }

    #[test]
    fn memory_errors_convert_to_invalid_config() {
        let e = MapgError::from(mapg_mem::ConfigError::ZeroBanks);
        assert_eq!(e, MapgError::invalid("DRAM needs at least one bank"));
        let e = MapgError::from(mapg_mem::ConfigError::ZeroMshrs);
        assert_eq!(e, MapgError::invalid("MSHR capacity must be non-zero"));
    }

    #[test]
    fn display_preserves_message() {
        let e = MapgError::invalid("need at least one core");
        assert_eq!(e.to_string(), "need at least one core");
        let e = MapgError::UnknownName {
            kind: "policy",
            name: "warp-drive".to_owned(),
        };
        assert_eq!(e.to_string(), "unknown policy 'warp-drive'");
    }
}
