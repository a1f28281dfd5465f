//! Fallible-entry-point errors for front-ends that must not abort.
//!
//! The panicking constructors and run methods keep their documented
//! behaviour (a bad hard-coded config in a benchmark *should* abort), but
//! each user-reachable validation also exists as a `try_*` method
//! returning [`RunError`], which CLI front-ends convert into error
//! messages instead of release-binary aborts.

use core::fmt;

/// Why a cluster/core construction or run request was rejected. The
/// corresponding panicking entry points abort with the same message text.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A run was asked to retire zero instructions.
    ZeroInstructions,
    /// A cluster was built from an empty source list.
    NoCores,
    /// The shared memory hierarchy's configuration was rejected (bad DRAM
    /// geometry, zero MSHRs, inconsistent fault plan, ...).
    Memory(mapg_mem::ConfigError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::ZeroInstructions => f.write_str("must run at least one instruction"),
            RunError::NoCores => f.write_str("a cluster needs at least one core"),
            RunError::Memory(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<mapg_mem::ConfigError> for RunError {
    fn from(e: mapg_mem::ConfigError) -> Self {
        RunError::Memory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_match_the_panicking_paths() {
        assert!(RunError::ZeroInstructions
            .to_string()
            .contains("at least one instruction"));
        assert!(RunError::NoCores.to_string().contains("at least one core"));
        let memory = RunError::from(mapg_mem::ConfigError::ZeroMshrs);
        assert!(memory
            .to_string()
            .contains("MSHR capacity must be non-zero"));
    }
}
