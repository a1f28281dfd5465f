//! The crate's error type for rejected memory-component configurations.
//!
//! [`HierarchyConfig::try_validate`](crate::HierarchyConfig::try_validate)
//! (and [`MemoryHierarchy::try_new`](crate::MemoryHierarchy::try_new) on
//! top of it) check a configuration before anything is built, so fuzz-
//! and user-supplied configurations fail as values; the constructors
//! (`Dram::new`, `MshrFile::new`, ...) panic on the same inputs. Each
//! variant's `Display` text is byte-identical to that panic message.

use core::fmt;

/// Why a memory-component configuration was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The DRAM geometry had zero banks.
    ZeroBanks,
    /// The DRAM row is smaller than one cache line.
    RowTooSmall {
        /// The rejected row size in bytes.
        row_bytes: u64,
    },
    /// The refresh window is at least as long as the refresh interval.
    RefreshTooLong,
    /// An MSHR file was requested with zero entries.
    ZeroMshrs,
    /// A fault-injection plan failed its own validation; the payload is
    /// the message from [`DramFaultConfig::validate`](crate::DramFaultConfig::validate).
    Fault(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBanks => f.write_str("DRAM needs at least one bank"),
            ConfigError::RowTooSmall { row_bytes } => {
                write!(f, "row must hold at least one line, got {row_bytes} bytes")
            }
            ConfigError::RefreshTooLong => {
                f.write_str("refresh duration must be shorter than the interval")
            }
            ConfigError::ZeroMshrs => f.write_str("MSHR capacity must be non-zero"),
            ConfigError::Fault(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_match_the_panicking_paths() {
        assert!(ConfigError::ZeroBanks
            .to_string()
            .contains("at least one bank"));
        assert!(ConfigError::RowTooSmall { row_bytes: 8 }
            .to_string()
            .contains("at least one line"));
        assert!(ConfigError::RefreshTooLong
            .to_string()
            .contains("refresh duration"));
        assert!(ConfigError::ZeroMshrs.to_string().contains("non-zero"));
        assert_eq!(
            ConfigError::Fault("spike probability out of range".to_owned()).to_string(),
            "spike probability out of range"
        );
    }
}
