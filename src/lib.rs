//! Umbrella crate for the MAPG reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that the repository's
//! root-level `examples/` and `tests/` can exercise the full public API the
//! way a downstream user would:
//!
//! ```
//! use mapg_repro::prelude::*;
//!
//! let profile = WorkloadProfile::mem_bound("demo");
//! let config = SimConfig::default().with_profile(profile);
//! let report = Simulation::new(config, PolicyKind::Mapg).run();
//! assert!(report.total_cycles() > 0);
//! ```
//!
//! See the individual crates for the real documentation:
//! - [`mapg`] — the paper's contribution (policies, controller, simulation)
//! - [`mapg_cpu`] / [`mapg_mem`] — the architectural substrate
//! - [`mapg_power`] — technology, power-gating circuit and energy models
//! - [`mapg_trace`] — synthetic workload generation
//! - [`mapg_units`] — strongly-typed physical quantities

pub use mapg;
pub use mapg_cpu;
pub use mapg_mem;
pub use mapg_power;
pub use mapg_trace;
pub use mapg_units;

/// Convenience prelude with the names used by virtually every program built
/// on this workspace.
pub mod prelude {
    pub use mapg::{PolicyKind, RunReport, SimConfig, Simulation, SuiteRunner};
    pub use mapg_power::{PgCircuitDesign, TechnologyParams};
    pub use mapg_trace::{WorkloadProfile, WorkloadSuite};
    pub use mapg_units::{Cycles, Joules, Watts};
}
