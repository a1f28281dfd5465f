//! The per-run energy ledger.

use core::fmt;

use mapg_units::Joules;

/// Where a joule went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyCategory {
    /// Core dynamic energy while executing.
    ActiveDynamic,
    /// Core leakage while executing.
    ActiveLeakage,
    /// Core energy while stalled but not gated (idle clocking + leakage, or
    /// DVFS-scaled equivalents).
    IdleStall,
    /// Residual leakage while power-gated.
    GatedResidual,
    /// Sleep/wake transition energy.
    Transition,
    /// DRAM access energy (activates + bursts).
    DramAccess,
    /// DRAM background (standby + refresh) energy.
    DramBackground,
}

impl EnergyCategory {
    /// All categories, in display order.
    pub const ALL: [EnergyCategory; 7] = [
        EnergyCategory::ActiveDynamic,
        EnergyCategory::ActiveLeakage,
        EnergyCategory::IdleStall,
        EnergyCategory::GatedResidual,
        EnergyCategory::Transition,
        EnergyCategory::DramAccess,
        EnergyCategory::DramBackground,
    ];

    /// Whether this category is part of the *core* (gateable) energy, as
    /// opposed to DRAM energy.
    pub fn is_core(self) -> bool {
        !matches!(
            self,
            EnergyCategory::DramAccess | EnergyCategory::DramBackground
        )
    }

    fn index(self) -> usize {
        match self {
            EnergyCategory::ActiveDynamic => 0,
            EnergyCategory::ActiveLeakage => 1,
            EnergyCategory::IdleStall => 2,
            EnergyCategory::GatedResidual => 3,
            EnergyCategory::Transition => 4,
            EnergyCategory::DramAccess => 5,
            EnergyCategory::DramBackground => 6,
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EnergyCategory::ActiveDynamic => "active-dynamic",
            EnergyCategory::ActiveLeakage => "active-leakage",
            EnergyCategory::IdleStall => "idle-stall",
            EnergyCategory::GatedResidual => "gated-residual",
            EnergyCategory::Transition => "transition",
            EnergyCategory::DramAccess => "dram-access",
            EnergyCategory::DramBackground => "dram-background",
        };
        f.write_str(s)
    }
}

impl EnergyCategory {
    /// Stable metric name (`energy_nj_*`) for the observability registry.
    fn metric_name(self) -> &'static str {
        match self {
            EnergyCategory::ActiveDynamic => "energy_nj_active_dynamic",
            EnergyCategory::ActiveLeakage => "energy_nj_active_leakage",
            EnergyCategory::IdleStall => "energy_nj_idle_stall",
            EnergyCategory::GatedResidual => "energy_nj_gated_residual",
            EnergyCategory::Transition => "energy_nj_transition",
            EnergyCategory::DramAccess => "energy_nj_dram_access",
            EnergyCategory::DramBackground => "energy_nj_dram_background",
        }
    }
}

/// Accumulates energy by category over a run.
///
/// ```
/// use mapg_power::{EnergyAccount, EnergyCategory};
/// use mapg_units::Joules;
///
/// let mut account = EnergyAccount::new();
/// account.add(EnergyCategory::ActiveDynamic, Joules::new(2.0));
/// account.add(EnergyCategory::DramAccess, Joules::new(1.0));
/// assert_eq!(account.total(), Joules::new(3.0));
/// assert_eq!(account.core_total(), Joules::new(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyAccount {
    buckets: [Joules; 7],
}

impl EnergyAccount {
    /// An empty account.
    pub fn new() -> Self {
        EnergyAccount::default()
    }

    /// Adds `amount` to `category`.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative — energy only accumulates.
    pub fn add(&mut self, category: EnergyCategory, amount: Joules) {
        assert!(
            amount.as_joules() >= 0.0,
            "cannot add negative energy ({amount}) to {category}"
        );
        self.buckets[category.index()] += amount;
    }

    /// Energy recorded in `category`.
    pub fn get(&self, category: EnergyCategory) -> Joules {
        self.buckets[category.index()]
    }

    /// Total energy across all categories.
    pub fn total(&self) -> Joules {
        self.buckets.iter().copied().sum()
    }

    /// Core-only (gateable) energy: everything but DRAM.
    pub fn core_total(&self) -> Joules {
        EnergyCategory::ALL
            .into_iter()
            .filter(|c| c.is_core())
            .map(|c| self.get(c))
            .sum()
    }

    /// Leakage-flavoured energy: active leakage + idle stall + gated
    /// residual. The quantity MAPG's "leakage savings" numbers compare.
    pub fn leakage_like_total(&self) -> Joules {
        self.get(EnergyCategory::ActiveLeakage)
            + self.get(EnergyCategory::IdleStall)
            + self.get(EnergyCategory::GatedResidual)
    }

    /// Adds the ledger to a metrics registry as `energy_nj_*` counters
    /// (whole nanojoules, rounded). Deterministic: a pure function of the
    /// bucket contents.
    pub fn record_metrics(&self, metrics: &mut mapg_obs::MetricsRegistry) {
        for category in EnergyCategory::ALL {
            let nanojoules = (self.get(category).as_joules() * 1e9).round();
            if nanojoules.is_finite() && nanojoules >= 0.0 {
                metrics.count(category.metric_name(), nanojoules as u64);
            }
        }
    }

    /// Merges another account into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Audits the ledger: every bucket must be finite and non-negative,
    /// and the total must equal the bucket sum (within floating-point
    /// slack). Returns one message per broken law.
    pub fn audit(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut sum = 0.0;
        for category in EnergyCategory::ALL {
            let value = self.get(category).as_joules();
            if !value.is_finite() || value < 0.0 {
                problems.push(format!(
                    "energy ledger: {category} holds non-physical {value} J"
                ));
                continue;
            }
            sum += value;
        }
        let total = self.total().as_joules();
        // Tolerance scaled to the magnitude: summation order may differ
        // from `total()` by a few ulps per bucket.
        let epsilon = sum.abs().max(1.0) * 1e-12;
        if problems.is_empty() && (total - sum).abs() > epsilon {
            problems.push(format!(
                "energy ledger: total {total} J disagrees with bucket sum \
                 {sum} J"
            ));
        }
        problems
    }
}

impl fmt::Display for EnergyAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        writeln!(f, "total {total}")?;
        for category in EnergyCategory::ALL {
            let value = self.get(category);
            if value.as_joules() > 0.0 {
                writeln!(
                    f,
                    "  {category:<16} {value}  ({:.1}%)",
                    100.0 * (value / total)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_account_is_zero() {
        let account = EnergyAccount::new();
        assert_eq!(account.total(), Joules::ZERO);
        assert_eq!(account.core_total(), Joules::ZERO);
        for category in EnergyCategory::ALL {
            assert_eq!(account.get(category), Joules::ZERO);
        }
    }

    #[test]
    fn totals_partition() {
        let mut account = EnergyAccount::new();
        for (i, category) in EnergyCategory::ALL.into_iter().enumerate() {
            account.add(category, Joules::new((i + 1) as f64));
        }
        let total = account.total();
        let dram =
            account.get(EnergyCategory::DramAccess) + account.get(EnergyCategory::DramBackground);
        assert!(((account.core_total() + dram) / total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_like_components() {
        let mut account = EnergyAccount::new();
        account.add(EnergyCategory::ActiveLeakage, Joules::new(1.0));
        account.add(EnergyCategory::IdleStall, Joules::new(2.0));
        account.add(EnergyCategory::GatedResidual, Joules::new(3.0));
        account.add(EnergyCategory::ActiveDynamic, Joules::new(10.0));
        assert_eq!(account.leakage_like_total(), Joules::new(6.0));
    }

    #[test]
    #[should_panic(expected = "negative energy")]
    fn rejects_negative_energy() {
        let mut account = EnergyAccount::new();
        account.add(EnergyCategory::Transition, Joules::new(-1.0));
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = EnergyAccount::new();
        let mut b = EnergyAccount::new();
        a.add(EnergyCategory::ActiveDynamic, Joules::new(1.0));
        b.add(EnergyCategory::ActiveDynamic, Joules::new(2.0));
        b.add(EnergyCategory::Transition, Joules::new(0.5));
        a.merge(&b);
        assert_eq!(a.get(EnergyCategory::ActiveDynamic), Joules::new(3.0));
        assert_eq!(a.get(EnergyCategory::Transition), Joules::new(0.5));
    }

    #[test]
    fn display_lists_nonzero_buckets() {
        let mut account = EnergyAccount::new();
        account.add(EnergyCategory::GatedResidual, Joules::new(1.0));
        let text = account.to_string();
        assert!(text.contains("gated-residual"), "{text}");
        assert!(!text.contains("active-dynamic"), "{text}");
    }

    #[test]
    fn category_core_predicate() {
        assert!(EnergyCategory::ActiveDynamic.is_core());
        assert!(EnergyCategory::Transition.is_core());
        assert!(!EnergyCategory::DramAccess.is_core());
        assert!(!EnergyCategory::DramBackground.is_core());
    }

    #[test]
    fn audit_accepts_physical_ledgers() {
        let mut account = EnergyAccount::new();
        assert!(account.audit().is_empty(), "empty ledger is physical");
        account.add(EnergyCategory::ActiveDynamic, Joules::new(1.25));
        account.add(EnergyCategory::DramAccess, Joules::new(0.75));
        assert!(account.audit().is_empty(), "{:?}", account.audit());
    }

    #[test]
    fn audit_flags_non_finite_buckets() {
        let mut account = EnergyAccount::new();
        // `add` forbids negative energy but cannot stop NaN/inf arising
        // from degenerate power × time products upstream; the audit must.
        account.add(EnergyCategory::IdleStall, Joules::new(f64::INFINITY));
        let problems = account.audit();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("idle-stall"), "{problems:?}");
    }
}
