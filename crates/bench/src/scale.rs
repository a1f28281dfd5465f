//! Experiment scales: every experiment runs at a chosen instruction budget
//! so the same code serves integration tests (fast), criterion benches
//! (medium) and the paper-regeneration run (full).

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny runs for unit/integration tests (~30 k instructions per run).
    Smoke,
    /// Medium runs for criterion benches (~100 k instructions).
    Quick,
    /// The full regeneration (~1 M instructions per run).
    Paper,
}

impl Scale {
    /// Instructions each simulated core retires per run.
    pub fn instructions(self) -> u64 {
        match self {
            Scale::Smoke => 30_000,
            Scale::Quick => 100_000,
            Scale::Paper => 1_000_000,
        }
    }

    /// Whether the full 12-profile suite is used (smaller scales use the
    /// two-profile extremes suite).
    pub fn full_suite(self) -> bool {
        matches!(self, Scale::Paper)
    }

    /// The canonical lowercase name (`"paper"`, never the `"full"` alias).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Smoke.instructions() < Scale::Quick.instructions());
        assert!(Scale::Quick.instructions() < Scale::Paper.instructions());
    }

    #[test]
    fn parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }

    #[test]
    fn only_paper_uses_full_suite() {
        assert!(!Scale::Smoke.full_suite());
        assert!(!Scale::Quick.full_suite());
        assert!(Scale::Paper.full_suite());
    }
}
