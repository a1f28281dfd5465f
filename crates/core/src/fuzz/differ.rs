//! The differential oracle: runs one scenario through the live stack and
//! the frozen reference stack, compares the full reports, and checks the
//! observability reconciliation laws — turning any disagreement into a
//! typed [`Finding`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::MapgError;
use crate::fuzz::scenario::Scenario;
use crate::invariants::InvariantKind;
use crate::report::RunReport;
use crate::sim::{SimConfig, Simulation};
use mapg_obs::{EventKind, Scope, TraceBuffer};

/// What kind of disagreement a scenario exposed, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingClass {
    /// A simulation panicked (or failed with a runtime error).
    Panic,
    /// Live and reference stacks produced different reports.
    StatsMismatch,
    /// The run's own invariant checker reported violations (other than
    /// pure ledger-reconciliation kinds).
    InvariantViolation,
    /// Only the energy/token ledger reconciliation checks failed.
    LedgerNonReconciliation,
    /// Trace, metrics, and report disagree with each other.
    TraceMetricsAsymmetry,
}

impl FindingClass {
    /// All classes, most severe first.
    pub const ALL: [FindingClass; 5] = [
        FindingClass::Panic,
        FindingClass::StatsMismatch,
        FindingClass::InvariantViolation,
        FindingClass::LedgerNonReconciliation,
        FindingClass::TraceMetricsAsymmetry,
    ];

    /// Stable kebab-case tag (used in repro files and manifests).
    pub fn tag(self) -> &'static str {
        match self {
            FindingClass::Panic => "panic",
            FindingClass::StatsMismatch => "stats-mismatch",
            FindingClass::InvariantViolation => "invariant-violation",
            FindingClass::LedgerNonReconciliation => "ledger-non-reconciliation",
            FindingClass::TraceMetricsAsymmetry => "trace-metrics-asymmetry",
        }
    }

    /// Parses a tag produced by [`FindingClass::tag`].
    pub fn from_tag(tag: &str) -> Option<FindingClass> {
        FindingClass::ALL.iter().copied().find(|c| c.tag() == tag)
    }
}

impl core::fmt::Display for FindingClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One confirmed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Divergence class.
    pub class: FindingClass,
    /// Human-readable description of what disagreed.
    pub detail: String,
}

/// Runs `scenario` through both stacks and reports the most severe
/// disagreement, or `None` when the scenario is clean.
///
/// # Errors
///
/// Returns [`MapgError::InvalidConfig`] when the scenario itself is
/// malformed (hand-edited repro files); a scenario that *runs* never
/// errors — disagreements come back as findings.
pub fn run_scenario(scenario: &Scenario) -> Result<Option<Finding>, MapgError> {
    let config = scenario.build_config()?;
    let live = run_guarded(config.clone(), scenario, "live");
    let reference = run_guarded(config.with_reference_scheduler(), scenario, "reference");
    let (live, reference) = match (live, reference) {
        (Err(detail), _) | (_, Err(detail)) => {
            return Ok(Some(Finding {
                class: FindingClass::Panic,
                detail,
            }))
        }
        (Ok(live), Ok(reference)) => (live, reference),
    };
    if live != reference {
        return Ok(Some(Finding {
            class: FindingClass::StatsMismatch,
            detail: diff_sections(&live, &reference),
        }));
    }
    if !live.invariants.is_clean() {
        let ledger_only = live.invariants.violations.iter().all(|v| {
            matches!(
                v.kind,
                InvariantKind::EnergyLedger | InvariantKind::TokenLedger
            )
        });
        let class = if ledger_only {
            FindingClass::LedgerNonReconciliation
        } else {
            FindingClass::InvariantViolation
        };
        return Ok(Some(Finding {
            class,
            detail: format!("{}", live.invariants),
        }));
    }
    Ok(check_reconciliation(&live).map(|detail| Finding {
        class: FindingClass::TraceMetricsAsymmetry,
        detail,
    }))
}

fn run_guarded(config: SimConfig, scenario: &Scenario, stack: &str) -> Result<RunReport, String> {
    let policy = scenario.policy;
    match catch_unwind(AssertUnwindSafe(move || {
        Simulation::new(config, policy).try_run()
    })) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("{stack} stack failed: {e}")),
        // `as_ref` matters: `&payload` would coerce the `Box` itself to
        // `&dyn Any` and every downcast would miss.
        Err(payload) => Err(format!(
            "{stack} stack panicked: {}",
            panic_text(payload.as_ref())
        )),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Names the report sections that differ (both reports compare unequal).
fn diff_sections(live: &RunReport, reference: &RunReport) -> String {
    let mut parts: Vec<&str> = Vec::new();
    if live.makespan_cycles != reference.makespan_cycles {
        parts.push("makespan");
    }
    if live.energy != reference.energy {
        parts.push("energy");
    }
    if live.gating != reference.gating {
        parts.push("gating");
    }
    if live.core_stats != reference.core_stats {
        parts.push("core_stats");
    }
    if live.memory != reference.memory {
        parts.push("memory");
    }
    if live.predictor != reference.predictor {
        parts.push("predictor");
    }
    if live.peak_concurrent_wakes != reference.peak_concurrent_wakes {
        parts.push("peak_concurrent_wakes");
    }
    if live.invariants != reference.invariants {
        parts.push("invariants");
    }
    if live.degradation != reference.degradation {
        parts.push("degradation");
    }
    if live.faults != reference.faults {
        parts.push("faults");
    }
    if live.trace != reference.trace {
        parts.push("trace");
    }
    if live.metrics != reference.metrics {
        parts.push("metrics");
    }
    if parts.is_empty() {
        parts.push("unattributed-field");
    }
    format!(
        "live and reference reports differ in: {} \
         (live makespan {}, reference makespan {})",
        parts.join(", "),
        live.makespan_cycles,
        reference.makespan_cycles
    )
}

/// Checks the cross-artifact reconciliation laws on one report.
///
/// Metrics/report laws always apply; trace-derived laws only when the
/// trace ring kept every record (`dropped() == 0`).
pub fn check_reconciliation(report: &RunReport) -> Option<String> {
    let mut problems: Vec<String> = Vec::new();
    let gating = &report.gating;

    if let Some(metrics) = report.metrics.as_ref() {
        if metrics.counter("gates") != gating.gated {
            problems.push(format!(
                "metrics gates {} != report gated {}",
                metrics.counter("gates"),
                gating.gated
            ));
        }
        if metrics.counter("regates") != gating.regates {
            problems.push(format!(
                "metrics regates {} != report regates {}",
                metrics.counter("regates"),
                gating.regates
            ));
        }
        if metrics.counter("fsm_sleeping_cycles") != gating.gated_cycles {
            problems.push(format!(
                "metrics fsm_sleeping_cycles {} != report gated_cycles {}",
                metrics.counter("fsm_sleeping_cycles"),
                gating.gated_cycles
            ));
        }
        match metrics.histogram("gated_duration") {
            Some(h) => {
                if h.count() != gating.gated + gating.regates {
                    problems.push(format!(
                        "gated_duration count {} != gated+regates {}",
                        h.count(),
                        gating.gated + gating.regates
                    ));
                }
                if h.sum() != gating.gated_cycles {
                    problems.push(format!(
                        "gated_duration sum {} != gated_cycles {}",
                        h.sum(),
                        gating.gated_cycles
                    ));
                }
            }
            None => {
                if gating.gated > 0 {
                    problems.push("gated_duration histogram missing".into());
                }
            }
        }
    }

    if let Some(trace) = report.trace.as_ref() {
        if trace.dropped() == 0 {
            check_trace_laws(trace, report, &mut problems);
        }
    }

    if problems.is_empty() {
        None
    } else {
        Some(problems.join("; "))
    }
}

fn check_trace_laws(trace: &TraceBuffer, report: &RunReport, problems: &mut Vec<String>) {
    let gating = &report.gating;
    let traced: u64 = trace.gated_cycles_per_core().values().sum();
    if traced != gating.gated_cycles {
        problems.push(format!(
            "trace gated cycles {} != report gated_cycles {}",
            traced, gating.gated_cycles
        ));
    }
    let enters = trace.count_kind(EventKind::SleepEnter) as u64;
    if enters != gating.gated + gating.regates {
        problems.push(format!(
            "SleepEnter count {} != gated+regates {}",
            enters,
            gating.gated + gating.regates
        ));
    }
    for core in 0..report.cores as u32 {
        let scope = Scope::Core(core);
        for (begin, end) in [
            (EventKind::StallBegin, EventKind::StallEnd),
            (EventKind::SleepEnter, EventKind::SleepExit),
            (EventKind::WakeStart, EventKind::WakeDone),
        ] {
            if let Some(problem) = span_balance(trace, scope, begin, end) {
                problems.push(problem);
            }
        }
        if let Some(problem) = monotonic_timestamps(trace, scope) {
            problems.push(problem);
        }
    }
    if let Some(problem) = span_balance(
        trace,
        Scope::Global,
        EventKind::SafeModeEnter,
        EventKind::SafeModeExit,
    ) {
        problems.push(problem);
    }
    if let Some(problem) = monotonic_timestamps(trace, Scope::Global) {
        problems.push(problem);
    }
}

fn span_balance(
    trace: &TraceBuffer,
    scope: Scope,
    begin: EventKind,
    end: EventKind,
) -> Option<String> {
    let mut open = 0i64;
    for record in trace.iter().filter(|r| r.scope == scope) {
        if record.kind == begin {
            open += 1;
            if open > 1 {
                return Some(format!("{scope}: {begin:?} opened twice at {}", record.at));
            }
        } else if record.kind == end {
            open -= 1;
            if open < 0 {
                return Some(format!(
                    "{scope}: {end:?} without {begin:?} at {}",
                    record.at
                ));
            }
        }
    }
    if open != 0 {
        return Some(format!("{scope}: {open} unclosed {begin:?}"));
    }
    None
}

/// Within one scope, records must appear in non-decreasing time order:
/// each core's stall lifecycle is emitted in stall order, and the
/// controller's own monotonic-time invariant promises starts never move
/// backwards.
fn monotonic_timestamps(trace: &TraceBuffer, scope: Scope) -> Option<String> {
    let mut last: Option<u64> = None;
    for record in trace.iter().filter(|r| r.scope == scope) {
        if let Some(prev) = last {
            if record.at < prev {
                return Some(format!(
                    "{scope}: timestamp moved backwards, {} after {prev} ({:?})",
                    record.at, record.kind
                ));
            }
        }
        last = Some(record.at);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_scenario_yields_no_finding() {
        let scenario = Scenario::generate(0xC1EA, 3);
        let outcome = run_scenario(&scenario).expect("valid scenario");
        assert_eq!(outcome, None, "{outcome:?}");
    }

    #[test]
    fn malformed_scenarios_error_instead_of_panicking() {
        let mut scenario = Scenario::generate(1, 1);
        scenario.trace_capacity = 0;
        assert!(run_scenario(&scenario).is_err());
    }

    #[test]
    fn panic_payloads_surface_their_message() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let formatted = catch_unwind(|| panic!("boom {}", 41 + 1)).unwrap_err();
        let literal = catch_unwind(|| panic!("plain boom")).unwrap_err();
        std::panic::set_hook(hook);
        assert_eq!(panic_text(formatted.as_ref()), "boom 42");
        assert_eq!(panic_text(literal.as_ref()), "plain boom");
    }

    #[test]
    fn finding_class_tags_round_trip() {
        for class in FindingClass::ALL {
            assert_eq!(FindingClass::from_tag(class.tag()), Some(class));
        }
        assert_eq!(FindingClass::from_tag("nonsense"), None);
    }
}
