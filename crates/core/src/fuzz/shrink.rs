//! Greedy deterministic scenario shrinking.
//!
//! Each pass proposes one simplification (fewer instructions, fewer
//! cores, a dropped subsystem, a neutralized fault group, a reset knob).
//! A candidate is accepted only when the *same finding class* still
//! reproduces, so the shrunk scenario demonstrates the original bug, not
//! a different one. Passes run to a fixpoint under a total run budget;
//! everything is pure scenario surgery, so shrinking is as deterministic
//! as the simulations themselves.

use crate::fuzz::differ::{run_scenario, Finding};
use crate::fuzz::scenario::{ProfileSpec, Scenario};
use mapg_units::Cycles;

/// Result of shrinking one finding.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The smallest scenario that still reproduces the finding class.
    pub scenario: Scenario,
    /// The finding the shrunk scenario produces (same class as the
    /// original; detail may differ).
    pub finding: Finding,
    /// Accepted simplification steps.
    pub steps: u64,
    /// Simulation pairs spent (each candidate costs one live+reference
    /// run).
    pub runs: u64,
}

type Pass = (&'static str, fn(&Scenario) -> Option<Scenario>);

fn halve_instructions(s: &Scenario) -> Option<Scenario> {
    if s.instructions <= 50 {
        return None;
    }
    let mut out = s.clone();
    out.instructions = (s.instructions / 2).max(50);
    Some(out)
}

fn halve_cores(s: &Scenario) -> Option<Scenario> {
    if s.cores <= 1 {
        return None;
    }
    let mut out = s.clone();
    out.cores = (s.cores / 2).max(1);
    if let Some(tokens) = out.tokens {
        out.tokens = Some(tokens.min(out.cores));
    }
    Some(out)
}

fn drop_watchdog(s: &Scenario) -> Option<Scenario> {
    s.watchdog?;
    let mut out = s.clone();
    out.watchdog = None;
    Some(out)
}

fn drop_tokens(s: &Scenario) -> Option<Scenario> {
    s.tokens?;
    let mut out = s.clone();
    out.tokens = None;
    Some(out)
}

fn drop_idle(s: &Scenario) -> Option<Scenario> {
    s.profile.idle?;
    let mut out = s.clone();
    out.profile.idle = None;
    Some(out)
}

fn zero_slow_wake(s: &Scenario) -> Option<Scenario> {
    if s.faults.slow_wake_prob == 0.0 {
        return None;
    }
    let mut out = s.clone();
    out.faults.slow_wake_prob = 0.0;
    Some(out)
}

fn zero_token_drop(s: &Scenario) -> Option<Scenario> {
    if s.faults.token_drop_prob == 0.0 {
        return None;
    }
    let mut out = s.clone();
    out.faults.token_drop_prob = 0.0;
    Some(out)
}

fn zero_predictor_corrupt(s: &Scenario) -> Option<Scenario> {
    if s.faults.predictor_corrupt_prob == 0.0 {
        return None;
    }
    let mut out = s.clone();
    out.faults.predictor_corrupt_prob = 0.0;
    Some(out)
}

fn zero_brownout(s: &Scenario) -> Option<Scenario> {
    if s.faults.brownout_prob == 0.0 {
        return None;
    }
    let mut out = s.clone();
    out.faults.brownout_prob = 0.0;
    Some(out)
}

fn zero_dram_spikes(s: &Scenario) -> Option<Scenario> {
    if s.faults.dram_spike_prob == 0.0 {
        return None;
    }
    let mut out = s.clone();
    out.faults.dram_spike_prob = 0.0;
    Some(out)
}

fn reset_profile(s: &Scenario) -> Option<Scenario> {
    let baseline = ProfileSpec {
        idle: s.profile.idle,
        ..ProfileSpec::baseline()
    };
    if s.profile == baseline {
        return None;
    }
    let mut out = s.clone();
    out.profile = baseline;
    Some(out)
}

fn reset_memory(s: &Scenario) -> Option<Scenario> {
    if s.mlp_limit == 8
        && s.mshr_entries == 16
        && !s.closed_page
        && !s.stream_prefetch
        && s.dram_latency_scale == 1.0
        && s.dram_banks == 8
    {
        return None;
    }
    let mut out = s.clone();
    out.mlp_limit = 8;
    out.mshr_entries = 16;
    out.closed_page = false;
    out.stream_prefetch = false;
    out.dram_latency_scale = 1.0;
    out.dram_banks = 8;
    Some(out)
}

fn reset_circuit(s: &Scenario) -> Option<Scenario> {
    if s.switch_width_ratio == 0.03 && !s.non_retentive && s.regate {
        return None;
    }
    let mut out = s.clone();
    out.switch_width_ratio = 0.03;
    out.non_retentive = false;
    out.regate = true;
    Some(out)
}

fn widen_trace(s: &Scenario) -> Option<Scenario> {
    if s.trace_capacity >= 1 << 20 {
        return None;
    }
    let mut out = s.clone();
    out.trace_capacity = 1 << 20;
    Some(out)
}

fn shorten_fault_holds(s: &Scenario) -> Option<Scenario> {
    let mut out = s.clone();
    let mut changed = false;
    if out.faults.brownout_hold_cycles.raw() > 1 && out.faults.brownout_prob > 0.0 {
        out.faults.brownout_hold_cycles = Cycles::new(out.faults.brownout_hold_cycles.raw() / 2);
        changed = true;
    }
    if out.faults.dram_spike_cycles.raw() > 1 && out.faults.dram_spike_prob > 0.0 {
        out.faults.dram_spike_cycles = Cycles::new(out.faults.dram_spike_cycles.raw() / 2);
        changed = true;
    }
    if changed {
        Some(out)
    } else {
        None
    }
}

/// Passes in the order tried each fixpoint round: big structural cuts
/// first, knob resets last.
const PASSES: [Pass; 15] = [
    ("halve-instructions", halve_instructions),
    ("halve-cores", halve_cores),
    ("drop-watchdog", drop_watchdog),
    ("drop-tokens", drop_tokens),
    ("drop-idle", drop_idle),
    ("zero-slow-wake", zero_slow_wake),
    ("zero-token-drop", zero_token_drop),
    ("zero-predictor-corrupt", zero_predictor_corrupt),
    ("zero-brownout", zero_brownout),
    ("zero-dram-spikes", zero_dram_spikes),
    ("shorten-fault-holds", shorten_fault_holds),
    ("widen-trace", widen_trace),
    ("reset-profile", reset_profile),
    ("reset-memory", reset_memory),
    ("reset-circuit", reset_circuit),
];

/// Shrinks `scenario` while `finding`'s class keeps reproducing, spending
/// at most `budget` candidate evaluations.
pub fn shrink(scenario: &Scenario, finding: &Finding, budget: u64) -> ShrinkOutcome {
    let mut current = scenario.clone();
    let mut current_finding = finding.clone();
    let mut steps = 0u64;
    let mut runs = 0u64;
    let mut progress = true;
    while progress && runs < budget {
        progress = false;
        for (_, pass) in PASSES {
            if runs >= budget {
                break;
            }
            let Some(candidate) = pass(&current) else {
                continue;
            };
            if candidate == current {
                continue;
            }
            runs += 1;
            if let Ok(Some(found)) = run_scenario(&candidate) {
                if found.class == current_finding.class {
                    current = candidate;
                    current_finding = found;
                    steps += 1;
                    progress = true;
                }
            }
        }
    }
    ShrinkOutcome {
        scenario: current,
        finding: current_finding,
        steps,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::differ::FindingClass;

    /// Shrinking a scenario whose finding never reproduces (the class is
    /// impossible) must terminate quickly and leave it untouched.
    #[test]
    fn shrink_without_reproduction_keeps_the_scenario() {
        let scenario = Scenario::generate(9, 9);
        let finding = Finding {
            class: FindingClass::Panic,
            detail: "synthetic".into(),
        };
        let outcome = shrink(&scenario, &finding, 40);
        assert_eq!(outcome.scenario, scenario);
        assert_eq!(outcome.steps, 0);
        assert!(outcome.runs <= 40);
    }

    #[test]
    fn passes_propose_strictly_different_scenarios() {
        let scenario = Scenario::generate(77, 3);
        for (name, pass) in PASSES {
            if let Some(candidate) = pass(&scenario) {
                assert_ne!(candidate, scenario, "pass {name} proposed a no-op");
            }
        }
    }
}
