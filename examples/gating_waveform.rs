//! Export a gating waveform: run MAPG over a 4-core cluster with the event
//! trace on and render its sleep records as a VCD you can open in GTKWave
//! next to any other chip signal.
//!
//! ```bash
//! cargo run --release --example gating_waveform
//! gtkwave mapg_gating.vcd   # one 2-bit pg_state wire per core
//! ```

use std::error::Error;
use std::fs::File;

use mapg::{PolicyKind, SimConfig, Simulation};
use mapg_cpu::CoreConfig;
use mapg_trace::WorkloadProfile;

fn main() -> Result<(), Box<dyn Error>> {
    let config = SimConfig::default()
        .with_profile(WorkloadProfile::mem_bound("waveform"))
        .with_cores(4)
        .with_instructions(20_000)
        .with_trace();
    // The trace marks when each entry ramp completes; the waveform also
    // shows the ramp itself, which the circuit fixes in cycles.
    let entry = config.circuit().entry_cycles(CoreConfig::baseline().clock);
    let report = Simulation::new(config, PolicyKind::Mapg).run();

    let trace = report.trace.as_ref().expect("tracing was enabled");
    let sleeping = trace.gated_cycles_per_core();
    // Each sleep, primary or nap, is four power-state transitions.
    let sleeps = report.gating.gated + report.gating.regates;
    println!(
        "recorded {} power-state transitions across {} cores over {} cycles",
        4 * sleeps,
        sleeping.len(),
        report.makespan_cycles
    );
    for (core, cycles) in &sleeping {
        println!(
            "  core{core}: {cycles} cycles collapsed ({:.1}% of makespan)",
            *cycles as f64 * 100.0 / report.makespan_cycles as f64
        );
    }

    let path = "mapg_gating.vcd";
    trace.to_vcd(entry.raw(), File::create(path)?)?;
    println!("\nwrote {path} — open with any VCD waveform viewer");
    Ok(())
}
