//! The committed throughput baseline: simulated-events-per-second for the
//! cluster hot path, optimized stack vs the retained seed stack.
//!
//! `experiments --bench-throughput BENCH_7.json` measures the canonical
//! workload suite at each cluster size twice — once with the optimized
//! stack ([`mapg_cpu::Cluster::run`]: event-wheel scheduler, compute
//! batching, flattened caches/DRAM/MSHRs) and once with the frozen seed
//! stack ([`mapg_cpu::ReferenceCluster`]: per-event linear scan over the
//! seed memory hierarchy) — and records both rates plus their ratio. The
//! headline number is the geometric mean of the 16-core speedups across
//! the suite.
//!
//! The suite covers the three canonical workload profiles (memory-bound /
//! mixed / compute-bound), with the memory-bound profile additionally run
//! against the stream-prefetcher and closed-page hierarchies so the
//! DRAM/MSHR/prefetch hot path — not just the cache path — is on the
//! record. Those three cases share the profile tag `"mem"`, and their
//! 16-core geometric mean is committed as `mem_profile_speedup`, the
//! number the CI gate tracks for the mem-path optimization work.
//!
//! # Methodology
//!
//! - Workloads are **basic-block-granularity recordings**: each core's
//!   synthetic workload is recorded once, then
//!   [`quantize_compute(4)`](mapg_trace::RecordedTrace::quantize_compute)
//!   splits the coarse compute gaps into ~4-instruction quanta — the
//!   trace shape pintool-style frontends emit (one compute event per
//!   basic block) and the shape the scheduler + batching hot path is
//!   designed for. Both stacks replay the *identical* recording, so they
//!   simulate the identical cycle-level history (the equivalence oracle
//!   proves the interleavings match event for event).
//! - The suite spans the three canonical profiles because the win is
//!   workload-dependent: memory-bound runs are dominated by the (shared)
//!   cache/DRAM model, while compute-lean runs expose the per-event
//!   scheduling overhead the tentpole removes. The geometric mean over
//!   the suite is the honest single number.
//! - Each `(case, scheduler)` pair runs `repeats` times on a fresh
//!   cluster and keeps the **minimum** wall time — the standard noise
//!   filter for single-threaded microbenchmarks (anything above the
//!   minimum is interference, not work). The repeats for the two stacks
//!   **interleave** (heap, reference, heap, reference, …) so slow machine
//!   drifts hit both stacks equally and cancel out of the ratio.
//! - "Simulated events" is the number of trace events the cluster
//!   consumed (instruction-weighted work would double-count folded
//!   batches); rates are events over wall seconds.
//! - Regression checking compares **speedup ratios** (reference wall /
//!   heap wall), never absolute rates: both measurements come from the
//!   same process on the same machine, so the ratio transfers across CI
//!   hardware where raw events/sec would not.

use std::time::Instant;

use mapg_cpu::{Cluster, CoreConfig, PassiveHandler, ReferenceCluster};
use mapg_mem::{DramConfig, HierarchyConfig, PagePolicy};
use mapg_trace::{RecordedTrace, SyntheticWorkload, WorkloadProfile};

use crate::scale::Scale;

/// Schema version stamped into every `BENCH_7.json` (3: per-case
/// hierarchy configurations and the committed `mem_profile_speedup`).
pub const THROUGHPUT_SCHEMA: u32 = 3;

/// Core counts measured per run; the last one is the headline size.
pub const CORE_COUNTS: [usize; 3] = [1, 4, 16];

/// Basic-block quantum (instructions) the suite recordings are split to.
pub const BLOCK_QUANTUM: u64 = 4;

/// Fraction of the baseline speedup a fresh run must retain (the CI gate
/// fails below `baseline * (1 - THROUGHPUT_TOLERANCE)`).
pub const THROUGHPUT_TOLERANCE: f64 = 0.20;

/// One suite entry: a workload recording replayed against a specific
/// hierarchy configuration.
struct SuiteCase {
    /// Case-name stem (`"mem_pf"` → `"mem_pf_cores16"` etc.).
    key: &'static str,
    /// Profile tag the per-profile geomeans group on.
    profile: &'static str,
    workload: WorkloadProfile,
    hierarchy: HierarchyConfig,
}

/// The canonical workload suite. The memory-bound recording runs against
/// three hierarchies — baseline, stream prefetcher, closed page — because
/// those are the configurations that move work onto the DRAM/MSHR/
/// prefetch hot path; all three carry the `"mem"` profile tag.
fn suite() -> Vec<SuiteCase> {
    let closed_page = HierarchyConfig {
        dram: DramConfig::ddr3_1333().with_page_policy(PagePolicy::Closed),
        ..HierarchyConfig::baseline()
    };
    vec![
        SuiteCase {
            key: "mem",
            profile: "mem",
            workload: WorkloadProfile::mem_bound("throughput_mem"),
            hierarchy: HierarchyConfig::baseline(),
        },
        SuiteCase {
            key: "mem_pf",
            profile: "mem",
            workload: WorkloadProfile::mem_bound("throughput_mem"),
            hierarchy: HierarchyConfig::with_stream_prefetcher(),
        },
        SuiteCase {
            key: "mem_cp",
            profile: "mem",
            workload: WorkloadProfile::mem_bound("throughput_mem"),
            hierarchy: closed_page,
        },
        SuiteCase {
            key: "mixed",
            profile: "mixed",
            workload: WorkloadProfile::mixed("throughput_mixed"),
            hierarchy: HierarchyConfig::baseline(),
        },
        SuiteCase {
            key: "cpu",
            profile: "cpu",
            workload: WorkloadProfile::compute_bound("throughput_cpu"),
            hierarchy: HierarchyConfig::baseline(),
        },
    ]
}

/// One measured `(profile, cluster size)` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputCase {
    /// Case name (`"mem_cores16"` etc.), the key baselines are matched on.
    pub name: String,
    /// Workload profile key (`"mem"`, `"mixed"`, `"cpu"`).
    pub profile: String,
    /// Number of cores in the cluster.
    pub cores: usize,
    /// Trace events consumed across all cores (identical for both stacks).
    pub simulated_events: u64,
    /// Best-of-`repeats` wall time of the event-wheel stack, seconds.
    pub heap_wall_s: f64,
    /// Best-of-`repeats` wall time of the seed reference stack, seconds.
    pub reference_wall_s: f64,
}

impl ThroughputCase {
    /// Simulated events per wall second with the event-wheel stack.
    pub fn heap_events_per_sec(&self) -> f64 {
        if self.heap_wall_s > 0.0 {
            self.simulated_events as f64 / self.heap_wall_s
        } else {
            0.0
        }
    }

    /// Simulated events per wall second with the reference stack.
    pub fn reference_events_per_sec(&self) -> f64 {
        if self.reference_wall_s > 0.0 {
            self.simulated_events as f64 / self.reference_wall_s
        } else {
            0.0
        }
    }

    /// Event-wheel speedup over the reference (>1 means faster).
    pub fn speedup(&self) -> f64 {
        if self.heap_wall_s > 0.0 {
            self.reference_wall_s / self.heap_wall_s
        } else {
            0.0
        }
    }
}

/// A full throughput measurement: the suite at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Scale the clusters ran at.
    pub scale: Scale,
    /// Timing repeats per `(case, scheduler)` pair.
    pub repeats: usize,
    /// Per-configuration measurements, profile-major in [`CORE_COUNTS`]
    /// order.
    pub cases: Vec<ThroughputCase>,
}

/// Records one basic-block-granularity trace per core.
fn record_suite_traces(
    profile: &WorkloadProfile,
    cores: usize,
    instructions: u64,
) -> Vec<RecordedTrace> {
    (0..cores)
        .map(|i| {
            let mut workload = SyntheticWorkload::new(profile, 1_000 + i as u64);
            RecordedTrace::record(&mut workload, instructions).quantize_compute(BLOCK_QUANTUM)
        })
        .collect()
}

/// Times both stacks over `repeats` interleaved rounds and returns the
/// best wall seconds as `(heap, reference)`.
///
/// The repeats alternate heap/reference rather than running one stack's
/// block after the other: the committed metric is their *ratio*, and
/// interleaving samples both stacks under near-identical machine
/// conditions, so slow drifts (frequency scaling, co-tenant load) cancel
/// out of the ratio instead of landing entirely on whichever stack ran
/// second.
fn time_pair(
    traces: &[RecordedTrace],
    hierarchy: HierarchyConfig,
    instructions: u64,
    repeats: usize,
) -> (f64, f64) {
    let mut best_heap = f64::INFINITY;
    let mut best_reference = f64::INFINITY;
    for _ in 0..repeats {
        let sources: Vec<_> = traces.iter().map(|t| t.replay()).collect();
        let mut cluster = Cluster::new(CoreConfig::baseline(), hierarchy, sources);
        let started = Instant::now();
        cluster.run(instructions, &mut PassiveHandler);
        best_heap = best_heap.min(started.elapsed().as_secs_f64());

        let sources: Vec<_> = traces.iter().map(|t| t.replay()).collect();
        let mut cluster = ReferenceCluster::new(CoreConfig::baseline(), hierarchy, sources);
        let started = Instant::now();
        cluster.run(instructions, &mut PassiveHandler);
        best_reference = best_reference.min(started.elapsed().as_secs_f64());
    }
    (best_heap, best_reference)
}

impl ThroughputReport {
    /// Measures every suite case at `scale`, `repeats` timings per
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn measure(scale: Scale, repeats: usize) -> Self {
        assert!(repeats > 0, "need at least one timing repeat");
        let instructions = scale.instructions();
        let mut cases = Vec::new();
        for entry in suite() {
            for &cores in &CORE_COUNTS {
                let traces = record_suite_traces(&entry.workload, cores, instructions);
                // The recordings cover >= `instructions` per core and the
                // replay wraps, so event consumption is deterministic and
                // identical across stacks; count one full pass per core.
                let simulated_events = traces.iter().map(|t| t.events().len() as u64).sum();
                let (heap_wall_s, reference_wall_s) =
                    time_pair(&traces, entry.hierarchy, instructions, repeats);
                cases.push(ThroughputCase {
                    name: format!("{}_cores{cores}", entry.key),
                    profile: entry.profile.to_owned(),
                    cores,
                    simulated_events,
                    heap_wall_s,
                    reference_wall_s,
                });
            }
        }
        ThroughputReport {
            scale,
            repeats,
            cases,
        }
    }

    /// The headline number: geometric mean of the largest-cluster
    /// speedups across the suite (0 when nothing was measured).
    pub fn headline_speedup(&self) -> f64 {
        self.geomean(|_| true)
    }

    /// Geometric mean of the largest-cluster speedups over the cases
    /// carrying `profile` (0 when none were measured). `"mem"` is the
    /// committed mem-profile ratio the CI gate tracks.
    pub fn profile_speedup(&self, profile: &str) -> f64 {
        self.geomean(|c| c.profile == profile)
    }

    fn geomean(&self, keep: impl Fn(&ThroughputCase) -> bool) -> f64 {
        let largest = self.cases.iter().map(|c| c.cores).max();
        let Some(largest) = largest else { return 0.0 };
        let speedups: Vec<f64> = self
            .cases
            .iter()
            .filter(|c| c.cores == largest && c.speedup() > 0.0 && keep(c))
            .map(|c| c.speedup())
            .collect();
        if speedups.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    }

    /// Renders the report as pretty-printed JSON (trailing newline
    /// included); the format `BENCH_7.json` is committed in.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", THROUGHPUT_SCHEMA));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!("  \"block_quantum\": {},\n", BLOCK_QUANTUM));
        out.push_str(&format!(
            "  \"headline_speedup\": {},\n",
            json_float(self.headline_speedup())
        ));
        out.push_str(&format!(
            "  \"mem_profile_speedup\": {},\n",
            json_float(self.profile_speedup("mem"))
        ));
        out.push_str("  \"cases\": [");
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", case.name));
            out.push_str(&format!("      \"profile\": \"{}\",\n", case.profile));
            out.push_str(&format!("      \"cores\": {},\n", case.cores));
            out.push_str(&format!(
                "      \"simulated_events\": {},\n",
                case.simulated_events
            ));
            out.push_str(&format!(
                "      \"heap_wall_s\": {},\n",
                json_float(case.heap_wall_s)
            ));
            out.push_str(&format!(
                "      \"reference_wall_s\": {},\n",
                json_float(case.reference_wall_s)
            ));
            out.push_str(&format!(
                "      \"heap_events_per_sec\": {},\n",
                json_float(case.heap_events_per_sec())
            ));
            out.push_str(&format!(
                "      \"reference_events_per_sec\": {},\n",
                json_float(case.reference_events_per_sec())
            ));
            out.push_str(&format!(
                "      \"speedup\": {}\n",
                json_float(case.speedup())
            ));
            out.push_str("    }");
        }
        if !self.cases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Extracts `(name, speedup)` pairs from a rendered report — the only
    /// fields the regression gate needs, so the committed baseline stays
    /// readable by this crate without a JSON dependency. The top-level
    /// `headline_speedup` is reported under the name `"headline"` and
    /// `mem_profile_speedup` under `"mem_profile"`.
    /// Tolerates any field order as long as `"name"` precedes its case's
    /// `"speedup"` (which [`ThroughputReport::to_json`] guarantees).
    pub fn parse_speedups(json: &str) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut name: Option<String> = None;
        for line in json.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("\"headline_speedup\": ") {
                if let Ok(v) = rest.trim_end_matches(',').parse() {
                    out.push(("headline".to_owned(), v));
                }
            } else if let Some(rest) = line.strip_prefix("\"mem_profile_speedup\": ") {
                if let Ok(v) = rest.trim_end_matches(',').parse() {
                    out.push(("mem_profile".to_owned(), v));
                }
            } else if let Some(rest) = line.strip_prefix("\"name\": \"") {
                if let Some(end) = rest.find('"') {
                    name = Some(rest[..end].to_owned());
                }
            } else if let Some(rest) = line.strip_prefix("\"speedup\": ") {
                if let (Some(n), Ok(v)) = (name.take(), rest.trim_end_matches(',').parse()) {
                    out.push((n, v));
                }
            }
        }
        out
    }
}

/// Measures the suite, prints the table, writes the JSON record to
/// `out_path`, and — when `baseline_path` is given — gates every
/// committed speedup against [`THROUGHPUT_TOLERANCE`].
///
/// This is the whole `--bench-throughput` mode, shared by the
/// `experiments` driver and the dedicated `throughput` binary. CI runs
/// the dedicated binary: the measured hot loop must not share a binary
/// with the full experiment driver, because co-locating it with that
/// much live code demonstrably shifts LTO inlining and code layout and
/// slows the measured stack by ~25% (the reference stack, which is not
/// inlining-sensitive, times identically in both binaries).
pub fn run_throughput_cli(
    out_path: &str,
    baseline_path: Option<&str>,
    scale: Scale,
    repeats: usize,
) -> std::process::ExitCode {
    use std::process::ExitCode;

    println!(
        "# MAPG throughput — event-wheel vs reference scheduler, {} scale, best of {repeats}\n",
        scale.name()
    );
    let report = ThroughputReport::measure(scale, repeats);
    println!(
        "{:<14} {:>6} {:>12} {:>16} {:>16} {:>8}",
        "case", "cores", "sim events", "wheel evt/s", "reference evt/s", "speedup"
    );
    for case in &report.cases {
        println!(
            "{:<14} {:>6} {:>12} {:>16.3e} {:>16.3e} {:>7.2}x",
            case.name,
            case.cores,
            case.simulated_events,
            case.heap_events_per_sec(),
            case.reference_events_per_sec(),
            case.speedup()
        );
    }
    println!(
        "\nheadline (geomean of largest-cluster speedups): {:.2}x",
        report.headline_speedup()
    );
    println!(
        "mem profile (geomean over the \"mem\"-tagged cases): {:.2}x",
        report.profile_speedup("mem")
    );
    if let Err(error) =
        mapg::write_atomic(std::path::Path::new(out_path), report.to_json().as_bytes())
    {
        eprintln!("cannot write throughput record '{out_path}': {error}");
        return ExitCode::FAILURE;
    }
    eprintln!("\n[throughput record written to {out_path}]");

    let Some(baseline_path) = baseline_path else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(contents) => contents,
        Err(error) => {
            eprintln!("cannot read throughput baseline '{baseline_path}': {error}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_speedups = ThroughputReport::parse_speedups(&baseline);
    if baseline_speedups.is_empty() {
        eprintln!("baseline '{baseline_path}' holds no speedup records");
        return ExitCode::FAILURE;
    }
    // Compare speedup ratios, not absolute rates: the ratio comes from one
    // process on one machine, so it transfers to whatever hardware CI runs
    // on, where the committed cycles/sec would not.
    let mut failed = false;
    for (name, baseline_speedup) in &baseline_speedups {
        let measured = if name == "headline" {
            report.headline_speedup()
        } else if name == "mem_profile" {
            report.profile_speedup("mem")
        } else if let Some(case) = report.cases.iter().find(|c| &c.name == name) {
            case.speedup()
        } else {
            eprintln!("baseline case '{name}' was not measured in this run");
            failed = true;
            continue;
        };
        let floor = baseline_speedup * (1.0 - THROUGHPUT_TOLERANCE);
        if measured < floor {
            eprintln!(
                "regression: {name} speedup {measured:.2}x fell below {floor:.2}x \
                 (baseline {baseline_speedup:.2}x - {:.0}% tolerance)",
                THROUGHPUT_TOLERANCE * 100.0
            );
            failed = true;
        } else {
            eprintln!("[{name}: {measured:.2}x vs baseline {baseline_speedup:.2}x — ok]");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders a finite float with enough digits for sub-microsecond walls;
/// non-finite values degrade to `0`.
fn json_float(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ThroughputReport {
        ThroughputReport {
            scale: Scale::Smoke,
            repeats: 2,
            cases: vec![
                ThroughputCase {
                    name: "mem_cores1".to_owned(),
                    profile: "mem".to_owned(),
                    cores: 1,
                    simulated_events: 1_000_000,
                    heap_wall_s: 0.5,
                    reference_wall_s: 0.75,
                },
                ThroughputCase {
                    name: "mem_cores16".to_owned(),
                    profile: "mem".to_owned(),
                    cores: 16,
                    simulated_events: 16_000_000,
                    heap_wall_s: 0.25,
                    reference_wall_s: 1.0,
                },
                ThroughputCase {
                    name: "cpu_cores16".to_owned(),
                    profile: "cpu".to_owned(),
                    cores: 16,
                    simulated_events: 4_000_000,
                    heap_wall_s: 0.1,
                    reference_wall_s: 0.9,
                },
            ],
        }
    }

    #[test]
    fn derived_rates_and_speedup() {
        let case = &sample().cases[1];
        assert!((case.speedup() - 4.0).abs() < 1e-12);
        assert!((case.heap_events_per_sec() - 64e6).abs() < 1e-3);
        assert!((case.reference_events_per_sec() - 16e6).abs() < 1e-3);
        let degenerate = ThroughputCase {
            heap_wall_s: 0.0,
            reference_wall_s: 0.0,
            ..case.clone()
        };
        assert_eq!(degenerate.speedup(), 0.0);
        assert_eq!(degenerate.heap_events_per_sec(), 0.0);
        assert_eq!(degenerate.reference_events_per_sec(), 0.0);
    }

    #[test]
    fn headline_is_geomean_of_largest_cluster() {
        let report = sample();
        // 16-core speedups: 4.0 (mem) and 9.0 (cpu); geomean = 6.0.
        assert!((report.headline_speedup() - 6.0).abs() < 1e-9);
        let empty = ThroughputReport {
            cases: Vec::new(),
            ..report
        };
        assert_eq!(empty.headline_speedup(), 0.0);
    }

    #[test]
    fn profile_speedup_groups_on_the_profile_tag() {
        let report = sample();
        // Only mem_cores16 carries "mem" at the largest cluster size.
        assert!((report.profile_speedup("mem") - 4.0).abs() < 1e-9);
        assert!((report.profile_speedup("cpu") - 9.0).abs() < 1e-9);
        assert_eq!(report.profile_speedup("no_such_profile"), 0.0);
    }

    #[test]
    fn json_round_trips_through_parse_speedups() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("\"schema\": 3"), "{json}");
        assert!(json.contains("\"scale\": \"smoke\""), "{json}");
        assert!(json.contains("\"block_quantum\": 4"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
        let speedups = ThroughputReport::parse_speedups(&json);
        assert_eq!(speedups.len(), 5);
        assert_eq!(speedups[0].0, "headline");
        assert!((speedups[0].1 - 6.0).abs() < 1e-6);
        assert_eq!(speedups[1].0, "mem_profile");
        assert!((speedups[1].1 - 4.0).abs() < 1e-6);
        assert_eq!(speedups[2].0, "mem_cores1");
        assert!((speedups[2].1 - 1.5).abs() < 1e-6);
        assert_eq!(speedups[3].0, "mem_cores16");
        assert!((speedups[3].1 - 4.0).abs() < 1e-6);
        assert_eq!(speedups[4].0, "cpu_cores16");
        assert!((speedups[4].1 - 9.0).abs() < 1e-6);
    }

    #[test]
    fn parse_ignores_garbage() {
        assert!(ThroughputReport::parse_speedups("not json at all").is_empty());
        // A speedup with no preceding name is dropped.
        assert!(ThroughputReport::parse_speedups("\"speedup\": 2.0\n").is_empty());
    }

    #[test]
    fn measure_produces_consistent_cases() {
        // Tiny repeats at smoke scale: this is a correctness test of the
        // harness plumbing, not a benchmark.
        let report = ThroughputReport::measure(Scale::Smoke, 1);
        assert_eq!(report.cases.len(), suite().len() * CORE_COUNTS.len());
        for case in &report.cases {
            assert!(
                case.name.ends_with(&format!("_cores{}", case.cores)),
                "{}",
                case.name
            );
            assert!(case.simulated_events > 0);
            assert!(case.heap_wall_s > 0.0);
            assert!(case.reference_wall_s > 0.0);
        }
        // The three "mem"-tagged hierarchies (baseline / prefetch /
        // closed-page) all appear at every core count.
        let mem_tagged = report.cases.iter().filter(|c| c.profile == "mem").count();
        assert_eq!(mem_tagged, 3 * CORE_COUNTS.len());
        assert!(report.headline_speedup() > 0.0);
        assert!(report.profile_speedup("mem") > 0.0);
    }
}
