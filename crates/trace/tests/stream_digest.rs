//! Pins the generator's exact output: the events covering the first
//! million instructions of four profiles, digested. Any change to how the
//! generator draws (rounding, Bernoulli comparisons, address cursors)
//! must keep these digests; a digest that moves means the stream did.

use mapg_trace::{EventSource, IdleInjection, SyntheticWorkload, TraceEvent, WorkloadProfile};

/// 64-bit FNV-1a, folded over each event's fields in a fixed encoding.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// (events, digest) of the stream from `profile` until it has retired at
/// least one million instructions.
fn digest(profile: &WorkloadProfile, seed: u64) -> (u64, u64) {
    let mut workload = SyntheticWorkload::new(profile, seed);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut events, mut instructions) = (0u64, 0u64);
    while instructions < 1_000_000 {
        let event = workload.next_event();
        match event {
            TraceEvent::Compute {
                cycles,
                instructions,
            } => {
                fnv.word(0);
                fnv.word(cycles);
                fnv.word(instructions);
            }
            TraceEvent::MemAccess(access) => {
                fnv.word(1);
                fnv.word(access.addr);
                fnv.word(access.pc);
                fnv.word(u64::from(access.kind.is_load()));
                fnv.word(u64::from(access.dependent));
            }
            TraceEvent::Idle { cycles } => {
                fnv.word(2);
                fnv.word(cycles);
            }
        }
        events += 1;
        instructions += event.instructions();
    }
    (events, fnv.0)
}

/// R-F15's interactive shape: gcc-like traffic with injected idle periods.
fn interactive() -> WorkloadProfile {
    WorkloadProfile::builder("interactive")
        .mem_refs_per_kilo_inst(70.0)
        .working_set_bytes(32 << 20)
        .spatial_locality(0.6)
        .hot_regions(4)
        .pointer_chase_fraction(0.25)
        .compute_ipc(1.8)
        .idle_injection(IdleInjection::new(100_000, 400_000))
        .build()
}

#[test]
fn first_million_instructions_are_pinned() {
    let cases = [
        ("mem_bound", WorkloadProfile::mem_bound("m")),
        ("compute_bound", WorkloadProfile::compute_bound("c")),
        ("mixed", WorkloadProfile::mixed("x")),
        ("interactive", interactive()),
    ];
    let got: Vec<(&str, (u64, u64))> = cases
        .iter()
        .map(|(name, profile)| (*name, digest(profile, 42)))
        .collect();
    let pinned: [(&str, (u64, u64)); 4] = [
        ("mem_bound", (287_188, 0xa00e_2b72_818f_ab4b)),
        ("compute_bound", (15_040, 0xe080_eb5a_95a7_9cf3)),
        ("mixed", (133_223, 0x8327_4e30_0f7a_6563)),
        ("interactive", (182_297, 0xa5d2_c4b0_82e5_dc70)),
    ];
    assert_eq!(got, pinned);
}
