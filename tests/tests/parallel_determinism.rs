//! The parallel-determinism contract (DESIGN.md §6): the experiment's
//! output is byte-identical at any worker-thread count. Workers generate
//! and deliver one scanner at a time into per-scanner capture segments,
//! but the merged captures, drop counters and T4 responses must not move
//! by a single bit between `threads = 1`, `2` and `8`, and must equal the
//! serial staged oracle's.

use sixscope_sim::{ExperimentResult, Scenario, ScenarioConfig, TumHitlist, Visibility};
use sixscope_telescope::{AggLevel, SourceKey, TelescopeId};

#[path = "../../crates/sim/tests/staged_oracle/mod.rs"]
mod staged_oracle;

/// What a configuration is here for. The two rare engine branches only
/// show in a run that contains their event: without one, a reversed
/// capture-merge tie-break or a routed hint reused across epochs passes.
#[derive(Clone, Copy, Debug)]
enum Covers {
    /// The default seed: the bulk of the engine.
    Bulk,
    /// Two consecutive packets of one telescope in the same second from
    /// different source /64s (each scanner owns one /64), so the capture
    /// merge's tie-break orders them.
    CrossScannerTie,
    /// Probes dropped as unrouted, so the routed hint's epoch check
    /// decides which probes are delivered.
    UnroutedDrop,
}

/// Seed, scale and the event each configuration must contain.
const CONFIGS: [(u64, f64, Covers); 3] = [
    (20_230_824, 0.008, Covers::Bulk),
    (42, 0.004, Covers::CrossScannerTie),
    (3, 0.004, Covers::UnroutedDrop),
];

fn run_with(seed: u64, scale: f64, threads: usize) -> ExperimentResult {
    let mut config = ScenarioConfig::new(seed, scale);
    config.threads = Some(threads);
    Scenario::new(config).run()
}

/// Fails loudly when a configuration no longer contains its event (a
/// re-keyed RNG moved it), instead of silently testing less.
fn assert_covers(result: &ExperimentResult, covers: Covers, label: &str) {
    let held = match covers {
        Covers::Bulk => result.total_packets() > 1000,
        Covers::CrossScannerTie => TelescopeId::ALL.into_iter().any(|id| {
            result.capture(id).packets().windows(2).any(|w| {
                w[0].ts == w[1].ts
                    && SourceKey::new(w[0].src, AggLevel::Subnet64)
                        != SourceKey::new(w[1].src, AggLevel::Subnet64)
            })
        }),
        Covers::UnroutedDrop => result.dropped_unrouted > 0,
    };
    assert!(
        held,
        "{label}: the run no longer contains its {covers:?} event"
    );
}

/// The fused engine at any thread count reproduces the serial staged
/// oracle bit-for-bit: same captures, same counters. This is the
/// cross-path half of the contract — the cross-thread half is below.
#[test]
fn fused_path_matches_staged_reference_at_any_thread_count() {
    for (seed, scale, covers) in CONFIGS {
        let staged = staged_oracle::run(&ScenarioConfig::new(seed, scale));
        for threads in [1, 2, 8] {
            let fused = run_with(seed, scale, threads);
            let label = format!("seed {seed} at {scale}, {threads} threads");
            staged_oracle::assert_same(&fused, &staged, &label);
            assert_covers(&fused, covers, &label);
        }
    }
}

#[test]
fn captures_are_byte_identical_across_thread_counts() {
    for (seed, scale, covers) in CONFIGS {
        let serial = run_with(seed, scale, 1);
        assert!(
            serial.total_packets() > 1000,
            "seed {seed}: reference run too small to be meaningful ({} packets)",
            serial.total_packets()
        );
        assert_covers(&serial, covers, &format!("seed {seed} at {scale}"));
        for threads in [2, 8] {
            let parallel = run_with(seed, scale, threads);
            for id in TelescopeId::ALL {
                let a = serial.capture(id);
                let b = parallel.capture(id);
                assert_eq!(
                    a.packets(),
                    b.packets(),
                    "seed {seed}: {id:?} capture diverged at {threads} threads"
                );
                assert_eq!(
                    a.filtered(),
                    b.filtered(),
                    "seed {seed}: {id:?} filter counter diverged"
                );
                assert_eq!(
                    a.malformed(),
                    b.malformed(),
                    "seed {seed}: {id:?} malformed counter diverged"
                );
            }
            assert_eq!(
                serial.dropped_unrouted, parallel.dropped_unrouted,
                "seed {seed}: unrouted-drop count diverged at {threads} threads"
            );
            assert_eq!(
                serial.t4_responses, parallel.t4_responses,
                "seed {seed}: T4 response count diverged at {threads} threads"
            );
            assert_eq!(
                serial.truncated_probes, parallel.truncated_probes,
                "seed {seed}: truncation count diverged at {threads} threads"
            );
        }
    }
}
