//! The parallel-determinism contract (DESIGN.md §6): the experiment's
//! output is byte-identical at any worker-thread count. Workers generate
//! and deliver one scanner at a time into per-scanner capture segments,
//! but the merged captures, drop counters and T4 responses must not move
//! by a single bit between `threads = 1`, `2` and `8`, and must equal the
//! serial staged oracle's.

use sixscope_sim::{
    CompiledVisibility, ExperimentResult, Scenario, ScenarioConfig, TumHitlist, Visibility,
};
use sixscope_telescope::TelescopeId;

#[path = "../../crates/sim/tests/staged_oracle/mod.rs"]
mod staged_oracle;

fn run_with(threads: usize) -> ExperimentResult {
    let mut config = ScenarioConfig::new(20_230_824, 0.008);
    config.threads = Some(threads);
    Scenario::new(config).run()
}

/// The fused engine at any thread count reproduces the serial staged
/// oracle bit-for-bit: same captures, same counters. This is the
/// cross-path half of the contract — the cross-thread half is below.
#[test]
fn fused_path_matches_staged_reference_at_any_thread_count() {
    let staged = staged_oracle::run(&ScenarioConfig::new(20_230_824, 0.008));
    for threads in [1, 2, 8] {
        let fused = run_with(threads);
        staged_oracle::assert_same(&fused, &staged, &format!("{threads} threads"));
    }
}

#[test]
fn captures_are_byte_identical_across_thread_counts() {
    let serial = run_with(1);
    assert!(
        serial.total_packets() > 1000,
        "reference run too small to be meaningful ({} packets)",
        serial.total_packets()
    );
    for threads in [2, 8] {
        let parallel = run_with(threads);
        for id in TelescopeId::ALL {
            let a = serial.capture(id);
            let b = parallel.capture(id);
            assert_eq!(
                a.packets(),
                b.packets(),
                "{id:?} capture diverged at {threads} threads"
            );
            assert_eq!(a.filtered(), b.filtered(), "{id:?} filter counter diverged");
            assert_eq!(
                a.malformed(),
                b.malformed(),
                "{id:?} malformed counter diverged"
            );
        }
        assert_eq!(
            serial.dropped_unrouted, parallel.dropped_unrouted,
            "unrouted-drop count diverged at {threads} threads"
        );
        assert_eq!(
            serial.t4_responses, parallel.t4_responses,
            "T4 response count diverged at {threads} threads"
        );
        assert_eq!(
            serial.truncated_probes, parallel.truncated_probes,
            "truncation count diverged at {threads} threads"
        );
    }
}
