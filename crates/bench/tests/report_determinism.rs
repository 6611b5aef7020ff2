//! The report layer inherits the determinism contract (DESIGN.md §6–§7):
//! the full EXPERIMENTS.md body — every table, figure and comparison row —
//! must be byte-identical no matter how many worker threads built the
//! corpus, its columnar index and the report items.

use sixscope::report::{self, Section};
use sixscope::sim::ScenarioConfig;
use sixscope::Pipeline;
use sixscope_bench::{BENCH_SCALE, SEED};

/// Builds the complete report body from a fresh experiment run.
fn report_body() -> String {
    let a = Pipeline::simulate(ScenarioConfig::new(SEED, BENCH_SCALE))
        .run()
        .expect("simulated runs cannot fail");
    report::markdown(&[Section::tables(&a), Section::figures(&a)]).text
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    // One test body (not #[test] per thread count): tests in one binary run
    // concurrently, and SIXSCOPE_THREADS is process-global state.
    std::env::set_var("SIXSCOPE_THREADS", "1");
    let serial = report_body();
    std::env::set_var("SIXSCOPE_THREADS", "8");
    let parallel = report_body();
    std::env::remove_var("SIXSCOPE_THREADS");
    assert!(serial.contains("shape checks hold."), "{serial}");
    assert_eq!(
        serial, parallel,
        "report bytes diverge between 1 and 8 worker threads"
    );
}
