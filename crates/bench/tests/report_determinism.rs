//! The report layer inherits the determinism contract (DESIGN.md §6–§7):
//! the full EXPERIMENTS.md body — every table, figure and comparison row —
//! must be byte-identical no matter how many worker threads built the
//! corpus and its columnar index.

use sixscope::sim::ScenarioConfig;
use sixscope::Pipeline;
use sixscope_bench::report::{figures_section, tables_section};
use sixscope_bench::{comparisons_markdown, BENCH_SCALE, SEED};

/// Builds the complete report body from a fresh experiment run.
fn report_body() -> String {
    let a = Pipeline::simulate(ScenarioConfig::new(SEED, BENCH_SCALE))
        .run()
        .expect("simulated runs cannot fail");
    let mut out = String::new();
    let mut rows = tables_section(&a, &mut out);
    rows.extend(figures_section(&a, &mut out));
    out.push_str(&comparisons_markdown(&rows));
    out
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
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "report bytes diverge between 1 and 8 worker threads"
    );
}
