//! Shared helpers for the sixscope benchmark harness and the `repro`
//! binary: the default seed and scales, one cached bench-scale experiment,
//! and the process's peak RSS. The EXPERIMENTS.md body `repro` writes
//! comes from the report registry, `sixscope::report`.

use sixscope::sim::ScenarioConfig;
use sixscope::{Analyzed, Pipeline};
use std::sync::OnceLock;

/// The default repro seed.
pub const SEED: u64 = 20230824; // the day T1 was first announced in the study

/// The default repro scale (0.85M captured packets at the default seed).
pub const SCALE: f64 = 0.04;

/// A smaller scale for criterion timing runs.
pub const BENCH_SCALE: f64 = 0.008;

/// Runs (or returns the cached) experiment at the bench scale.
pub fn bench_corpus() -> &'static Analyzed {
    static CELL: OnceLock<Analyzed> = OnceLock::new();
    CELL.get_or_init(|| {
        Pipeline::simulate(ScenarioConfig::new(SEED, BENCH_SCALE))
            .run()
            .expect("simulated runs cannot fail")
    })
}

/// Peak resident-set size of this process in kibibytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. The repro
/// binary exports it so bounded-memory claims are observable in
/// BENCH_repro.json.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
