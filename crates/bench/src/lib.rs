//! Shared helpers for the sixscope benchmark harness: one cached experiment
//! per (seed, scale) and the paper-vs-measured comparison rows written to
//! EXPERIMENTS.md.

use sixscope::sim::ScenarioConfig;
use sixscope::{Analyzed, Pipeline};
use std::sync::OnceLock;

pub mod report;

/// The default repro seed.
pub const SEED: u64 = 20230824; // the day T1 was first announced in the study

/// The default repro scale (≈ 2M packets; all reported shares are
/// scale-free).
pub const SCALE: f64 = 0.04;

/// A smaller scale for criterion timing runs.
pub const BENCH_SCALE: f64 = 0.008;

/// Runs (or returns the cached) experiment at the default repro scale.
pub fn corpus() -> &'static Analyzed {
    static CELL: OnceLock<Analyzed> = OnceLock::new();
    CELL.get_or_init(|| {
        Pipeline::simulate(ScenarioConfig::new(SEED, SCALE))
            .run()
            .expect("simulated runs cannot fail")
    })
}

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

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Experiment id ("Table 2", "Fig. 10", …).
    pub experiment: String,
    /// The quantity compared.
    pub metric: String,
    /// The paper's reported value (textual, may be approximate).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Does the shape hold?
    pub holds: bool,
}

/// Renders comparisons as a markdown table.
pub fn comparisons_markdown(rows: &[Comparison]) -> String {
    let mut out = String::from("| Experiment | Metric | Paper | Measured | Shape holds |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.experiment,
            r.metric,
            r.paper,
            r.measured,
            if r.holds { "✓" } else { "✗" }
        ));
    }
    out
}
