//! `sixbench` — the end-to-end and per-layer benchmark of sixscope.
//!
//! ```text
//! sixbench [run|trace] --workload <name> [--seed N] [--seconds S]
//!          [--trace 0|1] [--out spans.json] [--log runs.jsonl]
//! sixbench compare <parent.jsonl> <change.jsonl> [--bench BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name and unit, then, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` (or
//! `run`) the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` (or `trace`) they are the per-layer ones. See README.md.

mod attribution;
mod compare;
mod corpus;
mod json;
mod live;
mod measure;
mod ops;
mod trace;
mod workloads;

use corpus::Params;
use sixscope::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Outcome, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The end-to-end metrics, with units; every run reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("report_s.p50", "s"),
    ("report_s.p75", "s"),
    ("ns_per_pkt", "ns/pkt"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, with units; every trace run reports all of them.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.op_s", "s"),
    ("trace.rounds", "count"),
    ("op.alloc_count", "count"),
    ("op.alloc_mib", "MiB"),
    ("op.heap_peak_mib", "MiB"),
    ("op.rss_hwm_delta_mib", "MiB"),
    ("sim.setup_s", "s"),
    ("sim.generate_s", "s"),
    ("sim.deliver_s", "s"),
    ("sim.packets", "count"),
    ("sim.dropped_unrouted", "count"),
    ("sim.truncated_probes", "count"),
    ("corpus.build_s", "s"),
    ("corpus.streaming_s", "s"),
    ("corpus.sessionize_s", "s"),
    ("corpus.index_build_s", "s"),
    ("corpus.peak_open", "count"),
    ("telescope.push128_s", "s"),
    ("telescope.push64_s", "s"),
    ("telescope.packets", "count"),
    ("telescope.sessions128", "count"),
    ("telescope.sessions64", "count"),
    ("telescope.peak_open", "count"),
    ("telescope.max_session_pkts", "count"),
    ("index.build_s", "s"),
    ("analysis.profile_scanners_s", "s"),
    ("analysis.scanners", "count"),
    ("feed.read_s", "s"),
    ("feed.records", "count"),
    ("feed.bytes", "B"),
    ("feed.skipped", "count"),
    ("feed.records_per_s", "1/s"),
    ("shardfile.scatter_s", "s"),
    ("shardfile.gather_s", "s"),
    ("shardfile.encode_s", "s"),
    ("shardfile.decode_s", "s"),
    ("shardfile.bytes_per_pkt", "B/pkt"),
    ("tables.overview_s", "s"),
    ("tables.table2_s", "s"),
    ("tables.table3_s", "s"),
    ("tables.table4_s", "s"),
    ("tables.table5_s", "s"),
    ("tables.table6_s", "s"),
    ("tables.table7_s", "s"),
    ("tables.table8_s", "s"),
    ("tables.headline_s", "s"),
    ("render.overview_s", "s"),
    ("render.table2_s", "s"),
    ("render.table3_s", "s"),
    ("render.table4_s", "s"),
    ("render.table5_s", "s"),
    ("render.table6_s", "s"),
    ("render.table7_s", "s"),
    ("render.table8_s", "s"),
    ("render.headline_s", "s"),
    ("render.analysis_report_s", "s"),
    ("figures.fig3_s", "s"),
    ("figures.fig4_s", "s"),
    ("figures.fig5_s", "s"),
    ("figures.fig7a_s", "s"),
    ("figures.fig7b_s", "s"),
    ("figures.fig8_s", "s"),
    ("figures.fig9_s", "s"),
    ("figures.fig10_s", "s"),
    ("figures.fig11_s", "s"),
    ("figures.fig12_s", "s"),
    ("figures.fig13_s", "s"),
    ("figures.fig14_s", "s"),
    ("figures.fig15_s", "s"),
    ("figures.fig16a_s", "s"),
    ("figures.fig16b_s", "s"),
    ("figures.fig17_s", "s"),
    ("serve.checkpoint_lag_ms.p50", "ms"),
    ("serve.checkpoint_lag_ms.p75", "ms"),
    ("serve.checkpoint_gap_ms.p50", "ms"),
    ("serve.backlog_records.max", "count"),
    ("serve.snapshots", "count"),
    ("serve.snapshot_bytes", "B"),
    ("serve.late_records", "count"),
];

const USAGE: &str = "\
usage: sixbench [run|trace] --workload <paper-sim|heavy-tail|pcap-federated|live-tail>
                [--seed N] [--seconds S] [--trace 0|1] [--out spans.json] [--log runs.jsonl]
       sixbench compare <parent.jsonl> <change.jsonl> [--bench BENCHMARK.json]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    log: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut trace, rest) = match args.first().map(String::as_str) {
        Some("run") => (Some(false), &args[1..]),
        Some("trace") => (Some(true), &args[1..]),
        _ => (None, args),
    };
    let (mut workload, mut seed, mut seconds, mut out, mut log) =
        (None, corpus::REF_SEED, 20.0, None, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--log" => log = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        out,
        log,
    })
}

/// A scratch directory in the working directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: Workload) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = PathBuf::from(format!(
            "sixbench-{}-{}-{nanos}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result object: the listed metrics only, each measured.
fn result_json(o: &mut Outcome, names: &[(&str, &str)]) -> Json {
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = o.metrics.get(*name).copied().filter(|v| v.is_finite());
        if value.is_none() {
            o.checks.begin();
            o.checks
                .check(false, &format!("metric {name} was not measured"));
        }
        metrics.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::s(*unit)),
            ]),
        ));
    }
    Json::obj([
        ("correct", Json::Bool(o.checks.failed == 0)),
        ("attempted", Json::u(o.checks.attempted.max(1))),
        ("failed", Json::u(o.checks.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Runs one workload and prints its result; true when every check held.
fn bench(args: &Args, params: &Params) -> Result<bool, String> {
    let dir = ScratchDir::new(args.workload).map_err(|e| format!("scratch directory: {e}"))?;
    if args.trace {
        measure::enable_alloc_counting();
    }
    let mut o = workloads::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        params,
        &dir.0,
    );
    drop(dir);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let result = result_json(&mut o, names);
    let mut stdout = std::io::stdout().lock();
    let w = |e: std::io::Error| e.to_string();
    writeln!(
        stdout,
        "sixbench {} seed {} ({}, {} s, {} threads available)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
    .map_err(w)?;
    for note in &o.notes {
        writeln!(stdout, "  {note}").map_err(w)?;
    }
    for (name, unit) in names {
        let value = o.metrics.get(*name).copied().unwrap_or(0.0);
        writeln!(stdout, "  {name:<30} {value:>16.6} {unit}").map_err(w)?;
    }
    if let Some(path) = &args.out {
        write_file(path, &format!("{}\n", o.tracer.to_json().render()))?;
    }
    if let Some(path) = &args.log {
        let Json::Obj(mut pairs) = result.clone() else {
            unreachable!("the result is an object")
        };
        pairs.splice(
            0..0,
            [
                ("workload".to_string(), Json::s(args.workload.name())),
                ("seed".to_string(), Json::u(args.seed)),
                ("trace".to_string(), Json::Bool(args.trace)),
            ],
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", Json::Obj(pairs).render()).map_err(w)?;
    }
    writeln!(stdout, "{}", result.render()).map_err(w)?;
    Ok(o.checks.failed == 0)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => match parse_args(&args) {
            Ok(a) => bench(&a, &Params::benchmark()),
            Err(e) => {
                eprintln!("sixbench: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sixbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at toy size: every listed
    /// metric is emitted, finite, and nonzero where it must be.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        let params = Params::smoke();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let dir = ScratchDir::new(workload).expect("scratch directory");
                if trace {
                    measure::enable_alloc_counting();
                }
                let mut o = workloads::run(workload, 7, 1.0, trace, &params, &dir.0);
                let names = if trace { PER_LAYER } else { END_TO_END };
                let result = result_json(&mut o, names).render();
                let parsed = json::parse(&result).expect("the result line is JSON");
                assert_eq!(
                    parsed.get("correct"),
                    Some(&json::Value::Bool(true)),
                    "{} trace={trace}: {result}",
                    workload.name()
                );
                let metrics = parsed.get("metrics").expect("metrics");
                assert_eq!(metrics.entries().len(), names.len());
                for (name, unit) in names {
                    let m = metrics.get(name).expect("listed metric");
                    assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(*unit));
                    let v = m
                        .get("value")
                        .and_then(json::Value::as_f64)
                        .expect("number");
                    assert!(v.is_finite(), "{name} = {v}");
                    let may_be_zero = name.starts_with("trace.overhead")
                        || name.starts_with("sim.dropped")
                        || name.starts_with("sim.truncated")
                        || name.starts_with("serve.late")
                        || name.starts_with("serve.backlog")
                        || name.starts_with("feed.skipped")
                        || name.ends_with("rss_hwm_delta_mib")
                        || name.ends_with("heap_peak_mib");
                    assert!(
                        may_be_zero || v > 0.0,
                        "{} trace={trace}: {name} = {v}",
                        workload.name()
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_flags_parse() {
        let args: Vec<String> = "--workload live-tail --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).expect("valid flags");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::LiveTail, 3, 10.0, true)
        );
        let run: Vec<String> = ["run", "--workload", "paper-sim"]
            .map(String::from)
            .to_vec();
        assert!(!parse_args(&run).expect("valid").trace);
        for bad in [
            "--workload nope",
            "--workload paper-sim --trace 2",
            "--seconds 5",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
