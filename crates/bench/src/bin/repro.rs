//! `repro` — regenerates every table and figure of the paper and writes
//! EXPERIMENTS.md with paper-vs-measured comparisons.
//!
//! Usage: `cargo run -p sixscope-bench --bin repro --release [-- [scale] [--timing] [--chunk N]]`
//!
//! With `--timing`, prints a per-stage wall-clock breakdown (generate,
//! deliver, streaming, sessionize, index build, tables, figures) plus the
//! process peak RSS and writes it to BENCH_repro.json for machine
//! consumption.

use sixscope::json::Json;
use sixscope::sim::ScenarioConfig;
use sixscope::Pipeline;
use sixscope_bench::report::{figures_section, tables_section};
use sixscope_bench::{comparisons_markdown, peak_rss_kib, SEED};
use std::fmt::Write as _;
use std::time::Instant;

/// Prints a pipeline error (with its cause chain) and exits with the
/// error's CLI exit code.
fn fail(err: &sixscope::Error) -> ! {
    eprintln!("repro: {err}");
    let mut source = std::error::Error::source(err);
    while let Some(cause) = source {
        eprintln!("  caused by: {cause}");
        source = std::error::Error::source(cause);
    }
    std::process::exit(err.exit_code() as i32);
}

fn main() {
    let mut scale = sixscope_bench::SCALE;
    let mut timing = false;
    let mut chunk: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--timing" {
            timing = true;
        } else if arg == "--chunk" {
            // Streaming chunk size — output must be byte-identical at any
            // value (the CI equivalence check drives this).
            let value = args.next().unwrap_or_default();
            match value.parse() {
                Ok(0) | Err(_) => {
                    eprintln!("invalid --chunk value {value:?} (need a record count ≥ 1)");
                    std::process::exit(2);
                }
                Ok(n) => chunk = Some(n),
            }
        } else if arg == "--shards" {
            // Scatter the corpus over K shard files per telescope and
            // gather them back — output must be byte-identical to the
            // in-process run (the CI equivalence check drives this).
            let value = args.next().unwrap_or_default();
            match value.parse() {
                Ok(0) | Err(_) => {
                    eprintln!("invalid --shards value {value:?} (need a shard count ≥ 1)");
                    std::process::exit(2);
                }
                Ok(n) => shards = Some(n),
            }
        } else if let Ok(s) = arg.parse::<f64>() {
            // `inf` would abort on allocation; NaN, zero and negative
            // scales would build a degenerate population and overwrite
            // EXPERIMENTS.md with its report.
            if !(s.is_finite() && s > 0.0) {
                eprintln!("invalid scale {arg:?} (need a finite number > 0)");
                std::process::exit(2);
            }
            scale = s;
        } else {
            eprintln!("usage: repro [scale] [--timing] [--chunk N] [--shards K]");
            std::process::exit(2);
        }
    }
    let threads = sixscope_types::num_threads(None);
    eprintln!(
        "running experiment: seed={SEED} scale={scale} (paper = 1.0), {threads} worker thread(s) …"
    );
    let t0 = Instant::now();
    let (a, sim) = if let Some(pieces) = shards {
        // Scatter/gather round trip: simulate once, write the corpus as
        // `pieces` shard files per telescope, then merge the files back.
        let (result, sim) =
            sixscope::sim::Scenario::new(ScenarioConfig::new(SEED, scale)).run_timed();
        let dir = std::env::temp_dir().join(format!("sixscope-shards-{}", std::process::id()));
        let paths = sixscope::shardfile::write_experiment_shards(&result, pieces, &dir)
            .unwrap_or_else(|e| fail(&e));
        eprintln!("scattered {} shard files to {}", paths.len(), dir.display());
        let analyzed = sixscope::shardfile::merge_experiment(result, &paths, None)
            .unwrap_or_else(|e| fail(&e));
        let _ = std::fs::remove_dir_all(&dir);
        (analyzed, sim)
    } else {
        let mut pipeline = Pipeline::simulate(ScenarioConfig::new(SEED, scale));
        if let Some(n) = chunk {
            pipeline = pipeline.chunk_records(n);
        }
        let out = pipeline.run_detailed().expect("simulated runs cannot fail");
        (out.analyzed, out.sim)
    };
    eprintln!(
        "experiment done in {:.1?}: {} packets captured, {} dropped unrouted, {} T4 responses",
        t0.elapsed(),
        a.result.total_packets(),
        a.result.dropped_unrouted,
        a.result.t4_responses,
    );
    if a.result.truncated_probes > 0 {
        eprintln!(
            "warning: generation cap truncated {} probe(s) — a scanner spec is \
             mis-scaled for this run",
            a.result.truncated_probes,
        );
    }

    let mut out = String::new();
    writeln!(out, "# EXPERIMENTS — paper vs. measured\n").unwrap();
    writeln!(
        out,
        "Run: seed `{SEED}`, scale `{scale}` (1.0 = the study's ~51M packets).\n\
         Absolute counts scale with `scale`; all shares/ratios are scale-free\n\
         and compared against the paper below.\n"
    )
    .unwrap();

    let tables_start = Instant::now();
    let mut rows = tables_section(&a, &mut out);
    let tables_secs = tables_start.elapsed().as_secs_f64();
    let figures_start = Instant::now();
    rows.extend(figures_section(&a, &mut out));
    let figures_secs = figures_start.elapsed().as_secs_f64();

    writeln!(out, "\n## Comparison summary\n").unwrap();
    let holds = rows.iter().filter(|r| r.holds).count();
    out.push_str(&comparisons_markdown(&rows));
    writeln!(out, "\n**{holds} of {} shape checks hold.**", rows.len()).unwrap();

    std::fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    eprintln!("wrote EXPERIMENTS.md ({holds}/{} checks hold)", rows.len());

    if timing {
        let stages = [
            ("setup", sim.setup),
            ("generate", sim.generate),
            ("deliver", sim.deliver),
            ("streaming", a.timings.streaming),
            ("sessionize", a.timings.sessionize),
            ("index_build", a.timings.index_build),
            ("tables", tables_secs),
            ("figures", figures_secs),
        ];
        let total = t0.elapsed().as_secs_f64();
        eprintln!("timing breakdown ({threads} worker thread(s)):");
        for (name, secs) in stages {
            eprintln!("  {name:<12} {secs:>8.3} s");
        }
        eprintln!("  {:<12} {total:>8.3} s", "total");
        eprintln!("  peak open sessions: {}", a.peak_open_sessions);
        if let Some(kib) = peak_rss_kib() {
            eprintln!("  peak RSS: {kib} KiB");
        }
        let json = Json::obj([
            ("seed", Json::u(SEED)),
            ("scale", Json::Num(scale)),
            ("threads", Json::u(threads as u64)),
            ("packets", Json::u(a.result.total_packets() as u64)),
            (
                "stages",
                Json::Obj(
                    stages
                        .iter()
                        .map(|&(name, secs)| (name.to_string(), Json::Num(secs)))
                        .collect(),
                ),
            ),
            ("total", Json::Num(total)),
            ("peak_open_sessions", Json::u(a.peak_open_sessions as u64)),
            ("peak_rss_kib", peak_rss_kib().map_or(Json::Null, Json::u)),
        ]);
        std::fs::write("BENCH_repro.json", json.render() + "\n").expect("write BENCH_repro.json");
        eprintln!("wrote BENCH_repro.json");
    }
}
