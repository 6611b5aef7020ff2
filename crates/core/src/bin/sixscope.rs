//! `sixscope` — command-line front end to the toolkit.
//!
//! ```text
//! sixscope run [--seed N] [--scale F] [--out DIR]   run the full experiment
//! sixscope serve <file.pcap> [--out DIR]            live telescope daemon
//! sixscope analyze <telescope-prefix> <file.pcap>…  analyze real captures
//! sixscope shard <file.pcap>… --out f.sixshard      write one worker's packets
//! sixscope merge <f.sixshard>…                      gather shards and analyze
//! sixscope schedule <covering/32>                   print the Fig.-2 split plan
//! sixscope classify <addr>…                         RFC 7707 address typing
//! ```
//!
//! Flag handling is shared across subcommands ([`sixscope::cli::Flags`]):
//! flags are `--name value` pairs, everything else is positional, and
//! `--threads N` is accepted everywhere. Errors exit with a per-category
//! code ([`sixscope::Error::exit_code`]): 2 usage, 3 I/O, 4 pcap,
//! 6 analysis, 7 shard file.

use sixscope::cli::Flags;
use sixscope::serve::{self, ServeOptions};
use sixscope::sim::ScenarioConfig;
use sixscope::{Error, Pipeline, PipelineOutput};
use sixscope_analysis::addrtype;
use sixscope_telescope::{SplitSchedule, TelescopeId};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::net::Ipv6Addr;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "serve" => cmd_serve(rest),
        "analyze" => cmd_analyze(rest),
        "shard" => cmd_shard(rest),
        "merge" => cmd_merge(rest),
        "schedule" => cmd_schedule(rest),
        "classify" => cmd_classify(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Error::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sixscope: {err}");
            let mut source = std::error::Error::source(&err);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = std::error::Error::source(cause);
            }
            ExitCode::from(err.exit_code())
        }
    }
}

const USAGE: &str = "\
sixscope — IPv6 network-telescope measurement toolkit

Every subcommand accepts --threads N (worker-thread cap, 1 to 256; output
bytes never depend on it).

USAGE:
    sixscope run [--seed N] [--scale F] [--pcap-dir DIR] [--json]
        Run the full 11-month experiment and print all tables
        (--json prints one machine-readable JSON document instead).
        --pcap-dir also writes one pcap per telescope.

    sixscope analyze <telescope-prefix> <capture.pcap> [more.pcap…]
            [--json]
        Stream real pcap captures (LINKTYPE_RAW) of a telescope, filtered
        to its prefix (::/0 keeps every packet), and print sessions,
        temporal classes and address selection per scanner. Damaged
        records are skipped and counted by reason, and a file cut off
        mid-record keeps every complete record: the recovery statistics
        go to stderr, one line per file plus a total for several files,
        and into the stats object of --json.

    sixscope serve <capture.pcap> [--out DIR]
            [--snapshot-every N] [--status-fd FD] [--prefix P]
            [--poll-ms MS] [--quiesce-ms MS] [--chunk N] [--json]
        Live telescope daemon. Follows a growing pcap, remapping as the
        file grows; records older than the session-eviction horizon are
        counted as late, not replayed into closed sessions.
        Checkpoints go to --out DIR as snapshot-NNNNNN.md plus latest.md,
        written atomically; --status-fd emits one JSON line per
        checkpoint to FD, an open descriptor (0 or above).
        SIGTERM/SIGINT flush a final checkpoint and exit 0; the final
        checkpoint over a finished pcap is byte-identical to
        `sixscope analyze` over the same file.

    sixscope shard <capture.pcap> [more.pcap…] --out <file.sixshard>
            [--prefix P]
        Read one worker's captures and write their packets and recovery
        statistics as one .sixshard file — the scatter side of federated
        sharding (sessions are built by merge).

    sixscope merge <file.sixshard> [more.sixshard…] [--json]
        Gather .sixshard files (in capture order per telescope),
        sessionize them and run the full analysis; the output is
        byte-identical to analyzing the concatenated pcaps in one process.

    sixscope schedule <covering-prefix/32> [--weeks-baseline N]
        Print the bi-weekly asymmetric split plan (paper Fig. 2).

    sixscope classify <ipv6-addr> [more…]
        Classify addresses into RFC 7707 target classes.";

fn cmd_run(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["seed", "scale", "pcap-dir", "json", "threads"])?;
    let scale: f64 = flags.parsed("scale")?.unwrap_or(0.01);
    // `inf` would abort on allocation; NaN, zero and negative scales
    // would build a degenerate population and report it as a result.
    if !(scale.is_finite() && scale > 0.0) {
        return Err(Error::Usage(format!(
            "--scale must be a finite number above 0, got {scale}"
        )));
    }
    let threads = flags.apply_threads()?;
    let seed: u64 = flags.parsed("seed")?.unwrap_or(20230824);
    eprintln!("running experiment seed={seed} scale={scale}…");
    let mut pipeline = Pipeline::simulate(ScenarioConfig::new(seed, scale));
    if let Some(n) = threads {
        pipeline = pipeline.threads(n);
    }
    let analyzed = pipeline.run()?;
    if let Some(dir) = flags.get("pcap-dir") {
        std::fs::create_dir_all(dir).map_err(|source| Error::Io {
            path: dir.to_string(),
            source,
        })?;
        for id in TelescopeId::ALL {
            // Re-encode the summarized capture to a pcap for inspection.
            let path = format!("{dir}/{id}.pcap");
            let file = std::fs::File::create(&path).map_err(|source| Error::Io {
                path: path.clone(),
                source,
            })?;
            // `write_pcap` flushes the buffer and reports its error.
            analyzed
                .capture(id)
                .write_pcap(std::io::BufWriter::new(file))
                .map_err(|source| Error::Pcap {
                    path: path.clone(),
                    source,
                })?;
            eprintln!("wrote {path}");
        }
    }
    print!("{}", serve::tables_report(&analyzed, flags.is_true("json")));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(
        args,
        &[
            "prefix",
            "snapshot-every",
            "out",
            "status-fd",
            "poll-ms",
            "quiesce-ms",
            "threads",
            "chunk",
            "json",
        ],
    )?;
    flags.apply_threads()?;
    let [path] = flags.positional() else {
        return Err(Error::Usage(
            "usage: sixscope serve <capture.pcap> [--out DIR]".into(),
        ));
    };
    let mut opts = ServeOptions::pcap(path, flags.get("out").unwrap_or("serve-out"));
    if let Some(n) = flags.chunk()? {
        opts.chunk_records = n;
    }
    opts.snapshot_every = flags.parsed("snapshot-every")?;
    opts.json = flags.is_true("json");
    opts.status_fd = flags.parsed("status-fd")?;
    if let Some(ms) = flags.parsed("poll-ms")? {
        opts.poll_ms = ms;
    }
    if let Some(ms) = flags.parsed("quiesce-ms")? {
        opts.quiesce_ms = ms;
    }
    if let Some(prefix) = flags.parsed("prefix")? {
        opts.prefix = prefix;
    }
    let summary = serve::serve(opts)?;
    eprintln!(
        "serve: {} packets, {} snapshots, {} late records; latest at {}",
        summary.packets,
        summary.snapshots,
        summary.late_records,
        summary.latest.display()
    );
    if summary.status_write_errors > 0 {
        eprintln!(
            "serve: warning: {} status-line writes failed",
            summary.status_write_errors
        );
    }
    Ok(())
}

/// Logs per-file recovery statistics (and the total, when there are
/// several files) to stderr, keeping stdout byte-comparable across the
/// pcap and shard paths.
fn print_file_stats(
    file_stats: &[(String, sixscope_telescope::IngestStats)],
    total: &sixscope_telescope::IngestStats,
) {
    for (file, stats) in file_stats {
        eprintln!("{file}: {stats}");
    }
    if file_stats.len() > 1 {
        eprintln!("total: {total}");
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["json", "threads"])?;
    let [prefix, files @ ..] = flags.positional() else {
        return Err(Error::Usage(
            "usage: sixscope analyze <telescope-prefix> <capture.pcap>…".into(),
        ));
    };
    if files.is_empty() {
        return Err(Error::Usage("no pcap files given".into()));
    }
    let prefix: Ipv6Prefix = prefix
        .parse()
        .map_err(|e| Error::Usage(format!("bad telescope prefix: {e}")))?;
    let mut pipeline = Pipeline::from_pcaps(files).prefix(prefix);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    let out = pipeline.run_detailed()?;
    print_file_stats(&out.file_stats, &out.stats);
    print_analysis(&out, flags.is_true("json"))
}

/// Prints the `analyze` report for a pipeline run — shared verbatim by
/// `analyze` (pcaps), `merge` (shard files), and the serve daemon's
/// checkpoints ([`serve::analysis_report`]), so all three outputs can be
/// byte-compared over the same packets.
fn print_analysis(out: &PipelineOutput, json: bool) -> Result<(), Error> {
    print!(
        "{}",
        serve::analysis_report(&out.analyzed, &out.stats, json)
    );
    Ok(())
}

fn cmd_shard(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["prefix", "out", "threads"])?;
    let files = flags.positional().to_vec();
    if files.is_empty() {
        return Err(Error::Usage(
            "usage: sixscope shard <capture.pcap>… --out <file.sixshard>".into(),
        ));
    }
    let Some(out_path) = flags.get("out") else {
        return Err(Error::Usage(
            "shard needs --out <file.sixshard> (the shard file to write)".into(),
        ));
    };
    let prefix: Ipv6Prefix = flags
        .parsed("prefix")?
        .unwrap_or_else(Ipv6Prefix::default_route);
    let mut pipeline = Pipeline::from_pcaps(&files).prefix(prefix);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    let out = pipeline.to_shard(out_path)?;
    print_file_stats(&out.file_stats, &out.stats);
    eprintln!("wrote {out_path}: {} packets", out.packets);
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["json", "threads"])?;
    let files = flags.positional().to_vec();
    if files.is_empty() {
        return Err(Error::Usage(
            "usage: sixscope merge <file.sixshard>…".into(),
        ));
    }
    let mut pipeline = Pipeline::from_shards(&files);
    if let Some(n) = flags.apply_threads()? {
        pipeline = pipeline.threads(n);
    }
    let out = pipeline.run_detailed()?;
    print_file_stats(&out.file_stats, &out.stats);
    print_analysis(&out, flags.is_true("json"))
}

fn cmd_schedule(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["weeks-baseline", "threads"])?;
    flags.apply_threads()?;
    let [covering] = flags.positional() else {
        return Err(Error::Usage(
            "usage: sixscope schedule <covering-prefix/32>".into(),
        ));
    };
    let covering: Ipv6Prefix = covering
        .parse()
        .map_err(|e| Error::Usage(format!("bad prefix: {e}")))?;
    if covering.len() != 32 {
        return Err(Error::Usage("the paper's schedule splits a /32".into()));
    }
    let mut schedule = SplitSchedule::paper(covering, SimTime::EPOCH);
    if let Some(weeks) = flags.parsed::<u64>("weeks-baseline")? {
        // The baseline and the cycles after it must fit the u64 clock.
        let cycles = schedule.cycle_len.as_secs() * u64::from(schedule.cycles);
        let secs = weeks
            .checked_mul(7 * 86_400)
            .filter(|secs| secs.checked_add(cycles).is_some())
            .ok_or_else(|| {
                Error::Usage(format!(
                    "--weeks-baseline {weeks} overflows the simulated clock"
                ))
            })?;
        schedule.baseline = sixscope_types::SimDuration::secs(secs);
    }
    println!(
        "baseline: {} with {} announced",
        schedule.baseline, covering
    );
    for cycle in 1..=schedule.cycles {
        let set = schedule.announced_set(cycle);
        let (lo, hi) = schedule.new_prefixes(cycle);
        println!(
            "cycle {cycle:>2} @ {}: withdraw all; +1d announce {} prefixes (new: {lo}, {hi})",
            schedule.cycle_start(cycle),
            set.len(),
        );
    }
    println!("\nfinal set:");
    for p in schedule.announced_set(schedule.cycles) {
        println!("  {p}");
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), Error> {
    let flags = Flags::parse(args, &["threads"])?;
    flags.apply_threads()?;
    if flags.positional().is_empty() {
        return Err(Error::Usage("usage: sixscope classify <ipv6-addr>…".into()));
    }
    for s in flags.positional() {
        let addr: Ipv6Addr = s.parse().map_err(|e| Error::Usage(format!("{s}: {e}")))?;
        println!("{s:<42} {}", addrtype::classify(addr));
    }
    Ok(())
}
