//! `sixscope serve` — the live telescope daemon.
//!
//! A long-running loop that follows one growing pcap through a
//! [`TailFeed`] into the same `FeedConsumer` the batch pipeline uses,
//! and checkpoints the analysis as it goes:
//!
//! * **Snapshots** — every `--snapshot-every N` revealed records the
//!   current report is written to `--out DIR` as `snapshot-NNNNNN.md`
//!   (write-to-temp, fsync, atomic rename) plus `latest.md` (a hard link
//!   to it, renamed into place), and the directory is fsynced, so a reader
//!   never observes a torn file, even after a crash.
//! * **Status** — one JSON line per checkpoint (packets, sessions, peak
//!   open sessions, late/skipped counts, watermark) to `--status-fd`;
//!   failed writes are counted in [`ServeSummary::status_write_errors`].
//! * **Cost** — a checkpoint renders from the live capture and session
//!   list in place, reusing the scanner classifications of the
//!   previous checkpoint for every source that opened no new session, so
//!   its cost follows the sessions, not the whole capture.
//! * **Shutdown** — SIGTERM/SIGINT set a flag; the loop notices, flushes
//!   a final checkpoint, and exits cleanly (exit code 0).
//!
//! The final checkpoint over a finished pcap is byte-identical to batch
//! `sixscope analyze` over the same file: the daemon's incremental state
//! *is* the batch state once the feed drains, and disorder falls back to
//! the same sort-and-re-feed path (DESIGN.md §10, §14).

use crate::corpus::{Analyzed, StreamSettings};
use crate::ingest::passive_config;
use crate::json::Json;
use crate::pipeline::FeedConsumer;
use crate::{render, tables, Error};
use sixscope_analysis::classify::{addr_selection, AddrSelection, ScannerProfiler};
use sixscope_sim::{CompiledVisibility, Visibility};
use sixscope_telescope::{
    AggLevel, Capture, Feed, IngestStats, ScanSession, Sessionizer, TailFeed, TelescopeId,
    SESSION_TIMEOUT,
};
use sixscope_types::{FxBuildHasher, Ipv6Prefix, SimTime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Configuration of one [`serve`] run.
pub struct ServeOptions {
    /// The growing pcap file to follow.
    pub source: PathBuf,
    /// Directory receiving `snapshot-NNNNNN.md` and `latest.md`.
    pub out_dir: PathBuf,
    /// Checkpoint every this many revealed records (`None`: only the
    /// final checkpoint). Zero is [`Error::Usage`].
    pub snapshot_every: Option<u64>,
    /// Worker-thread cap (`None` defers to `SIXSCOPE_THREADS`). Output
    /// bytes never depend on it.
    pub threads: Option<usize>,
    /// Feed chunk size in records (0 acts as 1).
    pub chunk_records: usize,
    /// Render checkpoints as JSON instead of text.
    pub json: bool,
    /// File descriptor receiving one JSON status line per checkpoint.
    pub status_fd: Option<i32>,
    /// Base idle-poll interval for the live tail, in milliseconds.
    pub poll_ms: u64,
    /// Cumulative idle time after which the live tail quiesces, in
    /// milliseconds.
    pub quiesce_ms: u64,
    /// Telescope prefix filter (default `::/0`).
    pub prefix: Ipv6Prefix,
}

impl ServeOptions {
    /// Serves a growing pcap into `out_dir` with default knobs.
    pub fn pcap<P: Into<PathBuf>, O: Into<PathBuf>>(path: P, out_dir: O) -> ServeOptions {
        ServeOptions {
            source: path.into(),
            out_dir: out_dir.into(),
            snapshot_every: None,
            threads: None,
            chunk_records: usize::MAX,
            json: false,
            status_fd: None,
            poll_ms: 50,
            quiesce_ms: 2_000,
            prefix: Ipv6Prefix::default_route(),
        }
    }
}

/// What a finished [`serve`] run reports back.
pub struct ServeSummary {
    /// Numbered snapshots written (the final checkpoint included).
    pub snapshots: usize,
    /// Packets admitted into the capture.
    pub packets: usize,
    /// Live-feed records dropped as older than the eviction horizon.
    pub late_records: u64,
    /// Path of the final checkpoint (`latest.md`).
    pub latest: PathBuf,
    /// Status-line writes and flushes to `--status-fd` that failed.
    pub status_write_errors: u64,
}

/// Set by SIGTERM/SIGINT; polled by the serve loop between chunks.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signal_sys {
    //! Minimal libc-free signal binding, same pattern as the packet
    //! crate's `mmap_sys`: declare the symbols we need directly.
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub type Handler = extern "C" fn(i32);
    extern "C" {
        pub fn signal(signum: i32, handler: Handler) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    SHUTDOWN.store(false, Ordering::SeqCst);
    #[cfg(unix)]
    // SAFETY: `on_signal` only touches an atomic, which is async-signal-safe.
    unsafe {
        signal_sys::signal(signal_sys::SIGINT, on_signal);
        signal_sys::signal(signal_sys::SIGTERM, on_signal);
    }
}

/// True once SIGTERM/SIGINT has been received.
fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// The status-line sink: an already-open file descriptor the caller owns.
/// The daemon writes but never closes it.
struct StatusSink {
    #[cfg(unix)]
    file: Option<std::mem::ManuallyDrop<std::fs::File>>,
    #[cfg(not(unix))]
    file: Option<()>,
    /// Failed writes and flushes.
    errors: u64,
}

impl StatusSink {
    fn new(fd: Option<i32>) -> StatusSink {
        #[cfg(unix)]
        {
            use std::os::unix::io::FromRawFd;
            StatusSink {
                // SAFETY: the caller passed this fd for us to write to; the
                // ManuallyDrop keeps us from closing a descriptor we do not
                // own.
                file: fd.map(|fd| {
                    std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(fd) })
                }),
                errors: 0,
            }
        }
        #[cfg(not(unix))]
        {
            let _ = fd;
            StatusSink {
                file: None,
                errors: 0,
            }
        }
    }

    /// Writes one line. A failure never stops the daemon (the snapshots
    /// are its output); it is counted instead.
    fn emit(&mut self, line: &Json) {
        #[cfg(unix)]
        if let Some(file) = &mut self.file {
            use std::io::Write;
            self.errors += u64::from(writeln!(file, "{}", line.render()).is_err());
            self.errors += u64::from(file.flush().is_err());
        }
        #[cfg(not(unix))]
        let _ = line;
    }
}

/// One checkpoint's statistics, for the status line.
struct Checkpoint<'a> {
    event: &'a str,
    snapshot: usize,
    packets: usize,
    sessions128: usize,
    sessions64: usize,
    peak_open: usize,
    late: u64,
    stats: &'a IngestStats,
    watermark: SimTime,
}

impl Checkpoint<'_> {
    fn json(&self) -> Json {
        Json::obj([
            ("event", Json::s(self.event.to_string())),
            ("snapshot", Json::u(self.snapshot as u64)),
            ("packets", Json::u(self.packets as u64)),
            ("sessions_128", Json::u(self.sessions128 as u64)),
            ("sessions_64", Json::u(self.sessions64 as u64)),
            ("peak_open_sessions", Json::u(self.peak_open as u64)),
            ("late_records", Json::u(self.late)),
            ("skipped", Json::u(self.stats.skipped_total())),
            ("truncated_tail", Json::Bool(self.stats.truncated_tail)),
            ("watermark", Json::u(self.watermark.as_secs())),
        ])
    }
}

/// Writes one checkpoint durably and atomically. The report goes to a temp
/// file in `dir`, which is fsynced and renamed to `snapshot-NNNNNN.md`;
/// `latest.md` becomes a hard link to that file via a renamed temp link
/// (an fsynced copy where the filesystem has no hard links); and the
/// directory is fsynced so both renames reach the disk. Readers
/// only ever see complete files, and `latest.md` is always one complete
/// numbered snapshot.
fn write_snapshot(dir: &Path, seq: usize, report: &str) -> Result<PathBuf, Error> {
    use std::io::Write;
    let io_err = |p: &Path| {
        let path = p.display().to_string();
        move |source| Error::Io {
            path: path.clone(),
            source,
        }
    };
    std::fs::create_dir_all(dir).map_err(io_err(dir))?;
    let tmp = dir.join(".snapshot.tmp");
    let link = dir.join(".latest.tmp");
    let numbered = dir.join(format!("snapshot-{seq:06}.md"));
    let latest = dir.join("latest.md");
    let mut file = std::fs::File::create(&tmp).map_err(io_err(&tmp))?;
    file.write_all(report.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(io_err(&tmp))?;
    drop(file);
    std::fs::rename(&tmp, &numbered).map_err(io_err(&numbered))?;
    // A temp link left behind by a killed run would fail `hard_link`.
    match std::fs::remove_file(&link) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io_err(&link)(e)),
        _ => {}
    }
    if std::fs::hard_link(&numbered, &link).is_err() {
        // Filesystems without hard links get a second fsynced copy.
        let mut file = std::fs::File::create(&link).map_err(io_err(&link))?;
        file.write_all(report.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(io_err(&link))?;
    }
    std::fs::rename(&link, &latest).map_err(io_err(&latest))?;
    #[cfg(unix)]
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err(dir))?;
    Ok(latest)
}

/// Report state a daemon carries from one checkpoint to the next: the
/// scanner profiler, and the address selection of each profile's first
/// session keyed by session index and packet count. Both are keyed on the
/// live, append-only session list, so they hold only while the consumer is
/// sorted; disorder drops them.
#[derive(Default)]
struct ReportMemo {
    profiler: ScannerProfiler,
    selections: HashMap<usize, (usize, AddrSelection), FxBuildHasher>,
}

impl ReportMemo {
    /// `addr_selection` of `sessions[i]`, recomputed only when the session
    /// gained packets since the last call.
    fn selection(
        &mut self,
        capture: &Capture,
        sessions: &[ScanSession],
        i: usize,
    ) -> AddrSelection {
        let count = sessions[i].packet_count();
        match self.selections.get(&i) {
            Some(&(seen, selection)) if seen == count => selection,
            _ => {
                let prefix_len = capture.config().prefix.len();
                let selection = addr_selection(&sessions[i], capture, prefix_len);
                self.selections.insert(i, (count, selection));
                selection
            }
        }
    }
}

/// Renders the `analyze`-style report for a corpus — the exact stdout
/// bytes of `sixscope analyze` (and `merge`) over the same packets, so a
/// serve checkpoint can be `cmp`'d against the batch run.
pub fn analysis_report(analyzed: &Analyzed, stats: &IngestStats, json: bool) -> String {
    render_report(
        analyzed.capture(TelescopeId::T1),
        analyzed.sessions128(TelescopeId::T1),
        stats,
        json,
        &mut ReportMemo::default(),
    )
}

/// The one renderer behind [`analysis_report`] and every checkpoint:
/// reads only the T1 capture and its /128 sessions, borrowed.
fn render_report(
    capture: &Capture,
    sessions: &[ScanSession],
    stats: &IngestStats,
    json: bool,
    memo: &mut ReportMemo,
) -> String {
    let profiles = memo.profiler.profile(sessions);
    let selections: Vec<AddrSelection> = profiles
        .iter()
        .map(|profile| memo.selection(capture, sessions, profile.session_indices[0]))
        .collect();
    if json {
        let doc = Json::obj([
            ("stats", crate::cli::stats_json(stats)),
            ("packets", Json::u(capture.len() as u64)),
            ("sessions_128", Json::u(sessions.len() as u64)),
            (
                "scanners",
                Json::Arr(
                    profiles
                        .iter()
                        .zip(&selections)
                        .map(|(profile, selection)| {
                            Json::obj([
                                ("source", Json::s(profile.source.to_string())),
                                ("sessions", Json::u(profile.session_indices.len() as u64)),
                                ("packets", Json::u(profile.packets)),
                                ("temporal", Json::s(profile.temporal.to_string())),
                                ("addr_selection", Json::s(selection.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        return format!("{}\n", doc.render());
    }
    let mut out = String::new();
    out.push_str(&format!("total packets: {}\n", capture.len()));
    out.push_str(&format!(
        "sessions (/128): {}, scanners: {}\n\n",
        sessions.len(),
        profiles.len()
    ));
    out.push_str(&format!(
        "{:<42} {:>6} {:>8}  {:<13} addr-selection (first session)\n",
        "source", "sess", "packets", "temporal"
    ));
    for (profile, selection) in profiles.iter().zip(&selections) {
        out.push_str(&format!(
            "{:<42} {:>6} {:>8}  {:<13} {}\n",
            profile.source.to_string(),
            profile.session_indices.len(),
            profile.packets,
            profile.temporal.to_string(),
            selection
        ));
    }
    out
}

/// Renders the `run`-style full-tables report — the exact stdout bytes of
/// `sixscope run` over the same corpus.
pub fn tables_report(analyzed: &Analyzed, json: bool) -> String {
    if json {
        return format!("{}\n", crate::json::tables_json(analyzed).render());
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{}\n",
        render::render_table2(&tables::table2(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table3(&tables::table3(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table4(&tables::table4(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table5(&tables::table5(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table6(&tables::table6(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table7(&tables::table7(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_table8(&tables::table8(analyzed))
    ));
    out.push_str(&format!(
        "{}\n",
        render::render_headline(&tables::headline(analyzed))
    ));
    out
}

/// A mid-stream checkpoint. In-order input renders straight from the
/// borrowed capture and live /128 sessions, through the memos. Disorder
/// drops the memos, then sessionizes the borrowed capture at /128 (all
/// the report reads) in stable time order — the batch fallback, applied
/// to the prefix seen so far, without copying a packet.
fn checkpoint_report(
    capture: &Capture,
    consumer: &FeedConsumer,
    memo: &mut ReportMemo,
    stats: &IngestStats,
    settings: &StreamSettings,
    json: bool,
) -> String {
    if consumer.is_sorted() {
        return render_report(capture, consumer.sessions128(), stats, json, memo);
    }
    *memo = ReportMemo::default();
    let sessions = Sessionizer {
        level: AggLevel::Addr128,
        timeout: settings.session_timeout,
    }
    .sessionize(capture);
    render_report(capture, &sessions, stats, json, memo)
}

/// Runs the daemon to completion (feed drained, or SIGTERM/SIGINT). A
/// zero `snapshot_every` is [`Error::Usage`].
pub fn serve(opts: ServeOptions) -> Result<ServeSummary, Error> {
    if opts.snapshot_every == Some(0) {
        return Err(Error::Usage(
            "--snapshot-every must be at least 1 record".into(),
        ));
    }
    install_signal_handlers();
    let mut status = StatusSink::new(opts.status_fd);
    let settings = StreamSettings {
        chunk_records: opts.chunk_records,
        session_timeout: SESSION_TIMEOUT,
        threads: opts.threads,
    };
    let visibility = Visibility::from_events(&[]);
    let compiled = CompiledVisibility::compile(&visibility);
    let mut feed = TailFeed::new(
        Capture::new(passive_config(opts.prefix)),
        &opts.source,
        settings.chunk_records,
        settings.session_timeout,
    )
    .poll_interval(Duration::from_millis(opts.poll_ms))
    .quiesce_after(Duration::from_millis(opts.quiesce_ms));
    let mut consumer = FeedConsumer::new(feed.sources_hint(), &settings);
    let mut memo = ReportMemo::default();

    let mut revealed: u64 = 0;
    let mut next_snapshot = opts.snapshot_every;
    let mut seq = 0usize;
    loop {
        if shutdown_requested() {
            break;
        }
        let chunk = feed.next_chunk()?;
        consumer.consume(feed.capture(), chunk.range.clone(), &compiled);
        revealed += chunk.range.len() as u64;
        if chunk.end_of_feed {
            break;
        }
        while next_snapshot.is_some_and(|at| revealed >= at) {
            seq += 1;
            let stats = feed.stats();
            let report = checkpoint_report(
                feed.capture(),
                &consumer,
                &mut memo,
                &stats,
                &settings,
                opts.json,
            );
            write_snapshot(&opts.out_dir, seq, &report)?;
            let (sessions128, sessions64) = consumer.session_counts();
            status.emit(
                &Checkpoint {
                    event: "snapshot",
                    snapshot: seq,
                    packets: feed.capture().len(),
                    sessions128,
                    sessions64,
                    peak_open: consumer.peak_open(),
                    late: feed.late_records(),
                    stats: &stats,
                    watermark: feed.watermark(),
                }
                .json(),
            );
            next_snapshot = opts
                .snapshot_every
                .map(|every| revealed + every - revealed % every);
        }
    }

    // Final checkpoint: once the feed has drained, this state is the batch
    // state — byte-identical to `sixscope analyze` over the finished file.
    let late = feed.late_records();
    let watermark = feed.watermark();
    let (mut capture, stats) = feed.finish();
    if !consumer.is_sorted() {
        // The fallback below re-sessionizes a sorted capture.
        memo = ReportMemo::default();
    }
    let done = consumer.finish(&mut capture, &compiled);
    seq += 1;
    let report = render_report(&capture, &done.sessions128, &stats, opts.json, &mut memo);
    let latest = write_snapshot(&opts.out_dir, seq, &report)?;
    status.emit(
        &Checkpoint {
            event: "final",
            snapshot: seq,
            packets: capture.len(),
            sessions128: done.sessions128.len(),
            sessions64: done.sessions64.len(),
            peak_open: done.peak,
            late,
            stats: &stats,
            watermark,
        }
        .json(),
    );
    Ok(ServeSummary {
        snapshots: seq,
        packets: capture.len(),
        late_records: late,
        latest,
        status_write_errors: status.errors,
    })
}
