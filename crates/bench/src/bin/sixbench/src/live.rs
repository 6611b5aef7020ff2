//! The live daemon under load: an open-loop generator appends records to
//! a growing pcap on a fixed schedule while `serve::serve` tails it on the
//! main thread. The daemon's status lines arrive on a socket pair, where a
//! reader thread timestamps each as it arrives.

use crate::corpus::{set_threads, Params, Records};
use crate::json::{parse, Value};
use crate::measure::cpu_seconds;
use sixscope::serve::{self, ServeOptions, ServeSummary};
use sixscope::Error;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One status line as it arrived.
pub struct StatusLine {
    pub at: Instant,
    /// Records appended when the line arrived.
    pub appended: usize,
    pub event: String,
    pub packets: usize,
}

/// Reads status lines until the daemon's end of the socket closes, and
/// returns them with this thread's CPU seconds. `appended` is the
/// generator's progress (a statistic, so `Relaxed`).
fn collect_status(mut sock: UnixStream, appended: &AtomicUsize) -> (Vec<StatusLine>, f64) {
    let mut lines = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=nl).collect();
                    let parsed = std::str::from_utf8(&line).ok().and_then(|s| parse(s).ok());
                    let field = |k: &str| parsed.as_ref().and_then(|v| v.get(k));
                    lines.push(StatusLine {
                        at,
                        appended: appended.load(Relaxed),
                        event: field("event")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        packets: field("packets").and_then(Value::as_f64).unwrap_or(0.0) as usize,
                    });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    (lines, cpu_seconds("/proc/thread-self/stat"))
}

/// What the generator thread did.
struct GenLog {
    late_ms: Vec<f64>,
    last_append: Instant,
    cpu_s: f64,
    write_error: bool,
}

/// Appends `records[..n]` to `path` in batches of `params.batch`, batch
/// `k` due at `t0 + k × batch / rate`, whether or not the daemon keeps up.
fn generate(
    path: &Path,
    records: &Records,
    n: usize,
    params: &Params,
    appended: &AtomicUsize,
    t0: Instant,
) -> GenLog {
    let period = Duration::from_secs_f64(params.batch as f64 / params.rate as f64);
    let mut log = GenLog {
        late_ms: Vec::new(),
        last_append: t0,
        cpu_s: 0.0,
        write_error: false,
    };
    let mut file = match std::fs::OpenOptions::new().append(true).open(path) {
        Ok(f) => f,
        Err(_) => {
            log.write_error = true;
            return log;
        }
    };
    let mut done = 0;
    let mut batch = 0u32;
    while done < n {
        let due = t0 + period * batch;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let end = (done + params.batch).min(n);
        log.write_error |= file.write_all(records.slice(done..end)).is_err();
        done = end;
        appended.store(done, Relaxed);
        log.last_append = Instant::now();
        batch += 1;
    }
    log.cpu_s = cpu_seconds("/proc/thread-self/stat");
    log
}

/// Measurements of one live phase.
pub struct LivePhase {
    pub summary: ServeSummary,
    /// Per snapshot checkpoint: status-line arrival minus the time the last
    /// record it covers was due, in milliseconds.
    pub lags_ms: Vec<f64>,
    /// Gaps between consecutive status lines, in milliseconds.
    pub gaps_ms: Vec<f64>,
    /// Records appended but not yet covered, maximum over status lines.
    pub backlog_max: usize,
    /// Last append to the `"final"` status line, in seconds.
    pub final_s: f64,
    /// How late the generator ran per batch, in milliseconds.
    pub gen_late_ms: Vec<f64>,
    /// CPU seconds of the process minus the generator and status reader.
    pub serve_cpu_s: f64,
    pub appended: usize,
    pub saw_final: bool,
    pub write_error: bool,
}

/// Daemon options shared by the live phase and the replay.
fn serve_options(path: &Path, out: &Path, every: u64, threads: usize, fd: i32) -> ServeOptions {
    let mut opts = ServeOptions::pcap(path, out);
    opts.snapshot_every = Some(every);
    opts.threads = Some(threads);
    opts.chunk_records = 4096;
    opts.status_fd = Some(fd);
    opts.poll_ms = 5;
    opts
}

/// Runs the daemon over a file that grows by `records[..n]` at
/// `params.rate`, with `threads` worker threads.
pub fn live_phase(
    records: &Records,
    n: usize,
    params: &Params,
    threads: usize,
    dir: &Path,
) -> Result<LivePhase, Error> {
    let path = dir.join("live.pcap");
    let io = |source| Error::Io {
        path: path.display().to_string(),
        source,
    };
    std::fs::write(&path, &records.bytes[..24]).map_err(io)?;
    let (serve_end, reader_end) = UnixStream::pair().map_err(io)?;
    set_threads(threads);
    let out = dir.join("live-out");
    let mut opts = serve_options(
        &path,
        &out,
        params.snapshot_every,
        threads,
        serve_end.as_raw_fd(),
    );
    opts.quiesce_ms = 500;

    let appended = AtomicUsize::new(0);
    let cpu0 = cpu_seconds("/proc/self/stat");
    let t0 = Instant::now();
    let (served, gen, (lines, reader_cpu)) = std::thread::scope(|s| {
        let reader = s.spawn(|| collect_status(reader_end, &appended));
        let generator = s.spawn(|| generate(&path, records, n, params, &appended, t0));
        let served = serve::serve(opts);
        drop(serve_end);
        (
            served,
            generator
                .join()
                .expect("the generator thread does not panic"),
            reader.join().expect("the status reader does not panic"),
        )
    });
    let cpu1 = cpu_seconds("/proc/self/stat");
    let summary = served?;

    let admitted = records.admitted();
    let period = params.batch as f64 / params.rate as f64;
    let covered = |packets: usize| match packets {
        0 => 0,
        p => admitted.get(p - 1).map_or(n, |&r| r + 1),
    };
    let mut lags_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut backlog_max = 0;
    for (i, line) in lines.iter().enumerate() {
        let last = covered(line.packets);
        backlog_max = backlog_max.max(line.appended.saturating_sub(last));
        if i > 0 {
            gaps_ms.push((line.at - lines[i - 1].at).as_secs_f64() * 1e3);
        }
        if line.event == "snapshot" && last > 0 {
            let due = ((last - 1) / params.batch) as f64 * period;
            lags_ms.push(((line.at - t0).as_secs_f64() - due) * 1e3);
        }
    }
    let final_line = lines.iter().find(|l| l.event == "final");
    Ok(LivePhase {
        summary,
        lags_ms,
        gaps_ms,
        backlog_max,
        final_s: final_line.map_or(0.0, |l| (l.at - gen.last_append).as_secs_f64()),
        gen_late_ms: gen.late_ms,
        serve_cpu_s: (cpu1 - cpu0 - gen.cpu_s - reader_cpu).max(0.0),
        appended: appended.load(Relaxed),
        saw_final: final_line.is_some(),
        write_error: gen.write_error,
    })
}

/// Status lines of a daemon run over an already complete file, for the
/// attribution pass, and the instant the daemon started: the gaps between
/// lines are pure ingest and checkpoint cost.
pub fn replay(
    path: &Path,
    records: usize,
    out: &Path,
) -> Result<(ServeSummary, Vec<StatusLine>, Instant), Error> {
    let io = |source| Error::Io {
        path: path.display().to_string(),
        source,
    };
    let (serve_end, reader_end) = UnixStream::pair().map_err(io)?;
    let every = (records as u64 / 8).max(1);
    let mut opts = serve_options(path, out, every, 1, serve_end.as_raw_fd());
    opts.quiesce_ms = 50;
    let appended = AtomicUsize::new(records);
    let start = Instant::now();
    let (served, (lines, _)) = std::thread::scope(|s| {
        let reader = s.spawn(|| collect_status(reader_end, &appended));
        let served = serve::serve(opts);
        drop(serve_end);
        (
            served,
            reader.join().expect("the status reader does not panic"),
        )
    });
    Ok((served?, lines, start))
}
