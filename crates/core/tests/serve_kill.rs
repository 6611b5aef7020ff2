//! Kill safety of `sixscope serve` checkpoints (DESIGN.md §14): every
//! numbered snapshot is renamed into place complete, and `latest.md` is a
//! hard link to one of them, renamed over the previous one. A daemon
//! killed at any moment therefore leaves `latest.md` — when it exists at
//! all — equal to one complete numbered snapshot. `SIGKILL` leaves the
//! page cache intact, so this checks process death only; the fsyncs that
//! guard against power loss are not exercised here.

#![cfg(unix)]

use sixscope::packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope::types::SimTime;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// A fresh directory, unique across processes, runs and threads.
fn scratch_dir(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = std::env::temp_dir().join(format!(
        "sixscope-{name}-{}-{nanos}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A clean capture long enough that, at one checkpoint per record, the
/// daemon is still writing checkpoints when most of the kills land.
fn capture_image(records: u64) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for i in 0..records {
        let src = format!("2001:db8:f00::{:x}", i % 7 + 1).parse().unwrap();
        let dst = format!("2001:db8::{:x}", i % 251 + 1).parse().unwrap();
        w.write_record(&PcapRecord {
            ts: SimTime::from_secs(i * 61),
            ts_micros: 0,
            data: PacketBuilder::new(src, dst).icmpv6_echo_request(1, i as u16, b"kill"),
        })
        .unwrap();
    }
    w.into_inner().unwrap()
}

/// A text checkpoint is complete when it has the row count its header
/// announces: two summary lines, a blank line, the column header, and one
/// row per scanner.
fn assert_complete(report: &str) {
    assert!(report.ends_with('\n'), "report cut mid-line");
    let lines: Vec<&str> = report.lines().collect();
    assert!(lines.len() >= 4, "report cut in its header: {report:?}");
    let scanners: usize = lines[1]
        .rsplit(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no scanner count in {:?}", lines[1]));
    assert_eq!(lines.len(), 4 + scanners, "report cut in its rows");
}

/// The contents of every `snapshot-NNNNNN.md` in `dir`.
fn numbered_snapshots(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".md"))
        })
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

#[test]
fn killed_daemon_leaves_latest_equal_to_a_complete_snapshot() {
    let input = scratch_dir("serve-kill-input");
    let pcap = input.join("capture.pcap");
    std::fs::write(&pcap, capture_image(2_000)).unwrap();
    let mut observed = 0;
    for delay_ms in [0u64, 2, 5, 10, 20, 40, 80, 160, 320] {
        let out = scratch_dir("serve-kill");
        // One record per chunk and a checkpoint per record, so the kill
        // lands among checkpoint writes; the long quiesce keeps a daemon
        // that got through the whole file alive (polling) until the kill.
        let mut child = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .arg("serve")
            .arg(&pcap)
            .arg("--out")
            .arg(&out)
            .args(["--snapshot-every", "1", "--chunk", "1"])
            .args(["--poll-ms", "1", "--quiesce-ms", "30000"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sixscope serve");
        std::thread::sleep(Duration::from_millis(delay_ms));
        child.kill().expect("SIGKILL the daemon");
        child.wait().unwrap();
        let latest = out.join("latest.md");
        if latest.exists() {
            let got = std::fs::read_to_string(&latest).unwrap();
            assert!(
                numbered_snapshots(&out).contains(&got),
                "killed after {delay_ms} ms: latest.md matches no numbered snapshot"
            );
            assert_complete(&got);
            observed += 1;
        }
        std::fs::remove_dir_all(&out).ok();
    }
    std::fs::remove_dir_all(&input).ok();
    assert!(observed > 0, "no kill landed after the first checkpoint");
}
