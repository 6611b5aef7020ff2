//! How a running `sixscope serve` ends (DESIGN.md §14): SIGTERM flushes a
//! final checkpoint over everything read so far and exits 0, and a
//! followed file that shrinks ends the daemon with exit 3 and a message
//! naming the file.

#![cfg(unix)]

use sixscope::packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope::serve::analysis_report;
use sixscope::types::SimTime;
use sixscope::Pipeline;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A fresh directory, unique across processes and tests.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sixscope-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` clean, time-sorted records from seven sources.
fn records(n: u64) -> Vec<PcapRecord> {
    (0..n)
        .map(|i| {
            let src = format!("2001:db8:f00::{:x}", i % 7 + 1).parse().unwrap();
            let dst = format!("2001:db8::{:x}", i % 251 + 1).parse().unwrap();
            PcapRecord {
                ts: SimTime::from_secs(i * 61),
                ts_micros: 0,
                data: PacketBuilder::new(src, dst).icmpv6_echo_request(1, i as u16, b"exit"),
            }
        })
        .collect()
}

fn pcap_image(records: &[PcapRecord]) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.into_inner().unwrap()
}

/// Starts the daemon on `pcap` with a checkpoint every 100 packets, its
/// status lines on stdout, and a quiesce long enough that only a signal
/// or an error ends it within the test.
fn spawn_serve(pcap: &Path, out: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .arg("serve")
        .arg(pcap)
        .arg("--out")
        .arg(out)
        .args(["--snapshot-every", "100", "--poll-ms", "5"])
        .args(["--quiesce-ms", "60000", "--status-fd", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sixscope serve")
}

/// The unsigned integer after `"key":` in one status line.
fn status_field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag).expect("status field present") + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric status field")
}

#[test]
fn sigterm_flushes_a_final_checkpoint() {
    let dir = scratch_dir("serve-sigterm");
    let records = records(2_000);
    let full = pcap_image(&records);
    // Half the file, cut mid-record: the daemon reads every complete
    // record and then waits for a writer that never comes back.
    let pcap = dir.join("capture.pcap");
    std::fs::write(&pcap, &full[..full.len() / 2]).unwrap();
    let out = dir.join("out");
    let mut child = spawn_serve(&pcap, &out);
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let first = lines.next().expect("a status line").unwrap();
    assert!(first.contains(r#""event":"snapshot""#), "{first}");
    // SAFETY: signals the child this test spawned and has not reaped.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0, "kill");
    let last = lines.map(Result::unwrap).last().unwrap_or(first);
    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{stderr}");
    assert!(last.contains(r#""event":"final""#), "{last}");
    let packets = status_field(&last, "packets") as usize;
    assert!((100..records.len()).contains(&packets), "{last}");
    let prefix = dir.join("prefix.pcap");
    std::fs::write(&prefix, pcap_image(&records[..packets])).unwrap();
    let batch = Pipeline::from_pcaps([&prefix]).run_detailed().unwrap();
    assert_eq!(
        std::fs::read_to_string(out.join("latest.md")).unwrap(),
        analysis_report(&batch.analyzed, &batch.stats, false),
        "the final checkpoint differs from batch over the {packets} packets it covers"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_followed_file_that_shrinks_exits_3_naming_it() {
    let dir = scratch_dir("serve-shrink");
    let pcap = dir.join("capture.pcap");
    std::fs::write(&pcap, pcap_image(&records(1_000))).unwrap();
    let mut child = spawn_serve(&pcap, &dir.join("out"));
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    // The checkpoint at the last record: the daemon has read the whole
    // file and polls for growth at the end of its mapping.
    for line in &mut lines {
        if status_field(&line.unwrap(), "packets") == 1_000 {
            break;
        }
    }
    // A copytruncate rotation leaves only the global header.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&pcap)
        .unwrap()
        .set_len(24)
        .unwrap();
    lines.for_each(drop);
    let done = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(3), "{:?}: {stderr}", done.status);
    assert!(stderr.contains(&pcap.display().to_string()), "{stderr}");
    assert!(stderr.contains("file shrank from"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
