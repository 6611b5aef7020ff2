//! Serve-daemon determinism (DESIGN.md §10, §14): the final checkpoint is
//! byte-identical across read steps and equals the batch `analyze` stdout
//! over the same finished pcap. The daemon runs no parallel stage, so no
//! thread count is varied. Every mid-run checkpoint lands on a multiple of
//! the snapshot interval and equals the batch report over the prefix of
//! the file it covers, on the in-order path and on the disorder fallback
//! alike, and no checkpoint depends on the read step.

mod common;

use common::ScratchDir;
use sixscope::serve::{self, ServeOptions};
use sixscope::telescope::{AggLevel, Sessionizer, TelescopeId};
use sixscope::Pipeline;
use sixscope_packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope_types::{Ipv6Prefix, SimTime, Xoshiro256pp};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::path::PathBuf;
use std::time::Duration;

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR")))
}

/// Runs the daemon into a fresh scratch dir and returns `latest.md`.
fn serve_once(mut opts: ServeOptions) -> String {
    let dir = ScratchDir::new("serve");
    opts.out_dir = dir.path().to_path_buf();
    let summary = serve::serve(opts).unwrap();
    std::fs::read_to_string(summary.latest).unwrap()
}

/// Serving a finished pcap yields the exact stdout bytes of batch
/// `sixscope analyze` over the same file, at every read step — including
/// the JSON rendering, which carries the recovery statistics down to the
/// per-reason skip counts.
#[test]
fn pcap_serve_final_checkpoint_equals_batch_analyze() {
    let pcap = corpus_path("mixed.pcap");
    let batch = Pipeline::from_pcaps([&pcap])
        .prefix(Ipv6Prefix::default_route())
        .run_detailed()
        .unwrap();
    for json in [false, true] {
        let expected = serve::analysis_report(&batch.analyzed, &batch.stats, json);
        if json {
            for count in [
                r#""snaplen-exceeded":1"#,
                r#""length-inconsistent":1"#,
                r#""truncated-body":1"#,
            ] {
                assert!(expected.contains(count), "{count} missing: {expected}");
            }
        }
        for chunk in [7, usize::MAX] {
            let mut opts = ServeOptions::pcap(&pcap, "");
            opts.chunk_records = chunk;
            opts.json = json;
            opts.poll_ms = 1;
            opts.quiesce_ms = 20;
            let latest = serve_once(opts);
            assert_eq!(
                latest, expected,
                "pcap serve diverged at json={json} chunk={chunk}"
            );
        }
    }
}

/// Mid-run snapshots are well-formed and numbered, and the run's summary
/// counts them; the last numbered snapshot has the same bytes as
/// `latest.md`.
#[test]
fn snapshots_are_numbered_and_latest_mirrors_the_last() {
    let dir = ScratchDir::new("serve-snapshots");
    let mut opts = ServeOptions::pcap(corpus_path("mixed.pcap"), dir.path());
    opts.snapshot_every = Some(1);
    opts.chunk_records = 1;
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    let summary = serve::serve(opts).unwrap();
    assert!(summary.snapshots >= 2, "expected mid-run snapshots");
    let last = dir.join(format!("snapshot-{:06}.md", summary.snapshots));
    assert_eq!(
        std::fs::read_to_string(&last).unwrap(),
        std::fs::read_to_string(dir.join("latest.md")).unwrap(),
        "latest.md must mirror the final numbered snapshot"
    );
    for seq in 1..=summary.snapshots {
        assert!(
            dir.join(format!("snapshot-{seq:06}.md")).exists(),
            "snapshot {seq} missing"
        );
    }
}

/// A zero snapshot interval would never advance: the library rejects it
/// before reading anything, as the CLI rejects `--snapshot-every 0`.
#[test]
fn zero_snapshot_interval_is_a_usage_error() {
    let dir = ScratchDir::new("serve-every-0");
    let mut opts = ServeOptions::pcap(corpus_path("mixed.pcap"), dir.path());
    opts.snapshot_every = Some(0);
    match serve::serve(opts) {
        Ok(_) => panic!("snapshot_every = Some(0) must be rejected"),
        Err(err) => assert_eq!(err.exit_code(), 2, "{err}"),
    }
    assert!(!dir.join("latest.md").exists(), "no checkpoint written");
}

/// A negative status descriptor is rejected before anything is read or
/// any signal handler is installed, as the CLI rejects `--status-fd -1`.
#[test]
fn negative_status_fd_is_a_usage_error() {
    let dir = ScratchDir::new("serve-status-fd");
    let mut opts = ServeOptions::pcap(corpus_path("clean.pcap"), dir.path());
    opts.status_fd = Some(-1);
    match serve::serve(opts) {
        Ok(_) => panic!("status_fd = Some(-1) must be rejected"),
        Err(err) => {
            assert!(matches!(err, sixscope::Error::Usage(_)), "{err}");
            assert_eq!(err.exit_code(), 2, "{err}");
        }
    }
    assert!(!dir.join("latest.md").exists(), "no checkpoint written");
}

/// A zero read step reads one record per step, so the daemon makes
/// progress over a disordered file, and its final checkpoint (the capture
/// sessionized in stable time order) still equals batch `analyze`. The
/// daemon runs on a worker thread, so a hang fails the test instead of
/// stalling the suite.
#[test]
fn zero_chunk_serve_finishes_over_a_disordered_pcap() {
    let dir = ScratchDir::new("serve-chunk-0");
    let pcap = dir.join("disordered.pcap");
    let mut records = scan_records(4);
    records.swap(1, 2);
    std::fs::write(&pcap, pcap_image(&records)).unwrap();
    let batch = Pipeline::from_pcaps([&pcap]).run_detailed().unwrap();
    let expected = serve::analysis_report(&batch.analyzed, &batch.stats, false);
    let mut opts = ServeOptions::pcap(&pcap, dir.join("out"));
    opts.chunk_records = 0;
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    let (tx, rx) = std::sync::mpsc::channel();
    let daemon =
        std::thread::spawn(move || tx.send(serve::serve(opts).map(|summary| summary.latest)));
    let latest = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("serve with chunk_records = 0 did not finish")
        .unwrap();
    daemon.join().unwrap().unwrap();
    assert_eq!(std::fs::read_to_string(latest).unwrap(), expected);
}

/// A status fd the daemon cannot write to fails every line; the run still
/// completes, and each failure is counted.
#[cfg(unix)]
#[test]
fn status_write_failures_are_counted() {
    use std::os::unix::io::AsRawFd;
    let dir = ScratchDir::new("serve-status-errors");
    let read_only = std::fs::File::open(corpus_path("clean.pcap")).unwrap();
    let mut opts = ServeOptions::pcap(corpus_path("clean.pcap"), dir.path());
    opts.snapshot_every = Some(3);
    opts.chunk_records = 3;
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    opts.status_fd = Some(read_only.as_raw_fd());
    let summary = serve::serve(opts).unwrap();
    assert!(summary.snapshots >= 2, "expected mid-run snapshots");
    assert_eq!(
        summary.status_write_errors, summary.snapshots as u64,
        "one failed write per status line"
    );
}

/// Records for the mid-run checkpoint tests: strictly increasing
/// timestamps over about five days. One heavy source scans random IIDs
/// throughout, so its first session stays open and keeps growing past the
/// NIST test's 100 packets (its address selection changes from unknown to
/// random); sixteen light sources take turns by hour of day, so every
/// four hours each opens a new session and their temporal classes change
/// (one-off, intermittent, periodic) as the capture grows.
fn scan_records(n: usize) -> Vec<PcapRecord> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5e7e_c4ec);
    let net = u128::from("2001:db8::".parse::<Ipv6Addr>().unwrap());
    let mut ts = 1_000u64;
    (0..n)
        .map(|i| {
            ts += 1 + rng.below(90);
            let host = match rng.below(4) {
                0 => 0,
                _ => (ts / 3600 % 4) * 4 + rng.below(4) + 1,
            };
            let src = Ipv6Addr::from((0x2a0a_u128 << 112) | ((host as u128) << 64) | 1);
            let iid = match host % 3 {
                0 => rng.next_u64() as u128,
                1 => rng.below(256) as u128,
                _ => i as u128,
            };
            let b = PacketBuilder::new(src, Ipv6Addr::from(net | iid));
            let data = match i % 5 {
                0 => b.tcp_syn(40_000, 443, i as u32, &[]),
                1 => b.udp(40_001, 33_434, b"probe"),
                _ => b.icmpv6_echo_request(1, i as u16, b"scan"),
            };
            PcapRecord {
                ts: SimTime::from_secs(ts),
                ts_micros: 0,
                data,
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

/// Serves `records` with `snapshot_every` = 300 at read steps
/// {0, 1, 7, 4096} × {text, json}. Every `"snapshot"` status line must
/// report a multiple of 300 packets, and every numbered snapshot must
/// equal `analysis_report` from a batch run over the pcap truncated to the
/// packets its status line reports (every record is admitted, so packets
/// and records coincide). The line's `sessions_128` and `sessions_64` must
/// equal that batch run's /128 session count and the direct /64
/// sessionization of its capture (the batch run's own /64 sessions are
/// derived from the /128 ones, as the daemon's are), and its
/// `peak_open_sessions` the batch run's peak. The snapshots and status
/// lines of one rendering must be byte-identical at every read step.
#[cfg(unix)]
fn assert_snapshots_equal_batch_prefixes(name: &str, records: &[PcapRecord]) {
    use std::os::unix::io::AsRawFd;
    const EVERY: usize = 300;
    let dir = ScratchDir::new(name);
    let pcap = dir.join("capture.pcap");
    std::fs::write(&pcap, pcap_image(records)).unwrap();
    let mut expected: HashMap<(usize, bool), (String, u64, u64, u64)> = HashMap::new();
    for json in [false, true] {
        // The first read step's snapshots and status lines, which every
        // other step must reproduce byte for byte.
        let mut first: Option<(Vec<String>, String)> = None;
        for chunk in [0, 1, 7, 4096] {
            let run = format!("json={json} chunk={chunk}");
            let out = dir.join(format!("out-{json}-{chunk}"));
            let status_path = dir.join(format!("status-{json}-{chunk}.jsonl"));
            let status = std::fs::File::create(&status_path).unwrap();
            let mut opts = ServeOptions::pcap(&pcap, &out);
            opts.snapshot_every = Some(EVERY as u64);
            opts.chunk_records = chunk;
            opts.json = json;
            opts.poll_ms = 1;
            opts.quiesce_ms = 20;
            opts.status_fd = Some(status.as_raw_fd());
            let summary = serve::serve(opts).unwrap();
            drop(status);
            assert_eq!(
                summary.packets,
                records.len(),
                "{run}: every record admitted"
            );
            assert_eq!(summary.status_write_errors, 0, "{run}");
            let lines = std::fs::read_to_string(&status_path).unwrap();
            let mut snapshots = Vec::new();
            for line in lines.lines() {
                let seq = status_field(line, "snapshot");
                let packets = status_field(line, "packets") as usize;
                if line.contains(r#""event":"snapshot""#) {
                    assert_eq!(
                        packets,
                        seq as usize * EVERY,
                        "{run}: snapshot {seq} is not at {seq} × {EVERY} packets"
                    );
                }
                let (want, want128, want64, want_peak) =
                    expected.entry((packets, json)).or_insert_with(|| {
                        let prefix = dir.join(format!("prefix-{packets}.pcap"));
                        std::fs::write(&prefix, pcap_image(&records[..packets])).unwrap();
                        let batch = Pipeline::from_pcaps([&prefix]).run_detailed().unwrap();
                        let a = &batch.analyzed;
                        let direct64 = Sessionizer::paper(AggLevel::Subnet64)
                            .sessionize(a.capture(TelescopeId::T1));
                        (
                            serve::analysis_report(a, &batch.stats, json),
                            a.sessions128(TelescopeId::T1).len() as u64,
                            direct64.len() as u64,
                            a.peak_open_sessions as u64,
                        )
                    });
                let got =
                    std::fs::read_to_string(out.join(format!("snapshot-{seq:06}.md"))).unwrap();
                assert!(
                    got == *want,
                    "{run}: snapshot {seq} ({packets} packets) differs from batch over that prefix"
                );
                assert_eq!(
                    (
                        status_field(line, "sessions_128"),
                        status_field(line, "sessions_64"),
                        status_field(line, "peak_open_sessions"),
                    ),
                    (*want128, *want64, *want_peak),
                    "{run}: status line {seq} ({packets} packets) session counts or peak differ \
                     from batch over that prefix"
                );
                snapshots.push(got);
            }
            assert_eq!(
                snapshots.len(),
                summary.snapshots,
                "{run}: one status line per snapshot"
            );
            assert_eq!(
                summary.snapshots,
                records.len() / EVERY + 1,
                "{run}: one snapshot per {EVERY} packets, plus the final one"
            );
            match &first {
                None => first = Some((snapshots, lines)),
                Some((want_snapshots, want_lines)) => {
                    assert!(
                        snapshots == *want_snapshots,
                        "{run}: snapshots differ from read step 0"
                    );
                    assert_eq!(
                        lines, *want_lines,
                        "{run}: status lines differ from read step 0"
                    );
                }
            }
        }
    }
}

/// Clean, time-sorted input: every checkpoint renders from the live state
/// and the memoized profiles.
#[cfg(unix)]
#[test]
fn mid_run_snapshots_equal_batch_over_their_prefix() {
    assert_snapshots_equal_batch_prefixes("serve-prefix-sorted", &scan_records(9_000));
}

/// In-horizon disorder past the first checkpoints: the early checkpoints
/// take the in-order path, the later ones the stable-time-order
/// resessionization, which must also equal batch over each prefix.
#[cfg(unix)]
#[test]
fn mid_run_snapshots_equal_batch_over_their_prefix_with_disorder() {
    let mut records = scan_records(9_000);
    for i in (5_000..8_000).step_by(500) {
        records.swap(i, i + 1);
    }
    assert_snapshots_equal_batch_prefixes("serve-prefix-disorder", &records);
}
