//! The `sixscope` binary end to end: `run --pcap-dir` writes one pcap per
//! telescope, byte for byte what `Capture::write_pcap` encodes, whichever
//! report format goes to stdout; `analyze` logs its recovery statistics
//! to stderr; usage errors exit 2; and a shard file of another format
//! version exits 7.

use sixscope::sim::ScenarioConfig;
use sixscope::telescope::TelescopeId;
use sixscope::Pipeline;
use std::process::Command;

#[test]
fn run_json_writes_the_pcap_dir_too() {
    // `run` creates the directory itself; the pid keeps it unique.
    let pcaps = std::env::temp_dir().join(format!("sixscope-run-json-{}", std::process::id()));
    std::fs::remove_dir_all(&pcaps).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["run", "--scale", "0.002", "--json", "--pcap-dir"])
        .arg(&pcaps)
        .output()
        .expect("spawn sixscope run");
    assert!(
        out.status.success(),
        "sixscope run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with('{'), "--json prints one JSON document");
    // Each file holds exactly what `write_pcap` encodes for the same run
    // in-process: a lost or unflushed record shows as a shorter file.
    let a = Pipeline::simulate(ScenarioConfig::new(20230824, 0.002))
        .run()
        .expect("simulated runs cannot fail");
    for id in TelescopeId::ALL {
        let bytes = std::fs::read(pcaps.join(format!("{id}.pcap")))
            .unwrap_or_else(|e| panic!("--pcap-dir wrote no {id}.pcap: {e}"));
        let expected = a.capture(id).write_pcap(Vec::new()).unwrap();
        assert!(
            bytes == expected,
            "{id}.pcap: {} bytes written, {} expected",
            bytes.len(),
            expected.len()
        );
    }
    let t1 = std::fs::metadata(pcaps.join("T1.pcap")).unwrap().len();
    assert!(t1 > 24, "T1 captures packets at every scale");
    std::fs::remove_dir_all(&pcaps).ok();
}

fn corpus(name: &str) -> String {
    format!("{}/../../tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `analyze` logs one recovery line per file to stderr, plus a `total:`
/// line when there are several files; stdout carries only the report.
#[test]
fn analyze_logs_recovery_per_file_and_in_total() {
    let (mixed, clean) = (corpus("mixed.pcap"), corpus("clean.pcap"));
    let run = |files: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(["analyze", "::/0"])
            .args(files)
            .output()
            .expect("spawn sixscope analyze");
        assert!(out.status.success(), "sixscope analyze failed");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("total packets: "), "{stdout}");
        String::from_utf8(out.stderr).unwrap()
    };
    let mixed_line = format!(
        "{mixed}: 4 records read: 3 parsed, 0 filtered, 1 malformed; 3 skipped \
         (snaplen-exceeded: 1, length-inconsistent: 1, truncated-body: 1); truncated tail"
    );
    assert_eq!(run(&[&mixed]).lines().collect::<Vec<_>>(), [&mixed_line]);
    let stderr = run(&[&mixed, &clean]);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 3, "{stderr}");
    assert_eq!(lines[0], mixed_line);
    assert!(
        lines[1].starts_with(&format!("{clean}: 3 records read")),
        "{stderr}"
    );
    assert!(
        lines[2].starts_with("total: 7 records read: 6 parsed"),
        "{stderr}"
    );
    assert!(lines[2].ends_with("; truncated tail"), "{stderr}");
}

/// Usage errors exit 2 without a panic: a zero snapshot interval (which
/// would never advance), a negative status descriptor (`-1` panicked in
/// `File::from_raw_fd`, and `-7` ran with a sink whose every write
/// failed), the removed `ingest` command, and the removed `serve --sim`
/// and `--chunk` flags (every read picks its own step; a serve checkpoint
/// does not depend on it).
#[test]
fn zero_snapshot_interval_and_removed_front_doors_exit_2() {
    let out_dir = std::env::temp_dir().join(format!("sixscope-serve-0-{}", std::process::id()));
    let (mixed, clean) = (corpus("mixed.pcap"), corpus("clean.pcap"));
    let out_dir = out_dir.to_str().unwrap();
    for (args, message) in [
        (
            vec!["serve", &mixed, "--snapshot-every", "0", "--out", out_dir],
            "--snapshot-every",
        ),
        (
            vec!["serve", &clean, "--status-fd", "-1", "--out", out_dir],
            "--status-fd",
        ),
        (
            vec!["serve", &mixed, "--status-fd", "-7", "--out", out_dir],
            "--status-fd",
        ),
        (vec!["ingest", &mixed], "unknown command"),
        (vec!["serve", "--sim", "0.01"], "unknown flag --sim"),
        (
            vec!["analyze", "::/0", &clean, "--chunk", "7"],
            "unknown flag --chunk",
        ),
        (
            vec!["shard", &clean, "--out", out_dir, "--chunk", "7"],
            "unknown flag --chunk",
        ),
        (
            vec!["serve", &clean, "--chunk", "7", "--out", out_dir],
            "unknown flag --chunk",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(&args)
            .output()
            .expect("spawn sixscope");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out_dir).exists(),
        "a rejected serve writes nothing"
    );
}

/// A `.sixshard` file of format version 2, whose config section held
/// three more fields, is refused by `merge` with exit code 7 before any
/// section is read.
#[test]
fn version_2_shard_exits_7() {
    let path = std::env::temp_dir().join(format!("sixscope-v2-{}.sixshard", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["shard", &corpus("clean.pcap"), "--out"])
        .arg(&path)
        .output()
        .expect("spawn sixscope shard");
    assert!(out.status.success(), "sixscope shard failed");
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[8..12], 3u32.to_le_bytes(), "shard writes version 3");
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .arg("merge")
        .arg(&path)
        .output()
        .expect("spawn sixscope merge");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(7), "{stderr}");
    assert!(
        stderr.contains("unsupported shard format version 2 (expected 3)"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "a refused merge printed a report");
}

/// A scale that is not a finite number above zero is a usage error, not
/// an allocation abort (`inf`) or a report over a degenerate population.
#[test]
fn non_positive_or_non_finite_scale_exits_2() {
    for scale in ["inf", "NaN", "-1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(["run", "--scale", scale])
            .output()
            .expect("spawn sixscope run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(stderr.contains("--scale"), "--scale {scale}: {stderr}");
        assert!(out.stdout.is_empty(), "--scale {scale} printed a report");
    }
}

/// A worker count above the cap is a usage error, reported before any
/// work (and before any worker thread) starts.
#[test]
fn threads_above_the_cap_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["run", "--scale", "0.002", "--threads", "100000"])
        .output()
        .expect("spawn sixscope run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--threads must be at most"), "{stderr}");
    assert!(!stderr.contains("running experiment"), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected run printed a report");
}

/// A flag given twice is a usage error naming the flag, reported before
/// the run starts, rather than the first value silently winning.
#[test]
fn repeated_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["run", "--scale", "0.01", "--scale", "0.02"])
        .output()
        .expect("spawn sixscope run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--scale given more than once"), "{stderr}");
    assert!(!stderr.contains("running experiment"), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected run printed a report");
}

/// A baseline too long for the u64 clock is a usage error instead of an
/// overflow panic (debug) or a wrapped plan (release).
#[test]
fn overflowing_weeks_baseline_exits_2() {
    for weeks in ["99999999999999999", "30500568904943"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(["schedule", "2001:db8::/32", "--weeks-baseline", weeks])
            .output()
            .expect("spawn sixscope schedule");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{weeks} weeks: {stderr}");
        assert!(
            stderr.contains("--weeks-baseline"),
            "{weeks} weeks: {stderr}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
        .args(["schedule", "2001:db8::/32", "--weeks-baseline", "4"])
        .output()
        .expect("spawn sixscope schedule");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("baseline: 28d with 2001:db8::/32"),
        "{stdout}"
    );
}
