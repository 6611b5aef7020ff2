//! The `sixscope` binary end to end: `run --pcap-dir` writes one pcap per
//! telescope whichever report format goes to stdout, `analyze` logs its
//! recovery statistics to stderr, and usage errors exit 2.

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
    for id in ["T1", "T2", "T3", "T4"] {
        let bytes = std::fs::read(pcaps.join(format!("{id}.pcap")))
            .unwrap_or_else(|e| panic!("--pcap-dir wrote no {id}.pcap: {e}"));
        // A classic pcap global header is 24 bytes.
        assert!(bytes.len() >= 24, "{id}.pcap lacks a pcap header");
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

/// Usage errors exit 2: a zero snapshot interval (which would never
/// advance), and the removed `ingest` command and `serve --sim` flag.
#[test]
fn zero_snapshot_interval_and_removed_front_doors_exit_2() {
    let out_dir = std::env::temp_dir().join(format!("sixscope-serve-0-{}", std::process::id()));
    let mixed = corpus("mixed.pcap");
    let out_dir = out_dir.to_str().unwrap();
    for (args, message) in [
        (
            vec!["serve", &mixed, "--snapshot-every", "0", "--out", out_dir],
            "--snapshot-every",
        ),
        (vec!["ingest", &mixed], "unknown command"),
        (vec!["serve", "--sim", "0.01"], "unknown flag --sim"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sixscope"))
            .args(&args)
            .output()
            .expect("spawn sixscope");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(out_dir).exists(),
        "a rejected serve writes nothing"
    );
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
