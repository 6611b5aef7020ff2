//! `sixscope run` output options: `--pcap-dir` writes one pcap per
//! telescope whichever report format goes to stdout.

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
