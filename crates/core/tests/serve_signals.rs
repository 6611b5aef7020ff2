//! `serve` routes SIGINT and SIGTERM to its shutdown flag only while it
//! runs: once it returns, normally or with an error, the dispositions it
//! found are back, so a library caller's Ctrl-C works again.
//! Dispositions are process-wide, so this binary holds a single test. No
//! signal is sent.

#![cfg(unix)]

use sixscope::serve::{serve, ServeOptions};
use std::path::{Path, PathBuf};

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
const SIG_IGN: usize = 1;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The current SIGINT and SIGTERM dispositions, each read by swapping in
/// `SIG_IGN` and putting the returned value straight back.
fn dispositions() -> [usize; 2] {
    [SIGINT, SIGTERM].map(|sig| {
        // SAFETY: installs SIG_IGN, then reinstalls what `signal` returned.
        unsafe {
            let current = signal(sig, SIG_IGN);
            signal(sig, current);
            current
        }
    })
}

/// A finished pcap served with short idle timers, so `serve` returns as
/// soon as the tail goes quiet.
fn options(out_dir: &Path) -> ServeOptions {
    let pcap = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/clean.pcap");
    let mut opts = ServeOptions::pcap(pcap, out_dir);
    opts.poll_ms = 1;
    opts.quiesce_ms = 20;
    opts
}

#[test]
fn serve_restores_the_signal_dispositions_it_found() {
    let before = dispositions();
    let out: PathBuf =
        std::env::temp_dir().join(format!("sixscope-serve-signals-{}", std::process::id()));

    let summary = serve(options(&out)).expect("serve a finished pcap");
    assert!(summary.packets > 0, "the corpus file was not read");
    assert_eq!(dispositions(), before, "after a completed serve");

    // An output "directory" that is a file fails the final snapshot.
    std::fs::remove_dir_all(&out).unwrap();
    std::fs::write(&out, b"not a directory").unwrap();
    assert!(serve(options(&out)).is_err(), "snapshot into a file");
    assert_eq!(dispositions(), before, "after a failed serve");
    std::fs::remove_file(&out).unwrap();
}
