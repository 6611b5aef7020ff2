//! `repro`'s exits: a scale that is not a finite number above zero is
//! rejected before it simulates anything or writes EXPERIMENTS.md, and a
//! file it cannot write is an I/O error, not a panic.

use std::process::Command;

#[test]
fn invalid_scale_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("sixscope-repro-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for scale in ["inf", "NaN", "-1", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(scale)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {scale}: {stderr}");
        assert!(
            !dir.join("EXPERIMENTS.md").exists(),
            "repro {scale} wrote EXPERIMENTS.md"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed write of EXPERIMENTS.md is an I/O error (exit 3) naming the
/// file, as in `sixscope`, not a panic.
#[test]
fn unwritable_output_exits_3_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("sixscope-repro-write-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("EXPERIMENTS.md")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("0.002")
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("EXPERIMENTS.md"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
