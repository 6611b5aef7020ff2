//! Golden bytes of `sixscope run`: the text and `--json` reports of the
//! default seed at scale 0.004, compared with the checked-in files under
//! `tests/golden/`. A change to any paper table's numbers or layout fails
//! here; after an intentional change, regenerate the files with:
//!
//! ```sh
//! SIXSCOPE_BLESS=1 cargo test -p sixscope-integration --test run_golden
//! ```

use sixscope::sim::ScenarioConfig;
use sixscope::{serve, Pipeline};
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

#[test]
fn run_report_matches_golden_files() {
    let a = Pipeline::simulate(ScenarioConfig::new(20230824, 0.004))
        .run()
        .expect("simulated runs cannot fail");
    let bless = std::env::var_os("SIXSCOPE_BLESS").is_some();
    for (name, json) in [
        ("run-20230824-0.004.txt", false),
        ("run-20230824-0.004.json", true),
    ] {
        let actual = serve::tables_report(&a, json);
        let path = golden(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
            std::fs::write(&path, &actual).expect("write golden file");
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} missing ({e}); regenerate with SIXSCOPE_BLESS=1"));
        assert!(
            actual == expected,
            "`sixscope run{}` no longer prints tests/golden/{name}; review the \
             difference, then regenerate with SIXSCOPE_BLESS=1\n--- expected\n{expected}\n--- actual\n{actual}",
            if json { " --json" } else { "" }
        );
    }
}
