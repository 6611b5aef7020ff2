//! Helpers shared by the integration tests.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A scratch directory owned by one test, removed with its contents on
/// drop. The name `sixscope-<name>-<pid>-<nanos>-<counter>` is unique
/// across test binaries (pid), runs (clock) and tests running in parallel
/// threads of one binary (counter), so no test can delete another's files.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(name: &str) -> ScratchDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = std::env::temp_dir().join(format!(
            "sixscope-{name}-{}-{nanos}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create the scratch dir");
        ScratchDir { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join<P: AsRef<Path>>(&self, rel: P) -> PathBuf {
        self.path.join(rel)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover dir in the temp dir is harmless.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
