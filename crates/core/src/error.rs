//! One public error type for the whole facade.
//!
//! Every fallible entry point of the `sixscope` crate — the [`crate::Pipeline`],
//! the CLI commands, the renderers — returns [`Error`]. Each category maps to
//! a distinct process exit code so scripted callers can branch on *what kind*
//! of failure occurred without parsing messages, and the wrapped source errors
//! stay reachable through [`std::error::Error::source`] for full
//! `caused by:` chains.

use crate::shardfile::ShardError;
use sixscope_packet::PacketError;
use std::fmt;

/// The unified `sixscope` error.
///
/// Categories (and the CLI exit code each maps to via [`Error::exit_code`]):
///
/// | variant | meaning | exit code |
/// |---|---|---:|
/// | [`Error::Usage`] | bad command line / bad flag value | 2 |
/// | [`Error::Io`] | file could not be opened / read / written | 3 |
/// | [`Error::Pcap`] | pcap stream unrecoverably damaged | 4 |
/// | [`Error::Analysis`] | analysis-stage invariant violated | 6 |
/// | [`Error::Shard`] | shard file damaged / wrong version | 7 |
///
/// `sixscope serve` uses the same table: a live feed that fails maps to
/// [`Error::Io`] / [`Error::Pcap`] like its batch equivalent, bad flags are
/// [`Error::Usage`], and a clean shutdown (feed drained, or SIGTERM/SIGINT
/// received and the final checkpoint flushed) exits 0.
#[derive(Debug)]
pub enum Error {
    /// The command line (or a library builder argument) was invalid.
    Usage(String),
    /// An I/O operation on `path` failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A pcap stream was damaged beyond per-record recovery.
    Pcap {
        /// The file being read.
        path: String,
        /// The underlying packet-layer error.
        source: PacketError,
    },
    /// An analysis stage hit an invariant violation.
    Analysis(String),
    /// A `.sixshard` file was damaged, truncated, or of the wrong version.
    Shard {
        /// The shard file being read.
        path: String,
        /// The underlying decode error.
        source: ShardError,
    },
}

impl Error {
    /// The process exit code for this error category (the CLI uses this;
    /// 0 is success, 1 is reserved for panics).
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Usage(_) => 2,
            Error::Io { .. } => 3,
            Error::Pcap { .. } => 4,
            Error::Analysis(_) => 6,
            Error::Shard { .. } => 7,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "usage error: {msg}"),
            Error::Io { path, .. } => write!(f, "i/o error on {path}"),
            Error::Pcap { path, .. } => write!(f, "pcap error in {path}"),
            Error::Analysis(msg) => write!(f, "analysis error: {msg}"),
            Error::Shard { path, .. } => write!(f, "shard file error in {path}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Usage(_) | Error::Analysis(_) => None,
            Error::Io { source, .. } => Some(source),
            Error::Pcap { source, .. } => Some(source),
            Error::Shard { source, .. } => Some(source),
        }
    }
}

impl From<sixscope_telescope::FeedError> for Error {
    fn from(source: sixscope_telescope::FeedError) -> Self {
        use sixscope_telescope::FeedError;
        match source {
            FeedError::Io { path, source } => Error::Io { path, source },
            FeedError::Pcap { path, source } => Error::Pcap { path, source },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let errors = [
            Error::Usage("bad flag".into()),
            Error::Io {
                path: "a.pcap".into(),
                source: io,
            },
            Error::Pcap {
                path: "b.pcap".into(),
                source: PacketError::BadPcapMagic(0),
            },
            Error::Analysis("shard mismatch".into()),
            Error::Shard {
                path: "t1-0.sixshard".into(),
                source: ShardError::BadMagic,
            },
        ];
        let mut codes: Vec<u8> = errors.iter().map(Error::exit_code).collect();
        assert!(codes.iter().all(|&c| c >= 2));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len());
    }

    #[test]
    fn source_chain_reaches_the_underlying_error() {
        let err = Error::Pcap {
            path: "cap.pcap".into(),
            source: PacketError::BadPcapMagic(0xdead_beef),
        };
        let source = err.source().expect("pcap errors carry a source");
        assert!(source.to_string().contains("magic"), "{source}");
        assert!(err.to_string().contains("cap.pcap"));
    }
}
