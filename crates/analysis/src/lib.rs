//! # sixscope-analysis
//!
//! The analysis half of the paper (§5 and the appendix): everything needed
//! to turn a telescope capture into the taxonomy labels, tool attributions
//! and aggregate statistics of the evaluation.
//!
//! * [`addrtype`] — RFC 7707 target-address classification (the `addr6`
//!   equivalent used for Table 3),
//! * [`nist`] — the four NIST SP 800-22 randomness tests of Appendix B
//!   (frequency, runs, spectral/FFT, cumulative sums),
//! * [`autocorr`] — autocorrelation period detection for the temporal
//!   taxonomy,
//! * [`mod@dbscan`] — generic density-based clustering,
//! * [`classify`] — the three-axis scanner taxonomy (temporal behavior,
//!   network selection, address selection),
//! * [`fingerprint`] — payload clustering and public-tool identification
//!   (Table 7),
//! * [`heavy`] — heavy-hitter detection (>10% of a telescope's packets),
//! * [`intersect`] — UpSet-style cross-telescope intersections (Fig. 8),
//! * [`stats`] — time-bucket series and percentage changes.

pub mod addrtype;
pub mod autocorr;
pub mod classify;
pub mod dbscan;
pub mod fingerprint;
pub mod heavy;
pub mod intersect;
pub mod nist;
pub mod special;
pub mod stats;

pub use addrtype::AddressType;
pub use classify::{AddrSelection, NetworkSelection, ScannerProfile, TemporalClass};
pub use dbscan::{dbscan, dbscan_indexed};
pub use fingerprint::{KnownTool, ToolMatch};
pub use heavy::HeavyHitter;
pub use nist::{NistOutcome, NistTest};
