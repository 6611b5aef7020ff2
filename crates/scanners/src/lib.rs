//! # sixscope-scanners
//!
//! Generative models of the IPv6 scanner ecosystem the paper observes.
//! Every behavioral axis of the taxonomy (§5) exists as a generator:
//!
//! * [`address`] — target-address selection: low-byte, service-port,
//!   embedded-IPv4, EUI-64, pattern words, random IIDs, sorted traversals,
//!   hitlist-driven,
//! * [`temporal`] — one-off, periodic and intermittent session scheduling,
//! * [`netsel`] — single-prefix, size-independent, size-proportional and
//!   coarse (size-dependent) network selection over the announced prefixes,
//! * [`tools`] — public-tool profiles whose payloads carry the same
//!   fingerprints the analysis side knows (RIPE Atlas, Yarrp6, traceroute,
//!   Htrace6, 6Seeks, 6Scan, CAIDA Ark),
//! * [`scanner`] — the full scanner: source model (fixed, rotating within a
//!   /64, distributed pool), BGP reactivity, dynamic-TGA follow-ups around
//!   responsive space, probe emission,
//! * [`population`] — the calibrated population builder reproducing the
//!   paper's marginal distributions at a configurable scale.
//!
//! Scanners observe the world only through the [`scanner::ScanContext`]
//! trait — the announced-prefix view a real scanner derives from public BGP
//! collectors, the hitlist, and end-to-end responsiveness. They never see
//! telescope internals.

pub mod address;
pub mod batch;
pub mod netsel;
pub mod population;
pub mod scanner;
pub mod temporal;
pub mod tools;

pub use address::AddressStrategy;
pub use batch::{GenScratch, ProbeBatch};
pub use netsel::NetworkStrategy;
pub use population::{ExperimentLayout, PopulationSpec};
pub use scanner::{Probe, ProbeKind, ScanContext, ScannerSpec, SourceModel};
pub use temporal::TemporalModel;
pub use tools::{Payload, ProtocolMix, ToolProfile};
