//! Real-capture ingestion settings.
//!
//! A telescope operator points [`crate::Pipeline::from_pcaps`] (behind
//! `sixscope analyze` and `shard`) or the [`crate::serve`] daemon at
//! classic pcap files (`tcpdump -y RAW` output) and gets the same analysis
//! the simulated experiment runs: hardened per-record reading with
//! skip-and-count recovery ([`sixscope_telescope::Capture::ingest_pcap_recovering`]),
//! sessionization with the paper's 1-hour timeout, and temporal and
//! address-selection classification, rendered by
//! [`crate::serve::analysis_report`]. Every such path captures into the
//! telescope [`passive_config`] describes.

use sixscope_telescope::{TelescopeConfig, TelescopeId};
use sixscope_types::Ipv6Prefix;

/// The passive telescope configuration real-capture ingestion uses: plain
/// prefix filtering, no productive subnet. `::/0` accepts every packet in
/// the file.
pub fn passive_config(prefix: Ipv6Prefix) -> TelescopeConfig {
    TelescopeConfig {
        id: TelescopeId::T1,
        prefix,
        productive_subnet: None,
    }
}
