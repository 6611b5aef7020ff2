//! # sixscope-bgp
//!
//! A compact but real BGP-4 implementation (RFC 4271) with multiprotocol
//! IPv6 reachability (RFC 4760) and 4-byte AS numbers (RFC 6793):
//!
//! * [`message`] / [`attrs`] / [`nlri`] — byte-accurate message codecs,
//! * [`fsm`] — the session state machine over an in-memory transport,
//! * [`rib`] — Adj-RIB-In / Loc-RIB with the RFC 4271 §9.1 decision process,
//! * [`speaker`] — a router: peers, policy, origination, propagation,
//! * [`topology`] — a simulated AS graph with per-link delays and a route
//!   collector (the "RIPEstat / looking glass" view of §3.2),
//! * [`events`] — the timestamped announce/withdraw feed that BGP-reactive
//!   scanners consume,
//! * [`irr`] — route6 objects with creation times.
//!
//! This is the paper's control-plane substrate: telescope T1 originates and
//! withdraws prefixes through a [`speaker::Speaker`], updates propagate hop
//! by hop through the topology as real UPDATE bytes, and scanners only learn
//! about prefixes once the collector has processed the announcement — the
//! "BGP signal" whose effect the paper measures.

pub mod attrs;
pub mod error;
pub mod events;
pub mod fsm;
pub mod irr;
pub mod message;
pub mod nlri;
pub mod rib;
pub mod speaker;
pub mod topology;

pub use error::BgpError;
pub use events::{RouteEvent, RouteEventKind};
pub use message::{BgpMessage, KeepaliveMessage, NotificationMessage, OpenMessage, UpdateMessage};
pub use rib::{LocRib, Route};
pub use speaker::Speaker;
pub use topology::{Collector, Link, Topology};
