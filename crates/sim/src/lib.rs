//! # sixscope-sim
//!
//! The experiment driver that joins the substrates:
//!
//! 1. **Control plane** — the BGP topology of §3.2 executes the T1 split
//!    schedule plus the stable T2 and covering-/29 announcements; every
//!    update propagates as wire bytes to the route collector.
//! 2. **Visibility** — the collector's event stream becomes epochs of
//!    announced prefixes: the ground truth for both the scanners' world
//!    view and data-plane deliverability.
//! 3. **World** — AS metadata, reverse DNS and the TUM-style hitlist with
//!    its ~5-day publication lag.
//! 4. **Data plane** — every scanner emits probes; a probe reaches a
//!    telescope only if its destination is covered by a visible prefix at
//!    send time and the telescope's capture filter accepts it. T4 answers.
//!
//! [`scenario::Scenario::run`] executes the full 11-month experiment and
//! returns the captures and metadata the analysis pipeline consumes.

pub mod scenario;
pub mod visibility;
pub mod world;

pub use scenario::{ExperimentResult, Scenario, ScenarioConfig, ScenarioTimings};
pub use visibility::Visibility;
pub use world::TumHitlist;
