//! # sixscope
//!
//! A measurement toolkit for IPv6 network telescopes, reproducing the
//! system and every experiment of *“A Detailed Measurement View on IPv6
//! Scanners and Their Adaption to BGP Signals”* (CoNEXT 2025).
//!
//! The crate is the public facade over the sixscope workspace:
//!
//! * [`Pipeline`] is the one entry point: `Pipeline::simulate(config)` runs
//!   the full 11-month study — BGP-controlled telescope T1 (asymmetric
//!   /32→/48 splitting), productive T2, silent T3, reactive T4 — against a
//!   calibrated scanner ecosystem, entirely in-process and deterministic
//!   from one seed; `Pipeline::from_pcaps(paths)` streams *real* captures
//!   through the same analysis, with per-record damage recovery;
//! * [`Analyzed`] holds the captures with pre-computed scan sessions at
//!   /128 and /64 source aggregation, plus the columnar [`CorpusIndex`]
//!   every table and figure reduces over;
//! * [`tables`] and [`figures`] regenerate every table and figure of the
//!   paper's evaluation from an [`Analyzed`] corpus, and [`render`] prints
//!   the tables as aligned text;
//! * [`report`] defines each paper item once and prints the three reports
//!   over that one list: `sixscope run`'s text and JSON, and the
//!   EXPERIMENTS.md body;
//! * [`Error`] is the single error type — every category carries its
//!   source chain and maps to a distinct CLI exit code.
//!
//! ```no_run
//! use sixscope::{Pipeline, sim::ScenarioConfig};
//!
//! let analyzed = Pipeline::simulate(ScenarioConfig::new(42, 0.01))
//!     .run()
//!     .expect("simulated runs cannot fail");
//! let t2 = sixscope::tables::table2(&analyzed);
//! println!("{}", sixscope::render::render_table2(&t2));
//! ```
//!
//! The analysis pipeline (sessions, taxonomy classification, NIST tests,
//! tool fingerprinting) never reads generator state — it sees only captured
//! packets, exactly as the real study's pipeline saw pcaps. And the
//! pipeline streams: chunk size, thread count and eviction sweeps never
//! change a single output byte (DESIGN.md §10).

pub mod cli;
pub mod corpus;
pub mod error;
pub mod figures;
pub mod index;
pub mod ingest;
pub mod json;
pub mod pipeline;
pub mod render;
pub mod report;
pub mod serve;
pub mod shardfile;
pub mod tables;

pub use corpus::Analyzed;
pub use error::Error;
pub use index::CorpusIndex;
pub use pipeline::{Pipeline, PipelineOutput};
pub use serve::ServeOptions;

// Re-export the workspace surface so downstream users need one dependency.
pub use sixscope_analysis as analysis;
pub use sixscope_bgp as bgp;
pub use sixscope_packet as packet;
pub use sixscope_scanners as scanners;
pub use sixscope_sim as sim;
pub use sixscope_telescope as telescope;
pub use sixscope_types as types;
