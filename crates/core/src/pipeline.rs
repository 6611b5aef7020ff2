//! The one entry point — a streaming analysis pipeline.
//!
//! [`Pipeline`] puts the simulated corpus, the real-pcap analysis and the
//! shard-file gather behind a single builder:
//!
//! ```no_run
//! use sixscope::{Pipeline, sim::ScenarioConfig};
//!
//! let analyzed = Pipeline::simulate(ScenarioConfig::new(42, 0.01))
//!     .threads(4)
//!     .run()
//!     .expect("simulated runs cannot fail");
//! let report = sixscope::render::render_table2(&sixscope::tables::table2(&analyzed));
//! ```
//!
//! Every finished input becomes time-sorted captures first: the
//! simulator's, the shard files' (joined per telescope in seam order) or
//! the pcaps' (one passive telescope, stably sorted by time when the files
//! were disordered). The pcap read is zero-copy: each file is `mmap(2)`'d
//! (with a buffered-read fallback) and walked in chunks of
//! [`Pipeline::chunk_records`] borrowed record views, and packets promote
//! their payload to owned bytes only when retained by the capture filter.
//! Each finished capture then goes through one incremental /128
//! sessionizer in one pass, the /64 sessions are derived from the /128
//! ones, and [`crate::CorpusIndex::build`] derives the index columns once,
//! from the finished captures. Sessions use the paper's 1-hour timeout
//! ([`sixscope_telescope::SESSION_TIMEOUT`]). Read chunks are invisible
//! (DESIGN.md §10): any `chunk_records` and any thread count produce
//! byte-identical tables and figures.

use crate::corpus::Analyzed;
use crate::ingest::passive_config;
use crate::shardfile::{gather_shards, write_shard, TelescopeShard};
use crate::Error;
use sixscope_scanners::population::Population;
use sixscope_scanners::ExperimentLayout;
use sixscope_sim::{
    ExperimentResult, Scenario, ScenarioConfig, ScenarioTimings, TumHitlist, Visibility,
};
use sixscope_telescope::{
    Capture, Feed, IngestStats, PcapFeed, SplitSchedule, TelescopeConfig, TelescopeId,
    READ_STEP_RECORDS,
};
use sixscope_types::{Ipv6Prefix, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Where the pipeline's packets come from.
enum Source {
    /// Run the full simulated experiment, then analyze its captures.
    Simulate(ScenarioConfig),
    /// Stream real pcap files into a passive telescope.
    Pcaps {
        paths: Vec<PathBuf>,
        prefix: Ipv6Prefix,
    },
    /// Gather `.sixshard` files written by [`Pipeline::to_shard`] workers.
    Shards(Vec<PathBuf>),
}

/// Builder for one analysis run — see the [module docs](self).
pub struct Pipeline {
    source: Source,
    threads: Option<usize>,
    chunk_records: usize,
}

/// Everything a [`Pipeline::run_detailed`] call produced beyond the corpus.
pub struct PipelineOutput {
    /// The analyzed corpus (what [`Pipeline::run`] returns).
    pub analyzed: Analyzed,
    /// Simulation stage timings (zero for the pcap path).
    pub sim: ScenarioTimings,
    /// Combined recovery statistics over all input files.
    pub stats: IngestStats,
    /// Per-file recovery statistics, in input order.
    pub file_stats: Vec<(String, IngestStats)>,
}

/// What a [`Pipeline::to_shard`] scatter run produced.
pub struct ShardOutput {
    /// Packets retained by the capture filter and written to the shard.
    pub packets: usize,
    /// Combined recovery statistics over all input files.
    pub stats: IngestStats,
    /// Per-file recovery statistics, in input order.
    pub file_stats: Vec<(String, IngestStats)>,
}

impl Pipeline {
    /// Analyzes a simulated experiment.
    pub fn simulate(config: ScenarioConfig) -> Pipeline {
        Pipeline::new(Source::Simulate(config))
    }

    /// Streams real pcap captures (classic pcap, LINKTYPE_RAW) through the
    /// same analysis. Filter with [`Pipeline::prefix`]; the default `::/0`
    /// accepts every packet.
    pub fn from_pcaps<I, P>(paths: I) -> Pipeline
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        Pipeline::new(Source::Pcaps {
            paths: paths.into_iter().map(Into::into).collect(),
            prefix: Ipv6Prefix::default_route(),
        })
    }

    /// Gathers `.sixshard` files (written by [`Pipeline::to_shard`]
    /// workers) into one analyzed corpus. Shards of the same telescope
    /// must be given in capture order; their captures are concatenated
    /// and sessionized and indexed exactly as a simulated capture is, so
    /// the merged corpus is byte-identical to a single-process run over
    /// the concatenated packets, and [`Pipeline::threads`] applies.
    pub fn from_shards<I, P>(paths: I) -> Pipeline
    where
        I: IntoIterator<Item = P>,
        P: Into<PathBuf>,
    {
        Pipeline::new(Source::Shards(paths.into_iter().map(Into::into).collect()))
    }

    fn new(source: Source) -> Pipeline {
        Pipeline {
            source,
            threads: None,
            chunk_records: READ_STEP_RECORDS,
        }
    }

    /// Telescope prefix filter for the pcap path (no effect on simulation,
    /// whose layout fixes the telescope prefixes).
    pub fn prefix(mut self, prefix: Ipv6Prefix) -> Pipeline {
        if let Source::Pcaps { prefix: p, .. } = &mut self.source {
            *p = prefix;
        }
        self
    }

    /// Worker thread cap. Defaults to the `SIXSCOPE_THREADS` environment
    /// variable, then to the machine's parallelism; every source is clamped
    /// to `1..=`[`MAX_THREADS`](sixscope_types::MAX_THREADS). Output bytes
    /// never depend on it.
    pub fn threads(mut self, threads: usize) -> Pipeline {
        self.threads = Some(threads);
        self
    }

    /// Pcap records per read step (no effect on simulated or shard
    /// input, whose captures are already in memory). Output bytes never
    /// depend on it. Defaults to [`READ_STEP_RECORDS`].
    pub fn chunk_records(mut self, records: usize) -> Pipeline {
        self.chunk_records = records.max(1);
        self
    }

    /// Runs the pipeline and returns the analyzed corpus.
    pub fn run(self) -> Result<Analyzed, Error> {
        self.run_detailed().map(|out| out.analyzed)
    }

    /// Runs the pipeline and additionally returns stage timings and (for
    /// the pcap path) recovery statistics.
    pub fn run_detailed(self) -> Result<PipelineOutput, Error> {
        match self.source {
            Source::Simulate(mut config) => {
                if self.threads.is_some() {
                    config.threads = self.threads;
                }
                let (result, sim) = Scenario::new(config).run_timed();
                Ok(PipelineOutput {
                    analyzed: Analyzed::stream(result, self.threads),
                    sim,
                    stats: IngestStats::default(),
                    file_stats: Vec::new(),
                })
            }
            Source::Pcaps { paths, prefix } => {
                let read_start = Instant::now();
                let input = read_pcaps(&paths, prefix, self.chunk_records)?;
                Ok(analyze_input(input, read_start, self.threads))
            }
            Source::Shards(paths) => {
                if paths.is_empty() {
                    return Err(Error::Usage(
                        "merge requires at least one .sixshard file".into(),
                    ));
                }
                let read_start = Instant::now();
                let input = gather_shards(&paths)?;
                Ok(analyze_input(input, read_start, self.threads))
            }
        }
    }

    /// Reads the pcaps into one capture and writes it, with the recovery
    /// statistics, as one `.sixshard` file — the scatter side of federated
    /// sharding. Sessions and the index are built at the gather
    /// ([`Pipeline::from_shards`]). Only the pcap source can scatter;
    /// simulated and shard sources are [`Error::Usage`].
    pub fn to_shard<P: AsRef<std::path::Path>>(self, out: P) -> Result<ShardOutput, Error> {
        let Source::Pcaps { paths, prefix } = self.source else {
            return Err(Error::Usage(
                "shard export requires a pcap source (Pipeline::from_pcaps)".into(),
            ));
        };
        let input = read_pcaps(&paths, prefix, self.chunk_records)?;
        let (_, capture) = input
            .captures
            .into_iter()
            .next()
            .expect("a pcap read fills one telescope");
        let shard = TelescopeShard {
            capture,
            stats: input.stats,
        };
        write_shard(out.as_ref(), &shard)?;
        Ok(ShardOutput {
            packets: shard.capture.len(),
            stats: shard.stats,
            file_stats: input.file_stats,
        })
    }
}

/// A finished input read into time-sorted captures, one per telescope it
/// covers, with its recovery statistics summed over all files and listed
/// per file (in input order) — what the pcap reader and the shard gather
/// hand to the analysis.
pub(crate) struct FinishedInput {
    pub captures: BTreeMap<TelescopeId, Capture>,
    pub stats: IngestStats,
    pub file_stats: Vec<(String, IngestStats)>,
}

/// Reads pcap files into one passive telescope's capture: drains a
/// [`PcapFeed`] (which maps each file and appends its records' borrowed
/// views in `chunk_records` steps), then stably sorts the capture by time
/// if the files were disordered.
fn read_pcaps(
    paths: &[PathBuf],
    prefix: Ipv6Prefix,
    chunk_records: usize,
) -> Result<FinishedInput, Error> {
    let mut feed = PcapFeed::new(
        Capture::new(passive_config(prefix)),
        paths.iter().cloned(),
        chunk_records,
    );
    while !feed.next_chunk()?.end_of_feed {}
    let (mut capture, stats, file_stats) = feed.finish();
    if !capture.is_time_sorted() {
        capture.sort_by_time();
    }
    Ok(FinishedInput {
        captures: BTreeMap::from([(capture.config().id, capture)]),
        stats,
        file_stats,
    })
}

/// The tail every read input shares: wraps its captures into an
/// experiment result and streams them through [`Analyzed::stream`]. The
/// `streaming` stage is the read since `read_start` plus that feed.
fn analyze_input(
    input: FinishedInput,
    read_start: Instant,
    threads: Option<usize>,
) -> PipelineOutput {
    let read = read_start.elapsed().as_secs_f64();
    let mut analyzed = Analyzed::stream(gathered_result(input.captures), threads);
    analyzed.timings.streaming += read;
    PipelineOutput {
        analyzed,
        sim: ScenarioTimings::default(),
        stats: input.stats,
        file_stats: input.file_stats,
    }
}

/// Wraps gathered captures into the [`ExperimentResult`] shape the
/// analysis layer consumes: telescopes without a capture get an empty one,
/// and all simulation-only metadata (events, population, hitlist) is
/// empty.
fn gathered_result(mut present: BTreeMap<TelescopeId, Capture>) -> ExperimentResult {
    let mut layout = ExperimentLayout::default_plan();
    layout.start = SimTime::EPOCH + SimDuration::days(1);
    let schedule = SplitSchedule::paper(layout.t1, layout.start);
    layout.end = schedule.end();
    let visibility = Visibility::from_events(&[]);
    let hitlist = TumHitlist::build(&[], &visibility);
    let mut captures = BTreeMap::new();
    for id in TelescopeId::ALL {
        let capture = present.remove(&id).unwrap_or_else(|| {
            Capture::new(match id {
                TelescopeId::T1 => TelescopeConfig::t1(layout.t1),
                TelescopeId::T2 => TelescopeConfig::t2(layout.t2),
                TelescopeId::T3 => TelescopeConfig::t3(layout.t3),
                TelescopeId::T4 => TelescopeConfig::t4(layout.t4),
            })
        });
        captures.insert(id, capture);
    }
    ExperimentResult {
        layout,
        schedule,
        captures,
        events: Vec::new(),
        visibility,
        population: Population {
            scanners: Vec::new(),
            ases: Vec::new(),
            rdns: BTreeMap::new(),
        },
        hitlist,
        t4_responses: 0,
        dropped_unrouted: 0,
        truncated_probes: 0,
    }
}
