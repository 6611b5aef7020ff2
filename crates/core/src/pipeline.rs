//! The one entry point — a streaming, bounded-memory analysis pipeline.
//!
//! [`Pipeline`] subsumes the older `Experiment` (simulated corpus),
//! `Scenario::run_timed` (raw simulation) and `Ingest` (real pcap) entry
//! points behind a single builder:
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
//! The pcap path is zero-copy and streams: each file is `mmap(2)`'d (with
//! a buffered-read fallback) and walked in chunks of
//! [`Pipeline::chunk_records`] borrowed record views, each chunk fed
//! straight into the incremental sessionizers and an
//! [`crate::index::IndexShard`] accumulator. Record bytes are never copied
//! out of the mapping — packets promote their payload to owned bytes only
//! when retained by the capture filter — so heap memory stays
//! O(chunk views + live sessions + columns) while the mapping's pages are
//! file-backed and evictable. Chunk boundaries are invisible (DESIGN.md
//! §10): any `chunk_records` and any thread count produce byte-identical
//! tables and figures.

use crate::corpus::{Analyzed, StreamSettings};
use crate::index::IndexShard;
use crate::ingest::passive_config;
use crate::shardfile::{gather_shards, write_shard, TelescopeShard};
use crate::Error;
use sixscope_scanners::population::Population;
use sixscope_scanners::ExperimentLayout;
use sixscope_sim::{
    CompiledVisibility, ExperimentResult, Scenario, ScenarioConfig, ScenarioTimings, TumHitlist,
    Visibility,
};
use sixscope_telescope::{
    AggLevel, Capture, Feed, IncrementalSessionizer, IngestStats, PcapFeed, ScanSession,
    SplitSchedule, TelescopeConfig, TelescopeId, SESSION_TIMEOUT,
};
use sixscope_types::{num_threads, Ipv6Prefix, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;
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
    session_timeout: SimDuration,
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
    /// the concatenated packets, and [`Pipeline::session_timeout`],
    /// [`Pipeline::chunk_records`] and [`Pipeline::threads`] apply.
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
            chunk_records: usize::MAX,
            session_timeout: SESSION_TIMEOUT,
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
    /// variable, then to the machine's parallelism; output bytes never
    /// depend on it.
    pub fn threads(mut self, threads: usize) -> Pipeline {
        self.threads = Some(threads);
        self
    }

    /// Streaming chunk size in pcap records (and, for the simulated and
    /// shard paths, in packets per feed chunk). Bounds live memory on the
    /// pcap path; output bytes never depend on it. Defaults to unchunked.
    pub fn chunk_records(mut self, records: usize) -> Pipeline {
        self.chunk_records = records.max(1);
        self
    }

    /// Session idle timeout — the eviction horizon of the incremental
    /// sessionizer's open-session table. Defaults to the paper's 1 hour.
    pub fn session_timeout(mut self, timeout: SimDuration) -> Pipeline {
        self.session_timeout = timeout;
        self
    }

    /// Runs the pipeline and returns the analyzed corpus.
    pub fn run(self) -> Result<Analyzed, Error> {
        self.run_detailed().map(|out| out.analyzed)
    }

    /// Runs the pipeline and additionally returns stage timings and (for
    /// the pcap path) recovery statistics.
    pub fn run_detailed(self) -> Result<PipelineOutput, Error> {
        let settings = StreamSettings {
            chunk_records: self.chunk_records,
            session_timeout: self.session_timeout,
            threads: self.threads,
        };
        match self.source {
            Source::Simulate(mut config) => {
                if self.threads.is_some() {
                    config.threads = self.threads;
                }
                let (result, sim) = Scenario::new(config).run_timed();
                Ok(PipelineOutput {
                    analyzed: Analyzed::stream(result, &settings),
                    sim,
                    stats: IngestStats::default(),
                    file_stats: Vec::new(),
                })
            }
            Source::Pcaps { paths, prefix } => stream_pcaps(&paths, prefix, &settings),
            Source::Shards(paths) => stream_shards(&paths, &settings),
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
        let mut feed = PcapFeed::new(
            Capture::new(passive_config(prefix)),
            paths,
            self.chunk_records,
        );
        while !feed.next_chunk()?.end_of_feed {}
        let (mut capture, stats, file_stats) = feed.finish();
        // The format stores packets in time order: the same stable sort
        // the in-process path applies to disordered input.
        if !capture.is_time_sorted() {
            capture.sort_by_time();
        }
        let shard = TelescopeShard { capture, stats };
        write_shard(out.as_ref(), &shard)?;
        Ok(ShardOutput {
            packets: shard.capture.len(),
            stats: shard.stats,
            file_stats,
        })
    }
}

/// One telescope's fully ingested pcap state, fed straight to the gather.
struct IngestedTelescope {
    capture: Capture,
    feed: ConsumedFeed,
    stats: IngestStats,
    file_stats: Vec<(String, IngestStats)>,
}

/// The stateful half of a feed-driven ingest: incremental sessionizers at
/// /128 and /64 plus an [`IndexShard`] accumulator, fed one
/// [`sixscope_telescope::FeedChunk`] at a time.
///
/// The consumer is the only code that turns a packet range into sessions
/// and index columns, for every input — a [`Feed`] over batch pcaps or a
/// live tail, or a finished simulated or shard-gathered capture
/// ([`FeedConsumer::consume_capture`]). If the input ever
/// delivers packets out of time order (live feeds admit in-horizon
/// disorder; finite feeds simply reflect their files) the incremental
/// state is abandoned and [`FeedConsumer::finish`] falls back to sort +
/// re-feed — the bounded-memory property is lost but the output contract
/// (byte-identical to batch) is kept. A snapshotting caller checks
/// [`FeedConsumer::is_sorted`] and reads either the live state or a
/// batch sessionization of the capture.
pub(crate) struct FeedConsumer {
    s128: IncrementalSessionizer,
    s64: IncrementalSessionizer,
    shard: IndexShard,
    sessionize: f64,
    sorted: bool,
    sources_hint: usize,
    settings: StreamSettings,
}

/// One telescope's sessions and index shard: what a drained
/// [`FeedConsumer`] hands to [`Analyzed::gather`]. The default is an empty
/// telescope.
#[derive(Debug, Default)]
pub(crate) struct ConsumedFeed {
    pub sessions128: Vec<ScanSession>,
    pub sessions64: Vec<ScanSession>,
    pub shard: IndexShard,
    pub sessionize: f64,
    pub peak: usize,
}

impl FeedConsumer {
    pub(crate) fn new(sources_hint: usize, settings: &StreamSettings) -> FeedConsumer {
        FeedConsumer {
            s128: IncrementalSessionizer::with_capacity(
                AggLevel::Addr128,
                settings.session_timeout,
                sources_hint,
            ),
            s64: IncrementalSessionizer::with_capacity(
                AggLevel::Subnet64,
                settings.session_timeout,
                sources_hint,
            ),
            shard: IndexShard::new(),
            sessionize: 0.0,
            sorted: true,
            sources_hint,
            settings: *settings,
        }
    }

    /// True while the incremental state still mirrors the capture (no
    /// out-of-order packet has been seen).
    pub(crate) fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// High-water mark of the open-session tables.
    pub(crate) fn peak_open(&self) -> usize {
        self.s128.peak_open().max(self.s64.peak_open())
    }

    /// Open + closed session counts at /128 and /64 (snapshot statistics).
    pub(crate) fn session_counts(&self) -> (usize, usize) {
        (self.s128.sessions().len(), self.s64.sessions().len())
    }

    /// The live /128 sessions (open and closed, in creation order). Only
    /// meaningful while [`FeedConsumer::is_sorted`].
    pub(crate) fn sessions128(&self) -> &[ScanSession] {
        self.s128.sessions()
    }

    /// Feeds the capture packets `range` (one feed chunk) into the
    /// incremental state.
    pub(crate) fn consume(
        &mut self,
        capture: &Capture,
        range: Range<usize>,
        compiled: &CompiledVisibility,
    ) {
        if range.is_empty() || !self.sorted {
            return;
        }
        let packets = capture.packets();
        // Include the boundary with the previous chunk in the order check.
        let boundary = range.start.saturating_sub(1);
        if packets[boundary..range.end]
            .windows(2)
            .any(|w| w[0].ts > w[1].ts)
        {
            // Out-of-order input: abandon the incremental feed and fall
            // back to sort + re-stream at finish time.
            self.sorted = false;
            return;
        }
        let push_start = Instant::now();
        for (i, p) in packets[range.clone()].iter().enumerate() {
            let idx = (range.start + i) as u32;
            self.s128.push(idx, p);
            self.s64.push(idx, p);
        }
        self.sessionize += push_start.elapsed().as_secs_f64();
        self.shard.push_range(capture, range, compiled);
    }

    /// Closes the consumer. If disorder was seen, sorts the capture and
    /// re-feeds it through a fresh consumer — chunk boundaries are
    /// invisible (DESIGN.md §10), so this equals the batch path byte for
    /// byte.
    pub(crate) fn finish(
        self,
        capture: &mut Capture,
        compiled: &CompiledVisibility,
    ) -> ConsumedFeed {
        if self.sorted {
            return self.finish_in_order();
        }
        capture.sort_by_time();
        FeedConsumer::new(self.sources_hint, &self.settings).consume_capture(capture, compiled)
    }

    /// Feeds a whole, time-sorted capture through this fresh consumer in
    /// `chunk_records` steps and closes it — the one loop behind the
    /// simulated and shard-gathered corpus build ([`Analyzed::stream`]) and
    /// the disorder fallback of [`FeedConsumer::finish`]. A zero chunk size
    /// feeds one packet per step, as [`Pipeline::chunk_records`] clamps it.
    pub(crate) fn consume_capture(
        mut self,
        capture: &Capture,
        compiled: &CompiledVisibility,
    ) -> ConsumedFeed {
        let step = self.settings.chunk_records.max(1);
        for start in (0..capture.len()).step_by(step) {
            let end = start.saturating_add(step).min(capture.len());
            self.consume(capture, start..end, compiled);
        }
        self.finish_in_order()
    }

    /// Closes the consumer without a fallback path, for input whose source
    /// guarantees time order.
    fn finish_in_order(self) -> ConsumedFeed {
        debug_assert!(self.sorted, "in-order finish over a disordered feed");
        let peak = self.peak_open();
        ConsumedFeed {
            sessions128: self.s128.finish(),
            sessions64: self.s64.finish(),
            shard: self.shard,
            sessionize: self.sessionize,
            peak,
        }
    }
}

/// The streaming pcap ingest, now phrased over [`PcapFeed`]: the feed maps
/// each file (buffered fallback included) and appends borrowed record
/// views to the capture; the [`FeedConsumer`] sessionizes and indexes each
/// chunk before the next one is cut, so the only per-record heap traffic
/// is the retained packets themselves.
fn ingest_pcaps(
    paths: &[PathBuf],
    prefix: Ipv6Prefix,
    settings: &StreamSettings,
) -> Result<IngestedTelescope, Error> {
    let visibility = Visibility::from_events(&[]);
    let compiled = CompiledVisibility::compile(&visibility);
    let mut feed = PcapFeed::new(
        Capture::new(passive_config(prefix)),
        paths.iter().cloned(),
        settings.chunk_records,
    );
    let mut consumer = FeedConsumer::new(feed.sources_hint(), settings);
    loop {
        let chunk = feed.next_chunk()?;
        consumer.consume(feed.capture(), chunk.range.clone(), &compiled);
        if chunk.end_of_feed {
            break;
        }
    }
    let (mut capture, stats, file_stats) = feed.finish();
    let feed = consumer.finish(&mut capture, &compiled);
    Ok(IngestedTelescope {
        capture,
        feed,
        stats,
        file_stats,
    })
}

/// The in-process pcap path: ingest into one telescope, then hand its
/// consumed feed to [`Analyzed::gather`], which fills in the absent
/// telescopes empty.
fn stream_pcaps(
    paths: &[PathBuf],
    prefix: Ipv6Prefix,
    settings: &StreamSettings,
) -> Result<PipelineOutput, Error> {
    let ingest_start = Instant::now();
    let ing = ingest_pcaps(paths, prefix, settings)?;
    let ingest = ingest_start.elapsed().as_secs_f64();
    let id = ing.capture.config().id;
    let result = gathered_result(
        BTreeMap::from([(id, ing.capture)]),
        Visibility::from_events(&[]),
    );
    let fed = BTreeMap::from([(id, ing.feed)]);
    Ok(PipelineOutput {
        analyzed: Analyzed::gather(result, fed, num_threads(settings.threads), ingest),
        sim: ScenarioTimings::default(),
        stats: ing.stats,
        file_stats: ing.file_stats,
    })
}

/// The gather side of federated sharding: reads every `.sixshard` file,
/// joins each telescope's shards into one capture, and streams the
/// captures through [`Analyzed::stream`] like a simulated experiment. The
/// `streaming` stage is the read and decode of the files plus that feed.
fn stream_shards(paths: &[PathBuf], settings: &StreamSettings) -> Result<PipelineOutput, Error> {
    if paths.is_empty() {
        return Err(Error::Usage(
            "merge requires at least one .sixshard file".into(),
        ));
    }
    let read_start = Instant::now();
    let gathered = gather_shards(paths)?;
    let read = read_start.elapsed().as_secs_f64();
    let result = gathered_result(gathered.captures, Visibility::from_events(&[]));
    let mut analyzed = Analyzed::stream(result, settings);
    analyzed.timings.streaming += read;
    Ok(PipelineOutput {
        analyzed,
        sim: ScenarioTimings::default(),
        stats: gathered.stats,
        file_stats: gathered.file_stats,
    })
}

/// Wraps gathered captures into the [`ExperimentResult`] shape the
/// analysis layer consumes: telescopes without a capture get an empty one,
/// and all simulation-only metadata (events, population, hitlist) is
/// empty.
pub(crate) fn gathered_result(
    mut present: BTreeMap<TelescopeId, Capture>,
    visibility: Visibility,
) -> ExperimentResult {
    let mut layout = ExperimentLayout::default_plan();
    layout.start = SimTime::EPOCH + SimDuration::days(1);
    let schedule = SplitSchedule::paper(layout.t1, layout.start);
    layout.end = schedule.end();
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
