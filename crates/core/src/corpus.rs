//! The analyzed corpus: experiment output plus pre-computed sessions, the
//! columnar corpus index and metadata join helpers.

use crate::index::CorpusIndex;
use crate::pipeline::{ConsumedFeed, FeedConsumer};
use sixscope_analysis::classify::ScannerProfile;
use sixscope_sim::{CompiledVisibility, ExperimentResult};
use sixscope_telescope::feed::hint_for_records;
use sixscope_telescope::{Capture, ScanSession, TelescopeId, SESSION_TIMEOUT};
use sixscope_types::{map_indexed, num_threads, AsInfo, Asn, PrefixTrie, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::time::Instant;

/// Wall-clock seconds of the analysis stages that built an [`Analyzed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimings {
    /// The phase that produced the per-telescope sessions and index
    /// shards, end to end: the chunked feeds (sessionizer pushes plus
    /// index-shard appends, wall-clock of the parallel stage), plus, for
    /// a shard merge, the read and decode of the files before them.
    pub streaming: f64,
    /// Time spent pushing packets into the incremental sessionizers
    /// (summed across the per-telescope jobs).
    pub sessionize: f64,
    /// The index shard-merge and finalize ([`CorpusIndex::from_shards`]).
    pub index_build: f64,
}

/// Chunking and eviction knobs of the streaming analysis;
/// [`crate::Pipeline`] fills this from its builder methods. The defaults
/// reproduce the batch behavior (one big chunk, the paper's 1-hour
/// timeout).
#[derive(Clone, Copy)]
pub(crate) struct StreamSettings {
    /// Packets fed per chunk.
    pub chunk_records: usize,
    /// Session idle timeout (the eviction horizon).
    pub session_timeout: SimDuration,
    /// Worker threads (`None` defers to `SIXSCOPE_THREADS`).
    pub threads: Option<usize>,
}

impl Default for StreamSettings {
    fn default() -> Self {
        StreamSettings {
            chunk_records: usize::MAX,
            session_timeout: SESSION_TIMEOUT,
            threads: None,
        }
    }
}

/// Experiment output with sessions, scanner profiles and metadata joins.
pub struct Analyzed {
    /// The raw experiment result (captures, events, visibility, world).
    pub result: ExperimentResult,
    /// Scan sessions at /128 aggregation, per telescope.
    pub sessions128: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// Scan sessions at /64 aggregation, per telescope.
    pub sessions64: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// The columnar corpus index the tables and figures reduce over.
    pub index: CorpusIndex,
    /// Wall-clock of the analysis stages that built this corpus.
    pub timings: AnalysisTimings,
    /// High-water mark of the incremental sessionizers' open-session
    /// tables — the live-memory bound of the streaming analysis (maximum
    /// over all telescopes and both aggregation levels).
    pub peak_open_sessions: usize,
    /// Source /64-subnet → origin AS (the IP-to-AS join of the study).
    asn_by_subnet: PrefixTrie<Asn>,
}

impl Analyzed {
    /// Builds the corpus from a finished experiment — the batch path,
    /// expressed as one-big-chunk streaming through `Analyzed::stream`.
    pub fn from_result(result: ExperimentResult) -> Analyzed {
        Self::stream(result, &StreamSettings::default())
    }

    /// Builds the corpus by feeding each capture in `chunk_records` steps
    /// into a [`FeedConsumer`] (incremental sessionizers at /128 and /64
    /// plus an index-shard accumulator), then merging the shards into the
    /// [`CorpusIndex`] — the same consumer the pcap and live paths use.
    /// Simulated captures and the time-ordered captures a shard gather
    /// concatenates both come through here.
    ///
    /// The four per-telescope feeds are independent pure functions of
    /// their capture, so they run on worker threads (`SIXSCOPE_THREADS`
    /// caps them; 1 forces serial); results are keyed by telescope, so
    /// scheduling cannot affect output, and chunk boundaries are invisible
    /// (DESIGN.md §10) — any `chunk_records` yields byte-identical output.
    pub(crate) fn stream(result: ExperimentResult, settings: &StreamSettings) -> Analyzed {
        let threads = num_threads(settings.threads);
        let stream_start = Instant::now();
        let compiled = CompiledVisibility::compile(&result.visibility);
        let fed = map_indexed(threads, &TelescopeId::ALL, |_, id| {
            let capture = &result.captures[id];
            FeedConsumer::new(hint_for_records(capture.len() as u64), settings)
                .consume_capture(capture, &compiled)
        });
        let streaming = stream_start.elapsed().as_secs_f64();
        let fed = TelescopeId::ALL.into_iter().zip(fed).collect();
        Self::gather(result, fed, threads, streaming)
    }

    /// The one gather every corpus goes through: merges the per-telescope
    /// sessions and index shards (telescopes absent from `fed` are empty)
    /// into the [`CorpusIndex`] and builds the AS join trie. `streaming`
    /// is the caller's wall-clock for producing `fed`; the gather times
    /// the index build itself, sums the sessionize times and takes the
    /// largest open-session peak.
    pub(crate) fn gather(
        result: ExperimentResult,
        mut fed: BTreeMap<TelescopeId, ConsumedFeed>,
        threads: usize,
        streaming: f64,
    ) -> Analyzed {
        let mut sessions128 = BTreeMap::new();
        let mut sessions64 = BTreeMap::new();
        let mut shards = BTreeMap::new();
        let mut sessionize = 0.0;
        let mut peak_open_sessions = 0;
        for id in TelescopeId::ALL {
            let feed = fed.remove(&id).unwrap_or_default();
            sessions128.insert(id, feed.sessions128);
            sessions64.insert(id, feed.sessions64);
            shards.insert(id, feed.shard);
            sessionize += feed.sessionize;
            peak_open_sessions = peak_open_sessions.max(feed.peak);
        }
        let index_start = Instant::now();
        let index = CorpusIndex::from_shards(&result, shards, &sessions128, &sessions64, threads);
        let index_build = index_start.elapsed().as_secs_f64();
        let mut asn_by_subnet = PrefixTrie::new();
        for scanner in &result.population.scanners {
            asn_by_subnet.insert(scanner.source.subnet(), scanner.asn);
        }
        Analyzed {
            result,
            sessions128,
            sessions64,
            index,
            timings: AnalysisTimings {
                streaming,
                sessionize,
                index_build,
            },
            peak_open_sessions,
            asn_by_subnet,
        }
    }

    /// One telescope's capture.
    pub fn capture(&self, id: TelescopeId) -> &Capture {
        &self.result.captures[&id]
    }

    /// Sessions at /128 for one telescope.
    pub fn sessions128(&self, id: TelescopeId) -> &[ScanSession] {
        &self.sessions128[&id]
    }

    /// Sessions at /64 for one telescope.
    pub fn sessions64(&self, id: TelescopeId) -> &[ScanSession] {
        &self.sessions64[&id]
    }

    /// Origin AS of a source address (routing-data join).
    pub fn asn_of(&self, src: Ipv6Addr) -> Option<Asn> {
        self.asn_by_subnet.lookup(src).map(|(_, asn)| *asn)
    }

    /// AS metadata of a source address.
    pub fn as_info_of(&self, src: Ipv6Addr) -> Option<&AsInfo> {
        self.asn_of(src)
            .and_then(|asn| self.result.population.as_info(asn))
    }

    /// Reverse DNS of a source address, if registered.
    pub fn rdns_of(&self, src: Ipv6Addr) -> Option<&str> {
        self.result.population.rdns.get(&src).map(String::as_str)
    }

    /// The boundary between the initial observation period and the split
    /// period (start of cycle 1).
    pub fn split_start(&self) -> SimTime {
        self.result.schedule.cycle_start(1)
    }

    /// T1 sessions during the split period (/128).
    pub fn t1_split_sessions(&self) -> Vec<&ScanSession> {
        let boundary = self.split_start();
        self.sessions128[&TelescopeId::T1]
            .iter()
            .filter(|s| s.start >= boundary)
            .collect()
    }

    /// Temporal scanner profiles of the T1 split period. The profiles are
    /// pre-computed on the corpus index; `session_indices` reference the
    /// returned slice.
    pub fn t1_split_profiles(&self) -> (&[ScanSession], &[ScannerProfile]) {
        let window = &self.index.split().window;
        (
            &self.sessions128[&TelescopeId::T1][window.range.clone()],
            &window.profiles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixscope_sim::ScenarioConfig;

    fn analyzed() -> Analyzed {
        crate::Pipeline::simulate(ScenarioConfig::new(7, 0.004))
            .run()
            .expect("simulated runs cannot fail")
    }

    #[test]
    fn corpus_builds_sessions_for_every_telescope() {
        let a = analyzed();
        for id in TelescopeId::ALL {
            // /64 aggregation can only merge sessions, never create more.
            assert!(a.sessions64(id).len() <= a.sessions128(id).len());
        }
        assert!(!a.sessions128(TelescopeId::T1).is_empty());
    }

    #[test]
    fn asn_join_resolves_all_captured_sources() {
        let a = analyzed();
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                assert!(
                    a.asn_of(p.src).is_some(),
                    "source {} has no AS mapping",
                    p.src
                );
            }
        }
    }

    #[test]
    fn rdns_join_finds_atlas_probes() {
        let a = analyzed();
        let atlas_sources = a
            .capture(TelescopeId::T1)
            .packets()
            .iter()
            .filter(|p| {
                a.rdns_of(p.src)
                    .is_some_and(|n| n.ends_with(".probes.atlas.ripe.net"))
            })
            .count();
        assert!(atlas_sources > 0, "no Atlas sources observed at T1");
    }

    #[test]
    fn split_period_partitions_sessions() {
        let a = analyzed();
        let boundary = a.split_start();
        let initial = a
            .sessions128(TelescopeId::T1)
            .iter()
            .filter(|s| s.start < boundary)
            .count();
        let split = a.t1_split_sessions().len();
        assert_eq!(initial + split, a.sessions128(TelescopeId::T1).len());
        assert!(split > initial, "the split period is 32 of 44 weeks");
    }

    #[test]
    fn t1_split_profiles_cover_all_sources() {
        let a = analyzed();
        let (sessions, profiles) = a.t1_split_profiles();
        let total_sessions: usize = profiles.iter().map(|p| p.session_indices.len()).sum();
        assert_eq!(total_sessions, sessions.len());
    }
}
