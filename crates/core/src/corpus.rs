//! The analyzed corpus: experiment output plus pre-computed sessions, the
//! columnar corpus index and metadata join helpers.
//!
//! Every finished input reaches this module as time-sorted captures.
//! `Analyzed::stream` sessionizes each one at /128 through the feed
//! consumer in one pass, derives the /64 sessions from the /128 ones,
//! then builds the [`CorpusIndex`] once, from the captures and their
//! sessions. The index's source table holds the study's one IP-to-AS
//! join, which [`Analyzed::as_info_of`] reads.

use crate::index::{CorpusIndex, NO_ID};
use crate::pipeline::FeedConsumer;
use sixscope_analysis::classify::ScannerProfile;
use sixscope_sim::ExperimentResult;
use sixscope_telescope::{AggLevel, Capture, ScanSession, SourceKey, TelescopeId};
use sixscope_types::{map_indexed, num_threads, AsInfo, Asn, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::time::Instant;

/// Wall-clock seconds of the analysis stages that built an [`Analyzed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimings {
    /// The phase that produced the per-telescope sessions, end to end:
    /// the feeds (wall-clock of the parallel stage), plus, for pcap and
    /// shard input, the read of the files before them.
    pub streaming: f64,
    /// Time spent pushing packets into the incremental /128 sessionizers
    /// and deriving the /64 sessions from theirs (summed across the
    /// per-telescope jobs).
    pub sessionize: f64,
    /// The index build ([`CorpusIndex::build`]).
    pub index_build: f64,
}

/// Experiment output with sessions, scanner profiles and metadata joins.
pub struct Analyzed {
    /// The raw experiment result (captures, events, visibility, world).
    pub result: ExperimentResult,
    /// Scan sessions at /128 aggregation, per telescope.
    pub sessions128: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// Scan sessions at /64 aggregation, per telescope (derived from the
    /// /128 sessions).
    pub sessions64: BTreeMap<TelescopeId, Vec<ScanSession>>,
    /// The columnar corpus index the tables and figures reduce over.
    pub index: CorpusIndex,
    /// Wall-clock of the analysis stages that built this corpus.
    pub timings: AnalysisTimings,
    /// High-water mark of the incremental sessionizers' open-session
    /// tables — the live-memory bound of the streaming analysis (maximum
    /// over all telescopes; the /128 table bounds both aggregation
    /// levels).
    pub peak_open_sessions: usize,
}

impl Analyzed {
    /// Builds the corpus from a finished experiment through
    /// `Analyzed::stream`.
    pub fn from_result(result: ExperimentResult) -> Analyzed {
        Self::stream(result, None)
    }

    /// Builds the corpus by feeding each capture, in one pass, into a
    /// [`FeedConsumer`] (an incremental /128 sessionizer, whose sessions
    /// the /64 ones are derived from), then building the [`CorpusIndex`]
    /// from the captures and their sessions — the one corpus build behind
    /// every finished input: simulated captures, sorted pcap reads and
    /// shard gathers.
    ///
    /// The four per-telescope feeds are independent pure functions of
    /// their capture, so they run on up to `threads` workers (`None`
    /// defers to `SIXSCOPE_THREADS`; 1 forces serial); results are keyed
    /// by telescope, so scheduling cannot affect output. The timings
    /// record the feeds as `streaming`, their summed pushes and /64
    /// derivations as `sessionize` and the index build as `index_build`.
    pub(crate) fn stream(result: ExperimentResult, threads: Option<usize>) -> Analyzed {
        let threads = num_threads(threads);
        let stream_start = Instant::now();
        let fed = map_indexed(threads, &TelescopeId::ALL, |_, id| {
            FeedConsumer::new().consume_capture(&result.captures[id])
        });
        let streaming = stream_start.elapsed().as_secs_f64();
        let mut sessions128 = BTreeMap::new();
        let mut sessions64 = BTreeMap::new();
        let mut sessionize = 0.0;
        let mut peak_open_sessions = 0;
        for (id, feed) in TelescopeId::ALL.into_iter().zip(fed) {
            sessions128.insert(id, feed.sessions128);
            sessions64.insert(id, feed.sessions64);
            sessionize += feed.sessionize;
            peak_open_sessions = peak_open_sessions.max(feed.peak);
        }
        let index_start = Instant::now();
        let index = CorpusIndex::build_with_threads(&result, &sessions128, &sessions64, threads);
        let index_build = index_start.elapsed().as_secs_f64();
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

    /// AS metadata of a captured /128 source, read off the index's
    /// source table (the study's IP-to-AS join). `None` when no capture
    /// holds `src` or its AS has no metadata.
    pub fn as_info_of(&self, src: Ipv6Addr) -> Option<&AsInfo> {
        let sources = &self.index.sources;
        let id = sources.id128(&SourceKey::new(src, AggLevel::Addr128))?;
        match sources.info_asn(id) {
            NO_ID => None,
            asn => self.result.population.as_info(Asn(asn)),
        }
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
        let sources = &a.index.sources;
        for id in TelescopeId::ALL {
            for p in a.capture(id).packets() {
                let key = SourceKey::new(p.src, AggLevel::Addr128);
                let source = sources
                    .id128(&key)
                    .expect("every captured source is indexed");
                assert_ne!(
                    sources.asn(source),
                    NO_ID,
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
        let t1 = a.sessions128(TelescopeId::T1);
        let initial = t1.iter().filter(|s| s.start < boundary).count();
        let split = t1.iter().filter(|s| s.start >= boundary).count();
        assert_eq!(initial + split, t1.len());
        // The index's split window is exactly the sessions from the split
        // start on.
        assert_eq!(a.t1_split_profiles().0.len(), split);
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
