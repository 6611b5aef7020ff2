//! The attribution pass of a trace round: times, on the round's own
//! inputs, the component calls that the production composites hide, and
//! every layer the workload's operation does not reach on its own.

use crate::live;
use crate::measure::{median, percentile};
use crate::ops::{reports, Checks};
use crate::trace::Tracer;
use sixscope::analysis::classify::profile_scanners;
use sixscope::ingest::passive_config;
use sixscope::serve::{self, ServeSummary};
use sixscope::shardfile::{decode_shard, encode_shard};
use sixscope::telescope::{
    AggLevel, Capture, Feed, IncrementalSessionizer, IngestStats, PcapFeed, TelescopeId,
    SESSION_TIMEOUT,
};
use sixscope::types::Ipv6Prefix;
use sixscope::{Analyzed, CorpusIndex, Pipeline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Which layers the workload's own operation already covers.
#[derive(Clone, Copy, PartialEq)]
pub enum Covered {
    /// Tables, renders and figures (the simulated workloads).
    Reports,
    /// The analysis report, plus scatter/gather when `shards` is given
    /// (pcap-federated, live-tail).
    AnalysisReport,
}

pub struct Input<'a> {
    /// The corpus the operation built.
    pub analyzed: &'a Analyzed,
    /// The round's records as one pcap file, and how many it holds.
    pub pcap: &'a Path,
    pub records: usize,
    /// Shard files the operation wrote (pcap-federated only).
    pub shards: Option<&'a [PathBuf]>,
    pub covered: Covered,
    /// Replay the daemon over `pcap` (every workload but live-tail, whose
    /// daemon metrics come from its live phase).
    pub replay: bool,
}

/// Runs the pass inside a root span `attribution` and returns the counts
/// it measured; the span self-times are read off the tracer.
pub fn attribution(
    input: &Input,
    dir: &Path,
    t: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let a = input.analyzed;
    let root = t.open("attribution");

    let (mut sessions128, mut sessions64, mut peak, mut longest, mut packets) = (0, 0, 0, 0, 0);
    for id in TelescopeId::ALL {
        let capture = a.capture(id);
        packets += capture.len();
        let hint = (capture.len() / 8).clamp(16, 1 << 16);
        for (level, span, expect) in [
            (
                AggLevel::Addr128,
                "telescope.push128",
                a.sessions128(id).len(),
            ),
            (
                AggLevel::Subnet64,
                "telescope.push64",
                a.sessions64(id).len(),
            ),
        ] {
            let (sessions, open) = t.span(span, || {
                let mut s = IncrementalSessionizer::with_capacity(level, SESSION_TIMEOUT, hint);
                for (i, p) in capture.packets().iter().enumerate() {
                    s.push(i as u32, p);
                }
                let open = s.peak_open();
                (s.finish(), open)
            });
            checks.check(
                sessions.len() == expect,
                &format!(
                    "{span} at {id}: {} sessions, corpus has {expect}",
                    sessions.len()
                ),
            );
            peak = peak.max(open);
            if level == AggLevel::Addr128 {
                sessions128 += sessions.len();
                longest = sessions
                    .iter()
                    .map(|s| s.packet_count())
                    .max()
                    .unwrap_or(0)
                    .max(longest);
            } else {
                sessions64 += sessions.len();
            }
        }
    }
    m.insert("telescope.packets".into(), packets as f64);
    m.insert("telescope.sessions128".into(), sessions128 as f64);
    m.insert("telescope.sessions64".into(), sessions64 as f64);
    m.insert("telescope.peak_open".into(), peak as f64);
    m.insert("telescope.max_session_pkts".into(), longest as f64);

    t.span("index.build", || {
        black_box(CorpusIndex::build(&a.result, &a.sessions128, &a.sessions64));
    });
    let scanners = t.span("analysis.profile_scanners", || {
        profile_scanners(a.sessions128(TelescopeId::T1)).len()
    });
    m.insert("analysis.scanners".into(), scanners as f64);

    let (read_s, stats) = {
        let start = std::time::Instant::now();
        let stats = t.span("feed.read", || {
            let capture = Capture::new(passive_config(Ipv6Prefix::default_route()));
            let mut feed = PcapFeed::new(capture, [input.pcap], 65_536);
            loop {
                match feed.next_chunk() {
                    Ok(chunk) if !chunk.end_of_feed => {}
                    Ok(_) => return Ok(feed.finish().1),
                    Err(e) => return Err(e),
                }
            }
        });
        (start.elapsed().as_secs_f64(), stats)
    };
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, &format!("feed error: {e}"));
            IngestStats::default()
        }
    };
    let bytes = std::fs::metadata(input.pcap).map_or(0, |md| md.len());
    m.insert("feed.records".into(), stats.records_read as f64);
    m.insert("feed.bytes".into(), bytes as f64);
    m.insert("feed.skipped".into(), stats.skipped_total() as f64);
    m.insert(
        "feed.records_per_s".into(),
        stats.records_read as f64 / read_s,
    );

    let own_shard = [dir.join("attribution.sixshard")];
    let shards = match input.shards {
        Some(shards) => shards,
        None => {
            let scattered = t.span("shardfile.scatter", || {
                Pipeline::from_pcaps([input.pcap])
                    .threads(1)
                    .to_shard(&own_shard[0])
            });
            checks.ok(scattered);
            let gathered = t.span("shardfile.gather", || {
                Pipeline::from_shards(&own_shard).threads(1).run_detailed()
            });
            if let Some(out) = checks.ok(gathered) {
                checks.check(
                    out.analyzed.capture(TelescopeId::T1).len() as u64 == stats.parsed,
                    "gathered shard lost packets",
                );
            }
            &own_shard
        }
    };
    let mut shard_bytes = 0u64;
    let mut shard_packets = 0usize;
    for path in shards {
        let Some(bytes) = checks.ok(std::fs::read(path).map_err(|source| sixscope::Error::Io {
            path: path.display().to_string(),
            source,
        })) else {
            continue;
        };
        shard_bytes += bytes.len() as u64;
        match t.span("shardfile.decode", || decode_shard(&bytes)) {
            Ok(shard) => {
                shard_packets += shard.capture.len();
                let again = t.span("shardfile.encode", || encode_shard(&shard));
                checks.check(again == bytes, "encode_shard(decode_shard(b)) != b");
            }
            Err(e) => checks.check(false, &format!("shard decode error: {e}")),
        }
    }
    m.insert(
        "shardfile.bytes_per_pkt".into(),
        shard_bytes as f64 / shard_packets.max(1) as f64,
    );

    match input.covered {
        Covered::Reports => {
            let stats = IngestStats::default();
            t.span("render.analysis_report", || {
                black_box(serve::analysis_report(a, &stats, false));
            });
        }
        Covered::AnalysisReport => {
            black_box(reports(a, t));
        }
    }
    t.close(root);

    if input.replay {
        let out = dir.join("attribution-serve");
        if let Some((summary, lines, start)) =
            checks.ok(live::replay(input.pcap, input.records, &out))
        {
            // Every record was in the file when the daemon started.
            let lag_ms: Vec<f64> = lines
                .iter()
                .map(|l| (l.at - start).as_secs_f64() * 1e3)
                .collect();
            let gaps: Vec<f64> = lag_ms.windows(2).map(|w| w[1] - w[0]).collect();
            let backlog = lines
                .iter()
                .map(|l| input.records.saturating_sub(l.packets))
                .max()
                .unwrap_or(0);
            m.extend(serve_metrics(&lag_ms, &gaps, backlog, &summary));
        }
    }
    m
}

/// The `serve.*` per-layer metrics of one daemon run: checkpoint lags
/// and the gaps between status lines (ms), the largest backlog, and the
/// run's summary.
pub fn serve_metrics(
    lag_ms: &[f64],
    gaps_ms: &[f64],
    backlog_max: usize,
    summary: &ServeSummary,
) -> BTreeMap<String, f64> {
    let bytes = std::fs::metadata(&summary.latest).map_or(0, |md| md.len());
    BTreeMap::from([
        ("serve.checkpoint_lag_ms.p50".into(), median(lag_ms)),
        (
            "serve.checkpoint_lag_ms.p75".into(),
            percentile(lag_ms, 75.0),
        ),
        ("serve.checkpoint_gap_ms.p50".into(), median(gaps_ms)),
        ("serve.backlog_records.max".into(), backlog_max as f64),
        ("serve.snapshots".into(), summary.snapshots as f64),
        ("serve.snapshot_bytes".into(), bytes as f64),
        ("serve.late_records".into(), summary.late_records as f64),
    ])
}
