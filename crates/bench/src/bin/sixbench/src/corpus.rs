//! Workload inputs: simulated corpora and the pcap record streams cut
//! from them.
//!
//! A corpus's analysis cost varies up to threefold with the seed it was
//! simulated from (a rare multi-million-probe scanner doubles the longest
//! sessions), so a run on fresh seed-derived corpora measures the seed as
//! much as the code: medians over 45 fresh corpora moved 7 % (p75: 29 %)
//! between seeds, and at heavy-tail scale 24 % (60 %). The traffic is
//! therefore fixed — pools of sub-seeds of the paper's default seed — and
//! the `--seed` varies what does not change the amount of work: the order
//! in which a run visits its pool, which records carry a corrupted length
//! field, and where the pcap stream is split into pieces.

use sixscope::packet::{PacketBuilder, PcapRecord, PcapWriter};
use sixscope::sim::{ExperimentResult, Scenario, ScenarioConfig, ScenarioTimings};
use sixscope::telescope::{Capture, CapturedPacket, Protocol, TelescopeId};
use sixscope::types::SimTime;
use std::path::Path;

/// The paper's default seed; every workload's warm-up runs on its corpus.
pub const REF_SEED: u64 = 20230824;

/// FNV-1a of the stdout of `sixscope run --seed 20230824 --scale 0.04`
/// (the composed text of Tables 2–8 and the headline numbers).
pub const REF_TABLES_DIGEST: u64 = 0x9895_5c21_d921_537e;
/// The scale [`REF_TABLES_DIGEST`] was recorded at.
pub const REF_SCALE: f64 = 0.04;

/// Sizes and rates of the workloads. [`Params::benchmark`] is what the
/// benchmark runs; [`Params::smoke`] shrinks everything for the tests.
pub struct Params {
    /// Scale of the paper-sim corpora and of the corpora the pcap streams
    /// are cut from.
    pub sim_scale: f64,
    /// Corpora of paper-sim: indices `j` of `sub_seed(REF_SEED, j)`.
    pub paper_pool: Vec<u64>,
    /// Scale of the heavy-tail corpora.
    pub heavy_scale: f64,
    /// Corpora of heavy-tail, as for `paper_pool`.
    pub heavy_pool: Vec<u64>,
    /// Records in the pcap-federated and live-tail streams.
    pub records: usize,
    /// Pieces the pcap-federated stream is split into.
    pub pieces: usize,
    /// Every this many records, one gets a corrupted length field.
    pub corrupt_every: usize,
    /// Live-tail append rate, records per second.
    pub rate: u64,
    /// Records per live-tail append.
    pub batch: usize,
    /// Live-tail daemon checkpoint interval, in records.
    pub snapshot_every: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Worker threads of the program under test in timed runs.
    pub threads: usize,
}

impl Params {
    pub fn benchmark() -> Params {
        Params {
            sim_scale: 0.04,
            paper_pool: (0..16).collect(),
            heavy_scale: 0.1,
            // The corpora among the first ten whose longest /128 session is
            // the 249k-packet archetype; those with a 260k–400k one need up
            // to twice the memory.
            heavy_pool: vec![0, 1, 2, 3, 5, 6, 8, 9],
            records: 800_000,
            pieces: 4,
            corrupt_every: 50_000,
            rate: 32_000,
            batch: 400,
            snapshot_every: 10_000,
            setups: 3,
            threads: 2,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Params {
        Params {
            sim_scale: 0.002,
            paper_pool: vec![0, 1],
            heavy_scale: 0.004,
            heavy_pool: vec![0, 1],
            records: 20_000,
            pieces: 4,
            corrupt_every: 5_000,
            rate: 20_000,
            batch: 200,
            snapshot_every: 2_000,
            setups: 1,
            threads: 2,
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `i`-th value derived from `seed` (splitmix64).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// `0..n` in an order set by `seed` (Fisher–Yates).
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

/// Record boundaries of `pieces` pieces of an `n`-record stream: equal
/// pieces, each boundary moved by up to a tenth of a piece as `seed` says.
pub fn piece_bounds(seed: u64, n: usize, pieces: usize) -> Vec<usize> {
    let jitter = (n / pieces / 10).max(1) as u64;
    (0..=pieces)
        .map(|k| match k {
            0 => 0,
            k if k == pieces => n,
            k => {
                k * n / pieces + (sub_seed(seed, k as u64) % jitter) as usize - jitter as usize / 2
            }
        })
        .collect()
}

/// Sets the worker-thread cap of the toolkit's calls that take no
/// explicit thread count (`Analyzed::from_result`, `CorpusIndex::build`,
/// and the parallel reductions inside tables and figures). Called only
/// while no other thread of this process runs.
pub fn set_threads(threads: usize) {
    std::env::set_var("SIXSCOPE_THREADS", threads.to_string());
}

pub fn simulate(seed: u64, scale: f64, threads: usize) -> (ExperimentResult, ScenarioTimings) {
    let mut config = ScenarioConfig::new(seed, scale);
    config.threads = Some(threads);
    Scenario::new(config).run_timed()
}

/// A fresh copy of `result`, rebuilt from its public fields.
pub fn clone_result(result: &ExperimentResult) -> ExperimentResult {
    ExperimentResult {
        layout: result.layout.clone(),
        schedule: result.schedule.clone(),
        captures: result
            .captures
            .iter()
            .map(|(id, c)| {
                let copy = Capture::restore(
                    c.config().clone(),
                    c.packets().to_vec(),
                    c.filtered(),
                    c.malformed(),
                );
                (*id, copy)
            })
            .collect(),
        events: result.events.clone(),
        visibility: result.visibility.clone(),
        population: result.population.clone(),
        hitlist: result.hitlist.clone(),
        t4_responses: result.t4_responses,
        dropped_unrouted: result.dropped_unrouted,
        truncated_probes: result.truncated_probes,
    }
}

/// The T1 and T2 captures of `result` merged in time order (T1 first on
/// equal timestamps), shifted `shift` seconds later.
fn t1_t2_stream(result: &ExperimentResult, shift: u64, out: &mut Vec<CapturedPacket>) {
    let (a, b) = (
        result.capture(TelescopeId::T1).packets(),
        result.capture(TelescopeId::T2).packets(),
    );
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let take_a = j >= b.len() || (i < a.len() && a[i].ts <= b[j].ts);
        let p = if take_a {
            i += 1;
            &a[i - 1]
        } else {
            j += 1;
            &b[j - 1]
        };
        let mut p = p.clone();
        p.ts = SimTime(p.ts.0 + shift);
        out.push(p);
    }
}

/// A pcap byte stream: the 24-byte global header, then records.
pub struct Records {
    /// The whole file.
    pub bytes: Vec<u8>,
    /// Byte offset of every record, plus the end of the file.
    pub offsets: Vec<usize>,
    /// Indices of the records whose length field was corrupted; the
    /// reader skips exactly these.
    pub corrupted: Vec<usize>,
    /// Simulation stage times summed over the corpora the stream was cut
    /// from.
    pub sim: ScenarioTimings,
    /// Packets simulated, probes dropped as unrouted, and probes truncated
    /// by the generation cap, over those corpora.
    pub sim_counts: [u64; 3],
}

impl Records {
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The bytes of records `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.bytes[self.offsets[range.start]..self.offsets[range.end]]
    }

    /// Writes records `range` as a complete pcap file.
    pub fn write(&self, path: &Path, range: std::ops::Range<usize>) -> std::io::Result<()> {
        let mut file = self.bytes[..24].to_vec();
        file.extend_from_slice(self.slice(range));
        std::fs::write(path, file)
    }

    /// For every admitted (not corrupted) record, its record index.
    pub fn admitted(&self) -> Vec<usize> {
        let mut bad = self.corrupted.iter().peekable();
        (0..self.len())
            .filter(|i| {
                if bad.peek() == Some(&i) {
                    bad.next();
                    false
                } else {
                    true
                }
            })
            .collect()
    }
}

/// Encodes `packets` as LINKTYPE_RAW pcap records, giving the records at
/// the ascending indices `corrupted` `orig_len < incl_len` (a corrupted
/// length field the reader skips and counts).
fn encode(packets: &[CapturedPacket], corrupted: &[usize]) -> (Vec<u8>, Vec<usize>) {
    let mut writer = PcapWriter::new(Vec::new()).expect("writing to memory cannot fail");
    for p in packets {
        let builder = PacketBuilder::new(p.src, p.dst);
        let data = match p.protocol {
            Protocol::Icmpv6 => builder.icmpv6_echo_request(0, 0, &p.payload),
            Protocol::Tcp => builder.tcp_syn(
                p.src_port.unwrap_or(0),
                p.dst_port.unwrap_or(0),
                0,
                &p.payload,
            ),
            Protocol::Udp | Protocol::Other => {
                builder.udp(p.src_port.unwrap_or(0), p.dst_port.unwrap_or(0), &p.payload)
            }
        };
        writer
            .write_record(&PcapRecord {
                ts: p.ts,
                ts_micros: 0,
                data,
            })
            .expect("simulated timestamps fit the pcap format");
    }
    let mut bytes = writer.into_inner().expect("writing to memory cannot fail");
    let mut offsets = Vec::with_capacity(packets.len() + 1);
    let mut pos = 24;
    while pos < bytes.len() {
        offsets.push(pos);
        let incl = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        pos += 16 + incl as usize;
    }
    offsets.push(pos);
    for &i in corrupted {
        let at = offsets[i];
        let incl = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes"));
        bytes[at + 12..at + 16].copy_from_slice(&(incl - 1).to_le_bytes());
    }
    (bytes, offsets)
}

/// The pcap-federated and live-tail input: the time-merged T1+T2 stream of
/// the default-seed corpus at `params.sim_scale`, `params.records` records
/// long, with one record in every `params.corrupt_every` (at a position
/// `seed` picks) given a corrupted length field. A corpus too small to
/// fill the stream is followed by the next of its sub-seeds, shifted past
/// the session timeout so no session straddles the seam.
pub fn build_records(seed: u64, params: &Params) -> Records {
    let mut packets = Vec::with_capacity(params.records + 1);
    let mut sim = ScenarioTimings::default();
    let mut sim_counts = [0u64; 3];
    let mut shift = 0;
    let mut i = 0;
    while packets.len() < params.records {
        let corpus = if i == 0 {
            REF_SEED
        } else {
            sub_seed(REF_SEED, i - 1)
        };
        let (result, t) = simulate(corpus, params.sim_scale, params.threads);
        i += 1;
        sim.setup += t.setup;
        sim.generate += t.generate;
        sim.deliver += t.deliver;
        sim_counts[0] += result.total_packets() as u64;
        sim_counts[1] += result.dropped_unrouted;
        sim_counts[2] += result.truncated_probes;
        t1_t2_stream(&result, shift, &mut packets);
        shift = packets.last().map_or(0, |p| p.ts.0) + 2 * 3600;
    }
    packets.truncate(params.records);
    let every = params.corrupt_every;
    let corrupted: Vec<usize> = (0..packets.len() / every)
        .map(|block| block * every + (sub_seed(seed, block as u64) % every as u64) as usize)
        .collect();
    let (bytes, offsets) = encode(&packets, &corrupted);
    Records {
        bytes,
        offsets,
        corrupted,
        sim,
        sim_counts,
    }
}

/// Writes the T1+T2 stream of an analyzed corpus, capped at `cap`
/// records, as one pcap (the attribution pass's feed and shard input).
pub fn write_stream(result: &ExperimentResult, cap: usize, path: &Path) -> std::io::Result<usize> {
    let mut packets = Vec::new();
    t1_t2_stream(result, 0, &mut packets);
    packets.truncate(cap);
    let (bytes, _) = encode(&packets, &[]);
    std::fs::write(path, bytes)?;
    Ok(packets.len())
}
