//! The four workloads. Each sets up its inputs several times (the median
//! is `setup_s`; every set-up ends with one untimed warm-up operation on
//! the paper's default seed, whose tables are pinned byte for byte), then
//! either times operations for the run length (`run`) or traces rounds
//! for it (`trace`). Inputs are described in the `corpus` module.

use crate::attribution::{attribution, serve_metrics, Covered, Input};
use crate::corpus::{
    build_records, clone_result, piece_bounds, shuffled, simulate, sub_seed, write_stream, Params,
    Records, REF_SCALE, REF_SEED, REF_TABLES_DIGEST,
};
use crate::live::{live_phase, LivePhase};
use crate::measure::{alloc_mark, alloc_since, median, percentile, proc_status_mib, Fnv};
use crate::ops::{batch_op, heavy_op, paper_op, pcap_op, Checks, PcapOp, Reports};
use crate::trace::{coverage_pct, self_seconds_by_name, Tracer};
use sixscope::serve;
use sixscope::sim::{ExperimentResult, ScenarioTimings};
use sixscope::Analyzed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    PaperSim,
    HeavyTail,
    PcapFederated,
    LiveTail,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSim,
        Workload::HeavyTail,
        Workload::PcapFederated,
        Workload::LiveTail,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSim => "paper-sim",
            Workload::HeavyTail => "heavy-tail",
            Workload::PcapFederated => "pcap-federated",
            Workload::LiveTail => "live-tail",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub checks: Checks,
    pub tracer: Tracer,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// Runs `workload` for `seconds`, traced or not, with scratch files in
/// `dir`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    params: &Params,
    dir: &Path,
) -> Outcome {
    let mut o = Outcome {
        metrics: BTreeMap::new(),
        checks: Checks::default(),
        tracer: Tracer::new(trace),
        notes: Vec::new(),
    };
    let length = Duration::from_secs_f64(seconds);
    match workload {
        Workload::PaperSim => paper_sim(seed, length, params, dir, &mut o),
        Workload::HeavyTail => heavy_tail(seed, length, params, dir, &mut o),
        Workload::PcapFederated => pcap_federated(seed, length, params, dir, &mut o),
        Workload::LiveTail => live_tail(seed, length, params, dir, &mut o),
    }
    o.metrics
        .insert("peak_rss_mib".into(), proc_status_mib("VmHWM"));
    o
}

/// The measuring window, opened after set-up.
struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    fn open(length: Duration) -> Window {
        Window {
            start: Instant::now(),
            length,
        }
    }

    /// True while another operation should start (always for the first).
    fn more(&self, done: usize) -> bool {
        done == 0 || self.start.elapsed() < self.length
    }

    /// True while another round lasting as long as the `last` one still
    /// ends inside the window (always for the first).
    fn fits(&self, done: usize, last: Duration) -> bool {
        done == 0 || self.start.elapsed() + last <= self.length
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Timed operations: wall seconds and the packets each processed, per
/// corpus of the pool.
struct Timed {
    seconds: Vec<Vec<f64>>,
    ns_per_pkt: Vec<Vec<f64>>,
    ops: usize,
}

impl Timed {
    fn new(corpora: usize) -> Timed {
        Timed {
            seconds: vec![Vec::new(); corpora],
            ns_per_pkt: vec![Vec::new(); corpora],
            ops: 0,
        }
    }

    fn push(&mut self, corpus: usize, seconds: f64, packets: usize) {
        self.seconds[corpus].push(seconds);
        self.ns_per_pkt[corpus].push(seconds * 1e9 / packets.max(1) as f64);
        self.ops += 1;
    }

    /// With one corpus, percentiles over the operations; with a pool,
    /// percentiles over the corpora of each corpus's median, so that every
    /// corpus weighs the same however many times the run reached it.
    fn metrics(&self, o: &mut Outcome) {
        let (seconds, ns) = match self.seconds.len() {
            1 => (self.seconds[0].clone(), self.ns_per_pkt[0].clone()),
            _ => {
                let medians = |v: &[Vec<f64>]| -> Vec<f64> {
                    v.iter()
                        .filter(|c| !c.is_empty())
                        .map(|c| median(c))
                        .collect()
                };
                (medians(&self.seconds), medians(&self.ns_per_pkt))
            }
        };
        o.metrics.insert("report_s.p50".into(), median(&seconds));
        o.metrics
            .insert("report_s.p75".into(), percentile(&seconds, 75.0));
        o.metrics.insert("ns_per_pkt".into(), median(&ns));
        let note = match self.seconds.len() {
            1 => format!("timed operations: n = {}{}", self.ops, tail_note(self.ops)),
            pool => format!(
                "timed operations: n = {} over a pool of {pool} corpora (percentiles over the corpora's medians)",
                self.ops
            ),
        };
        o.notes.push(note);
    }
}

fn tail_note(n: usize) -> String {
    match crate::measure::tail_percentile(n) {
        Some(p) if p >= 75.0 => format!("; p75 has at least 10 samples beyond it (up to p{p})"),
        _ => "; fewer than 40 samples, so p75 has fewer than 10 beyond it".into(),
    }
}

/// One traced operation's resource use, measured around it.
struct Traced {
    first_span: usize,
    alloc_count: u64,
    alloc_mib: f64,
    heap_peak_mib: f64,
    rss_hwm_delta_mib: f64,
}

/// The result of `f` and its wall seconds.
fn timed_call<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (secs(start), out)
}

/// Runs a round's untraced and traced operation, untraced first on even
/// rounds and traced first on odd ones, so that neither always finds the
/// caches warm from the other.
fn in_turn<U, T>(round: usize, untraced: impl FnOnce() -> U, traced: impl FnOnce() -> T) -> (U, T) {
    if round % 2 == 1 {
        let t = traced();
        (untraced(), t)
    } else {
        let u = untraced();
        (u, traced())
    }
}

fn traced<T>(t: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> (T, Traced) {
    let first_span = t.len();
    let rss = proc_status_mib("VmRSS");
    let mark = alloc_mark();
    let out = f(t);
    let (alloc_count, alloc_mib, heap_peak_mib) = alloc_since(mark);
    let stats = Traced {
        first_span,
        alloc_count,
        alloc_mib,
        heap_peak_mib,
        rss_hwm_delta_mib: proc_status_mib("VmHWM") - rss,
    };
    (out, stats)
}

/// Per-layer values of one round: self time per span name (the
/// operation's spans win over those of the attribution pass that follows
/// them), the operation's resource use, and its tracing overhead against
/// `untraced_s`.
fn round_metrics(
    t: &Tracer,
    op: &Traced,
    untraced_s: f64,
    counts: BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let all = t.spans_since(op.first_span);
    let split = all
        .iter()
        .position(|s| s.name == "attribution")
        .unwrap_or(all.len());
    let (op_spans, attr_spans) = all.split_at(split);
    let attr_first_span = op.first_span + split;
    let mut m: BTreeMap<String, f64> = self_seconds_by_name(attr_spans, attr_first_span)
        .into_iter()
        .chain(self_seconds_by_name(op_spans, op.first_span))
        .map(|(name, s)| (format!("{name}_s"), s))
        .collect();
    let op_s = (op_spans[0].end_ns - op_spans[0].start_ns) as f64 / 1e9;
    m.insert("trace.op_s".into(), op_s);
    m.insert(
        "trace.coverage_pct".into(),
        coverage_pct(op_spans, op.first_span),
    );
    m.insert(
        "trace.overhead_pct".into(),
        100.0 * (op_s / untraced_s - 1.0),
    );
    m.insert("op.alloc_count".into(), op.alloc_count as f64);
    m.insert("op.alloc_mib".into(), op.alloc_mib);
    m.insert("op.heap_peak_mib".into(), op.heap_peak_mib);
    m.insert("op.rss_hwm_delta_mib".into(), op.rss_hwm_delta_mib);
    m.extend(counts);
    m
}

/// The per-layer metrics of a trace run: the median of each value over
/// its rounds.
fn finish_rounds(rounds: Vec<BTreeMap<String, f64>>, o: &mut Outcome) {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in &rounds {
        for (k, v) in round {
            values.entry(k.clone()).or_default().push(*v);
        }
    }
    for (k, v) in values {
        o.metrics.insert(k, median(&v));
    }
    o.metrics.insert("trace.rounds".into(), rounds.len() as f64);
    let coverage = rounds
        .iter()
        .filter_map(|r| r.get("trace.coverage_pct"))
        .fold(f64::INFINITY, |a, &b| a.min(b));
    o.notes.push(format!(
        "trace: {} rounds; lowest child self-time coverage of a traced operation {coverage:.2}%",
        rounds.len()
    ));
}

/// The simulator's stage times as returned, and its counters (packets,
/// probes dropped as unrouted, probes truncated).
fn sim_counts(timings: &ScenarioTimings, counts: [u64; 3]) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("sim.setup_s".to_string(), timings.setup),
        ("sim.generate_s".to_string(), timings.generate),
        ("sim.deliver_s".to_string(), timings.deliver),
        ("sim.packets".to_string(), counts[0] as f64),
        ("sim.dropped_unrouted".to_string(), counts[1] as f64),
        ("sim.truncated_probes".to_string(), counts[2] as f64),
    ])
}

fn corpus_counts(a: &Analyzed) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("corpus.streaming_s".to_string(), a.timings.streaming),
        ("corpus.sessionize_s".to_string(), a.timings.sessionize),
        ("corpus.index_build_s".to_string(), a.timings.index_build),
        ("corpus.peak_open".to_string(), a.peak_open_sessions as f64),
    ])
}

fn result_counts(r: &ExperimentResult) -> [u64; 3] {
    [
        r.total_packets() as u64,
        r.dropped_unrouted,
        r.truncated_probes,
    ]
}

/// Set-up of the simulated workloads: warm-ups on the default seed whose
/// digests must agree with each other (and, at the recorded scale, with
/// `sixscope run`). Returns the set-up times.
fn sim_setups(
    params: &Params,
    o: &mut Outcome,
    mut warm_up: impl FnMut() -> Option<(Analyzed, Reports)>,
    pinned: bool,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    for i in 0..params.setups {
        o.checks.begin();
        let start = Instant::now();
        let Some((a, reports)) = warm_up() else {
            o.checks.check(false, "warm-up failed");
            continue;
        };
        times.push(secs(start));
        let digest = reports.digest();
        if i == 0 {
            o.checks.check(
                reports.tables == serve::tables_report(&a, false),
                "composed tables differ from serve::tables_report",
            );
            if pinned {
                o.checks.check(
                    digest.0 == REF_TABLES_DIGEST,
                    &format!(
                        "default-seed tables digest {:#018x} != `sixscope run` digest {REF_TABLES_DIGEST:#018x}",
                        digest.0
                    ),
                );
            }
        }
        o.checks.check(
            first.is_none_or(|f| f == digest),
            "warm-up digests differ between set-ups",
        );
        first = Some(digest);
    }
    times
}

/// The simulation seed of the pool's `k`-th corpus.
fn pool_seed(pool: &[u64], k: usize) -> u64 {
    sub_seed(REF_SEED, pool[k])
}

fn paper_sim(seed: u64, length: Duration, p: &Params, dir: &Path, o: &mut Outcome) {
    let pinned = p.sim_scale == REF_SCALE;
    let setup = sim_setups(
        p,
        o,
        || {
            paper_op(REF_SEED, p, p.threads, &mut Tracer::off())
                .ok()
                .map(|(out, r)| (out.analyzed, r))
        },
        pinned,
    );
    o.metrics.insert("setup_s".into(), median(&setup));
    let order = shuffled(seed, p.paper_pool.len());
    let corpus = |i: usize| order[i % order.len()];
    let window = Window::open(length);
    if !o.tracer.enabled() {
        let mut timed = Timed::new(order.len());
        while window.more(timed.ops) {
            o.checks.begin();
            let k = corpus(timed.ops);
            let start = Instant::now();
            let out = paper_op(
                pool_seed(&p.paper_pool, k),
                p,
                p.threads,
                &mut Tracer::off(),
            );
            let dt = secs(start);
            let packets = o
                .checks
                .ok(out)
                .map_or(0, |(out, _)| out.analyzed.result.total_packets());
            timed.push(k, dt, packets);
        }
        return timed.metrics(o);
    }
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while window.fits(rounds.len(), last) {
        let round_start = Instant::now();
        let s = pool_seed(&p.paper_pool, corpus(rounds.len()));
        o.checks.begin();
        let reference = o
            .checks
            .ok(paper_op(s, p, p.threads, &mut Tracer::off()))
            .map(|(_, r)| r.digest());
        let ((untraced_s, untraced), (out, op)) = in_turn(
            rounds.len(),
            || {
                let (secs, out) = timed_call(|| paper_op(s, p, 1, &mut Tracer::off()));
                (secs, out.map(drop))
            },
            || traced(&mut o.tracer, |t| paper_op(s, p, 1, t)),
        );
        o.checks.begin();
        o.checks.ok(untraced);
        o.checks.begin();
        let Some((out, reports)) = o.checks.ok(out) else {
            break;
        };
        o.checks.check(
            reference == Some(reports.digest()),
            "traced threads(1) digest differs from the threads(2) run",
        );
        let mut counts = sim_counts(&out.sim, result_counts(&out.analyzed.result));
        counts.extend(corpus_counts(&out.analyzed));
        counts.extend(sim_attribution(&out.analyzed, p, dir, o));
        rounds.push(round_metrics(&o.tracer, &op, untraced_s, counts));
        last = round_start.elapsed();
    }
    finish_rounds(rounds, o);
}

/// The attribution pass over a simulated corpus, fed from its own T1+T2
/// stream written as a pcap.
fn sim_attribution(a: &Analyzed, p: &Params, dir: &Path, o: &mut Outcome) -> BTreeMap<String, f64> {
    let pcap = dir.join("attribution.pcap");
    let records = match write_stream(&a.result, p.records, &pcap) {
        Ok(n) => n,
        Err(e) => {
            o.checks
                .check(false, &format!("writing {}: {e}", pcap.display()));
            return BTreeMap::new();
        }
    };
    let input = Input {
        analyzed: a,
        pcap: &pcap,
        records,
        shards: None,
        covered: Covered::Reports,
        replay: true,
    };
    attribution(&input, dir, &mut o.tracer, &mut o.checks)
}

fn heavy_tail(seed: u64, length: Duration, p: &Params, dir: &Path, o: &mut Outcome) {
    let setup = sim_setups(
        p,
        o,
        || {
            let (result, _) = simulate(REF_SEED, p.heavy_scale, p.threads);
            Some(heavy_op(result, p.threads, &mut Tracer::off()))
        },
        false,
    );
    o.metrics.insert("setup_s".into(), median(&setup));
    let order = shuffled(seed, p.heavy_pool.len());
    let corpus = |i: usize| order[i % order.len()];
    let window = Window::open(length);
    if !o.tracer.enabled() {
        let mut timed = Timed::new(order.len());
        while window.more(timed.ops) {
            o.checks.begin();
            let k = corpus(timed.ops);
            let (result, _) = simulate(pool_seed(&p.heavy_pool, k), p.heavy_scale, p.threads);
            let packets = result.total_packets();
            let start = Instant::now();
            let (_, reports) = heavy_op(result, p.threads, &mut Tracer::off());
            timed.push(k, secs(start), packets);
            o.checks
                .check(!reports.tables.is_empty(), "no tables rendered");
        }
        return timed.metrics(o);
    }
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while window.fits(rounds.len(), last) {
        let round_start = Instant::now();
        let s = pool_seed(&p.heavy_pool, corpus(rounds.len()));
        let (result, sim) = simulate(s, p.heavy_scale, p.threads);
        let counts0 = result_counts(&result);
        o.checks.begin();
        let reference = heavy_op(clone_result(&result), p.threads, &mut Tracer::off())
            .1
            .digest();
        let copy = clone_result(&result);
        let (untraced_s, ((a, reports), op)) = in_turn(
            rounds.len(),
            || timed_call(|| heavy_op(copy, 1, &mut Tracer::off())).0,
            || traced(&mut o.tracer, |t| heavy_op(result, 1, t)),
        );
        o.checks.begin(); // the untraced operation
        o.checks.begin();
        o.checks.check(
            reference == reports.digest(),
            "traced threads(1) digest differs from the threads(2) run",
        );
        let mut counts = sim_counts(&sim, counts0);
        counts.extend(corpus_counts(&a));
        counts.extend(sim_attribution(&a, p, dir, o));
        rounds.push(round_metrics(&o.tracer, &op, untraced_s, counts));
        last = round_start.elapsed();
    }
    finish_rounds(rounds, o);
}

/// Writes the pcap-federated pieces, split where `seed` says.
fn write_pieces(
    seed: u64,
    records: &Records,
    p: &Params,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    let bounds = piece_bounds(seed, records.len(), p.pieces);
    bounds
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let path = dir.join(format!("piece-{k}.pcap"));
            records.write(&path, w[0]..w[1])?;
            Ok(path)
        })
        .collect()
}

/// Deletes the previous operation's shard files. Rewriting a file in
/// place makes ext4 flush it to disk on close (its replace-via-truncate
/// heuristic), which put disk speed into the timed scatter.
fn remove(shards: &[PathBuf]) {
    for shard in shards {
        let _ = std::fs::remove_file(shard);
    }
}

fn check_pcap_op(op: &PcapOp, expect_skipped: u64, reference: Option<u64>, o: &mut Outcome) {
    o.checks.check(
        op.report == op.merged_report,
        "direct and scatter/gather analysis reports differ",
    );
    o.checks.check(
        op.direct.stats.skipped_total() == expect_skipped
            && op.merged.stats.skipped_total() == expect_skipped,
        &format!(
            "skipped {} direct / {} merged, expected {expect_skipped}",
            op.direct.stats.skipped_total(),
            op.merged.stats.skipped_total()
        ),
    );
    if let Some(r) = reference {
        o.checks.check(
            Fnv::of(op.report.as_bytes()) == r,
            "analysis report differs from the warm-up's",
        );
    }
}

fn pcap_federated(seed: u64, length: Duration, p: &Params, dir: &Path, o: &mut Outcome) {
    let shards: Vec<PathBuf> = (0..p.pieces)
        .map(|k| dir.join(format!("piece-{k}.sixshard")))
        .collect();
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..p.setups {
        o.checks.begin();
        let start = Instant::now();
        let records = build_records(seed, p);
        let Some(pieces) = o
            .checks
            .ok(
                write_pieces(seed, &records, p, dir).map_err(|source| sixscope::Error::Io {
                    path: dir.display().to_string(),
                    source,
                }),
            )
        else {
            continue;
        };
        remove(&shards);
        let warm = pcap_op(&pieces, &shards, p.threads, &mut Tracer::off());
        setup.push(secs(start));
        if let Some(op) = o.checks.ok(warm) {
            check_pcap_op(&op, records.corrupted.len() as u64, None, o);
            state = Some((records, pieces, Fnv::of(op.report.as_bytes())));
        }
    }
    o.metrics.insert("setup_s".into(), median(&setup));
    let Some((records, pieces, reference)) = state else {
        return;
    };
    let skipped = records.corrupted.len() as u64;
    let window = Window::open(length);
    if !o.tracer.enabled() {
        let mut timed = Timed::new(1);
        while window.more(timed.ops) {
            o.checks.begin();
            remove(&shards);
            let start = Instant::now();
            let op = pcap_op(&pieces, &shards, p.threads, &mut Tracer::off());
            timed.push(0, secs(start), records.len());
            if let Some(op) = o.checks.ok(op) {
                check_pcap_op(&op, skipped, Some(reference), o);
            }
        }
        return timed.metrics(o);
    }
    let whole = dir.join("stream.pcap");
    if let Err(e) = records.write(&whole, 0..records.len()) {
        o.checks
            .check(false, &format!("writing {}: {e}", whole.display()));
        return;
    }
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while window.fits(rounds.len(), last) {
        let round_start = Instant::now();
        let ((untraced_s, untraced), (op, stats)) = in_turn(
            rounds.len(),
            || {
                remove(&shards);
                let (secs, out) = timed_call(|| pcap_op(&pieces, &shards, 1, &mut Tracer::off()));
                (secs, out.map(drop))
            },
            || {
                remove(&shards);
                traced(&mut o.tracer, |t| pcap_op(&pieces, &shards, 1, t))
            },
        );
        o.checks.begin();
        o.checks.ok(untraced);
        o.checks.begin();
        let Some(op) = o.checks.ok(op) else { break };
        check_pcap_op(&op, skipped, Some(reference), o);
        let mut counts = sim_counts(&records.sim, records.sim_counts);
        counts.extend(corpus_counts(&op.direct.analyzed));
        let input = Input {
            analyzed: &op.direct.analyzed,
            pcap: &whole,
            records: records.len(),
            shards: Some(&shards),
            covered: Covered::AnalysisReport,
            replay: true,
        };
        counts.extend(attribution(&input, dir, &mut o.tracer, &mut o.checks));
        rounds.push(round_metrics(&o.tracer, &stats, untraced_s, counts));
        last = round_start.elapsed();
    }
    finish_rounds(rounds, o);
}

fn live_tail(seed: u64, length: Duration, p: &Params, dir: &Path, o: &mut Outcome) {
    let mut setup = Vec::new();
    let mut records = None;
    for _ in 0..p.setups {
        o.checks.begin();
        let start = Instant::now();
        let built = build_records(seed, p);
        let warm = dir.join("warm-up.pcap");
        let written = built
            .write(&warm, 0..built.len())
            .map_err(|source| sixscope::Error::Io {
                path: warm.display().to_string(),
                source,
            });
        let ok = o.checks.ok(written).is_some()
            && o.checks
                .ok(batch_op(&warm, p.threads, &mut Tracer::off()))
                .is_some();
        setup.push(secs(start));
        if ok {
            records = Some(built);
        }
    }
    o.metrics.insert("setup_s".into(), median(&setup));
    let Some(records) = records else { return };

    let window = Window::open(length);
    let n = ((window.length.as_secs_f64() * p.rate as f64) as usize).clamp(p.batch, records.len());
    o.checks.begin();
    let Some(live) = o.checks.ok(live_phase(&records, n, p, p.threads, dir)) else {
        return;
    };
    let finished = dir.join("live.pcap");
    let latest = std::fs::read_to_string(&live.summary.latest).unwrap_or_default();
    check_live(&live, &records, n, o);
    o.checks.begin();
    if let Some((_, report)) = o
        .checks
        .ok(batch_op(&finished, p.threads, &mut Tracer::off()))
    {
        o.checks.check(
            report == latest,
            "final latest.md differs from analysis_report over the finished file",
        );
    }
    live_metrics(&live, o);
    if !o.tracer.enabled() {
        return;
    }
    // The live phase used the run length; one round on the finished file
    // follows it.
    let ((untraced_s, untraced), (out, stats)) = in_turn(
        0,
        || {
            let (secs, out) = timed_call(|| batch_op(&finished, 1, &mut Tracer::off()));
            (secs, out.map(drop))
        },
        || traced(&mut o.tracer, |t| batch_op(&finished, 1, t)),
    );
    o.checks.begin();
    o.checks.ok(untraced);
    o.checks.begin();
    let Some((out, report)) = o.checks.ok(out) else {
        return;
    };
    o.checks.check(
        report == latest,
        "traced batch report differs from latest.md",
    );
    let mut counts = sim_counts(&records.sim, records.sim_counts);
    counts.extend(corpus_counts(&out.analyzed));
    counts.extend(serve_metrics(
        &live.lags_ms,
        &live.gaps_ms,
        live.backlog_max,
        &live.summary,
    ));
    let input = Input {
        analyzed: &out.analyzed,
        pcap: &finished,
        records: n,
        shards: None,
        covered: Covered::AnalysisReport,
        replay: false,
    };
    counts.extend(attribution(&input, dir, &mut o.tracer, &mut o.checks));
    let round = round_metrics(&o.tracer, &stats, untraced_s, counts);
    finish_rounds(vec![round], o);
}

fn check_live(live: &LivePhase, records: &Records, n: usize, o: &mut Outcome) {
    let admitted = records.admitted().iter().filter(|&&r| r < n).count();
    o.checks.check(live.saw_final, "no final status line");
    o.checks.check(!live.write_error, "generator write failed");
    o.checks
        .check(live.appended == n, "generator did not append every record");
    o.checks.check(
        live.summary.late_records == 0,
        &format!("{} late records", live.summary.late_records),
    );
    o.checks.check(
        live.summary.packets == admitted,
        &format!(
            "daemon admitted {} packets, expected {admitted}",
            live.summary.packets
        ),
    );
    o.checks
        .check(!live.lags_ms.is_empty(), "no snapshot checkpoints");
}

fn live_metrics(live: &LivePhase, o: &mut Outcome) {
    if o.tracer.enabled() {
        return;
    }
    // The run's one complete report: from the last append to the final
    // status line. Checkpoint lags (reported per layer and below) swing
    // 20-30 % between runs as the daemon's checkpoint cost jumps by tens
    // of milliseconds for seconds at a time; this latency stays steady.
    o.metrics.insert("report_s.p50".into(), live.final_s);
    o.metrics.insert("report_s.p75".into(), live.final_s);
    o.metrics.insert(
        "ns_per_pkt".into(),
        live.serve_cpu_s * 1e9 / live.appended.max(1) as f64,
    );
    let lag_ms = &live.lags_ms;
    let late_p50 = median(&live.gen_late_ms);
    let late_max = live.gen_late_ms.iter().copied().fold(0.0, f64::max);
    o.notes.push(format!(
        "one complete report (final status {:.3} s after the last append); checkpoint lag p50 {:.1} ms, p75 {:.1} ms (n = {}{}); backlog max {} records",
        live.final_s,
        median(lag_ms),
        percentile(lag_ms, 75.0),
        lag_ms.len(),
        tail_note(lag_ms.len()),
        live.backlog_max
    ));
    o.notes.push(format!(
        "generator lateness: p50 {late_p50:.3} ms, max {late_max:.3} ms"
    ));
    if late_p50 > 5.0 {
        eprintln!("sixbench: warning: the generator ran {late_p50:.1} ms behind schedule at p50; latencies understate the daemon's lag");
    }
}
