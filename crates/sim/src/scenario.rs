//! The full 11-month experiment (§3): control plane, scanners, captures.
//!
//! ```text
//! SplitSchedule ──► BGP Topology ──► Collector events ──► Visibility
//!                                                            │
//! Population ──► per-scanner probe generation (ScanContext) ◄┘
//!                       │
//!                       ▼ (per-scanner DFZ gate, time-ordered merge)
//!              Captures T1–T4  +  T4 responses
//! ```
//!
//! Everything is derived from one seed; running the same config twice
//! yields byte-identical captures — *at any worker-thread count*. Each
//! scanner owns an independent RNG stream pre-split from the master in
//! population order; workers generate one scanner's probes at a time and
//! deliver them straight into that scanner's per-telescope capture
//! segments, which [`Capture::merge_time_sorted`] splices into global time
//! order on (time, segment, position). See DESIGN.md §6 for the full
//! parallel-determinism contract.

use crate::visibility::Visibility;
use crate::world::TumHitlist;
use sixscope_bgp::topology::standard_topology;
use sixscope_bgp::RouteEvent;
use sixscope_scanners::population::Population;
use sixscope_scanners::{
    ExperimentLayout, GenScratch, PopulationSpec, ProbeBatch, ProbeKind, ScanContext,
};
use sixscope_telescope::{
    Capture, Protocol, ScheduleActionKind, SplitSchedule, TelescopeConfig, TelescopeId,
};
use sixscope_types::{
    map_indexed, num_threads, Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Safety cap on probes per scanner: a mis-scaled spec is clipped (after
/// the time sort, so the kept prefix is the earliest probes) instead of
/// exhausting memory. Overflow is surfaced as
/// [`ExperimentResult::truncated_probes`].
const GENERATION_CAP: usize = 4_000_000;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Population scale (1.0 = the paper's ~36k sources / ~51M packets).
    pub scale: f64,
    /// Address plan.
    pub layout: ExperimentLayout,
    /// Worker threads for generation and delivery. `None` defers to the
    /// `SIXSCOPE_THREADS` environment variable, then to
    /// [`std::thread::available_parallelism`]; `Some(1)` forces the serial
    /// path, and any count is clamped to
    /// [`MAX_THREADS`](sixscope_types::MAX_THREADS). Output is
    /// byte-identical at any setting.
    pub threads: Option<usize>,
}

impl ScenarioConfig {
    /// The default reproduction config at a given seed and scale.
    pub fn new(seed: u64, scale: f64) -> Self {
        let mut layout = ExperimentLayout::default_plan();
        // Leave one day of lead time before the schedule starts so stable
        // announcements converge first.
        layout.start = SimTime::EPOCH + SimDuration::days(1);
        let schedule = SplitSchedule::paper(layout.t1, layout.start);
        layout.end = schedule.end();
        ScenarioConfig {
            seed,
            scale,
            layout,
            threads: None,
        }
    }

    /// The T1 announcement schedule implied by the layout.
    pub fn schedule(&self) -> SplitSchedule {
        SplitSchedule::paper(self.layout.t1, self.layout.start)
    }
}

/// Per-stage wall-clock seconds of one [`Scenario::run_timed`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioTimings {
    /// Control plane, visibility, hitlist and population construction.
    pub setup: f64,
    /// Probe generation (RNG stream split + parallel generate + merge/sort).
    pub generate: f64,
    /// Delivery into telescope captures (DFZ gate + ingest of the decoded
    /// fields, T4's response count included).
    pub deliver: f64,
}

/// Everything the experiment produced.
pub struct ExperimentResult {
    /// The address plan.
    pub layout: ExperimentLayout,
    /// The T1 schedule that was executed.
    pub schedule: SplitSchedule,
    /// Per-telescope captures.
    pub captures: BTreeMap<TelescopeId, Capture>,
    /// Raw collector events.
    pub events: Vec<RouteEvent>,
    /// BGP visibility over time, folded from `events`.
    pub visibility: Visibility,
    /// The scanner population (for metadata joins — *not* used by the
    /// classifiers, which only see captures).
    pub population: Population,
    /// The hitlist model.
    pub hitlist: TumHitlist,
    /// Number of responses T4 sent: one per probe it recorded, since
    /// [`respond`](sixscope_telescope::respond) answers every probe kind the
    /// scanners emit.
    pub t4_responses: u64,
    /// Probes sent toward unrouted space (dropped in the DFZ).
    pub dropped_unrouted: u64,
    /// Probes discarded by the per-scanner generation cap. Non-zero means
    /// a mis-scaled spec was silently clipped — the `repro` binary logs it.
    pub truncated_probes: u64,
}

impl ExperimentResult {
    /// Convenience: one capture.
    pub fn capture(&self, id: TelescopeId) -> &Capture {
        &self.captures[&id]
    }

    /// Total packets captured across all telescopes.
    pub fn total_packets(&self) -> usize {
        self.captures.values().map(Capture::len).sum()
    }
}

/// The experiment driver.
pub struct Scenario {
    config: ScenarioConfig,
}

/// The world the scanners probe, shared by every worker.
///
/// Scanners see it through [`BurstView`], which answers from snapshots —
/// the per-epoch announced sets of [`Visibility`] and the
/// publication-ordered hitlist — handing out borrowed slices.
struct WorldView {
    visibility: Visibility,
    hitlist: TumHitlist,
    t4: Ipv6Prefix,
    end: SimTime,
}

/// A per-scanner [`ScanContext`] over the shared [`WorldView`] that threads
/// burst cursors through the epoch/hitlist lookups: one scanner's session
/// starts are time-sorted, so each query usually advances the cursor a step
/// instead of re-running a binary search. Answers are identical to the
/// uncached `announced_at`/`as_of` lookups for any query sequence (the
/// cursors fall back to the search on time regressions), so the RNG draw
/// sequence — and therefore the output bytes — are unchanged.
struct BurstView<'a> {
    world: &'a WorldView,
    epoch_cursor: Cell<usize>,
    hitlist_cursor: Cell<usize>,
}

impl<'a> BurstView<'a> {
    fn new(world: &'a WorldView) -> Self {
        BurstView {
            world,
            epoch_cursor: Cell::new(0),
            hitlist_cursor: Cell::new(0),
        }
    }
}

impl ScanContext for BurstView<'_> {
    fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix] {
        self.world
            .visibility
            .announced_at_cached(t, &self.epoch_cursor)
    }
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)] {
        self.world.visibility.announce_transitions()
    }
    fn hitlist(&self, t: SimTime) -> &[Ipv6Addr] {
        self.world.hitlist.as_of_cached(t, &self.hitlist_cursor)
    }
    fn responds(&self, addr: Ipv6Addr) -> bool {
        self.world.t4.contains(addr)
    }
    fn horizon(&self) -> SimTime {
        self.world.end
    }
}

/// Reusable per-worker state for the fused generate+deliver path. Pooled
/// behind a mutex and checked out per scanner, so allocations amortize
/// across the whole population instead of recurring per scanner.
#[derive(Default)]
struct FusedScratch {
    scratch: GenScratch,
    batch: ProbeBatch,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario { config }
    }

    /// Runs the control plane only: executes the schedule against the BGP
    /// topology and returns the collector's events.
    ///
    /// The upstreams accept every announcement, as the paper's did (§3.2):
    /// route6 objects had no noticeable effect on propagation.
    pub fn run_control_plane(&self) -> Vec<RouteEvent> {
        let layout = &self.config.layout;
        let origin = Asn(64_500);
        let borrower = Asn(64_510);
        let collector = Asn(64_999);
        let mut topo = standard_topology(origin, borrower, collector, SimTime::EPOCH);
        // Stable announcements: T2 (13 years announced) and the covering
        // /29 that hides T3/T4.
        let lead = SimTime::EPOCH + SimDuration::hours(1);
        topo.announce(origin, layout.t2, lead);
        topo.announce(borrower, layout.covering, lead);
        topo.run_until(lead + SimDuration::mins(10));
        // The T1 schedule.
        let schedule = self.config.schedule();
        for action in schedule.actions() {
            topo.run_until(action.at);
            match action.kind {
                ScheduleActionKind::Announce => topo.announce(origin, action.prefix, action.at),
                ScheduleActionKind::Withdraw => topo.withdraw(origin, action.prefix, action.at),
            }
        }
        topo.run_until(layout.end + SimDuration::hours(1));
        assert_eq!(topo.in_flight(), 0, "control plane did not converge");
        topo.collector().events().to_vec()
    }

    /// Runs the full experiment.
    pub fn run(&self) -> ExperimentResult {
        self.run_timed().0
    }

    /// Runs the full experiment and reports per-stage wall-clock times.
    ///
    /// Each worker generates one scanner's probes into a columnar
    /// [`ProbeBatch`] and immediately streams the time-sorted batch through
    /// the DFZ gate into per-(scanner, telescope) capture segments, which
    /// [`Capture::merge_time_sorted`] then splices into global time order on
    /// (time, segment, position). Output is byte-identical at any thread
    /// count, and equal to a serial restatement of the experiment (generate
    /// everything, stably sort by time, deliver probe by probe): the test
    /// oracle in `crates/sim/tests/staged_oracle`, checked by the
    /// `fused_matches_reference_path` unit test and
    /// `tests/tests/parallel_determinism.rs`.
    ///
    /// Timings are observational only — they never feed back into the
    /// simulation, so the result stays byte-identical to [`Scenario::run`].
    /// Because generation and delivery interleave per scanner, the
    /// generate/deliver split is attributed from per-stage nanosecond
    /// accumulators prorated over the fused wall time (exact at one
    /// thread, a faithful fraction at more).
    pub fn run_timed(&self) -> (ExperimentResult, ScenarioTimings) {
        let stage_start = std::time::Instant::now();
        let (layout, events, population, world, threads) = self.setup();
        let setup_secs = stage_start.elapsed().as_secs_f64();
        let stage_start = std::time::Instant::now();

        // RNG streams are split from the master *serially in population
        // order* (split mutates the master) before fanning out.
        let mut master = Xoshiro256pp::seed_from_u64(self.config.seed ^ 0x5ca_0b0e5);
        let streams: Vec<Xoshiro256pp> = population
            .scanners
            .iter()
            .map(|spec| master.split(&format!("scanner-{}", spec.id)))
            .collect();
        let gen_nanos = AtomicU64::new(0);
        let del_nanos = AtomicU64::new(0);
        let pool: Mutex<Vec<FusedScratch>> = Mutex::new(Vec::new());
        type ScannerResult = ([Capture; 4], u64, u64, u64);
        let per_scanner: Vec<ScannerResult> =
            map_indexed(threads, &population.scanners, |i, spec| {
                let mut fs = pool.lock().unwrap().pop().unwrap_or_default();
                let mut rng = streams[i].clone();
                let view = BurstView::new(&world);

                let t0 = std::time::Instant::now();
                spec.generate_into(&view, &mut rng, &mut fs.scratch, &mut fs.batch);
                fs.batch.sort_by_ts();
                let truncated = fs.batch.truncate_sorted(GENERATION_CAP);
                gen_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t0 = std::time::Instant::now();
                let mut captures = Self::capture_array(&layout);
                let mut t4_responses = 0u64;
                let mut dropped_unrouted = 0u64;
                let lpm_cursor = Cell::new(0);
                let routed_hint = Cell::new(None);
                for &row in fs.batch.sorted() {
                    let row = row as usize;
                    let (ts, dst) = (fs.batch.ts(row), fs.batch.dst(row));
                    // The DFZ test: is the destination covered by a visible
                    // prefix at send time? (Propagation delay for the data
                    // path is negligible at our one-second resolution.)
                    if !world
                        .visibility
                        .routed_cached(dst, ts, &lpm_cursor, &routed_hint)
                    {
                        dropped_unrouted += 1;
                        continue;
                    }
                    let Some(telescope) = self.telescope_for(&layout, dst) else {
                        continue; // routed, but not into observed space
                    };
                    // Every telescope retains only decoded fields, all of
                    // which the batch already holds — encoding to wire
                    // bytes and parsing them back would reproduce exactly
                    // these values (pinned by the staged-oracle
                    // equivalence tests).
                    let (protocol, src_port, dst_port) = match fs.batch.kind(row) {
                        ProbeKind::Icmp { .. } => (Protocol::Icmpv6, None, None),
                        ProbeKind::Tcp {
                            src_port, dst_port, ..
                        } => (Protocol::Tcp, Some(src_port), Some(dst_port)),
                        ProbeKind::Udp { src_port, dst_port } => {
                            (Protocol::Udp, Some(src_port), Some(dst_port))
                        }
                    };
                    let recorded = captures[telescope as usize].ingest_fields(
                        ts,
                        fs.batch.src(row),
                        dst,
                        protocol,
                        src_port,
                        dst_port,
                        fs.batch.payload(row),
                    );
                    // T4 answers every probe kind the engine emits (echo
                    // request, SYN, UDP), so each recorded probe is one
                    // response.
                    if recorded && telescope == TelescopeId::T4 {
                        t4_responses += 1;
                    }
                }
                del_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);

                pool.lock().unwrap().push(fs);
                (captures, t4_responses, dropped_unrouted, truncated)
            });
        let fused_secs = stage_start.elapsed().as_secs_f64();
        let stage_start = std::time::Instant::now();

        // Merge: collect each telescope's per-scanner segments in
        // population order and splice them back into global time order.
        let mut segments: [Vec<Capture>; 4] =
            std::array::from_fn(|_| Vec::with_capacity(per_scanner.len()));
        let mut t4_responses = 0u64;
        let mut dropped_unrouted = 0u64;
        let mut truncated_probes = 0u64;
        for (scanner_captures, scanner_t4, scanner_dropped, scanner_truncated) in per_scanner {
            for (segs, capture) in segments.iter_mut().zip(scanner_captures) {
                segs.push(capture);
            }
            t4_responses += scanner_t4;
            dropped_unrouted += scanner_dropped;
            truncated_probes += scanner_truncated;
        }
        let mut captures = BTreeMap::new();
        for ((&id, mut capture), segs) in TelescopeId::ALL
            .iter()
            .zip(Self::capture_array(&layout))
            .zip(segments)
        {
            capture.merge_time_sorted(segs);
            captures.insert(id, capture);
        }
        let merge_secs = stage_start.elapsed().as_secs_f64();

        // Prorate the fused wall time over the measured per-stage work so
        // the generate/deliver split stays meaningful for regression
        // tracking; the merge is delivery work.
        let (gen, del) = (
            gen_nanos.load(Ordering::Relaxed) as f64,
            del_nanos.load(Ordering::Relaxed) as f64,
        );
        let gen_fraction = if gen + del > 0.0 {
            gen / (gen + del)
        } else {
            0.0
        };
        let generate_secs = fused_secs * gen_fraction;
        let deliver_secs = fused_secs - generate_secs + merge_secs;

        (
            ExperimentResult {
                schedule: self.config.schedule(),
                captures,
                events,
                visibility: world.visibility,
                population,
                hitlist: world.hitlist,
                t4_responses,
                dropped_unrouted,
                truncated_probes,
                layout,
            },
            ScenarioTimings {
                setup: setup_secs,
                generate: generate_secs,
                deliver: deliver_secs,
            },
        )
    }

    /// Control plane, visibility, hitlist, population and world-view
    /// construction.
    fn setup(
        &self,
    ) -> (
        ExperimentLayout,
        Vec<RouteEvent>,
        Population,
        WorldView,
        usize,
    ) {
        let layout = self.config.layout.clone();
        let events = self.run_control_plane();
        let visibility = Visibility::from_events(&events);
        let hitlist = TumHitlist::build(
            &[layout.t2_dns_exposed, layout.covering.low_byte_address()],
            &visibility,
        );
        let population = PopulationSpec {
            seed: self.config.seed,
            scale: self.config.scale,
        }
        .build(&layout);
        let world = WorldView {
            visibility,
            hitlist,
            t4: layout.t4,
            end: layout.end,
        };
        let threads = num_threads(self.config.threads);
        (layout, events, population, world, threads)
    }

    /// One empty capture per telescope, indexable by `TelescopeId as
    /// usize` (declaration order matches [`TelescopeId::ALL`]).
    fn capture_array(layout: &ExperimentLayout) -> [Capture; 4] {
        [
            Capture::new(TelescopeConfig::t1(layout.t1)),
            Capture::new(TelescopeConfig::t2(layout.t2)),
            Capture::new(TelescopeConfig::t3(layout.t3)),
            Capture::new(TelescopeConfig::t4(layout.t4)),
        ]
    }

    /// Which telescope observes `dst`, if any.
    fn telescope_for(&self, layout: &ExperimentLayout, dst: Ipv6Addr) -> Option<TelescopeId> {
        if layout.t1.contains(dst) {
            Some(TelescopeId::T1)
        } else if layout.t2.contains(dst) {
            Some(TelescopeId::T2)
        } else if layout.t3.contains(dst) {
            Some(TelescopeId::T3)
        } else if layout.t4.contains(dst) {
            Some(TelescopeId::T4)
        } else {
            None
        }
    }
}

/// The serial staged run, shared with `tests/tests/parallel_determinism.rs`.
#[cfg(test)]
#[path = "../tests/staged_oracle/mod.rs"]
mod staged_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentResult {
        Scenario::new(ScenarioConfig::new(42, 0.004)).run()
    }

    #[test]
    fn control_plane_produces_split_schedule_events() {
        let config = ScenarioConfig::new(1, 0.004);
        let events = Scenario::new(config.clone()).run_control_plane();
        assert!(!events.is_empty());
        let vis = Visibility::from_events(&events);
        let visible = |prefix: &Ipv6Prefix, t: SimTime| vis.announced_at(t).contains(prefix);
        let schedule = config.schedule();
        // During the baseline the /32 is visible.
        let mid_baseline = schedule.cycle_start(0) + SimDuration::weeks(5);
        assert!(visible(&config.layout.t1, mid_baseline));
        // Mid cycle 1 the two /33s are visible, the /32 is not.
        let mid_c1 = schedule.cycle_start(1) + SimDuration::days(5);
        assert!(!visible(&config.layout.t1, mid_c1));
        for prefix in schedule.announced_set(1) {
            assert!(visible(&prefix, mid_c1), "{prefix} not visible in cycle 1");
        }
        // Mid final cycle all 17 prefixes are visible.
        let mid_final = schedule.cycle_start(16) + SimDuration::days(5);
        for prefix in schedule.announced_set(16) {
            assert!(visible(&prefix, mid_final));
        }
        // T2 and the covering /29 are visible throughout.
        assert!(visible(&config.layout.t2, mid_c1));
        assert!(visible(&config.layout.covering, mid_c1));
    }

    #[test]
    fn experiment_runs_and_fills_all_telescopes() {
        let result = tiny();
        assert!(result.capture(TelescopeId::T1).len() > 100, "T1 too quiet");
        assert!(result.capture(TelescopeId::T2).len() > 100, "T2 too quiet");
        assert!(
            !result.capture(TelescopeId::T4).is_empty(),
            "T4 saw nothing"
        );
        // The silent telescope is quiet but not necessarily empty.
        assert!(
            result.capture(TelescopeId::T3).len() < result.capture(TelescopeId::T1).len() / 10,
            "T3 should be orders of magnitude quieter than T1"
        );
    }

    #[test]
    fn withdrawal_day_drops_t1_packets() {
        let result = tiny();
        // Count packets during withdrawal gaps: should be zero in T1.
        let schedule = &result.schedule;
        let gap_start = schedule.cycle_start(1);
        let gap_end = gap_start + SimDuration::days(1);
        let during_gap = result
            .capture(TelescopeId::T1)
            .packets()
            .iter()
            .filter(|p| p.ts >= gap_start && p.ts < gap_end)
            .count();
        assert_eq!(during_gap, 0, "T1 received packets while withdrawn");
    }

    #[test]
    fn t4_responds_to_probes() {
        let result = tiny();
        assert!(result.t4_responses > 0);
        assert_eq!(
            result.t4_responses,
            result.capture(TelescopeId::T4).len() as u64
        );
    }

    #[test]
    fn respond_answers_every_probe_kind() {
        // The delivery loop counts one T4 response per recorded probe
        // without encoding it; that is exact only while `respond` answers
        // the wire encoding of every kind a scanner can emit.
        use sixscope_packet::ParsedView;
        use sixscope_scanners::Probe;
        use sixscope_telescope::respond;
        let kinds = [
            ProbeKind::Icmp { ident: 7, seq: 3 },
            ProbeKind::Tcp {
                src_port: 40_000,
                dst_port: 443,
                seq: 0x0102_0304,
            },
            ProbeKind::Udp {
                src_port: 40_001,
                dst_port: 53,
            },
        ];
        let mut buf = Vec::new();
        for kind in kinds {
            // Exhaustive on purpose: a new variant stops this compiling,
            // as a reminder to add it to `kinds`.
            match kind {
                ProbeKind::Icmp { .. } | ProbeKind::Tcp { .. } | ProbeKind::Udp { .. } => {}
            }
            for payload in [&b""[..], b"yrp6 fingerprint", &[0xa5; 200]] {
                let probe = Probe {
                    ts: SimTime::from_secs(1),
                    src: "2001:db8:f00::1".parse().unwrap(),
                    dst: "2001:db8:4::42".parse().unwrap(),
                    kind,
                    payload: payload.to_vec(),
                };
                probe.encode_into(&mut buf);
                let parsed = ParsedView::parse(&buf).expect("probe bytes parse");
                assert!(
                    respond(&parsed).is_some(),
                    "{kind:?} with a {}-byte payload gets no response",
                    payload.len()
                );
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.total_packets(), b.total_packets());
        for id in TelescopeId::ALL {
            assert_eq!(a.capture(id).packets(), b.capture(id).packets());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut serial = ScenarioConfig::new(42, 0.004);
        serial.threads = Some(1);
        let mut parallel = ScenarioConfig::new(42, 0.004);
        parallel.threads = Some(4);
        let a = Scenario::new(serial).run();
        let b = Scenario::new(parallel).run();
        for id in TelescopeId::ALL {
            assert_eq!(
                a.capture(id).packets(),
                b.capture(id).packets(),
                "{id:?} diverged"
            );
        }
        assert_eq!(a.dropped_unrouted, b.dropped_unrouted);
        assert_eq!(a.t4_responses, b.t4_responses);
        assert_eq!(a.truncated_probes, b.truncated_probes);
    }

    #[test]
    fn tiny_run_reports_no_truncation() {
        assert_eq!(tiny().truncated_probes, 0);
    }

    #[test]
    fn fused_matches_reference_path() {
        // Seed 42 puts two scanners' packets in one telescope in the same
        // second (the merge's tie-break); seed 3 sends probes into space
        // that is unrouted at send time (the DFZ gate's drop branch).
        let mut dropped = 0;
        for seed in [42, 3] {
            let config = ScenarioConfig::new(seed, 0.004);
            let fused = Scenario::new(config.clone()).run();
            let staged = staged_oracle::run(&config);
            staged_oracle::assert_same(&fused, &staged, &format!("seed {seed}"));
            dropped += fused.dropped_unrouted;
        }
        assert!(dropped > 0, "no run reaches the DFZ gate's drop branch");
    }

    #[test]
    fn hitlist_contains_t1_after_lag() {
        let result = tiny();
        let published = result
            .hitlist
            .published_at(result.layout.t1.low_byte_address())
            .expect("T1 low-byte published");
        let (first, _) = *result
            .visibility
            .announce_transitions()
            .iter()
            .find(|(_, prefix)| *prefix == result.layout.t1)
            .expect("T1 was announced");
        assert_eq!(published, first + crate::world::PUBLICATION_LAG);
    }
}
