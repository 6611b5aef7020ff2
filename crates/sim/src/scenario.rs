//! The full 11-month experiment (§3): control plane, scanners, captures.
//!
//! ```text
//! SplitSchedule ──► BGP Topology ──► Collector events ──► Visibility
//!                                                            │
//! Population ──► per-scanner probe generation (ScanContext) ◄┘
//!                       │
//!                       ▼ (time-ordered delivery, LPM-gated)
//!              Captures T1–T4  +  T4 responses
//! ```
//!
//! Everything is derived from one seed; running the same config twice
//! yields byte-identical captures — *at any worker-thread count*. Probe
//! generation fans scanners out to worker threads (each scanner owns an
//! independent RNG stream pre-split from the master in population order)
//! and the merged probe list is identical to the serial one; delivery
//! shards the time-sorted probe list into contiguous ranges whose per-shard
//! captures concatenate back in order. See DESIGN.md §6 for the full
//! parallel-determinism contract.

use crate::compiled::CompiledVisibility;
use crate::visibility::Visibility;
use crate::world::TumHitlist;
use sixscope_bgp::irr::Route6Registry;
use sixscope_bgp::topology::standard_topology;
use sixscope_bgp::RouteEvent;
use sixscope_packet::{ParsedView, RunEncoder};
use sixscope_scanners::population::Population;
use sixscope_scanners::{
    ExperimentLayout, GenScratch, PopulationSpec, Probe, ProbeBatch, ProbeKind, ScanContext,
    ScannerSpec,
};
use sixscope_telescope::{
    respond, Capture, Protocol, ScheduleActionKind, SplitSchedule, TelescopeConfig, TelescopeId,
};
use sixscope_types::{
    chunk_ranges, map_indexed, num_threads, Asn, Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp,
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

/// How the upstream treats IRR route6 objects (§3.2).
///
/// The paper's upstreams did not filter: omitting the route object for the
/// /32 "did not impair the visibility of our prefix", and creating one four
/// months in "has no noticeable effect on scanners". The strict variant is
/// the counterfactual ablation: a validating upstream only propagates
/// announcements covered by a registered route6 object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IrrPolicy {
    /// Upstreams accept everything (the paper's reality).
    #[default]
    Open,
    /// Upstreams drop announcements without a covering route6 object.
    RequireRoute6,
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Population scale (1.0 = the paper's ~36k sources / ~51M packets).
    pub scale: f64,
    /// Address plan.
    pub layout: ExperimentLayout,
    /// Upstream IRR filtering policy.
    pub irr_policy: IrrPolicy,
    /// Worker threads for generation and delivery. `None` defers to the
    /// `SIXSCOPE_THREADS` environment variable, then to
    /// [`std::thread::available_parallelism`]; `Some(1)` forces the serial
    /// path. Output is byte-identical at any setting.
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
            irr_policy: IrrPolicy::Open,
            threads: None,
        }
    }

    /// The IRR registry as the paper maintained it: T2 and the covering /29
    /// have long-standing objects; the stable companion /33 got its object
    /// four months after the first T1 announcement; nothing else of T1 was
    /// ever registered.
    pub fn paper_route6_registry(&self) -> Route6Registry {
        let mut registry = Route6Registry::new();
        let origin = Asn(64_500);
        let borrower = Asn(64_510);
        registry.register(self.layout.t2, origin, SimTime::EPOCH);
        registry.register(self.layout.covering, borrower, SimTime::EPOCH);
        let schedule = self.schedule();
        // "Four months after its first announcements, we created a route
        // object for the non-split /33 prefix."
        let four_months = self.layout.start + SimDuration::weeks(17);
        registry.register(schedule.companion(), origin, four_months);
        registry
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
    /// Delivery into telescope captures (LPM gate + encode + ingest).
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
    /// Folded visibility intervals.
    pub visibility: Visibility,
    /// The scanner population (for metadata joins — *not* used by the
    /// classifiers, which only see captures).
    pub population: Population,
    /// The hitlist model.
    pub hitlist: TumHitlist,
    /// Number of responses T4 sent.
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

/// The scanner-facing world view (implements [`ScanContext`]).
///
/// The view methods answer from pre-compiled snapshots — the epoch tries of
/// [`CompiledVisibility`] and the publication-ordered hitlist — so every
/// query is a binary search handing out a borrowed slice. The snapshots
/// reproduce the naive structures' content *and order* exactly, keeping the
/// scanners' RNG draw sequences unchanged.
struct WorldView {
    visibility: Visibility,
    compiled: CompiledVisibility,
    transitions: Vec<(SimTime, Ipv6Prefix)>,
    hitlist: TumHitlist,
    t4: Ipv6Prefix,
    end: SimTime,
}

impl ScanContext for WorldView {
    fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix] {
        self.compiled.announced_at(t)
    }
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)] {
        &self.transitions
    }
    fn hitlist(&self, t: SimTime) -> &[Ipv6Addr] {
        self.hitlist.as_of(t)
    }
    fn responds(&self, addr: Ipv6Addr) -> bool {
        self.t4.contains(addr)
    }
    fn horizon(&self) -> SimTime {
        self.end
    }
}

/// A per-scanner view over the shared [`WorldView`] that threads burst
/// cursors through the epoch/hitlist lookups: one scanner's session starts
/// are time-sorted, so each query usually advances the cursor a step
/// instead of re-running a binary search. Answers are identical to the
/// plain [`WorldView`] methods for any query sequence (the cursors fall
/// back to the search on time regressions), so the RNG draw sequence — and
/// therefore the output bytes — are unchanged.
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
            .compiled
            .announced_at_cached(t, &self.epoch_cursor)
    }
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)] {
        &self.world.transitions
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
    encoder: RunEncoder,
    buf: Vec<u8>,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario { config }
    }

    /// Runs the control plane only: executes the schedule against the BGP
    /// topology and returns the collector's events.
    ///
    /// Under [`IrrPolicy::RequireRoute6`] an announcement without a covering
    /// route6 object at announcement time is rejected at the upstream and
    /// never propagates (the counterfactual the paper's upstreams did not
    /// apply).
    pub fn run_control_plane(&self) -> Vec<RouteEvent> {
        let layout = &self.config.layout;
        let origin = Asn(64_500);
        let borrower = Asn(64_510);
        let collector = Asn(64_999);
        let registry = self.config.paper_route6_registry();
        let accepts = |prefix: &sixscope_types::Ipv6Prefix, asn: Asn, at: SimTime| match self
            .config
            .irr_policy
        {
            IrrPolicy::Open => true,
            IrrPolicy::RequireRoute6 => registry.is_registered(prefix, asn, at),
        };
        let mut topo = standard_topology(origin, borrower, collector, SimTime::EPOCH);
        // Stable announcements: T2 (13 years announced) and the covering
        // /29 that hides T3/T4.
        let lead = SimTime::EPOCH + SimDuration::hours(1);
        if accepts(&layout.t2, origin, lead) {
            topo.announce(origin, layout.t2, lead);
        }
        if accepts(&layout.covering, borrower, lead) {
            topo.announce(borrower, layout.covering, lead);
        }
        topo.run_until(lead + SimDuration::mins(10));
        // The T1 schedule.
        let schedule = self.config.schedule();
        for action in schedule.actions() {
            topo.run_until(action.at);
            match action.kind {
                ScheduleActionKind::Announce => {
                    if accepts(&action.prefix, origin, action.at) {
                        topo.announce(origin, action.prefix, action.at);
                    }
                }
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
    /// This is the fused fast path: each worker generates one scanner's
    /// probes into a columnar [`ProbeBatch`] and immediately streams the
    /// time-sorted batch through the LPM gate into per-(scanner, telescope)
    /// capture segments, which a key-sorted merge then splices back into
    /// the exact global delivery order ([`Capture::merge_time_sorted`]).
    /// Output is byte-identical to [`Scenario::run_reference_timed`] — the
    /// retained per-probe staged path — at any thread count; the
    /// equivalence is pinned by the `fused_matches_reference_path` test
    /// here and the property tests in `crates/sim/tests/`.
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
                        .compiled
                        .routed_cached(dst, ts, &lpm_cursor, &routed_hint)
                    {
                        dropped_unrouted += 1;
                        continue;
                    }
                    let Some(telescope) = self.telescope_for(&layout, dst) else {
                        continue; // routed, but not into observed space
                    };
                    if telescope == TelescopeId::T4 {
                        // T4 answers probes: its responder consumes wire
                        // bytes, so this (small) telescope keeps the
                        // encode+parse round trip.
                        fs.batch.kind(row).encode_run(
                            &mut fs.encoder,
                            fs.batch.src(row),
                            dst,
                            fs.batch.payload(row),
                            &mut fs.buf,
                        );
                        let recorded = captures[telescope as usize].ingest(ts, &fs.buf);
                        if recorded {
                            if let Ok(parsed) = ParsedView::parse(&fs.buf) {
                                if respond(&parsed).is_some() {
                                    t4_responses += 1;
                                }
                            }
                        }
                        continue;
                    }
                    // Silent telescopes only retain decoded fields, all of
                    // which the batch already holds — encoding to wire
                    // bytes and parsing them back would reproduce exactly
                    // these values (pinned by the fused-vs-reference
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
                    captures[telescope as usize].ingest_fields(
                        ts,
                        fs.batch.src(row),
                        dst,
                        protocol,
                        src_port,
                        dst_port,
                        fs.batch.payload(row),
                    );
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
        let mut captures = Self::fresh_captures(&layout);
        for (&id, segs) in TelescopeId::ALL.iter().zip(segments) {
            captures
                .get_mut(&id)
                .expect("telescope exists")
                .merge_time_sorted(segs);
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
    /// construction — the shared prologue of both run paths.
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
            compiled: CompiledVisibility::compile(&visibility),
            transitions: visibility.announce_transitions(),
            visibility,
            hitlist,
            t4: layout.t4,
            end: layout.end,
        };
        let threads = num_threads(self.config.threads);
        (layout, events, population, world, threads)
    }

    /// The retained per-probe staged path: generate everything into one
    /// `Vec<Probe>`, globally sort, then deliver in time-sharded ranges.
    /// [`Scenario::run_timed`] is pinned byte-identical to this; it stays
    /// as the equivalence oracle and the staged baseline for the
    /// `simulate` benchmark group.
    pub fn run_reference_timed(&self) -> (ExperimentResult, ScenarioTimings) {
        let stage_start = std::time::Instant::now();
        let (layout, events, population, world, threads) = self.setup();
        let setup_secs = stage_start.elapsed().as_secs_f64();
        let stage_start = std::time::Instant::now();

        // Generate probes. Each scanner gets its own RNG stream so the
        // population composition never perturbs individual behavior. The
        // streams are split from the master *serially in population order*
        // (split mutates the master), then generation fans out to workers;
        // the order-preserving merge plus the stable time sort reproduce
        // the serial probe sequence exactly.
        let mut master = Xoshiro256pp::seed_from_u64(self.config.seed ^ 0x5ca_0b0e5);
        let streams: Vec<Xoshiro256pp> = population
            .scanners
            .iter()
            .map(|spec| master.split(&format!("scanner-{}", spec.id)))
            .collect();
        let per_scanner: Vec<(Vec<Probe>, u64)> =
            map_indexed(threads, &population.scanners, |i, spec| {
                let mut rng = streams[i].clone();
                self.bounded_generate(spec, &world, &mut rng)
            });
        let total: usize = per_scanner.iter().map(|(p, _)| p.len()).sum();
        let mut probes: Vec<Probe> = Vec::with_capacity(total);
        let mut truncated_probes = 0u64;
        for (scanner_probes, truncated) in per_scanner {
            probes.extend(scanner_probes);
            truncated_probes += truncated;
        }
        probes.sort_by_key(|p| p.ts);
        let generate_secs = stage_start.elapsed().as_secs_f64();
        let stage_start = std::time::Instant::now();

        // Deliver. Shards are contiguous ranges of the time-sorted probe
        // list; each worker fills shard-local captures (reusing one encode
        // scratch buffer), and absorbing them in shard order restores the
        // exact serial capture sequence.
        let ranges = chunk_ranges(probes.len(), threads);
        let shard_results = map_indexed(threads, &ranges, |_, range| {
            let mut captures = Self::fresh_captures(&layout);
            let mut buf: Vec<u8> = Vec::with_capacity(256);
            let mut t4_responses = 0u64;
            let mut dropped_unrouted = 0u64;
            for probe in &probes[range.clone()] {
                // The DFZ test: is the destination covered by a visible
                // prefix at send time? (Propagation delay for the data path
                // is negligible at our one-second resolution.)
                if world.compiled.lpm(probe.dst, probe.ts).is_none() {
                    dropped_unrouted += 1;
                    continue;
                }
                let Some(telescope) = self.telescope_for(&layout, probe.dst) else {
                    continue; // routed, but not into observed space
                };
                probe.encode_into(&mut buf);
                let capture = captures.get_mut(&telescope).expect("telescope exists");
                let recorded = capture.ingest(probe.ts, &buf);
                if recorded && telescope == TelescopeId::T4 {
                    if let Ok(parsed) = ParsedView::parse(&buf) {
                        if respond(&parsed).is_some() {
                            t4_responses += 1;
                        }
                    }
                }
            }
            (captures, t4_responses, dropped_unrouted)
        });
        let mut captures = Self::fresh_captures(&layout);
        let mut t4_responses = 0u64;
        let mut dropped_unrouted = 0u64;
        for (shard_captures, shard_t4, shard_dropped) in shard_results {
            for (id, capture) in shard_captures {
                captures
                    .get_mut(&id)
                    .expect("telescope exists")
                    .absorb(capture);
            }
            t4_responses += shard_t4;
            dropped_unrouted += shard_dropped;
        }

        let deliver_secs = stage_start.elapsed().as_secs_f64();

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

    /// One empty capture per telescope.
    fn fresh_captures(layout: &ExperimentLayout) -> BTreeMap<TelescopeId, Capture> {
        let mut captures = BTreeMap::new();
        captures.insert(
            TelescopeId::T1,
            Capture::new(TelescopeConfig::t1(layout.t1)),
        );
        captures.insert(
            TelescopeId::T2,
            Capture::new(TelescopeConfig::t2(layout.t2)),
        );
        captures.insert(
            TelescopeId::T3,
            Capture::new(TelescopeConfig::t3(layout.t3)),
        );
        captures.insert(
            TelescopeId::T4,
            Capture::new(TelescopeConfig::t4(layout.t4)),
        );
        captures
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

    /// Generates a scanner's probes with a safety cap so a mis-scaled spec
    /// cannot exhaust memory. Returns the probes plus how many the cap
    /// discarded (surfaced as [`ExperimentResult::truncated_probes`]).
    fn bounded_generate(
        &self,
        spec: &ScannerSpec,
        world: &WorldView,
        rng: &mut Xoshiro256pp,
    ) -> (Vec<Probe>, u64) {
        let mut probes = spec.generate(world, rng);
        let truncated = probes.len().saturating_sub(GENERATION_CAP) as u64;
        if truncated > 0 {
            probes.truncate(GENERATION_CAP);
        }
        (probes, truncated)
    }
}

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
        let schedule = config.schedule();
        // During the baseline the /32 is visible.
        let mid_baseline = schedule.cycle_start(0) + SimDuration::weeks(5);
        assert!(vis.visible(&config.layout.t1, mid_baseline));
        // Mid cycle 1 the two /33s are visible, the /32 is not.
        let mid_c1 = schedule.cycle_start(1) + SimDuration::days(5);
        assert!(!vis.visible(&config.layout.t1, mid_c1));
        for prefix in schedule.announced_set(1) {
            assert!(
                vis.visible(&prefix, mid_c1),
                "{prefix} not visible in cycle 1"
            );
        }
        // Mid final cycle all 17 prefixes are visible.
        let mid_final = schedule.cycle_start(16) + SimDuration::days(5);
        for prefixix in schedule.announced_set(16) {
            assert!(vis.visible(&prefixix, mid_final));
        }
        // T2 and the covering /29 are visible throughout.
        assert!(vis.visible(&config.layout.t2, mid_c1));
        assert!(vis.visible(&config.layout.covering, mid_c1));
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
        assert!(result.t4_responses <= result.capture(TelescopeId::T4).len() as u64);
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
        let config = ScenarioConfig::new(42, 0.004);
        let (fused, _) = Scenario::new(config.clone()).run_timed();
        let (reference, _) = Scenario::new(config).run_reference_timed();
        for id in TelescopeId::ALL {
            assert_eq!(
                fused.capture(id).packets(),
                reference.capture(id).packets(),
                "{id:?} diverged from the staged reference"
            );
            assert_eq!(
                fused.capture(id).filtered(),
                reference.capture(id).filtered()
            );
        }
        assert_eq!(fused.t4_responses, reference.t4_responses);
        assert_eq!(fused.dropped_unrouted, reference.dropped_unrouted);
        assert_eq!(fused.truncated_probes, reference.truncated_probes);
    }

    #[test]
    fn route6_registry_matches_paper_timeline() {
        let config = ScenarioConfig::new(1, 0.004);
        let registry = config.paper_route6_registry();
        let companion = config.schedule().companion();
        let origin = sixscope_types::Asn(64_500);
        // Not registered during the baseline...
        assert!(!registry.is_registered(&companion, origin, config.layout.start));
        // ...registered from four months in.
        let later = config.layout.start + SimDuration::weeks(18);
        assert!(registry.is_registered(&companion, origin, later));
        // T2 and the covering /29 were always registered.
        assert!(registry.is_registered(&config.layout.t2, origin, SimTime::EPOCH));
    }

    #[test]
    fn validating_upstream_filters_unregistered_prefixes() {
        let mut config = ScenarioConfig::new(2, 0.004);
        config.irr_policy = IrrPolicy::RequireRoute6;
        let events = Scenario::new(config.clone()).run_control_plane();
        let vis = Visibility::from_events(&events);
        let schedule = config.schedule();
        // The covering /32 was never registered: invisible all baseline.
        let mid_baseline = config.layout.start + SimDuration::weeks(5);
        assert!(!vis.visible(&config.layout.t1, mid_baseline));
        // T2 and the covering /29 propagate (long-standing objects).
        assert!(vis.visible(&config.layout.t2, mid_baseline));
        assert!(vis.visible(&config.layout.covering, mid_baseline));
        // The companion /33 becomes visible only after its object exists
        // (first re-announcement after the four-month mark: cycle 3+).
        let companion = schedule.companion();
        let mid_c1 = schedule.cycle_start(1) + SimDuration::days(5);
        assert!(!vis.visible(&companion, mid_c1), "object not yet created");
        let mid_c16 = schedule.cycle_start(16) + SimDuration::days(5);
        assert!(
            vis.visible(&companion, mid_c16),
            "object exists, must propagate"
        );
        // The split-side prefixes were never registered: never visible.
        let split_side = schedule.split_side();
        assert!(!vis.visible(&split_side, mid_c1));
    }

    #[test]
    fn hitlist_contains_t1_after_lag() {
        let result = tiny();
        let published = result
            .hitlist
            .published_at(result.layout.t1.low_byte_address())
            .expect("T1 low-byte published");
        let first = result
            .visibility
            .first_seen(&result.layout.t1)
            .expect("T1 was announced");
        assert_eq!(published, first + crate::world::PUBLICATION_LAG);
    }
}
