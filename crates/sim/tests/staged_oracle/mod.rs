//! The staged experiment, restated serially as the oracle for the fused
//! engine (`Scenario::run_timed`): generate every scanner's probes, stably
//! sort them all by time, then deliver them one by one through the DFZ
//! gate into the telescope captures, encoding each probe to wire bytes.
//!
//! Test-only. It is shared by the `scenario` unit tests
//! (`src/scenario.rs`) and `tests/tests/parallel_determinism.rs`; each
//! includer brings `ExperimentResult`, `Scenario`, `ScenarioConfig`,
//! `TumHitlist` and `Visibility` from `sixscope_sim` into the parent
//! scope, so this file names them through `super`.

use super::{ExperimentResult, Scenario, ScenarioConfig, TumHitlist, Visibility};
use sixscope_packet::ParsedView;
use sixscope_scanners::{PopulationSpec, Probe, ScanContext};
use sixscope_telescope::{respond, Capture, TelescopeConfig, TelescopeId};
use sixscope_types::{Ipv6Prefix, SimTime, Xoshiro256pp};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// What the staged run delivered.
pub struct Staged {
    /// Per-telescope captures.
    pub captures: BTreeMap<TelescopeId, Capture>,
    /// Responses T4 sent.
    pub t4_responses: u64,
    /// Probes toward unrouted space.
    pub dropped_unrouted: u64,
}

/// The scanners' world, answered by uncached lookups.
struct World {
    visibility: Visibility,
    hitlist: TumHitlist,
    t4: Ipv6Prefix,
    end: SimTime,
}

impl ScanContext for World {
    fn announced_at(&self, t: SimTime) -> &[Ipv6Prefix] {
        self.visibility.announced_at(t)
    }
    fn announce_events(&self) -> &[(SimTime, Ipv6Prefix)] {
        self.visibility.announce_transitions()
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

/// Runs the experiment of `config` the staged way, on one thread. It has
/// no generation cap.
pub fn run(config: &ScenarioConfig) -> Staged {
    let layout = &config.layout;
    let events = Scenario::new(config.clone()).run_control_plane();
    let visibility = Visibility::from_events(&events);
    let world = World {
        hitlist: TumHitlist::build(
            &[layout.t2_dns_exposed, layout.covering.low_byte_address()],
            &visibility,
        ),
        visibility,
        t4: layout.t4,
        end: layout.end,
    };
    let population = PopulationSpec {
        seed: config.seed,
        scale: config.scale,
    }
    .build(layout);

    // One RNG stream per scanner, split from the master in population
    // order; equal send times keep population, then emission, order.
    let mut master = Xoshiro256pp::seed_from_u64(config.seed ^ 0x5ca_0b0e5);
    let mut probes: Vec<Probe> = Vec::new();
    for spec in &population.scanners {
        let mut rng = master.split(&format!("scanner-{}", spec.id));
        probes.extend(spec.generate(&world, &mut rng));
    }
    probes.sort_by_key(|p| p.ts);

    let mut captures: BTreeMap<TelescopeId, Capture> = [
        TelescopeConfig::t1(layout.t1),
        TelescopeConfig::t2(layout.t2),
        TelescopeConfig::t3(layout.t3),
        TelescopeConfig::t4(layout.t4),
    ]
    .into_iter()
    .map(|telescope| (telescope.id, Capture::new(telescope)))
    .collect();
    let mut t4_responses = 0;
    let mut dropped_unrouted = 0;
    let mut buf = Vec::new();
    for probe in &probes {
        if world.visibility.lpm(probe.dst, probe.ts).is_none() {
            dropped_unrouted += 1;
            continue;
        }
        let Some(capture) = captures
            .values_mut()
            .find(|c| c.config().prefix.contains(probe.dst))
        else {
            continue; // routed, but not into observed space
        };
        probe.encode_into(&mut buf);
        let recorded = capture.ingest(probe.ts, &buf);
        if recorded && capture.config().id == TelescopeId::T4 {
            if let Ok(parsed) = ParsedView::parse(&buf) {
                if respond(&parsed).is_some() {
                    t4_responses += 1;
                }
            }
        }
    }
    Staged {
        captures,
        t4_responses,
        dropped_unrouted,
    }
}

/// Asserts that `fused` equals `staged` in every capture and counter, and
/// that the fused run truncated nothing (the oracle never does).
pub fn assert_same(fused: &ExperimentResult, staged: &Staged, label: &str) {
    for (&id, capture) in &staged.captures {
        let (got, want) = (fused.capture(id).packets(), capture.packets());
        if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            panic!(
                "{id:?} capture diverged from the staged oracle ({label}) at packet {i} \
                 of {}/{}: fused {:?}, staged {:?}",
                got.len(),
                want.len(),
                got.get(i),
                want.get(i)
            );
        }
        let got = fused.capture(id);
        assert_eq!(
            got.filtered(),
            capture.filtered(),
            "{id:?} filtered ({label})"
        );
        assert_eq!(
            got.malformed(),
            capture.malformed(),
            "{id:?} malformed ({label})"
        );
    }
    assert_eq!(
        fused.t4_responses, staged.t4_responses,
        "T4 responses ({label})"
    );
    assert_eq!(
        fused.dropped_unrouted, staged.dropped_unrouted,
        "unrouted drops ({label})"
    );
    assert_eq!(
        fused.truncated_probes, 0,
        "the fused run truncated ({label})"
    );
}
