//! The per-probe scanner generator, restated over the public per-axis
//! functions as the oracle for the batched generator
//! (`ScannerSpec::generate_into`): session starts, reactive triggers,
//! network and address selection, TGA follow-ups, then one probe per
//! target with a fresh `Vec` for every intermediate and payload.
//!
//! Test-only. It is shared by the `scanner` unit tests (`src/scanner.rs`)
//! and `tests/prop.rs`; each includer brings `AddressStrategy`,
//! `NetworkStrategy`, `Probe`, `ProbeKind`, `ProbeKindTemplate`,
//! `ScanContext`, `ScannerSpec` and `SourceModel` into the parent scope, so
//! this file names them through `super`.

use super::{
    AddressStrategy, NetworkStrategy, Probe, ProbeKind, ProbeKindTemplate, ScanContext,
    ScannerSpec, SourceModel,
};
use sixscope_types::{Ipv6Prefix, SimDuration, SimTime, Xoshiro256pp};
use std::net::Ipv6Addr;

/// Every probe `spec` sends, stably sorted by time.
pub fn generate(spec: &ScannerSpec, ctx: &dyn ScanContext, rng: &mut Xoshiro256pp) -> Vec<Probe> {
    let mut starts = spec.temporal.session_starts(rng);
    if let Some(reactive) = &spec.reactive {
        for (ts, _prefix) in ctx.announce_events() {
            if rng.bool(reactive.probability) {
                starts.push(*ts + reactive.delay);
            }
        }
    }
    starts.retain(|t| *t < ctx.horizon());
    starts.sort_unstable();
    let mut probes = Vec::new();
    let mut probe_counter: u64 = 0;
    for start in starts {
        emit_session(spec, ctx, rng, start, &mut probe_counter, &mut probes);
    }
    probes.sort_by_key(|p| p.ts);
    probes
}

fn emit_session(
    spec: &ScannerSpec,
    ctx: &dyn ScanContext,
    rng: &mut Xoshiro256pp,
    start: SimTime,
    probe_counter: &mut u64,
    out: &mut Vec<Probe>,
) {
    let mut targets: Vec<Ipv6Addr> = Vec::new();
    match &spec.network {
        NetworkStrategy::FixedTargets(addrs) => {
            for _ in 0..spec.packets_per_prefix.max(1) {
                targets.extend_from_slice(addrs);
            }
        }
        strategy => {
            let announced = ctx.announced_at(start);
            let hitlist = ctx.hitlist(start);
            for prefix in strategy.select(announced, rng) {
                targets.extend(spec.address.generate(
                    prefix,
                    spec.packets_per_prefix,
                    rng,
                    hitlist,
                ));
            }
        }
    }
    if targets.is_empty() {
        return;
    }
    // Dynamic-TGA feedback: dense low-byte probing of up to eight
    // responsive /48s.
    if let Some(followups) = spec.tga_followups {
        let mut regions: Vec<Ipv6Prefix> = targets
            .iter()
            .filter(|&&t| ctx.responds(t))
            .map(|&t| Ipv6Prefix::new(t, 48).expect("48 is valid"))
            .collect();
        regions.sort();
        regions.dedup();
        for region in regions.into_iter().take(8) {
            targets.extend(AddressStrategy::LowByte { max: followups }.generate(
                region,
                followups,
                rng,
                &[],
            ));
        }
    }
    let mean_gap = (1.0 / spec.pps.max(1e-6)).min(1800.0);
    let mut t = start;
    let session_src = current_src(spec, rng);
    for dst in targets {
        let src = match &spec.source {
            SourceModel::RotatingIid {
                per_probe: true, ..
            } => current_src(spec, rng),
            _ => session_src,
        };
        let n = *probe_counter;
        *probe_counter += 1;
        let payload = spec.tool.payload.bytes(n, rng);
        let kind = make_kind(spec, n, rng);
        out.push(Probe {
            ts: t,
            src,
            dst,
            kind,
            payload,
        });
        let gap = rng.exponential(1.0 / mean_gap.max(1e-9)).min(3000.0);
        t += SimDuration::secs(gap.max(0.0) as u64);
    }
}

/// The session's (or, rotating per probe, the probe's) source address
/// (`ScannerSpec::current_src`, restated).
fn current_src(spec: &ScannerSpec, rng: &mut Xoshiro256pp) -> Ipv6Addr {
    match &spec.source {
        SourceModel::Fixed(addr) => *addr,
        SourceModel::RotatingIid { subnet, .. } => {
            Ipv6Addr::from(subnet.bits() | rng.next_u64() as u128)
        }
    }
}

/// Probe `n`'s transport: an ephemeral port draw, the protocol-mix draw,
/// then the template's fields (`ScannerSpec::make_kind_with`, restated).
fn make_kind(spec: &ScannerSpec, n: u64, rng: &mut Xoshiro256pp) -> ProbeKind {
    let ephemeral = 32_768 + (rng.next_u32() % 28_000) as u16;
    match spec.tool.mix.draw(rng) {
        ProbeKindTemplate::Icmp => ProbeKind::Icmp {
            ident: (spec.id & 0xffff) as u16,
            seq: (n & 0xffff) as u16,
        },
        ProbeKindTemplate::TcpPorts(ports) => ProbeKind::Tcp {
            src_port: ephemeral,
            dst_port: ports[(n % ports.len() as u64) as usize],
            seq: rng.next_u32(),
        },
        ProbeKindTemplate::UdpPorts(ports) => ProbeKind::Udp {
            src_port: ephemeral,
            dst_port: ports[(n % ports.len() as u64) as usize],
        },
        ProbeKindTemplate::UdpTraceroute => ProbeKind::Udp {
            src_port: ephemeral,
            dst_port: 33434 + (n % 90) as u16,
        },
    }
}
