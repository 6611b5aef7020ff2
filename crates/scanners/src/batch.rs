//! Columnar probe storage for the batched generation path.
//!
//! [`ProbeBatch`] holds one scanner burst as structure-of-arrays columns —
//! timestamps, sources, destinations, transport kinds — plus a bump arena
//! for payload bytes (the `types::intern` idiom: offsets into one backing
//! `Vec<u8>`). Sorting a burst permutes a `u32` index column instead of
//! moving 80-byte probe structs, and clearing a batch between scanners
//! retains every allocation, so a warmed-up shard emits with zero heap
//! traffic.

use crate::scanner::{Probe, ProbeKind};
use sixscope_types::{Ipv6Prefix, SimTime};
use std::net::Ipv6Addr;

/// A columnar batch of probes from one scanner.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    ts: Vec<SimTime>,
    src: Vec<Ipv6Addr>,
    dst: Vec<Ipv6Addr>,
    kind: Vec<ProbeKind>,
    /// Exclusive end offset of each row's payload in `arena`; the start is
    /// the previous row's end (or 0).
    payload_end: Vec<u32>,
    arena: Vec<u8>,
    /// Time-sorted row permutation, valid after [`ProbeBatch::sort_by_ts`].
    order: Vec<u32>,
    /// Packed sort-key scratch for [`ProbeBatch::sort_by_ts`].
    keys: Vec<u64>,
}

impl ProbeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all columns but keeps their allocations.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.src.clear();
        self.dst.clear();
        self.kind.clear();
        self.payload_end.clear();
        self.arena.clear();
        self.order.clear();
    }

    /// Number of probes in the batch.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the batch holds no probes.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The payload arena, to append the next row's payload bytes into
    /// before [`ProbeBatch::push`] seals the row.
    pub fn payload_arena(&mut self) -> &mut Vec<u8> {
        &mut self.arena
    }

    /// Seals a row: the payload is whatever was appended to
    /// [`ProbeBatch::payload_arena`] since the previous push.
    pub fn push(&mut self, ts: SimTime, src: Ipv6Addr, dst: Ipv6Addr, kind: ProbeKind) {
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "probe payload arena exceeds u32 offsets"
        );
        self.ts.push(ts);
        self.src.push(src);
        self.dst.push(dst);
        self.kind.push(kind);
        self.payload_end.push(self.arena.len() as u32);
    }

    /// Row accessors.
    pub fn ts(&self, row: usize) -> SimTime {
        self.ts[row]
    }

    /// Source address of `row`.
    pub fn src(&self, row: usize) -> Ipv6Addr {
        self.src[row]
    }

    /// Destination address of `row`.
    pub fn dst(&self, row: usize) -> Ipv6Addr {
        self.dst[row]
    }

    /// Transport kind of `row`.
    pub fn kind(&self, row: usize) -> ProbeKind {
        self.kind[row]
    }

    /// Payload bytes of `row`.
    pub fn payload(&self, row: usize) -> &[u8] {
        let start = if row == 0 {
            0
        } else {
            self.payload_end[row - 1] as usize
        };
        &self.arena[start..self.payload_end[row] as usize]
    }

    /// Materializes `row` as an owned [`Probe`] (for
    /// [`crate::ScannerSpec::generate`]).
    pub fn probe(&self, row: usize) -> Probe {
        Probe {
            ts: self.ts(row),
            src: self.src(row),
            dst: self.dst(row),
            kind: self.kind(row),
            payload: self.payload(row).to_vec(),
        }
    }

    /// Computes the time-sorted row order (stable: the order a
    /// `sort_by_key` over emission order gives). Ties break by row index,
    /// which makes an unstable sort's result identical to a stable sort —
    /// without the stable sort's temp-buffer allocation. When timestamp
    /// and row index pack into one u64 (always, unless a run simulates
    /// ~70k years or a scanner exceeds 2²² probes) the sort compares
    /// single words from a reused scratch column.
    pub fn sort_by_ts(&mut self) {
        self.order.clear();
        let n = self.ts.len();
        let max_ts = self.ts.iter().map(|t| t.as_secs()).max().unwrap_or(0);
        if max_ts < (1 << 42) && n <= (1 << 22) {
            self.keys.clear();
            self.keys.extend(
                self.ts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.as_secs() << 22) | i as u64),
            );
            self.keys.sort_unstable();
            self.order
                .extend(self.keys.iter().map(|&k| (k & 0x3f_ffff) as u32));
        } else {
            self.order.extend(0..n as u32);
            let ts = &self.ts;
            self.order.sort_unstable_by_key(|&i| (ts[i as usize], i));
        }
    }

    /// Drops all but the first `cap` rows of the sorted order, returning how
    /// many were cut. Requires [`ProbeBatch::sort_by_ts`] first.
    pub fn truncate_sorted(&mut self, cap: usize) -> u64 {
        if self.order.len() <= cap {
            return 0;
        }
        let cut = self.order.len() - cap;
        self.order.truncate(cap);
        cut as u64
    }

    /// The time-sorted row permutation. Empty until
    /// [`ProbeBatch::sort_by_ts`] runs.
    pub fn sorted(&self) -> &[u32] {
        &self.order
    }
}

/// Reusable per-shard scratch for [`crate::ScannerSpec::generate_into`]:
/// every intermediate vector a burst needs, allocated once per shard and
/// recycled across scanners.
#[derive(Debug, Clone, Default)]
pub struct GenScratch {
    /// Session start times.
    pub(crate) starts: Vec<SimTime>,
    /// Selected prefixes of the current session.
    pub(crate) prefixes: Vec<Ipv6Prefix>,
    /// Network-selection weight column.
    pub(crate) weights: Vec<f64>,
    /// Protocol-mix weight column.
    pub(crate) mix_weights: Vec<f64>,
    /// Resolved targets of the current session.
    pub(crate) targets: Vec<Ipv6Addr>,
    /// Hitlist-inside-prefix filter buffer.
    pub(crate) inside: Vec<Ipv6Addr>,
    /// Responsive /48 regions for TGA follow-ups.
    pub(crate) regions: Vec<Ipv6Prefix>,
}

impl GenScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let mut b = ProbeBatch::new();
        b.payload_arena().extend_from_slice(b"first");
        b.push(
            SimTime::from_secs(5),
            addr("2001:db8::1"),
            addr("2001:db8::2"),
            ProbeKind::Icmp { ident: 7, seq: 1 },
        );
        // Empty payload row.
        b.push(
            SimTime::from_secs(3),
            addr("2001:db8::3"),
            addr("2001:db8::4"),
            ProbeKind::Udp {
                src_port: 4000,
                dst_port: 33434,
            },
        );
        b.payload_arena().extend_from_slice(b"third");
        b.push(
            SimTime::from_secs(9),
            addr("2001:db8::5"),
            addr("2001:db8::6"),
            ProbeKind::Tcp {
                src_port: 4001,
                dst_port: 443,
                seq: 12,
            },
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload(0), b"first");
        assert_eq!(b.payload(1), b"");
        assert_eq!(b.payload(2), b"third");
        let p = b.probe(2);
        assert_eq!(p.ts, SimTime::from_secs(9));
        assert_eq!(p.payload, b"third");
    }

    #[test]
    fn sort_is_stable_on_equal_timestamps() {
        let mut b = ProbeBatch::new();
        for (i, secs) in [4u64, 2, 2, 1].iter().enumerate() {
            b.push(
                SimTime::from_secs(*secs),
                addr("2001:db8::1"),
                addr("2001:db8::2"),
                ProbeKind::Icmp {
                    ident: i as u16,
                    seq: 0,
                },
            );
        }
        b.sort_by_ts();
        assert_eq!(b.sorted(), &[3, 1, 2, 0], "equal ts keep emission order");
    }

    #[test]
    fn truncate_sorted_cuts_the_tail() {
        let mut b = ProbeBatch::new();
        for secs in [3u64, 1, 2] {
            b.push(
                SimTime::from_secs(secs),
                addr("2001:db8::1"),
                addr("2001:db8::2"),
                ProbeKind::Icmp { ident: 0, seq: 0 },
            );
        }
        b.sort_by_ts();
        assert_eq!(b.truncate_sorted(5), 0);
        assert_eq!(b.truncate_sorted(2), 1);
        assert_eq!(b.sorted(), &[1, 2]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = ProbeBatch::new();
        b.payload_arena().extend_from_slice(&[0u8; 1024]);
        b.push(
            SimTime::EPOCH,
            addr("::1"),
            addr("::2"),
            ProbeKind::Icmp { ident: 0, seq: 0 },
        );
        let cap = b.payload_arena().capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.payload_arena().capacity(), cap);
    }
}
