//! The lockstep oracle for [`SliceReader`]: a recovering pcap walk over any
//! `std::io::Read`, written independently of the reader it checks.
//!
//! Test-only. It is shared by the pcap unit tests (`src/pcap.rs`) and the
//! mutation harness (`tests/mutation.rs`); each includer brings the reader's
//! public types into the parent scope, so this file names them through
//! `super`.
//!
//! [`SliceReader`]: super::SliceReader

use super::{MalformedRecord, PcapRecord, SimTime, ViewOutcome, MAX_RECORD_LEN};
use std::io::{ErrorKind, Read};

/// One step of a recovering walk, owned.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    Record(PcapRecord),
    Skipped(MalformedRecord),
    TruncatedTail(MalformedRecord),
}

impl From<ViewOutcome<'_>> for Outcome {
    fn from(view: ViewOutcome<'_>) -> Outcome {
        match view {
            ViewOutcome::Record(rec) => Outcome::Record(rec.to_owned()),
            ViewOutcome::Skipped(m) => Outcome::Skipped(m),
            ViewOutcome::TruncatedTail(m) => Outcome::TruncatedTail(m),
        }
    }
}

const MAGIC_US: u32 = 0xa1b2_c3d4;
pub const MAGIC_NS: u32 = 0xa1b2_3c4d;
pub const LINKTYPE_RAW: u32 = 101;

/// The lockstep oracle: a recovering pcap walk over any `Read`, written
/// independently of [`SliceReader`]. It copies every record header and
/// body out of the stream, and skips a damaged record by discarding its
/// advertised bytes through a bounded buffer instead of moving a cursor.
pub struct Oracle<R: Read> {
    input: R,
    swapped: bool,
    nanos: bool,
    snaplen: u32,
    exhausted: bool,
}

impl<R: Read> Oracle<R> {
    /// Reads the 24-byte global header; `None` when the file is rejected.
    pub fn new(mut input: R) -> Option<Self> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr).ok()?;
        let (swapped, nanos) = match u32::from_le_bytes(hdr[0..4].try_into().unwrap()) {
            MAGIC_US => (false, false),
            MAGIC_NS => (false, true),
            m if m.swap_bytes() == MAGIC_US => (true, false),
            m if m.swap_bytes() == MAGIC_NS => (true, true),
            _ => return None,
        };
        let mut oracle = Oracle {
            input,
            swapped,
            nanos,
            snaplen: 0,
            exhausted: false,
        };
        if oracle.field(&hdr, 20) != LINKTYPE_RAW {
            return None;
        }
        oracle.snaplen = oracle.field(&hdr, 16);
        Some(oracle)
    }

    fn field(&self, bytes: &[u8], at: usize) -> u32 {
        let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// Fills `buf` as far as the input allows; returns the bytes read.
    fn read_fully(&mut self, buf: &mut [u8]) -> usize {
        let mut filled = 0;
        while filled < buf.len() {
            match self.input.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("in-memory reads cannot fail: {e}"),
            }
        }
        filled
    }

    /// The next outcome, or `None` at end of file.
    pub fn next(&mut self) -> Option<Outcome> {
        if self.exhausted {
            return None;
        }
        let mut hdr = [0u8; 16];
        let have = self.read_fully(&mut hdr);
        if have == 0 {
            return None;
        }
        if have < hdr.len() {
            return Some(self.tail(MalformedRecord::TruncatedHeader { have }));
        }
        let [ts_sec, ts_frac, incl_len, orig_len] = [0, 4, 8, 12].map(|at| self.field(&hdr, at));
        let damage = if self.snaplen != 0 && incl_len > self.snaplen {
            Some(MalformedRecord::SnaplenExceeded {
                incl_len,
                snaplen: self.snaplen,
            })
        } else if incl_len > MAX_RECORD_LEN {
            Some(MalformedRecord::CapExceeded { incl_len })
        } else if incl_len > orig_len {
            Some(MalformedRecord::LengthInconsistent { incl_len, orig_len })
        } else {
            None
        };
        if let Some(m) = damage {
            return Some(if self.discard(incl_len.into()) {
                Outcome::Skipped(m)
            } else {
                self.tail(m)
            });
        }
        let mut data = vec![0u8; incl_len as usize];
        let have = self.read_fully(&mut data);
        if have < data.len() {
            let need = data.len();
            return Some(self.tail(MalformedRecord::TruncatedBody { need, have }));
        }
        Some(Outcome::Record(PcapRecord {
            ts: SimTime::from_secs(ts_sec.into()),
            ts_micros: if self.nanos { ts_frac / 1000 } else { ts_frac },
            data,
        }))
    }

    /// Ends the walk with a truncated tail.
    fn tail(&mut self, m: MalformedRecord) -> Outcome {
        self.exhausted = true;
        Outcome::TruncatedTail(m)
    }

    /// Discards `n` bytes through a bounded scratch buffer. Returns `false`
    /// if the input ended first.
    fn discard(&mut self, mut n: u64) -> bool {
        let mut scratch = [0u8; 8192];
        while n > 0 {
            let want = scratch.len().min(usize::try_from(n).unwrap_or(usize::MAX));
            let got = self.read_fully(&mut scratch[..want]);
            if got == 0 {
                return false;
            }
            n -= got as u64;
        }
        true
    }
}
