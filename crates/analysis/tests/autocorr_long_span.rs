//! Period detection over long observation spans: the cost follows the
//! session count, not the span. Three starts over 127 years, and 60
//! irregular ones over 2^32 s (every timestamp a pcap can carry), each
//! decided within 64 KiB of heap.
//!
//! It is its own test binary because it counts every heap byte through a
//! global allocator.

use sixscope_analysis::autocorr::PeriodDetector;
use sixscope_types::{SimTime, Xoshiro256pp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live heap bytes and their high-water
/// mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The heap a `detect` call may grow by.
const LIMIT: usize = 64 << 10;

/// 60 starts at random seconds of `[0, 2^32)`. Their gaps are irregular,
/// so the inter-arrival fast path declines them (checked below) and the
/// ACF decides, over about 1.19 M hourly buckets.
fn irregular_train() -> Vec<SimTime> {
    let mut rng = Xoshiro256pp::seed_from_u64(60);
    let mut secs: Vec<u64> = (0..60).map(|_| rng.below(1 << 32)).collect();
    secs.sort_unstable();
    // The fast path's rule: at least 70 % of the gaps within 20 % of a
    // multiple of the median gap.
    let gaps: Vec<f64> = secs.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mut sorted = gaps.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let consistent = gaps
        .iter()
        .filter(|&&g| (g - (g / median).round().max(1.0) * median).abs() <= 0.2 * median)
        .count();
    assert!(
        consistent * 10 < gaps.len() * 7,
        "{consistent} of {} gaps fit the median",
        gaps.len()
    );
    secs.into_iter().map(SimTime::from_secs).collect()
}

#[test]
fn long_span_trains_are_decided_without_span_sized_memory() {
    let det = PeriodDetector::default();
    let trains = [
        [0, 1_000_000_000, 4_000_000_000]
            .map(SimTime::from_secs)
            .to_vec(),
        irregular_train(),
    ];
    for starts in &trains {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let period = det.detect(starts);
        let peak = PEAK.load(Relaxed) - base;
        assert_eq!(period, None, "{} starts", starts.len());
        assert!(
            peak < LIMIT,
            "{} starts: peak heap {peak} B, limit {LIMIT} B",
            starts.len()
        );
    }
}
