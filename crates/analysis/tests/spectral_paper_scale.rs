//! The spectral test at paper scale: a 2^29-bit sequence, the transform
//! length of the longest IID train a heavy hitter sends at scale 1.0, on
//! two workers, within 256 MiB of heap beyond its packed input.
//!
//! Ignored in the default test run, since it wants a release build; run it
//! with
//! `cargo test --release -p sixscope-analysis --test spectral_paper_scale -- --ignored`.
//! It is its own test binary because it counts every heap byte through a
//! global allocator.

use sixscope_analysis::nist::{BitSequence, SpectralCount, Twiddles};
use sixscope_types::map_indexed;
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

const MIB: usize = 1 << 20;

/// One period of a square wave over `n = 2^29` bits: `n/2` ones, then
/// `n/2` zeros. As ±1 samples its even bins are 0 and its odd bins have
/// `|X_k| = 2 / sin(πk/n)`, so `N1 = n/4 + #{odd k < n/2 : sin(πk/n) > 2/T}`.
#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn square_wave_of_2_29_bits_on_two_workers_within_256_mib() {
    let n = 1usize << 29;
    let mut seq = BitSequence::new();
    for word in 0..n / 64 {
        seq.push_bits(if word < n / 128 { u64::MAX.into() } else { 0 }, 64);
    }
    let t = ((1.0 / 0.05f64).ln() * n as f64).sqrt();
    // Odd k ≤ k* have |X_k| ≥ T; no odd k is within rounding of k*.
    let k_star = n as f64 / std::f64::consts::PI * (2.0 / t).asin();
    let nearest_odd = 2.0 * ((k_star - 1.0) / 2.0).round() + 1.0;
    assert!((k_star - nearest_odd).abs() > 1e-6, "k* = {k_star}");
    let above = (k_star.floor() as usize).div_ceil(2);
    let want = n / 2 - above;

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let twiddles = Twiddles::new();
    let cols = seq.spectral_columns().expect("2^29 bits");
    let blocks: Vec<_> = cols.class_blocks().collect();
    assert!(blocks.len() > 2, "{} class jobs", blocks.len());
    let mut count = SpectralCount::default();
    for c in map_indexed(2, &blocks, |_, block| cols.count(block.clone(), &twiddles)) {
        count += c;
    }
    let peak = PEAK.load(Relaxed) - base;
    drop((cols, twiddles));

    assert_eq!(count.undecided, 0, "{count:?}");
    assert_eq!(
        count.below, want,
        "{count:?}; {above} odd bins at or above T"
    );
    assert!(
        peak <= 256 * MIB,
        "peak heap {} MiB beyond the {} MiB input",
        peak / MIB,
        seq.words().len() * 8 / MIB
    );
    println!(
        "N1 = {} (rechecked {}), peak heap {} MiB beyond the input",
        count.below,
        count.rechecked,
        peak / MIB
    );
}
