//! Deterministic fork-join helpers for the parallel execution engine.
//!
//! The simulation's reproducibility contract is *byte-identical output at
//! any thread count* (DESIGN.md §6). These helpers make that easy to uphold:
//! [`map_indexed`] is an order-preserving parallel map — workers pull items
//! off a shared counter (so uneven per-item cost balances automatically) but
//! results are returned in input order, exactly as a serial `map` would
//! produce them. All parallelism in sixscope funnels through here, and
//! `threads == 1` degrades to a plain serial loop with no thread spawned.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SIXSCOPE_THREADS";

/// Largest worker-thread count [`num_threads`] returns. Work is split by
/// the thread count (`chunk_ranges(sessions, threads)` in the index build,
/// `chunk_ranges(probes, threads)` in the simulator) and [`map_indexed`]
/// starts one OS thread per worker, so an unbounded count would start one
/// thread per session or probe shard.
pub const MAX_THREADS: usize = 256;

/// Resolves the worker-thread count.
///
/// Priority: an explicit `requested` value, then the `SIXSCOPE_THREADS`
/// environment variable (ignored unless it parses as a count of at least
/// 1), then [`std::thread::available_parallelism`]. Whichever source wins,
/// the result is clamped to `1..=`[`MAX_THREADS`]; 1 means "run serially".
pub fn num_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            let n: usize = std::env::var(THREADS_ENV).ok()?.trim().parse().ok()?;
            (n >= 1).then_some(n)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, MAX_THREADS)
}

/// Order-preserving parallel map: returns `f(0, &items[0]), f(1, &items[1]),
/// …` in input order regardless of which worker computed what.
///
/// Work distribution is dynamic (a shared atomic cursor), so wildly uneven
/// per-item cost — a heavy-hitter scanner next to a one-off — still keeps
/// every worker busy. With `threads <= 1` (or one item) no thread is
/// spawned and the closure runs on the caller's stack.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn map_indexed<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = threads.min(items.len()).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Splits `len` items into at most `shards` contiguous index ranges whose
/// sizes differ by at most one. Empty input yields no ranges.
pub fn chunk_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_explicit_wins() {
        assert_eq!(num_threads(Some(3)), 3);
        assert_eq!(num_threads(Some(0)), 1, "zero clamps to serial");
    }

    #[test]
    fn num_threads_is_capped() {
        // Resolving a count starts no thread, so huge requests are safe to
        // ask for here.
        assert_eq!(num_threads(Some(MAX_THREADS)), MAX_THREADS);
        assert_eq!(num_threads(Some(MAX_THREADS + 1)), MAX_THREADS);
        assert_eq!(num_threads(Some(100_000)), MAX_THREADS);
        assert_eq!(num_threads(Some(usize::MAX)), MAX_THREADS);
        assert!((1..=MAX_THREADS).contains(&num_threads(None)));
    }

    #[test]
    fn map_indexed_preserves_order_serially_and_in_parallel() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = map_indexed(1, &items, |i, &x| x * 2 + i as u64);
        for threads in [2, 4, 8] {
            let parallel = map_indexed(threads, &items, |i, &x| x * 2 + i as u64);
            assert_eq!(serial, parallel, "order diverged at {threads} threads");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        assert!(map_indexed(8, &[] as &[u32], |_, &x| x).is_empty());
        assert_eq!(map_indexed(8, &[7u32], |i, &x| x + i as u32), vec![7]);
    }

    #[test]
    fn map_indexed_balances_uneven_work() {
        // One item is 1000× heavier; dynamic scheduling must still return
        // input order.
        let items: Vec<usize> = (0..64).collect();
        let out = map_indexed(4, &items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        let reference = map_indexed(1, &items, |_, &x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            (0..spins).fold(x as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(1))
        });
        assert_eq!(out, reference);
    }

    #[test]
    fn chunk_ranges_cover_everything_once() {
        for (len, shards) in [(10, 3), (3, 10), (1, 1), (100, 7), (8, 8)] {
            let ranges = chunk_ranges(len, shards);
            assert!(ranges.len() <= shards);
            let mut covered = 0;
            for (k, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "gap before shard {k}");
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
        assert!(chunk_ranges(0, 4).is_empty());
    }
}
