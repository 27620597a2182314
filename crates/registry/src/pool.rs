//! A reusable scoped worker pool for share-nothing fan-out.
//!
//! Extracted from the `sds_bench::parallel` multi-seed driver so the same
//! mechanism can run *inside* a node handler: the registry data plane fans a
//! broadcast query's per-shard scans — and a batch's per-shard queues —
//! across worker threads (see [`crate::ShardedEngine`]), and `sds_bench`
//! delegates its experiment driver here. Zero external dependencies, per the
//! workspace policy: `std::thread::scope` workers pulling indices off one
//! atomic cursor, writing each result into its own slot.
//!
//! The guarantee callers build on: for a pure `f` (a function of its index
//! only), [`map_indexed`] returns exactly what the sequential loop
//! `(0..n).map(f).collect()` would — results come back in *index* order
//! regardless of completion order, so the worker count is unobservable in
//! the output. `workers <= 1` (or a single task) runs the plain sequential
//! loop on the calling thread: no spawn, no overhead on single-core
//! machines.
//!
//! Because the scope borrows rather than requiring `'static`, `f` may
//! capture references into the caller's data structures (shard stores,
//! evaluator tables) as long as they are `Sync` — which is what lets the
//! engine parallelize over `&self` without cloning or `Arc`-wrapping its
//! state.
//!
//! Panics in a worker propagate to the caller when the scope joins, so a
//! failing task still fails the operation that launched it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every index in `0..n`, fanning across up to `workers`
/// threads, and returns the results in index order.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // One mutex-guarded slot per task (never contended: each index is
    // claimed by exactly one worker). `Mutex` rather than `OnceLock` so `T`
    // only needs `Send` — results are moved out, never shared.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("no panic while holding a slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panics propagate at scope join")
                .expect("every index was claimed and filled")
        })
        .collect()
}

/// Validates a worker-count override: a positive integer (surrounding
/// whitespace tolerated). A typo'd override must not fall back silently, so
/// callers treat `Err` as fatal. The rules behind `sds_bench::parallel`'s
/// `SDS_BENCH_THREADS`, split out so they are unit-testable without
/// mutating process environment.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value (unset the variable to use the configured count)".into());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("worker count must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("not a worker count ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_index_order() {
        let expected: Vec<u64> = (0..100u64).map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = map_indexed(workers, 100, |i| i as u64 * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        assert!(map_indexed(4, 0, |i| i).is_empty());
        assert_eq!(map_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_indexed_borrows_caller_state() {
        // The scoped threads may read non-'static caller data — the property
        // the sharded engine relies on to scan `&self.shards` in place.
        let table: Vec<u64> = (0..37u64).map(|x| x.wrapping_mul(x) ^ 0xA5).collect();
        let got = map_indexed(4, table.len(), |i| table[i]);
        assert_eq!(got, table);
    }

    #[test]
    fn registry_workers_override_accepts_positive_integers() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers("16"), Ok(16));
        assert_eq!(parse_workers("  4 "), Ok(4), "surrounding whitespace tolerated");
    }

    #[test]
    fn registry_workers_override_rejects_zero_and_garbage() {
        for bad in ["0", "", "  ", "four", "-2", "1.5", "2x", "0x4"] {
            let got = parse_workers(bad);
            assert!(got.is_err(), "{bad:?} must be rejected, got {got:?}");
        }
    }
}
