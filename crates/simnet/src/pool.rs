//! The workspace's one scoped worker pool for share-nothing fan-out.
//!
//! Three callers, one mechanism: the simulator runs a lookahead
//! window's domains on it ([`for_each_mut`] over `&mut [Domain]`), a
//! multi-worker sharded registry engine fans a broadcast query's per-shard
//! scans and a batch's per-shard queues across it, and
//! `sds_bench::parallel` drives multi-seed experiments with it (both through
//! [`map_indexed`]). Zero external dependencies, per the workspace policy:
//! `std::thread::scope` workers claim indices off one atomic cursor, and the
//! scope join is the barrier.
//!
//! The guarantee callers build on: each index is claimed by exactly one
//! worker and every result lands in its own slot, so for an `f` that depends
//! only on its arguments the outcome equals the sequential loop's — the
//! worker count is unobservable in the output. `workers <= 1` (or a single
//! task) *is* the sequential loop on the calling thread: no spawn, no
//! overhead on single-core machines.
//!
//! Because the scope borrows rather than requiring `'static`, `f` may
//! capture references into the caller's data structures (the simulator's
//! read-only world, shard stores, evaluator tables) as long as they are
//! `Sync`.
//!
//! Panics in a worker propagate to the caller when the scope joins, so a
//! failing task still fails the operation that launched it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Calls `f(i, &mut items[i])` for every item, fanning across up to
/// `workers` threads (the calling thread is one of them).
pub fn for_each_mut<T, F>(workers: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    // One mutex-guarded `&mut` per item, never contended: the cursor hands
    // each index to exactly one worker. The mutex is what lets safe code
    // share the slice across threads with `T: Send` alone.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        f(i, &mut **slot.lock().expect("each slot is locked once, by the worker that claimed it"));
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// Applies `f` to every index in `0..n`, fanning across up to `workers`
/// threads, and returns the results in index order — exactly what
/// `(0..n).map(f).collect()` would.
pub fn map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers.min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for_each_mut(workers, &mut slots, |i, slot| *slot = Some(f(i)));
    slots.into_iter().map(|slot| slot.expect("every index was claimed and filled")).collect()
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
    fn for_each_mut_visits_every_item_once_at_any_worker_count() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let mut items: Vec<(usize, u32)> = (0..37).map(|i| (i, 0)).collect();
            for_each_mut(workers, &mut items, |i, item| {
                assert_eq!(item.0, i, "index matches position");
                item.1 += 1;
            });
            assert!(items.iter().all(|&(_, visits)| visits == 1), "workers={workers}");
        }
    }
}
