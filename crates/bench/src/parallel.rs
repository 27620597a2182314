//! A share-nothing parallel experiment driver.
//!
//! Every multi-seed experiment in this workspace has the same shape: N
//! independent simulations (one per seed), each fully deterministic, whose
//! results are merged in seed order. The simulations share *nothing* — each
//! builds its own topology, RNG streams, and handler state from its seed —
//! so fanning them across cores is observably free: [`map`] is required to
//! return exactly what the equivalent sequential loop would (asserted by
//! `tests/tests/engine_equivalence.rs`).
//!
//! Zero external dependencies, per the workspace policy: the fan-out runs
//! on the shared scoped pool ([`sds_simnet::pool`], the one the partitioned
//! engine and the registry data plane use), `std::thread::scope` workers
//! pulling indices off one atomic cursor, writing each result into its own
//! slot. Results come back in *input* order regardless of completion order,
//! so downstream aggregation (tables, summaries, digests) is independent of
//! scheduling.
//!
//! Worker count: `SDS_BENCH_THREADS` if set (must be a positive integer —
//! anything else aborts rather than silently benchmarking at the wrong
//! width), else [`std::thread::available_parallelism`]. A single-worker
//! fall-back runs the plain sequential loop on the calling thread — no
//! spawn, identical results, no thread overhead on single-core machines.
//!
//! ```
//! let squares = sds_bench::parallel::map(&[1u64, 2, 3], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```
//!
//! Panics in a worker propagate to the caller when the scope joins, so a
//! failing seed still fails the test or experiment that launched it.

/// The number of workers [`map`] fans out to: `SDS_BENCH_THREADS` when set,
/// else the machine's available parallelism, else 1.
///
/// # Panics
///
/// When `SDS_BENCH_THREADS` is set to anything other than a positive
/// integer. A typo'd override used to fall back silently, which meant a
/// benchmark believed it was pinned to N threads while actually running at
/// machine width — exactly the wrong failure mode for a perf-tracking
/// harness, so it is now a hard error.
pub fn workers() -> usize {
    match std::env::var("SDS_BENCH_THREADS") {
        Ok(raw) => match parse_workers(&raw) {
            Ok(n) => n,
            Err(why) => panic!("invalid SDS_BENCH_THREADS={raw:?}: {why}"),
        },
        Err(_) => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Validates a worker-count override: a positive integer (surrounding
/// whitespace tolerated). Split from [`workers`] so the rules are
/// unit-testable without mutating process environment.
fn parse_workers(raw: &str) -> Result<usize, String> {
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

/// Applies `f` to every item, fanning across up to [`workers`] threads, and
/// returns the results in input order. `f` receives `(index, &item)` — the
/// index lets callers label per-seed work without threading it through the
/// item type.
///
/// Guarantee: for a pure `f` (a function of its arguments only), the result
/// is identical to `items.iter().enumerate().map(...).collect()` — the
/// driver adds no observable nondeterminism, only wall-clock parallelism.
pub fn map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    map_with_workers(workers(), items, f)
}

/// [`map`] with an explicit worker count, for callers (and the equivalence
/// tests) that need to pin the fan-out regardless of the machine or the
/// `SDS_BENCH_THREADS` override. `workers <= 1` runs the plain sequential
/// loop on the calling thread.
pub fn map_with_workers<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    sds_simnet::pool::map_indexed(workers, items.len(), |i| f(i, &items[i]))
}

/// [`map`] over the seed range `0..n` — the common "run this experiment
/// under n seeds" driver.
pub fn map_seeds<T, F>(n: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let seeds: Vec<u64> = (0..n).collect();
    map(&seeds, |_, &seed| f(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(map(&empty, |_, &x: &u64| x).is_empty());
        assert_eq!(map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_equals_sequential_for_stateful_per_item_work() {
        // Each item runs its own little deterministic state machine; the
        // parallel result must match the sequential loop exactly.
        let work = |seed: u64| -> u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..1_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
            }
            state
        };
        let seeds: Vec<u64> = (0..32).collect();
        let parallel = map(&seeds, |_, &s| work(s));
        let sequential: Vec<u64> = seeds.iter().map(|&s| work(s)).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn map_seeds_covers_the_range_in_order() {
        assert_eq!(map_seeds(4, |s| s * 10), vec![0, 10, 20, 30]);
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }

    #[test]
    fn workers_override_accepts_positive_integers() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers("16"), Ok(16));
        assert_eq!(parse_workers("  4 "), Ok(4), "surrounding whitespace tolerated");
    }

    #[test]
    fn workers_override_rejects_zero_and_garbage() {
        for bad in ["0", "", "  ", "four", "-2", "1.5", "2x", "0x4"] {
            let got = parse_workers(bad);
            assert!(got.is_err(), "{bad:?} must be rejected, got {got:?}");
        }
    }

    #[test]
    fn pinned_worker_counts_agree_with_sequential() {
        // Exercises the threaded path even on a single-core machine, and
        // odd worker/item ratios (more workers than items, prime counts).
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = map_with_workers(workers, &items, |_, &x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(got, expected, "workers={workers}");
        }
    }
}
