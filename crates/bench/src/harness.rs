//! A minimal wall-clock benchmarking harness.
//!
//! Replaces `criterion` for this workspace's needs: named benchmark groups,
//! closure timing with automatic iteration-count calibration, and a
//! per-benchmark summary (median/min/mean time per iteration) printed as a
//! table row. No statistics engine, no plotting, no external dependencies —
//! the microbenchmarks exist to catch order-of-magnitude regressions in hot
//! paths, not to resolve single-digit-percent effects.
//!
//! ```no_run
//! use sds_bench::harness::{black_box, Harness};
//!
//! let mut h = Harness::from_args();
//! let mut g = h.group("math");
//! g.bench("add", |b| b.iter(|| black_box(2u64) + black_box(3u64)));
//! ```
//!
//! Invocation (`cargo bench -- <filter>`): the first non-flag argument is a
//! substring filter over `group/name`; `SDS_BENCH_QUICK=1` cuts measurement
//! time ~10× for smoke runs.
//!
//! Nothing is written to disk: the repo's measured trajectory is the
//! benchmark (`BENCHMARK.json`, `bench-results/`), not this harness.

use std::time::{Duration, Instant};

/// An identity function the optimizer must assume reads and writes its
/// argument, preventing benchmarked code from being folded away.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Passed to each benchmark closure; [`Bencher::iter`] times the supplied
/// closure over the calibrated iteration count.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` `iters` times and records the total elapsed wall time. The
    /// result of every call is passed through [`black_box`].
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Measurement budget: how long calibration doubles for and how long each
/// sample aims to run.
#[derive(Clone, Copy)]
struct Budget {
    calibration: Duration,
    sample: Duration,
    samples: u32,
}

impl Budget {
    fn from_env() -> Self {
        if std::env::var_os("SDS_BENCH_QUICK").is_some() {
            Self { calibration: Duration::from_millis(2), sample: Duration::from_millis(5), samples: 3 }
        } else {
            Self { calibration: Duration::from_millis(20), sample: Duration::from_millis(50), samples: 10 }
        }
    }
}

/// The top-level runner: owns the name filter and the output format.
pub struct Harness {
    filter: Option<String>,
    budget: Budget,
    ran: usize,
}

impl Harness {
    /// Builds a runner from the process arguments: flags (`--bench`, which
    /// `cargo bench` appends) are ignored, and the first free argument
    /// becomes a substring filter over `group/name`.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self::with_filter(filter)
    }

    /// A runner with an explicit filter (`None` runs everything).
    pub fn with_filter(filter: Option<String>) -> Self {
        Self { filter, budget: Budget::from_env(), ran: 0 }
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group { harness: self, name: name.to_string(), printed_header: false }
    }

    /// Prints the closing line; call once after the last group.
    pub fn finish(self) {
        println!("\n{} benchmark(s) run", self.ran);
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, full_name: &str, mut f: F) -> Option<Measurement> {
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return None;
            }
        }
        let budget = self.budget;
        // Calibrate: double the iteration count until one timed batch
        // exceeds the calibration budget, so per-iteration cost is known to
        // within ~2× before sampling starts.
        let mut iters = 1u64;
        let per_iter = loop {
            let mut b = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut b);
            if b.elapsed >= budget.calibration || iters >= 1 << 40 {
                break b.elapsed.as_secs_f64() / iters as f64;
            }
            iters *= 2;
        };
        let sample_iters = ((budget.sample.as_secs_f64() / per_iter.max(1e-12)) as u64).max(1);
        let mut per_iter_samples: Vec<f64> = (0..budget.samples)
            .map(|_| {
                let mut b = Bencher { iters: sample_iters, elapsed: Duration::ZERO };
                f(&mut b);
                b.elapsed.as_secs_f64() / sample_iters as f64
            })
            .collect();
        per_iter_samples.sort_by(f64::total_cmp);
        self.ran += 1;
        Some(Measurement {
            min: per_iter_samples[0],
            median: per_iter_samples[per_iter_samples.len() / 2],
            mean: per_iter_samples.iter().sum::<f64>() / per_iter_samples.len() as f64,
            iters: sample_iters,
            samples: budget.samples,
        })
    }
}

/// A named group of benchmarks sharing a printed header.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    printed_header: bool,
}

impl Group<'_> {
    /// Measures `f` under the name `group/id`, prints one result row, and
    /// returns the measurement (`None` when filtered out).
    pub fn bench<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> Option<Measurement> {
        let full_name = format!("{}/{id}", self.name);
        let m = self.harness.run_one(&full_name, f)?;
        if !self.printed_header {
            println!("\n== {} ==", self.name);
            self.printed_header = true;
        }
        println!(
            "  {:44} {:>12}/iter  (min {}, mean {}; {} iters x {} samples)",
            full_name,
            fmt_seconds(m.median),
            fmt_seconds(m.min),
            fmt_seconds(m.mean),
            m.iters,
            m.samples,
        );
        Some(m)
    }
}

/// One benchmark's summary statistics, in seconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    pub min: f64,
    pub median: f64,
    pub mean: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    pub samples: u32,
}

/// Formats a duration in seconds with an auto-selected unit.
fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Harness {
        let mut h = Harness::with_filter(None);
        // Tests must not depend on the wall clock: use the smallest budget.
        h.budget = Budget { calibration: Duration::from_micros(10), sample: Duration::from_micros(50), samples: 2 };
        h
    }

    #[test]
    fn bencher_runs_exactly_iters_times() {
        let mut count = 0u64;
        let mut b = Bencher { iters: 37, elapsed: Duration::ZERO };
        b.iter(|| count += 1);
        assert_eq!(count, 37);
        assert!(b.elapsed > Duration::ZERO || count == 37);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut h = quiet();
        h.filter = Some("match-me".into());
        let mut ran_skipped = false;
        let mut ran_matching = false;
        {
            let mut g = h.group("grp");
            g.bench("other", |b| b.iter(|| ran_skipped = true));
            g.bench("match-me", |b| b.iter(|| ran_matching = true));
        }
        assert!(!ran_skipped, "filtered-out benchmark must not run");
        assert!(ran_matching);
        assert_eq!(h.ran, 1);
    }

    #[test]
    fn measurement_produces_ordered_stats() {
        let mut h = quiet();
        let m = h.run_one("g/busy", |b| b.iter(|| black_box((0..100u64).sum::<u64>()))).unwrap();
        assert!(m.min > 0.0);
        assert!(m.min <= m.median);
        assert!(m.iters >= 1);
    }

    #[test]
    fn fmt_seconds_picks_sane_units() {
        assert_eq!(fmt_seconds(2.5), "2.500 s");
        assert_eq!(fmt_seconds(2.5e-3), "2.500 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.500 us");
        assert_eq!(fmt_seconds(2.5e-8), "25.0 ns");
    }
}
