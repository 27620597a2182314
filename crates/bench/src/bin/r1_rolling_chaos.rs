//! R1 — Recovery time under rolling chaos.
//!
//! The paper's architecture is pitched at *dynamic environments*, where the
//! interesting quantity is not steady-state recall but how fast discovery
//! becomes whole again after each disruption. This experiment rolls three
//! fault windows over a federated deployment — asymmetric WAN loss (replies
//! vanish, pings arrive), a severed WAN pair (partial partition), and a
//! registry crash — heals each, and samples oracle recall plus stale-lease
//! counts until the system recovers (recall 1.0, nothing stale).
//!
//! Two configurations on identical schedules and probes:
//!
//! * **self-healing** — clients re-issue timed-out queries with jittered
//!   exponential backoff and fail over after re-attach, providers retry
//!   unacknowledged publishes/renewals, registries place silent federation
//!   peers on probation (backed-off re-pings, state re-announce on return)
//!   instead of evicting them;
//! * **passive** — the pre-existing periodic machinery only (renew rounds,
//!   signaling gossip, seed retry).
//!
//! Per-window recovery times aggregate over ≥8 seeds; a window that never
//! recovers within the sampled gap is charged the full gap.

use sds_bench::{f2, Table};
use sds_metrics::Summary;
use sds_workload::{run_rolling, RollingChaosConfig, RollingReport};

fn seed_count() -> u64 {
    std::env::var("SDS_CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(8)
}

/// Per-window recovery times in seconds; unrecovered windows are charged
/// the full sampled gap.
fn window_recoveries(report: &RollingReport, gap_ms: u64) -> Vec<f64> {
    report
        .windows
        .iter()
        .map(|w| w.recovery_ms.unwrap_or(gap_ms) as f64 / 1_000.0)
        .collect()
}

fn main() {
    let seeds = seed_count();
    let mut table = Table::new(&[
        "config",
        "seeds",
        "windows",
        "recovery mean (s)",
        "recovery p95 (s)",
        "recovery max (s)",
        "unrecovered",
        "retry publishes",
        "peers reinstated",
    ]);

    for healing in [true, false] {
        // Seeds are independent simulations: fan them across cores and
        // merge in seed order (deterministic aggregate regardless of
        // scheduling — see tests/engine_equivalence.rs).
        let runs = sds_bench::parallel::map_seeds(seeds, |seed| {
            let cfg = RollingChaosConfig::new(seed, healing);
            let report = run_rolling(&cfg);
            (cfg.gap_ms, report)
        });
        let mut recoveries = Vec::new();
        let mut unrecovered = 0u64;
        let (mut retries, mut reinstated, mut windows) = (0u64, 0u64, 0u64);
        for (gap_ms, report) in &runs {
            unrecovered +=
                report.windows.iter().filter(|w| w.recovery_ms.is_none()).count() as u64;
            windows += report.windows.len() as u64;
            recoveries.extend(window_recoveries(report, *gap_ms));
            retries += report.retry_publishes;
            reinstated += report.peers_reinstated;
        }
        let sum = Summary::of(&recoveries);
        let label = if healing { "self-healing" } else { "passive" };
        table.row(&[
            label.to_string(),
            seeds.to_string(),
            windows.to_string(),
            f2(sum.mean),
            f2(sum.p95),
            f2(sum.max),
            unrecovered.to_string(),
            retries.to_string(),
            reinstated.to_string(),
        ]);
    }

    println!("R1: recovery time under rolling chaos ({seeds} seeds, 3 windows each)");
    println!("{}", table.render());
}
