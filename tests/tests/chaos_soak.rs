//! Multi-seed chaos soak: combined node churn and network-fault injection
//! on the battlefield scenario, followed by post-heal convergence checks.
//!
//! The per-seed runner lives in `sds_integration::soak` (shared with the
//! engine-equivalence golden-fingerprint test). Invariants per seed:
//!
//! * **Discoverable**: every live advertised service is found, per oracle;
//! * **No zombie leases**: no expired advert lingers in a live registry
//!   beyond the purge cadence;
//! * **No double counting**: duplicated deliveries never inflate a client's
//!   response count, and no provider appears twice in a result;
//! * **Determinism**: the same seed reproduces byte-identical plans,
//!   traffic counters, and results (compared by fingerprint);
//! * **No panic**: every handler survived corrupt frames (implicit — the
//!   test ran).
//!
//! Seed count comes from `SDS_CHAOS_SEEDS` (default 8, the bounded CI
//! quick mode); raise it for longer soaks. Seeds fan across cores via
//! `sds_bench::parallel` — each seed's simulation shares nothing, so the
//! fan-out cannot perturb results (asserted by the driver-equivalence test
//! in `engine_equivalence.rs`).

use sds_integration::soak::run_soak;
use sds_simnet::PartitionPlan;

fn seed_count() -> u64 {
    std::env::var("SDS_CHAOS_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(8)
}

#[test]
fn chaos_soak_upholds_convergence_invariants_across_seeds() {
    let seeds: Vec<u64> = (0..seed_count()).collect();
    let outcomes =
        sds_bench::parallel::map(&seeds, |_, &seed| run_soak(seed, PartitionPlan::Single, 1));
    for (seed, outcome) in seeds.iter().zip(&outcomes) {
        assert!(
            outcome.report.check_count() > 0,
            "seed {seed}: the soak evaluated no invariants"
        );
        assert!(
            outcome.report.is_clean(),
            "seed {seed} violated invariants:\n{}",
            outcome.report.summary()
        );
    }
}

#[test]
fn chaos_soak_is_deterministic_per_seed() {
    // Same seed ⇒ byte-identical fault schedule, traffic counters, query
    // results, and store contents (compared by fingerprint of the full
    // metrics transcript).
    for seed in [1_000u64, 1_001] {
        let a = run_soak(seed, PartitionPlan::Single, 1);
        let b = run_soak(seed, PartitionPlan::Single, 1);
        assert_eq!(a.digest, b.digest, "seed {seed}: runs diverged");
    }
    assert_ne!(
        run_soak(1_000, PartitionPlan::Single, 1).digest,
        run_soak(1_001, PartitionPlan::Single, 1).digest,
        "different seeds produce different schedules"
    );
}
