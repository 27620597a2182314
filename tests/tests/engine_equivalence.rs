//! Byte-identical equivalence evidence for changes that claim to be
//! observably free (engine optimizations, refactors, path deletions): *no
//! observable bit changes*. These tests pin that contract:
//!
//! * the full chaos-soak metric transcript digests for eight seeds, on the
//!   default configuration, must equal the pinned goldens in one domain and
//!   in one domain per LAN at every worker count — the soak
//!   exercises multicast fan-out, duplication, corruption (copy-on-write
//!   forks), reordering, timer cancellation storms, crashes and revivals,
//!   anti-entropy replication and its loss recovery, so a single diverged
//!   RNG draw or reordered delivery flips the digest;
//! * the parallel multi-seed driver must return exactly what the sequential
//!   loop returns, at every worker count, including for full simulation
//!   workloads.

use sds_bench::parallel;
use sds_integration::soak::{run_soak, SoakOutcome};
use sds_simnet::PartitionPlan;

/// Chaos-soak digests of `run_soak` with the default registry
/// configuration, one per seed, for every partition plan and worker count:
/// the digest is a pure function of the seed, and worker count, thread
/// scheduling, domain-to-worker assignment and the interleaving of
/// same-time events in different domains must have zero observable effect.
///
/// History: one domain per LAN was pinned at rev `b1e8ca1` at `workers = 1`,
/// `2` and `4` (identical). The one-domain plan was re-pinned once at the
/// change that deleted the separate one-domain execution (parent rev
/// `854f87d`), which moved one-domain sims onto the per-LAN semantics every
/// plan now shares: per-LAN link/fault streams, per-LAN WAN uplinks,
/// node-scoped timer ids and controls applied at barriers; on that engine
/// alone the two families agreed entry for entry. The same change fixed a
/// registry that kept a provider's renewals for a copy it held only as a
/// replica (see `RenewLease` in `registry_node.rs`), which moved seeds 6
/// and 7 in both families alike; the two tables were identical from then on
/// and are this one table now. Recorded in a release build, every entry
/// after `report.assert_clean()`. Any change that claims to leave the
/// default path alone must reproduce them bit-for-bit.
const SOAK_GOLDENS: [(u64, u64); 8] = [
    (0, 0xCA8925EC07E1B0D5),
    (1, 0x3D2FAB5F921BB314),
    (2, 0xC4991140D34CC7F0),
    (3, 0x49759CFAF74A6D4E),
    (4, 0x42B05254032D2F90),
    (5, 0x2B7F7D6F479EF62E),
    (6, 0x2B9E5A5FEFAD3987),
    (7, 0x77F7129D1940C561),
];

/// One domain, the plan of every production-shaped scenario.
fn run_single(seed: u64) -> SoakOutcome {
    run_soak(seed, PartitionPlan::Single, 1)
}

/// The two seeds cheap enough for the debug-profile tier-1 run; the release
/// variant below covers all eight.
#[test]
fn chaos_digests_match_pre_change_engine() {
    for &(seed, want) in &SOAK_GOLDENS[..2] {
        let o = run_single(seed);
        o.report.assert_clean();
        assert_eq!(
            o.digest, want,
            "seed {seed}: output diverged from the pinned transcript \
             (got 0x{:016X}, want 0x{want:016X})",
            o.digest
        );
    }
}

/// Full eight-seed sweep, driven through the parallel driver — one test
/// proving both halves at once: the code reproduces the pinned transcripts
/// with clean invariants, and the parallel fan-out changes nothing.
/// Expensive in debug, so gated to release-style soak runs like the chaos
/// soak's long tail.
#[test]
#[ignore = "eight release-profile soaks; run explicitly via ci.sh"]
fn chaos_digests_match_pre_change_engine_all_seeds_parallel() {
    let seeds: Vec<u64> = SOAK_GOLDENS.iter().map(|&(s, _)| s).collect();
    let digests = parallel::map(&seeds, |_, &seed| {
        let o = run_single(seed);
        o.report.assert_clean();
        o.digest
    });
    for (&(seed, want), &got) in SOAK_GOLDENS.iter().zip(&digests) {
        assert_eq!(got, want, "seed {seed} under the parallel driver");
    }
}

/// The parallel driver must be observably identical to the sequential loop
/// for real simulation workloads, at every worker count — including counts
/// larger than the machine's core count (the threaded path must be correct,
/// not just never taken, on small machines).
#[test]
fn parallel_driver_matches_sequential_for_simulation_workloads() {
    let seeds: Vec<u64> = (100..106).collect();
    let sequential: Vec<u64> = seeds.iter().map(|&s| run_single(s).digest).collect();
    for workers in [2, 3, 8] {
        let parallel = parallel::map_with_workers(workers, &seeds, |_, &s| run_single(s).digest);
        assert_eq!(parallel, sequential, "workers={workers}");
    }
}

/// `map` (auto worker count, honoring `SDS_BENCH_THREADS`) returns results
/// in input order with the index argument matching the item position.
#[test]
fn parallel_map_indexes_and_orders_by_input() {
    let seeds: Vec<u64> = (0..16).collect();
    let out = parallel::map(&seeds, |i, &s| {
        assert_eq!(i as u64, s);
        (i, s.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    });
    for (i, &(idx, v)) in out.iter().enumerate() {
        assert_eq!(idx, i);
        assert_eq!(v, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}

/// Worker counts the partitioned sweeps cover.
const EQ_WORKERS: [usize; 3] = [1, 2, 4];

/// Worker-count invariance, quick tier: the partitioned engine must produce
/// the pinned digest — and a clean convergence report — for every worker
/// count, on the two cheap seeds. The expensive all-seed sweep is below.
#[test]
fn partitioned_chaos_digests_are_worker_count_invariant() {
    for &(seed, want) in &SOAK_GOLDENS[..2] {
        for workers in EQ_WORKERS {
            let o = run_soak(seed, PartitionPlan::PerLan, workers);
            o.report.assert_clean();
            assert_eq!(
                o.digest, want,
                "seed {seed} workers {workers}: partitioned transcript diverged \
                 (got 0x{:016X}, want 0x{want:016X})",
                o.digest
            );
        }
    }
}

/// Full eight-seed partitioned sweep across the worker counts. Release-tier
/// like the eight-seed sequential sweep above.
#[test]
#[ignore = "eight release-profile soaks per worker count; run explicitly via ci.sh"]
fn partitioned_chaos_digests_are_worker_count_invariant_all_seeds() {
    for &(seed, want) in &SOAK_GOLDENS {
        for workers in EQ_WORKERS {
            let o = run_soak(seed, PartitionPlan::PerLan, workers);
            o.report.assert_clean();
            assert_eq!(o.digest, want, "seed {seed} workers {workers}");
        }
    }
}
