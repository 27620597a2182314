//! The multi-worker registry scenario: end-to-end worker-count (and shard-
//! count) unobservability for the registry data plane.
//!
//! Every registry in the chaos-soak battlefield runs a sharded engine with
//! `data_plane_workers` scoped threads fanning its broadcast scans and batch
//! queues — *inside* the node handler, mid-simulation. The contract (DESIGN
//! §16) is that this is an observable no-op: the full metrics-transcript
//! digest of the soak must be bit-for-bit identical to the default
//! single-shard, single-worker plane, whatever `(shard_count, workers)` the
//! registry runs. A divergence here means thread scheduling leaked into
//! ranked hits, lease grants, or wire traffic — exactly the regression class
//! the parallel merge order is designed out of.

use sds_integration::soak::{run_soak, run_soak_data_plane, DataPlane};

#[test]
fn multiworker_data_plane_is_unobservable_end_to_end() {
    for seed in [0u64, 1] {
        let baseline = run_soak(seed);
        baseline.report.assert_clean();
        for workers in [1, 2, 4] {
            let plane = DataPlane { shard_count: 4, workers };
            let outcome = run_soak_data_plane(seed, plane);
            outcome.report.assert_clean();
            assert_eq!(
                outcome.digest, baseline.digest,
                "soak digest diverged from the default data plane at seed {seed} \
                 with {plane:?} — shard/worker count leaked into observable behaviour"
            );
        }
    }
}
