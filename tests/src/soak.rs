//! The multi-seed chaos-soak runner, shared between the convergence soak
//! (`tests/chaos_soak.rs`) and the engine-equivalence golden-fingerprint
//! test (`tests/engine_equivalence.rs`).
//!
//! One seed drives a deterministic schedule of crashes/revives (ChurnPlan)
//! and per-scope fault windows — loss, duplication, reordering, frame
//! corruption through the real codec (FaultPlan + corrupting hook) — on the
//! battlefield scenario, with queries flowing throughout. After the last
//! fault heals and the last churn event fires, the system gets a settle
//! window, then every convergence invariant is evaluated and the full
//! metrics transcript is folded into one digest. The digest is a function of
//! observable behaviour only (schedules, traffic counters, query results,
//! store sizes), so any engine change that claims to be observably free must
//! reproduce it bit-for-bit.

use std::fmt::Write as _;

use sds_core::{ClientNode, QueryOptions, RegistryNode};
use sds_metrics::{fingerprint, recall, InvariantReport};
use sds_protocol::ModelId;
use sds_simnet::{secs, NodeId, PartitionPlan};
use sds_workload::{
    corrupting_hook, ChurnPlan, Deployment, FaultPlan, FaultSeverity, PopulationSpec, Scenario,
    ScenarioConfig,
};

use crate::query_and_collect;

/// Purge cadence of the default registry config, used as the slack when
/// checking that expired leases were reaped.
const PURGE_SLACK: u64 = 2_000;

pub struct SoakOutcome {
    pub report: InvariantReport,
    pub digest: u64,
}

/// Runs the soak with the default registry configuration in one domain
/// (`PartitionPlan::Single`), like every production-shaped scenario.
pub fn run_soak(seed: u64) -> SoakOutcome {
    run_soak_configured(seed, PartitionPlan::Single, 1, DataPlane::default())
}

/// Runs the soak with one domain per LAN and the given worker-thread count.
/// Every plan has the same per-LAN semantics; only the interleaving of
/// same-time events in different domains may differ from [`run_soak`]. The
/// digest must be identical for every `workers` value, which is the
/// worker-count-invariance guarantee `engine_equivalence.rs` pins.
pub fn run_soak_partitioned(seed: u64, workers: usize) -> SoakOutcome {
    run_soak_configured(seed, PartitionPlan::PerLan, workers, DataPlane::default())
}

/// The registry data-plane shape the soak runs with: shard count and
/// `data_plane_workers` thread count. Both are contracted to be observable
/// no-ops, so a soak digest must be identical across every `DataPlane` —
/// `tests/multiworker_registry.rs` pins exactly that against the default
/// plane's digest.
#[derive(Clone, Copy, Debug)]
pub struct DataPlane {
    pub shard_count: usize,
    pub workers: usize,
}

impl Default for DataPlane {
    fn default() -> Self {
        Self { shard_count: 1, workers: 1 }
    }
}

/// Runs the soak with a sharded, multi-worker registry data plane — the
/// end-to-end "multi-worker registry scenario": every registry node
/// evaluates broadcast scans and batch queues across `workers` scoped
/// threads inside its handler.
pub fn run_soak_data_plane(seed: u64, plane: DataPlane) -> SoakOutcome {
    run_soak_configured(seed, PartitionPlan::Single, 1, plane)
}

fn run_soak_configured(
    seed: u64,
    partition: PartitionPlan,
    workers: usize,
    data_plane: DataPlane,
) -> SoakOutcome {
    let mut cfg = ScenarioConfig {
        lans: 3,
        clients_per_lan: 1,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 10,
            queries: 8,
            generalization_rate: 0.5,
            seed,
        },
        seed,
        partition,
        workers,
        ..Default::default()
    };
    cfg.registry.shard_count = data_plane.shard_count;
    cfg.registry.data_plane_workers = data_plane.workers;
    // Keep the duplicate-counting invariant sharp: unicast queries have
    // exactly one legitimate responder (the home registry), so any second
    // counted response is a fault-injection duplicate leaking through.
    cfg.client.fallback_query = false;
    let mut s = Scenario::build(cfg);
    // The partitioned engine needs one corruptor instance per domain (the
    // hook captures nothing, so every instance draws identically from its
    // domain's fault stream); the factory form covers both engines.
    s.sim.set_corruptor_factory(|| Box::new(corrupting_hook()));

    let horizon = secs(60);
    // Churn services and the non-seed registries (the seed registry is the
    // federation rendezvous; everything else may come and go).
    let mut churn_targets: Vec<NodeId> = s.services.iter().map(|&(n, _)| n).collect();
    churn_targets.extend(s.registries.iter().skip(1).copied());
    let mut churn = ChurnPlan::exponential(&churn_targets, 25_000.0, 8_000.0, horizon, seed);
    // Registries must end the window up: a LAN whose only registry stays
    // dead leaves its services legitimately unreachable (availability loss,
    // not a convergence violation — the invariants target the healed state).
    for &r in s.registries.iter().skip(1) {
        if !churn.is_up_at(r, horizon) {
            churn.events.push(sds_workload::churn::ChurnEvent { at: horizon, node: r, up: true });
        }
    }
    churn.events.sort_by_key(|e| (e.at, e.node));
    churn.apply(&mut s.sim);
    let faults = FaultPlan::exponential(
        &s.lans,
        true,
        9_000.0,
        3_500.0,
        FaultSeverity::default(),
        horizon,
        seed,
    );
    faults.apply(&mut s.sim);

    // Traffic during the chaos window: every client queries every ~5 s.
    let mut qi = 0usize;
    for t in (5..=60).step_by(5) {
        s.sim.run_until(secs(t));
        for ci in 0..s.clients.len() {
            s.issue(ci, qi, QueryOptions::default());
            qi += 1;
        }
    }

    // Heal: after this instant no further faults or churn events fire.
    let last_churn = churn.events.last().map(|e| e.at).unwrap_or(0);
    let chaos_end = faults.healed_by().max(last_churn).max(s.sim.now());
    // Settle: longer than lease expiry (30 s) + failover + republish, so
    // stale adverts purge and revived services are re-discoverable.
    s.sim.run_until(chaos_end + secs(60));

    let mut report = InvariantReport::new();
    let mut digest_src = String::new();
    let _ = writeln!(
        digest_src,
        "seed={seed} churn_events={} fault_events={} healed_by={}",
        churn.len(),
        faults.len(),
        faults.healed_by()
    );

    // Faults must actually have been injected, or the soak proves nothing.
    {
        let st = s.sim.stats();
        report.check("faults-injected", st.fault_injections() > 0, || {
            "fault plan injected nothing".into()
        });
        report.check("corruption-exercised", st.corrupted_messages > 0, || {
            "no frame ever went through the corruption hook".into()
        });
        let _ = writeln!(
            digest_src,
            "dup={} corrupt={} corrupt_drop={} reorder={} dropped={} lan_msgs={} wan_msgs={}",
            st.duplicated_messages,
            st.corrupted_messages,
            st.corrupt_dropped_messages,
            st.reorder_delayed_messages,
            st.dropped_messages,
            st.lan_messages,
            st.wan_messages,
        );
    }

    // Post-heal discoverability: oracle recall 1.0 for every workload query.
    for qi in 0..s.queries.len() {
        let payload = s.queries[qi].clone();
        let expected = s.expected_now(&payload);
        let mut got = query_and_collect(&mut s, qi, payload, QueryOptions::default());
        let r = recall(&expected, &got);
        report.check("post-heal-recall", r == 1.0, || {
            format!("query {qi}: recall {r}, expected {expected:?} got {got:?}")
        });
        // No provider may appear twice in one result: stale incarnations
        // must have aged out and duplicates must have been merged.
        got.sort_unstable();
        let unique = {
            let mut g = got.clone();
            g.dedup();
            g.len()
        };
        report.check("no-double-provider", unique == got.len(), || {
            format!("query {qi}: providers listed twice in {got:?}")
        });
        let _ = writeln!(digest_src, "q{qi} expected={expected:?} got={got:?}");
    }

    // No zombie leases: in every live registry, nothing outlived its lease
    // beyond the purge cadence.
    let now = s.sim.now();
    for &r in &s.registries {
        if !s.sim.is_alive(r) {
            continue;
        }
        let node = s.sim.handler::<RegistryNode>(r).unwrap();
        for stored in node.engine().store().iter() {
            report.check(
                "no-expired-lease",
                stored.lease_until + PURGE_SLACK > now,
                || {
                    format!(
                        "registry {r}: advert {:?} lease_until {} at now {now}",
                        stored.advert.id, stored.lease_until
                    )
                },
            );
        }
        let _ = writeln!(digest_src, "registry {r} store={}", node.engine().store().len());
    }

    // No double counting: a unicast query has exactly one legitimate
    // responder, however many duplicated copies of its response arrived.
    for &c in &s.clients {
        let client = s.sim.handler::<ClientNode>(c).unwrap();
        for done in &client.completed {
            report.check("responses-counted-once", done.responses_received <= 1, || {
                format!(
                    "client {c} query {} counted {} responses",
                    done.seq, done.responses_received
                )
            });
        }
        let _ = writeln!(digest_src, "client {c} completed={}", client.completed.len());
    }

    SoakOutcome { report, digest: fingerprint(&digest_src) }
}
