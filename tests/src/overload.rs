//! The multi-seed overload-soak runner (`tests/overload_soak.rs`).
//!
//! One seed drives a deterministic flash crowd against capacity-bounded
//! registries running the full overload layer: modeled ingress budgets
//! ([`NodeCapacity`]), admission control and backpressure ([`OverloadPolicy`]),
//! `Busy`-honoring clients with jittered backoff, and providers that stretch
//! renewal cadence under pressure. The storm is short relative to the client
//! retry budget, so backpressure is *transient*: every nacked query has
//! room to re-send into the post-storm calm. Invariants per seed:
//!
//! * **Backpressure resolves**: every query that absorbed a `Busy` nack is
//!   eventually answered by a successful retry (no nack is a death sentence);
//! * **Leases outlive shedding**: no advert is ever purged — renewals are
//!   never software-shed while query shedding suffices, and physically
//!   dropped renewals are healed by provider ack-retries;
//! * **Shedding really happened**: the storm must drive the busy band, or
//!   the soak proves nothing;
//! * **Determinism**: the same seed reproduces a byte-identical metrics
//!   fingerprint (ledger counters and latency percentiles included).

use std::fmt::Write as _;

use sds_core::{
    OverloadPolicy, QueryMode, QueryOptions, RegistryNode, RetryPolicy, ServiceNode,
};
use sds_metrics::{InvariantReport, OverloadLedger};
use sds_protocol::ModelId;
use sds_simnet::{secs, NodeCapacity, PartitionPlan, SimTime};
use sds_workload::{Deployment, OverloadPlan, PopulationSpec, Scenario, ScenarioConfig};

/// Attach, publish, and one anti-entropy exchange finish well inside this;
/// capacity install and the demand plan start here.
const WARMUP: SimTime = 12_250;
/// Plan-relative storm window: ~6 s of 10× demand — long enough for the
/// utilization EWMA to integrate into the busy band, short enough that the
/// client retry budget (~9 s of backoff) outlives it.
const STORM: (SimTime, SimTime) = (5_000, 11_000);
const HORIZON: SimTime = 15_000;

pub struct OverloadSoakOutcome {
    pub report: InvariantReport,
    /// Deterministic one-line digest: the run's [`OverloadLedger`]
    /// fingerprint plus mechanism counters.
    pub fingerprint: String,
}

/// Generous retry budget: up to 6 re-sends spread over ~9 s, so even a
/// storm-start nack has post-storm calm left to land in.
const RETRY: RetryPolicy =
    RetryPolicy { max_retries: 6, base_backoff: 400, max_backoff: secs(2), jitter: 250 };

pub fn run_overload_soak(seed: u64) -> OverloadSoakOutcome {
    soak(seed, RETRY).0
}

/// One seed's soak under the clients' `retry` policy, returning the
/// finished scenario beside its outcome so the per-client transcripts can be
/// read back.
fn soak(seed: u64, retry: RetryPolicy) -> (OverloadSoakOutcome, Scenario) {
    let mut cfg = ScenarioConfig {
        lans: 3,
        clients_per_lan: 30,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 18,
            queries: 24,
            generalization_rate: 0.4,
            seed,
        },
        seed,
        partition: PartitionPlan::PerLan,
        workers: 2,
        retry: Some(retry),
        ..Default::default()
    };
    // The soak's open-loop storm parks the EWMA far above 100%; the standard
    // policy prices renewals out of shedding (the invariant under test).
    cfg.registry.overload = OverloadPolicy::standard(30);
    // Synchronized client/service ping waves would contend with the bounded
    // ingress queue; registry beacons cover home liveness.
    cfg.client.attach.ping_interval = 0;
    cfg.service.attach.ping_interval = 0;
    cfg.client.hedge_after_busy = 2;
    let mut s = Scenario::build(cfg);

    s.sim.run_until(WARMUP);
    let registries = s.registries.clone();
    for &r in &registries {
        s.sim.set_node_capacity(r, Some(NodeCapacity { ops_per_tick: 1, queue_limit: 32 }));
    }

    // 10 queries/LAN per ~1 s event at baseline, 10x that in the storm —
    // each storm burst overflows the 32-slot ingress queue ~3x.
    let plan =
        OverloadPlan::flash_crowd(10 * s.lans.len() as u32, 10, 997, STORM.0, STORM.1, HORIZON, seed);
    let opts = QueryOptions {
        max_responses: Some(8),
        ttl: 0,
        timeout: secs(12),
        mode: QueryMode::Unicast,
    };
    let (lans, per_lan) = (s.lans.len(), s.clients.len() / s.lans.len());
    let mut cursor = 0usize;
    for i in 0..plan.events.len() {
        let ev = plan.events[i];
        s.sim.run_until(WARMUP + ev.at);
        for _ in 0..ev.queries {
            // Interleave across LANs so each burst loads every registry.
            let ci = (cursor % lans) * per_lan + (cursor / lans) % per_lan;
            s.issue(ci, cursor, opts.clone());
            cursor += 1;
        }
    }
    // Let every outstanding retry resolve: last issue + client budget.
    s.sim.run_until(WARMUP + HORIZON + opts.timeout + secs(2));

    let mut report = InvariantReport::new();
    let mut ledger = OverloadLedger::default();
    let mut nacked_unanswered = 0u64;
    for ci in 0..s.clients.len() {
        for cq in s.completed(ci) {
            ledger.record(
                cq.first_response_at.is_some(),
                cq.first_response_at.map(|t| t - cq.sent_at),
                cq.busy_nacks,
                cq.retries,
            );
            if cq.busy_nacks > 0 && cq.first_response_at.is_none() {
                nacked_unanswered += 1;
            }
        }
    }
    report.check("offered-everything", ledger.offered == plan.total_queries(), || {
        format!("completed {} of {} offered", ledger.offered, plan.total_queries())
    });
    report.check("busy-band-engaged", ledger.busy_nacks_total > 0, || {
        "the storm never drove the busy band; the soak proves nothing".into()
    });
    report.check("every-nack-resolves", nacked_unanswered == 0, || {
        format!("{nacked_unanswered} busy-nacked queries were never answered")
    });

    let (mut purged, mut renewal_nacks, mut busy, mut deduped) = (0u64, 0u64, 0u64, 0u64);
    for &r in &registries {
        let st = s.sim.handler::<RegistryNode>(r).expect("registry handler").stats;
        purged += st.adverts_purged;
        renewal_nacks += st.renewal_busy_nacks;
        busy += st.busy_nacks;
        deduped += st.retries_deduped;
    }
    let mut service_nacks = 0u64;
    for &(n, _) in &s.services {
        service_nacks += s.sim.handler::<ServiceNode>(n).expect("service handler").stats.busy_nacks;
    }
    report.check("renewals-never-shed", renewal_nacks == 0 && service_nacks == 0, || {
        format!("{renewal_nacks} renewal-class nacks ({service_nacks} seen by providers)")
    });
    report.check("no-lease-lost", purged == 0, || {
        format!("{purged} adverts purged: a lease expired under shedding")
    });

    let net = s.sim.stats();
    let mut fingerprint = String::new();
    let _ = write!(
        fingerprint,
        "seed={seed} {} reg_busy={busy} deduped={deduped} purged={purged} \
         cap_dropped={} cap_deferred={}",
        ledger.fingerprint_line(),
        net.capacity_dropped_messages,
        net.capacity_deferred_messages,
    );
    (OverloadSoakOutcome { report, fingerprint }, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every client's completed queries, in completion order, folded with
    /// the soak's fingerprint: what each query finished with, when, and
    /// after how many retries and nacks, down to its ranked hit ids.
    fn transcript_digest(seed: u64, retry: RetryPolicy) -> u64 {
        let (outcome, s) = soak(seed, retry);
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, outcome.fingerprint.as_bytes());
        for ci in 0..s.clients.len() {
            let completed = s.completed(ci);
            h = fnv1a(h, &(completed.len() as u64).to_le_bytes());
            for cq in completed {
                h = fnv1a(h, &cq.seq.to_le_bytes());
                h = fnv1a(h, &cq.finished_at.to_le_bytes());
                h = fnv1a(h, &cq.first_response_at.map_or(u64::MAX, |t| t).to_le_bytes());
                h = fnv1a(h, &cq.responses_received.to_le_bytes());
                h = fnv1a(h, &[cq.retries]);
                h = fnv1a(h, &cq.busy_nacks.to_le_bytes());
                h = fnv1a(h, &(cq.hits.len() as u64).to_le_bytes());
                for hit in &cq.hits {
                    h = fnv1a(h, &hit.advert.id.0.to_le_bytes());
                }
            }
        }
        h
    }

    /// The client retry clock under a storm of `Busy` nacks, pinned: a
    /// change to how checkpoints are armed must leave every send, draw and
    /// completed query where it was, so these digests must not move.
    #[test]
    fn overload_transcripts_are_pinned() {
        const PINNED: [u64; 8] = [
            0xeb61_6531_7abe_a82e,
            0xbdf9_4e8f_2448_d79c,
            0x5e4a_83ff_46ec_a4da,
            0x2a4f_3bb4_4b7a_02bf,
            0x1fd0_39a6_7c33_5f45,
            0xe3e4_dbff_d6db_05fe,
            0x2399_3b59_c8d9_3def,
            0xaf4f_985b_bd8b_9fc2,
        ];
        let seeds: Vec<u64> = (0..8).collect();
        let digests = sds_bench::parallel::map(&seeds, |_, &seed| transcript_digest(seed, RETRY));
        assert_eq!(digests, PINNED, "a seed's completed queries or fingerprint moved");
    }

    /// The same storms under a retry budget the storm outlasts: one re-send
    /// after 200 ms, so the registries keep nacking queries that have no
    /// retry left, and how a client treats those nacks (its jitter draws
    /// included) is pinned too. Only the digest is asserted: with no budget
    /// left, a nacked query may legitimately end unanswered.
    #[test]
    fn overload_transcripts_with_exhausted_retries_are_pinned() {
        const TIGHT: RetryPolicy =
            RetryPolicy { max_retries: 1, base_backoff: 200, max_backoff: 400, jitter: 250 };
        const PINNED: [u64; 8] = [
            0x544d_9db0_a087_a41f,
            0x919c_e279_56c8_eabb,
            0x0e85_06bd_bac2_8639,
            0x6b4f_3efc_b621_d1cd,
            0x9947_481f_1cf8_7356,
            0xe962_3602_22a8_83f5,
            0xd808_93ef_e9d2_adf6,
            0x489e_ca63_195a_a663,
        ];
        let seeds: Vec<u64> = (0..8).collect();
        let digests = sds_bench::parallel::map(&seeds, |_, &seed| transcript_digest(seed, TIGHT));
        assert_eq!(digests, PINNED, "a seed's completed queries or fingerprint moved");
    }
}
