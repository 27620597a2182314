//! Post-heal federation equivalence: after fault windows (message loss,
//! duplication, reordering) and a partial partition heal, every federated
//! registry's live store view must converge to the same (advert id →
//! version) map within a bounded number of anti-entropy rounds — no silent
//! divergence, no replica stuck at a stale version, no deleted advert
//! resurrected.
//!
//! The bound: one signaling-gossip interval (15 s, worst case for two
//! registries that evicted each other during the partition to rediscover
//! one another through the third) plus three sync intervals (10 s each:
//! digest → delta → ack/resend, with one round of slack) plus purge slack.

use std::collections::BTreeMap;

use sds_bench::parallel;
use sds_core::RegistryNode;
use sds_protocol::{ModelId, Uuid};
use sds_simnet::secs;
use sds_workload::{
    Deployment, FaultPlan, FaultSeverity, PopulationSpec, Scenario, ScenarioConfig,
};

/// Live (id → version) view of one registry's store.
fn view(s: &Scenario, r: sds_simnet::NodeId) -> BTreeMap<Uuid, u32> {
    let now = s.sim.now();
    let node = s.sim.handler::<RegistryNode>(r).unwrap();
    let store = node.engine().store();
    let v = store.live(now).map(|st| (st.advert.id, st.advert.version)).collect();
    v
}

fn check_convergence(seed: u64) {
    let mut cfg = ScenarioConfig {
        lans: 3,
        clients_per_lan: 1,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 8,
            queries: 4,
            generalization_rate: 0.5,
            seed,
        },
        seed,
        ..Default::default()
    };
    cfg.client.fallback_query = false;
    let mut s = Scenario::build(cfg);

    // Loss, duplication, and reordering windows over every LAN scope (no
    // corruption: there is no corruptor hook installed here, and the codec
    // fuzz property owns that surface). Applied from t=0: federation
    // formation and the first publishes happen under fire too.
    let severity = FaultSeverity { max_corrupt: 0.0, ..FaultSeverity::default() };
    let faults =
        FaultPlan::exponential(&s.lans, true, 8_000.0, 3_000.0, severity, secs(40), seed);
    faults.apply(&mut s.sim);

    // Partial partition on top: one WAN pair severed for 20 s while the
    // rest of the WAN stays connected. Rotate the pair by seed.
    let n = s.lans.len();
    let (a, b) = (s.lans[seed as usize % n], s.lans[(seed as usize + 1) % n]);
    s.sim.run_until(secs(10));
    s.sim.cut_wan_pair(a, b);
    s.sim.run_until(secs(30));
    s.sim.heal_wan_pair(a, b);

    // Everything heals; then the convergence bound starts.
    let healed = faults.healed_by().max(s.sim.now());
    s.sim.run_until(healed);
    let bound = secs(15) + 3 * secs(10) + secs(5);
    s.sim.run_until(healed + bound);

    let st = s.sim.stats();
    assert!(st.kind("sync-digest").messages > 0, "seed {seed}: no digest round ever ran");

    // Equivalence: every registry holds exactly the same live (id, version)
    // map. Versions must match exactly — renewals flow as deltas without a
    // version bump, so a version skew means a replica silently diverged.
    let reference = view(&s, s.registries[0]);
    assert!(!reference.is_empty(), "seed {seed}: nothing was ever replicated");
    for &r in &s.registries[1..] {
        let got = view(&s, r);
        assert_eq!(
            got, reference,
            "seed {seed}: registry {r} diverged from {} after the bound",
            s.registries[0]
        );
    }
}

/// Eight seeds, fanned across cores: loss + duplication + reordering +
/// partial partition, then bounded-time convergence of every store view.
#[test]
fn federated_stores_converge_after_faults_heal() {
    parallel::map_seeds(8, |seed| check_convergence(seed));
}
