//! Tests for the anti-entropy replication plane: digest/delta rounds
//! replicate, renew and forget, gossip payloads stay bounded, and probation
//! reinstatement does not start replicating when replication is off.

use sds_core::{
    ClientConfig, ClientNode, ForwardStrategy, QueryOptions, RegistryConfig, RegistryNode,
    RetryPolicy, ServiceConfig, ServiceNode,
};
use sds_protocol::{Description, DiscoveryMessage, MaintenanceOp, PublishOp, QueryPayload};
use sds_simnet::{secs, NodeHandler, NodeId, Sim, SimConfig, Topology};

fn two_lan_sim() -> (Sim<DiscoveryMessage>, sds_simnet::LanId, sds_simnet::LanId) {
    let mut topo = Topology::new();
    let lan0 = topo.add_lan();
    let lan1 = topo.add_lan();
    (Sim::new(SimConfig::default(), topo, 11), lan0, lan1)
}

/// Satellite regression: `FederationJoin::known_peers` and
/// `FederationAck::peers` are capped at `gossip_peer_cap`, deduplicated, and
/// never name the recipient — a 256-peer view must not gossip 256 ids.
#[test]
fn gossip_peer_lists_are_capped_at_256_peers() {
    let (mut sim, lan0, lan1) = two_lan_sim();
    let quiet = RegistryConfig {
        signaling_interval: 0,
        peer_ping_interval: secs(120),
        ..Default::default()
    };
    let r_joiner = sim.add_node(lan0, Box::new(RegistryNode::new(quiet.clone(), None)));
    let r_seed = sim.add_node(lan1, Box::new(RegistryNode::new(quiet.clone(), None)));
    sim.run_until(secs(1));

    // Hand the joiner a 256-peer view (plus the seed) via gossip. The fake
    // ids name nobody, so traffic toward them black-holes harmlessly. The
    // joiner had no peers, so learning some triggers its federation joins —
    // each carrying a `known_peers` payload built from 257 peers.
    let fakes: Vec<NodeId> = (0..256u32).map(|i| NodeId(100 + i)).collect();
    let mut registries = fakes.clone();
    registries.push(r_seed);
    sim.with_node::<RegistryNode>(r_joiner, |n, ctx| {
        n.on_message(
            ctx,
            r_seed,
            DiscoveryMessage::maintenance(MaintenanceOp::RegistryList { registries }),
        );
    });
    sim.run_until(secs(3));

    let joiner = sim.handler::<RegistryNode>(r_joiner).unwrap();
    assert_eq!(joiner.peer_ids().len(), 257, "joiner ingested the full view");
    // The seed learned the joiner plus a capped slice of its view — not all
    // 256 fakes. (transitive_peering ingests whatever the payload carried.)
    let cap = RegistryConfig::default().gossip_peer_cap;
    let seed_peers = sim.handler::<RegistryNode>(r_seed).unwrap().peer_ids();
    assert!(
        seed_peers.len() <= cap + 1,
        "known_peers payload leaked past the cap: {} peers",
        seed_peers.len()
    );
    assert!(seed_peers.contains(&r_joiner));
    assert!(!seed_peers.contains(&r_seed), "a gossip payload never names the recipient's self");
    let mut deduped = seed_peers.clone();
    deduped.dedup();
    assert_eq!(deduped, seed_peers, "gossiped peer list carried duplicates");
}

/// A reinstated peer gets no `SyncDigest` while `sync_interval == 0`:
/// replication that is switched off stays off through the suspect/reinstate
/// cycle, although reinstatement is one of the events that open a round.
#[test]
fn reinstate_respects_disabled_push_replication() {
    let (mut sim, lan0, lan1) = two_lan_sim();
    let cfg = RegistryConfig {
        sync_interval: 0,
        probation: RetryPolicy::standard(),
        signaling_interval: 0,
        ..Default::default()
    };
    let r0 = sim.add_node(lan0, Box::new(RegistryNode::new(cfg.clone(), None)));
    let r1 = sim.add_node(
        lan1,
        Box::new(RegistryNode::new(RegistryConfig { seeds: vec![r0], ..cfg }, None)),
    );
    // r0 holds a first-hand advert it could (wrongly) offer on reinstate.
    let _s = sim.add_node(
        lan0,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:svc:home".into())],
            None,
        )),
    );
    sim.run_until(secs(12));
    assert!(sim.handler::<RegistryNode>(r0).unwrap().peer_ids().contains(&r1));

    // Silence r1 long enough for r0 to suspect it, then bring it back so a
    // probation re-ping reinstates it.
    sim.crash_node(r1);
    sim.run_until(secs(40));
    sim.revive_node(r1);
    sim.run_until(secs(80));
    let r0_stats = sim.handler::<RegistryNode>(r0).unwrap().stats;
    assert!(r0_stats.peers_suspected >= 1, "crash was never suspected");
    assert!(r0_stats.peers_reinstated >= 1, "revived peer was never reinstated");
    for kind in ["sync-digest", "sync-delta", "sync-ack"] {
        assert_eq!(
            sim.stats().kind(kind).messages,
            0,
            "{kind} sent although replication is disabled"
        );
    }
    assert_eq!(
        sim.handler::<RegistryNode>(r1).unwrap().engine().store().len(),
        0,
        "r1 holds a replica although replication is disabled"
    );
}

/// A provider renewing at a registry that holds its advert only as a peer's
/// replica (its publish there was lost) makes that copy first-hand: else no
/// registry offers the advert to the federation once the peer's own copy
/// lapses, and the replicas diverge for good.
#[test]
fn a_provider_renewal_readopts_a_replica_as_first_hand() {
    let (mut sim, lan0, lan1) = two_lan_sim();
    let cfg = RegistryConfig { strategy: ForwardStrategy::None, ..Default::default() };
    let r0 = sim.add_node(lan0, Box::new(RegistryNode::new(cfg.clone(), None)));
    let r1 = sim.add_node(
        lan1,
        Box::new(RegistryNode::new(RegistryConfig { seeds: vec![r0], ..cfg }, None)),
    );
    let _s = sim.add_node(
        lan1,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:svc:moved".into())],
            None,
        )),
    );
    sim.run_until(secs(15));
    let (id, provider, source) = {
        let store = sim.handler::<RegistryNode>(r0).unwrap().engine().store();
        let st = store.iter().next().expect("replica arrived at r0");
        (st.advert.id, st.advert.provider, st.source)
    };
    assert_eq!(source, r1, "r0 holds r1's replica");
    sim.with_node::<RegistryNode>(r0, |n, ctx| {
        n.on_message(ctx, provider, DiscoveryMessage::publishing(PublishOp::RenewLease { id }));
    });
    let now = sim.now();
    let store = sim.handler::<RegistryNode>(r0).unwrap().engine().store();
    assert_eq!(store.get(&id).unwrap().source, provider, "the renewal re-adopted the copy");
    assert_eq!(store.first_hand(now).count(), 1, "r0 now offers it to its peers");
}

/// The anti-entropy plane replicates without ever sending a full-state push:
/// a remote first-hand advert appears as a replica after one digest/delta
/// exchange, answers queries locally, stays alive through delta-encoded
/// renewals, and expires once the origin stops listing it.
#[test]
fn anti_entropy_replicates_renews_and_forgets() {
    let (mut sim, lan0, lan1) = two_lan_sim();
    // Replication instead of forwarding: whatever r0 answers, it answers
    // from its replicas.
    let cfg = RegistryConfig { strategy: ForwardStrategy::None, ..Default::default() };
    let r0 = sim.add_node(lan0, Box::new(RegistryNode::new(cfg.clone(), None)));
    let r1 = sim.add_node(
        lan1,
        Box::new(RegistryNode::new(RegistryConfig { seeds: vec![r0], ..cfg }, None)),
    );
    let c = sim.add_node(lan0, Box::new(ClientNode::new(ClientConfig::default())));
    let _s = sim.add_node(
        lan1,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:svc:far".into())],
            None,
        )),
    );

    // Replication through sync rounds only.
    sim.run_until(secs(15));
    assert_eq!(
        sim.handler::<RegistryNode>(r0).unwrap().engine().store().len(),
        1,
        "replica arrived at r0 via anti-entropy"
    );
    assert_eq!(sim.stats().kind("fwd-adverts").messages, 0, "no full-state push");
    assert!(sim.stats().kind("sync-digest").messages > 0, "digest rounds ran");

    // The replica answers a query in its LAN: no WAN query traffic at query
    // time.
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        cl.issue_query(ctx, QueryPayload::Uri("urn:svc:far".into()), QueryOptions::default());
    });
    sim.run_until(secs(21));
    assert_eq!(sim.handler::<ClientNode>(c).unwrap().completed[0].hits.len(), 1);
    assert_eq!(sim.stats().kind("query").messages, 1, "one local query, no forwarding");

    // Steady state: the origin keeps the replica alive with fixed-size
    // deltas (the service renews its lease every few seconds), never
    // re-shipping the full advert.
    sim.run_until(secs(60));
    let now = sim.now();
    let r0_node = sim.handler::<RegistryNode>(r0).unwrap();
    assert_eq!(r0_node.engine().store().live(now).count(), 1, "replica kept alive");
    let origin_stats = sim.handler::<RegistryNode>(r1).unwrap().stats;
    assert!(origin_stats.sync_rounds > 0);
    assert!(origin_stats.deltas_sent > 0, "renewals should flow as deltas");
    assert!(origin_stats.bytes_saved > 0, "deltas should undercut full adverts");

    // Remove the advert at its origin: the next digest rounds prune the
    // peer's belief, nothing renews the replica, and the lease reaps it.
    let origin = sim.handler::<RegistryNode>(r1).unwrap().engine().store();
    let first_hand = origin.live(now).find(|s| s.source == s.advert.provider).unwrap();
    let (id, provider) = (first_hand.advert.id, first_hand.advert.provider);
    sim.crash_node(_s); // stop the service from republishing
    sim.with_node::<RegistryNode>(r1, |n, ctx| {
        n.on_message(ctx, provider, DiscoveryMessage::publishing(PublishOp::Remove { id }));
    });
    sim.run_until(secs(120));
    let now = sim.now();
    assert_eq!(
        sim.handler::<RegistryNode>(r0).unwrap().engine().store().live(now).count(),
        0,
        "removed advert survived at the replica past its lease"
    );
}
