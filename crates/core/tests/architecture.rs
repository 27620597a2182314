//! End-to-end tests of the discovery architecture on the simulated network.

use std::sync::Arc;

use sds_core::{
    AttachConfig, Bootstrap, ClientConfig, ClientNode, ForwardStrategy, QueryMode, QueryOptions,
    RegistryConfig, RegistryNode, ServiceConfig, ServiceNode,
};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload, SharedAdvert};
use sds_semantic::{
    Artifact, ArtifactId, ArtifactKind, ClassId, Degree, Ontology, ServiceProfile, ServiceRequest,
    SubsumptionIndex,
};
use sds_simnet::{secs, ControlAction, LanId, NodeId, Sim, SimConfig, Topology};

type Net = Sim<DiscoveryMessage>;

struct World {
    sim: Net,
    lans: Vec<LanId>,
    idx: Arc<SubsumptionIndex>,
    sensor: ClassId,
    radar: ClassId,
    svc_cat: ClassId,
}

fn world(n_lans: usize, seed: u64) -> World {
    let mut ont = Ontology::new();
    let thing = ont.class("Thing", &[]);
    let sensor = ont.class("Sensor", &[thing]);
    let radar = ont.class("Radar", &[sensor]);
    let svc_cat = ont.class("SurveillanceService", &[thing]);
    let idx = Arc::new(SubsumptionIndex::build(&ont));

    let mut topo = Topology::new();
    let lans: Vec<LanId> = (0..n_lans).map(|_| topo.add_lan()).collect();
    let sim = Sim::new(SimConfig::default(), topo, seed);
    World { sim, lans, idx, sensor, radar, svc_cat }
}

impl World {
    fn registry(&mut self, lan: usize, cfg: RegistryConfig) -> NodeId {
        let node = RegistryNode::new(cfg, Some(self.idx.clone()));
        self.sim.add_node(self.lans[lan], Box::new(node))
    }

    fn uri_service(&mut self, lan: usize, uri: &str) -> NodeId {
        self.service(lan, Description::Uri(uri.into()), ServiceConfig::default())
    }

    fn service(&mut self, lan: usize, description: Description, cfg: ServiceConfig) -> NodeId {
        let node = ServiceNode::new(cfg, vec![description], Some(self.idx.clone()));
        self.sim.add_node(self.lans[lan], Box::new(node))
    }

    fn client(&mut self, lan: usize) -> NodeId {
        self.client_with(lan, ClientConfig::default())
    }

    fn client_with(&mut self, lan: usize, cfg: ClientConfig) -> NodeId {
        self.sim.add_node(self.lans[lan], Box::new(ClientNode::new(cfg)))
    }

    fn query(&mut self, client: NodeId, payload: QueryPayload, options: QueryOptions) {
        self.sim.with_node::<ClientNode>(client, |c, ctx| {
            c.issue_query(ctx, payload, options);
        });
    }

    fn results(&self, client: NodeId) -> &[sds_core::CompletedQuery] {
        &self.sim.handler::<ClientNode>(client).unwrap().completed
    }
}

fn radar_profile(svc_cat: ClassId, radar: ClassId) -> Description {
    Description::Semantic(ServiceProfile::new("radar-feed", svc_cat).with_outputs(&[radar]))
}

#[test]
fn publish_and_query_on_one_lan() {
    let mut w = world(1, 1);
    let _r = w.registry(0, RegistryConfig::default());
    let _s = w.uri_service(0, "urn:svc:chat");
    let c = w.client(0);
    w.sim.run_until(secs(1));
    w.query(c, QueryPayload::Uri("urn:svc:chat".into()), QueryOptions::default());
    w.sim.run_until(secs(6));

    let results = w.results(c);
    assert_eq!(results.len(), 1);
    assert!(results[0].dispatched);
    assert_eq!(results[0].hits.len(), 1, "service discovered via registry");
    assert_eq!(results[0].hits[0].degree, Degree::Exact);
    // Non-matching query returns nothing.
    w.query(c, QueryPayload::Uri("urn:svc:mail".into()), QueryOptions::default());
    w.sim.run_until(secs(12));
    assert_eq!(w.results(c)[1].hits.len(), 0);
}

#[test]
fn passive_discovery_via_beacons() {
    let mut w = world(1, 2);
    let r = w.registry(0, RegistryConfig { beacon_interval: secs(2), ..Default::default() });
    let cfg = ClientConfig {
        attach: AttachConfig { bootstrap: Bootstrap::PassiveOnly, ..Default::default() },
        ..Default::default()
    };
    let c = w.client_with(0, cfg);
    w.sim.run_until(500);
    assert_eq!(w.sim.handler::<ClientNode>(c).unwrap().home_registry(), None, "no probe sent");
    w.sim.run_until(secs(5));
    assert_eq!(
        w.sim.handler::<ClientNode>(c).unwrap().home_registry(),
        Some(r),
        "beacon attached the client passively"
    );
}

#[test]
fn static_bootstrap_attaches_immediately() {
    let mut w = world(1, 3);
    let r = w.registry(0, RegistryConfig::default());
    let cfg = ClientConfig {
        attach: AttachConfig { bootstrap: Bootstrap::Static(r), ..Default::default() },
        ..Default::default()
    };
    let c = w.client_with(0, cfg);
    assert_eq!(w.sim.handler::<ClientNode>(c).unwrap().home_registry(), Some(r));
}

#[test]
fn lease_expiry_purges_crashed_service() {
    let mut w = world(1, 4);
    let r = w.registry(0, RegistryConfig::default());
    let s = w.service(
        0,
        Description::Uri("urn:svc:chat".into()),
        ServiceConfig { lease_ms: 5_000, renew_interval: secs(2), ..Default::default() },
    );
    let c = w.client(0);
    w.sim.run_until(secs(1));

    // Alive and renewing: advert stays past the initial lease.
    w.sim.run_until(secs(8));
    w.query(c, QueryPayload::Uri("urn:svc:chat".into()), QueryOptions::default());
    w.sim.run_until(secs(12));
    assert_eq!(w.results(c)[0].hits.len(), 1, "renewals kept the advert alive");

    // Crash the provider; within lease_ms the advert must be purged.
    w.sim.crash_node(s);
    w.sim.run_until(secs(20));
    assert!(w.sim.handler::<RegistryNode>(r).unwrap().engine().store().is_empty());
    w.query(c, QueryPayload::Uri("urn:svc:chat".into()), QueryOptions::default());
    w.sim.run_until(secs(25));
    assert_eq!(w.results(c)[1].hits.len(), 0, "no stale advert after lease expiry");
}

#[test]
fn registry_restart_triggers_republish() {
    let mut w = world(1, 5);
    let r = w.registry(0, RegistryConfig::default());
    let s = w.uri_service(0, "urn:svc:chat");
    w.sim.run_until(secs(1));
    let stored = |w: &World| -> Vec<_> {
        let registry = w.sim.handler::<RegistryNode>(r).unwrap();
        registry.engine().store().iter().map(|s| s.advert.clone()).collect()
    };
    let first = stored(&w);
    assert_eq!(first.len(), 1);

    // Restart the registry: soft state (adverts) is lost.
    w.sim.crash_node(r);
    w.sim.revive_node(r);
    assert!(stored(&w).is_empty());

    // The provider's next renewal gets `known: false` and republishes: the
    // same version, so the very allocation it sent the first time.
    w.sim.run_until(secs(30));
    let again = stored(&w);
    assert_eq!(again.len(), 1);
    assert!(SharedAdvert::ptr_eq(&first[0], &again[0]), "a republish rebuilds nothing");
    assert!(w.sim.handler::<ServiceNode>(s).unwrap().stats.republishes_after_unknown >= 1);
}

#[test]
fn federation_connects_lans() {
    let mut w = world(2, 6);
    let r0 = w.registry(0, RegistryConfig::default());
    let _r1 = w.registry(1, RegistryConfig { seeds: vec![r0], ..Default::default() });
    let _s = w.service(1, radar_profile(w.svc_cat, w.radar), ServiceConfig::default());
    let c = w.client(0);
    w.sim.run_until(secs(2));

    // Semantic query for Sensor output: the remote Radar service plugs in.
    let req = ServiceRequest::default().with_outputs(&[w.sensor]);
    w.query(c, QueryPayload::Semantic(req), QueryOptions::default());
    w.sim.run_until(secs(8));
    let results = w.results(c);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].hits.len(), 1, "WAN discovery through the registry network");
    assert_eq!(results[0].hits[0].degree, Degree::PlugIn);
}

#[test]
fn query_response_control_limits_hits() {
    let mut w = world(1, 7);
    let _r = w.registry(0, RegistryConfig::default());
    for _ in 0..8 {
        w.uri_service(0, "urn:svc:chat");
    }
    let c = w.client(0);
    w.sim.run_until(secs(1));
    w.query(
        c,
        QueryPayload::Uri("urn:svc:chat".into()),
        QueryOptions { max_responses: Some(2), ..Default::default() },
    );
    w.sim.run_until(secs(6));
    assert_eq!(w.results(c)[0].hits.len(), 2, "registry truncated to max_responses");
}

#[test]
fn decentralized_fallback_without_registry() {
    let mut w = world(1, 8);
    let _s1 = w.uri_service(0, "urn:svc:chat");
    let _s2 = w.uri_service(0, "urn:svc:mail");
    let c = w.client(0);
    w.sim.run_until(secs(1));
    // Unicast mode falls back to LAN multicast because no registry exists.
    w.query(c, QueryPayload::Uri("urn:svc:chat".into()), QueryOptions::default());
    w.sim.run_until(secs(6));
    let results = w.results(c);
    assert!(results[0].dispatched);
    assert_eq!(results[0].hits.len(), 1, "provider self-answered");
    assert_eq!(results[0].responses_received, 1, "only the matching provider responded");
}

#[test]
fn fallback_suppressed_when_registry_present() {
    let mut w = world(1, 9);
    let _r = w.registry(0, RegistryConfig::default());
    let s = w.uri_service(0, "urn:svc:chat");
    let c = w.client(0);
    w.sim.run_until(secs(1));
    // Even a multicast query is answered by the registry, not the provider.
    w.query(
        c,
        QueryPayload::Uri("urn:svc:chat".into()),
        QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() },
    );
    w.sim.run_until(secs(6));
    assert_eq!(w.sim.handler::<ServiceNode>(s).unwrap().stats.fallback_answers, 0);
    assert_eq!(w.results(c)[0].hits.len(), 1);
}

#[test]
fn client_and_service_fail_over_to_surviving_registry() {
    let mut w = world(1, 10);
    let r0 = w.registry(0, RegistryConfig::default());
    let r1 = w.registry(0, RegistryConfig::default());
    let s = w.uri_service(0, "urn:svc:chat");
    let c = w.client(0);
    w.sim.run_until(secs(2));

    let home = w.sim.handler::<ServiceNode>(s).unwrap().home_registry().unwrap();
    let other = if home == r0 { r1 } else { r0 };
    w.sim.crash_node(home);

    // Ping tolerance (2 × 5 s) plus margin: both roles fail over, the
    // service republishes to the survivor.
    w.sim.run_until(secs(40));
    assert_eq!(w.sim.handler::<ServiceNode>(s).unwrap().home_registry(), Some(other));
    assert_eq!(
        w.sim.handler::<RegistryNode>(other).unwrap().engine().store().len(),
        1,
        "advert republished to surviving registry"
    );
    w.query(c, QueryPayload::Uri("urn:svc:chat".into()), QueryOptions::default());
    w.sim.run_until(secs(46));
    let results = w.results(c);
    assert_eq!(results.last().unwrap().hits.len(), 1, "discovery works after failover");
}

#[test]
fn flood_forwarding_reaches_all_registries_without_loops() {
    let mut w = world(4, 11);
    let r0 = w.registry(0, RegistryConfig::default());
    let mut regs = vec![r0];
    for lan in 1..4 {
        regs.push(w.registry(lan, RegistryConfig { seeds: vec![r0], ..Default::default() }));
    }
    let _s = w.uri_service(3, "urn:svc:far");
    let c = w.client(0);
    // Let signaling gossip build the full mesh.
    w.sim.run_until(secs(40));
    w.query(
        c,
        QueryPayload::Uri("urn:svc:far".into()),
        QueryOptions { ttl: 4, timeout: secs(3), ..Default::default() },
    );
    w.sim.run_until(secs(46));
    assert_eq!(w.results(c)[0].hits.len(), 1, "hit from a 3-hops-away LAN");
    // Loop avoidance: every registry processed the query at most once;
    // extra copies were dropped as duplicates, not re-forwarded forever.
    for &r in &regs {
        let st = w.sim.handler::<RegistryNode>(r).unwrap().stats;
        assert!(
            st.queries_adopted + st.queries_received - st.duplicate_queries_dropped <= 2 * st.queries_received,
            "sane counters"
        );
    }
    let dup_total: u64 = regs
        .iter()
        .map(|&r| w.sim.handler::<RegistryNode>(r).unwrap().stats.duplicate_queries_dropped)
        .sum();
    assert!(dup_total > 0, "full-mesh flood produces duplicates that get dropped");
}

#[test]
fn gateway_election_avoids_redundant_wan_forwards() {
    let run = |election: bool, seed: u64| -> u64 {
        let mut w = world(2, seed);
        let r0 = w.registry(
            0,
            RegistryConfig { gateway_election: election, ..Default::default() },
        );
        let r2 = w.registry(1, RegistryConfig { seeds: vec![r0], ..Default::default() });
        // Second local registry with its own WAN peering (seeded to the
        // remote registry), so that without election it forwards redundantly.
        let _r1 = w.registry(
            0,
            RegistryConfig { gateway_election: election, seeds: vec![r2], ..Default::default() },
        );
        let _s = w.uri_service(1, "urn:svc:far");
        let c = w.client(0);
        w.sim.run_until(secs(30));
        // Multicast query reaches both local registries.
        w.query(
            c,
            QueryPayload::Uri("urn:svc:far".into()),
            QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() },
        );
        w.sim.run_until(secs(36));
        assert_eq!(w.results(c)[0].hits.len(), 1);
        let st = w.sim.handler::<RegistryNode>(r2).unwrap().stats;
        st.queries_received
    };
    let with_election = run(true, 12);
    let without_election = run(false, 12);
    assert!(
        without_election > with_election,
        "election reduces redundant WAN queries ({without_election} vs {with_election})"
    );
}

#[test]
fn random_walk_forwards_to_limited_peers() {
    let mut w = world(5, 13);
    let strategy = ForwardStrategy::RandomWalk { walkers: 1, ttl: 1 };
    // No replication: it would hand every registry a replica of every
    // advert, hiding the walk behaviour under test.
    let base =
        RegistryConfig { strategy: strategy.clone(), sync_interval: 0, ..Default::default() };
    let r0 = w.registry(0, base.clone());
    for lan in 1..5 {
        w.registry(lan, RegistryConfig { seeds: vec![r0], ..base.clone() });
    }
    for lan in 1..5 {
        w.uri_service(lan, "urn:svc:x");
    }
    let c = w.client(0);
    w.sim.run_until(secs(40));
    w.query(c, QueryPayload::Uri("urn:svc:x".into()), QueryOptions::default());
    w.sim.run_until(secs(46));
    // One walker with one hop: at most one remote registry answers.
    assert!(w.results(c)[0].hits.len() <= 1, "random walk is not exhaustive");
}

#[test]
fn expanding_ring_stops_at_first_hit_ring() {
    let mut w = world(3, 14);
    let strategy = ForwardStrategy::ExpandingRing { ttls: vec![1, 3] };
    // Chain topology: r0 - r1 - r2 (no signaling so the mesh stays a chain).
    let r0 = w.registry(
        0,
        RegistryConfig { strategy: strategy.clone(), signaling_interval: 0, ..Default::default() },
    );
    let r1 = w.registry(
        1,
        RegistryConfig {
            strategy: strategy.clone(),
            signaling_interval: 0,
            seeds: vec![r0],
            ..Default::default()
        },
    );
    let _r2 = w.registry(
        2,
        RegistryConfig {
            strategy,
            signaling_interval: 0,
            seeds: vec![r1],
            ..Default::default()
        },
    );
    let _s_near = w.uri_service(1, "urn:svc:near");
    let c = w.client(0);
    w.sim.run_until(secs(5));
    w.query(c, QueryPayload::Uri("urn:svc:near".into()), QueryOptions::default());
    w.sim.run_until(secs(11));
    assert_eq!(w.results(c)[0].hits.len(), 1, "found in the first ring");
}

#[test]
fn artifact_fetch_from_registry() {
    let mut w = world(1, 15);
    let cfg = RegistryConfig::default();
    let node = RegistryNode::new(cfg, Some(w.idx.clone())).with_artifact(Artifact {
        id: ArtifactId::new("nato-sensors", 2),
        kind: ArtifactKind::Ontology,
        body: vec![0; 4_096],
    });
    let _r = w.sim.add_node(w.lans[0], Box::new(node));
    let c = w.client(0);
    w.sim.run_until(secs(1));
    w.sim.with_node::<ClientNode>(c, |client, ctx| {
        assert!(client.fetch_artifact(ctx, "nato-sensors"));
        assert!(client.fetch_artifact(ctx, "missing"));
    });
    w.sim.run_until(secs(2));
    let client = w.sim.handler::<ClientNode>(c).unwrap();
    assert_eq!(client.artifacts.len(), 2);
    assert!(client.artifacts.iter().any(|a| a.name == "nato-sensors" && a.found && a.size == 4_096));
    assert!(client.artifacts.iter().any(|a| a.name == "missing" && !a.found));
}

#[test]
fn partition_heals_and_wan_discovery_resumes() {
    let mut w = world(2, 16);
    let r0 = w.registry(0, RegistryConfig::default());
    let _r1 = w.registry(1, RegistryConfig { seeds: vec![r0], ..Default::default() });
    let _s = w.uri_service(1, "urn:svc:far");
    let c = w.client(0);
    w.sim.run_until(secs(2));

    let (l0, l1) = (w.lans[0], w.lans[1]);
    w.sim.schedule(secs(3), ControlAction::Partition(vec![vec![l0], vec![l1]]));
    w.sim.run_until(secs(5));
    w.query(c, QueryPayload::Uri("urn:svc:far".into()), QueryOptions::default());
    w.sim.run_until(secs(10));
    assert_eq!(w.results(c)[0].hits.len(), 0, "partition blocks WAN discovery");
    // Local discovery still works during the partition (registry autonomy).
    let _local = w.uri_service(0, "urn:svc:near");
    w.sim.run_until(secs(12));
    w.query(c, QueryPayload::Uri("urn:svc:near".into()), QueryOptions::default());
    w.sim.run_until(secs(17));
    assert_eq!(w.results(c)[1].hits.len(), 1, "LAN discovery survives the partition");

    w.sim.schedule(secs(18), ControlAction::HealPartition);
    // Allow peer pings / seed retry to reconnect the overlay.
    w.sim.run_until(secs(60));
    w.query(c, QueryPayload::Uri("urn:svc:far".into()), QueryOptions::default());
    w.sim.run_until(secs(66));
    assert_eq!(w.results(c)[2].hits.len(), 1, "WAN discovery resumes after healing");
}

#[test]
fn updated_description_is_republished() {
    let mut w = world(1, 17);
    let r = w.registry(0, RegistryConfig::default());
    let s = w.uri_service(0, "urn:svc:v1");
    let c = w.client(0);
    w.sim.run_until(secs(1));
    w.sim.with_node::<ServiceNode>(s, |svc, ctx| {
        svc.update_description(ctx, 0, Description::Uri("urn:svc:v2".into()));
    });
    w.sim.run_until(secs(2));
    w.query(c, QueryPayload::Uri("urn:svc:v2".into()), QueryOptions::default());
    w.query(c, QueryPayload::Uri("urn:svc:v1".into()), QueryOptions::default());
    w.sim.run_until(secs(8));
    let results = w.results(c);
    assert_eq!(results[0].hits.len(), 1, "new content discoverable");
    assert_eq!(results[1].hits.len(), 0, "old content replaced, same advert id");
    assert_eq!(w.sim.handler::<RegistryNode>(r).unwrap().engine().store().len(), 1);
}

#[test]
fn cached_response_hits_share_the_stores_adverts() {
    let mut w = world(1, 19);
    let r = w.registry(0, RegistryConfig::default());
    let desc = radar_profile(w.svc_cat, w.radar);
    let _s = w.service(0, desc, ServiceConfig::default());
    let c = w.client(0);
    w.sim.run_until(secs(1));
    let payload = QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[w.sensor]));
    w.query(c, payload.clone(), QueryOptions::default());
    w.sim.run_until(secs(6));
    w.query(c, payload, QueryOptions::default());
    w.sim.run_until(secs(12));

    let registry = w.sim.handler::<RegistryNode>(r).unwrap();
    assert_eq!(registry.cache_stats().hits, 1, "the repeat was served from the cache");
    let results = w.results(c);
    assert_eq!((results[0].hits.len(), results[1].hits.len()), (1, 1));
    // One allocation from the provider's publish to both responses: the
    // evaluated one and the cached one hand out the store's advert.
    let stored = &registry.engine().store().get(&results[0].hits[0].advert.id).unwrap().advert;
    assert!(SharedAdvert::ptr_eq(&results[0].hits[0].advert, stored));
    assert!(SharedAdvert::ptr_eq(&results[1].hits[0].advert, stored));
}

#[test]
fn fallback_waits_out_the_beacon_timeout_after_the_lan_registry_crashes() {
    let mut w = world(1, 12);
    let r = w.registry(0, RegistryConfig::default());
    // Fast home pings, so the provider loses its home well inside the
    // beacon timeout and the timeout alone gates the fallback.
    let attach = AttachConfig { ping_interval: secs(1), ..Default::default() };
    let s = w.service(
        0,
        Description::Uri("urn:svc:chat".into()),
        ServiceConfig { attach, ..Default::default() },
    );
    let c = w.client(0);
    let home = |w: &World| w.sim.handler::<ServiceNode>(s).unwrap().home_registry();
    w.sim.run_until(6_500);
    assert_eq!(home(&w), Some(r));
    // The last beacon went out at 5 s; the provider's pings at 7 s and 8 s
    // go unanswered, and the 9 s ping round drops the dead home.
    w.sim.crash_node(r);
    w.sim.run_until(8_990);
    assert_eq!(home(&w), Some(r));
    w.sim.run_until(9_000);
    assert_eq!(home(&w), None, "the provider lost its home");

    let multicast = QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() };
    let chat = || QueryPayload::Uri("urn:svc:chat".into());
    // Homeless, but the registry was heard less than 12 s ago: no fallback.
    w.sim.run_until(12_000);
    w.query(c, chat(), multicast.clone());
    w.sim.run_until(16_990);
    w.query(c, chat(), multicast.clone());
    // 12 s after the last beacon the LAN counts as registry-less.
    w.sim.run_until(17_000);
    w.query(c, chat(), multicast);
    w.sim.run_until(secs(22));

    let hits: Vec<(u64, usize)> = {
        let mut v: Vec<_> = w.results(c).iter().map(|q| (q.seq, q.hits.len())).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(hits, vec![(0, 0), (1, 0), (2, 1)]);
    assert_eq!(w.sim.handler::<ServiceNode>(s).unwrap().stats.fallback_answers, 1);
}
