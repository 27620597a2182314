//! Integration tests pitting the architecture against the baselines on the
//! same simulated worlds — the comparisons the paper makes qualitatively.

use std::sync::Arc;

use sds_baselines::DhtNode;
use sds_core::{ClientConfig, ClientNode, QueryMode, QueryOptions, ServiceConfig, ServiceNode};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, NodeId, Sim, SimConfig, Topology};
use sds_workload::battlefield;

#[test]
fn dht_and_core_service_nodes_interoperate_for_exact_keys() {
    let (ont, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let mut topo = Topology::new();
    let lans: Vec<_> = (0..3).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 6);
    let members: Vec<NodeId> = (0..3u32).map(NodeId).collect();
    for &lan in &lans {
        sim.add_node(lan, Box::new(DhtNode::new(members.clone())));
    }
    // A core service node publishes a semantic profile through the DHT.
    sim.add_node(
        lans[0],
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(ServiceProfile::new("radar", classes.radar_service))],
            Some(idx.clone()),
        )),
    );
    let client = sim.add_node(lans[2], Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(2));

    // Exact category key: resolvable. Parent category: not.
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(classes.radar_service)),
            QueryOptions::default(),
        );
        c.issue_query(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(classes.surveillance)),
            QueryOptions::default(),
        );
    });
    sim.run_until(secs(8));
    let done = &sim.handler::<ClientNode>(client).unwrap().completed;
    let exact = done.iter().find(|q| q.seq == 0).unwrap();
    let parent = done.iter().find(|q| q.seq == 1).unwrap();
    assert_eq!(exact.hits.len(), 1);
    assert_eq!(parent.hits.len(), 0, "hash index cannot subsume");
}

#[test]
fn multicast_query_mode_shows_implosion_without_registry() {
    // 12 identical providers, no registry: a multicast query triggers one
    // response per provider at the client.
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 8);
    for _ in 0..12 {
        sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Uri("urn:svc:chat".into())],
                None,
            )),
        );
    }
    let client = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(client, |c, ctx| {
        c.issue_query(
            ctx,
            QueryPayload::Uri("urn:svc:chat".into()),
            QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() },
        );
    });
    sim.run_until(secs(6));
    let q = &sim.handler::<ClientNode>(client).unwrap().completed[0];
    assert_eq!(q.responses_received, 12, "response implosion");
    assert_eq!(q.hits.len(), 12);
}
