//! Tests for the architecture's extension features: standing queries
//! (subscribe/notify) and registry-side composition planning.

use std::sync::Arc;

use sds_core::{
    ClientConfig, ClientNode, QueryOptions, RegistryConfig, RegistryNode, ServiceConfig,
    ServiceNode,
};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, Sim, SimConfig, Topology};

fn sensor_index() -> (Arc<SubsumptionIndex>, ClassId, ClassId, ClassId) {
    let mut o = Ontology::new();
    let thing = o.class("Thing", &[]);
    let svc = o.class("Service", &[thing]);
    let surveil = o.class("SurveillanceService", &[svc]);
    let radar = o.class("RadarService", &[surveil]);
    (Arc::new(SubsumptionIndex::build(&o)), svc, surveil, radar)
}

#[test]
fn subscription_notifies_on_future_publish() {
    let (idx, _svc, surveil, radar) = sensor_index();
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 1);
    let r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx.clone()))));
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));

    // Standing query: any SurveillanceService.
    let mut sub_id = None;
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        sub_id = cl.subscribe(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(surveil)),
            60_000,
        );
    });
    let sub_id = sub_id.expect("attached, so subscribe succeeds");
    sim.run_until(secs(2));
    assert_eq!(sim.handler::<ClientNode>(c).unwrap().active_subscriptions, vec![sub_id]);
    assert_eq!(sim.handler::<RegistryNode>(r).unwrap().subscription_count(), 1);

    // A matching service appears AFTER the subscription.
    let _s = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(ServiceProfile::new("late-radar", radar))],
            Some(idx.clone()),
        )),
    );
    sim.run_until(secs(4));
    let client = sim.handler::<ClientNode>(c).unwrap();
    assert_eq!(client.notifications.len(), 1, "notified of the late arrival");
    assert_eq!(client.notifications[0].subscription, sub_id);
    let Description::Semantic(p) = &client.notifications[0].hit.advert.description else {
        panic!("semantic advert expected")
    };
    assert_eq!(p.name, "late-radar");

    // A non-matching service triggers nothing further.
    let _chat = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:svc:chat".into())],
            None,
        )),
    );
    sim.run_until(secs(6));
    assert_eq!(sim.handler::<ClientNode>(c).unwrap().notifications.len(), 1);
}

#[test]
fn unsubscribe_stops_notifications() {
    let (idx, _svc, surveil, radar) = sensor_index();
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 2);
    let r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx.clone()))));
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    let mut sub_id = None;
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        sub_id = cl.subscribe(
            ctx,
            QueryPayload::Semantic(ServiceRequest::for_category(surveil)),
            60_000,
        );
    });
    sim.run_until(secs(2));
    let sub_id = sub_id.unwrap();
    sim.with_node::<ClientNode>(c, |cl, ctx| cl.unsubscribe(ctx, sub_id));
    sim.run_until(secs(3));
    assert_eq!(sim.handler::<RegistryNode>(r).unwrap().subscription_count(), 0);

    let _s = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(ServiceProfile::new("radar", radar))],
            Some(idx),
        )),
    );
    sim.run_until(secs(5));
    assert!(sim.handler::<ClientNode>(c).unwrap().notifications.is_empty());
}

#[test]
fn expired_subscription_is_purged_and_silent() {
    let (idx, _svc, surveil, radar) = sensor_index();
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 3);
    let r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx.clone()))));
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        // A 3-second lease that the client never renews.
        cl.subscribe(ctx, QueryPayload::Semantic(ServiceRequest::for_category(surveil)), 3_000);
    });
    sim.run_until(secs(8));
    assert_eq!(sim.handler::<RegistryNode>(r).unwrap().subscription_count(), 0, "lease expired");
    let _s = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(ServiceProfile::new("radar", radar))],
            Some(idx),
        )),
    );
    sim.run_until(secs(10));
    assert!(sim.handler::<ClientNode>(c).unwrap().notifications.is_empty());
}

#[test]
fn registry_plans_service_chains_end_to_end() {
    // Taxonomy for a two-step chain: radar (AOI → RadarRaw ⊑ Raw) then
    // fusion (Raw → Track).
    let mut o = Ontology::new();
    let thing = o.class("Thing", &[]);
    let aoi = o.class("AreaOfInterest", &[thing]);
    let raw = o.class("RawSensorData", &[thing]);
    let radar_raw = o.class("RadarRaw", &[raw]);
    let track = o.class("Track", &[thing]);
    let svc = o.class("Service", &[thing]);
    let idx = Arc::new(SubsumptionIndex::build(&o));

    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 6);
    let _r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx.clone()))));
    let radar = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(
                ServiceProfile::new("radar", svc).with_inputs(&[aoi]).with_outputs(&[radar_raw]),
            )],
            Some(idx.clone()),
        )),
    );
    let fusion = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Semantic(
                ServiceProfile::new("fusion", svc).with_inputs(&[raw]).with_outputs(&[track]),
            )],
            Some(idx.clone()),
        )),
    );
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));

    // No single service yields a Track from an AOI; a plain query confirms.
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        cl.issue_query(
            ctx,
            QueryPayload::Semantic(
                ServiceRequest::default().with_outputs(&[track]).with_provided_inputs(&[aoi]),
            ),
            QueryOptions::default(),
        );
    });
    // Composition finds the chain.
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        cl.request_composition(
            ctx,
            ServiceRequest::default().with_outputs(&[track]).with_provided_inputs(&[aoi]),
            4,
        );
    });
    sim.run_until(secs(6));
    let client = sim.handler::<ClientNode>(c).unwrap();
    assert_eq!(client.completed[0].hits.len(), 0, "no single service matches");
    let plan = &client.compositions[0];
    assert!(plan.found);
    let providers: Vec<_> = plan.chain.iter().map(|a| a.provider).collect();
    assert_eq!(providers, vec![radar, fusion], "radar → fusion chain, in order");
}

#[test]
fn composition_reports_not_found() {
    let (idx, _svc, surveil, _radar) = sensor_index();
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 7);
    let _r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), Some(idx))));
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(1));
    sim.with_node::<ClientNode>(c, |cl, ctx| {
        cl.request_composition(ctx, ServiceRequest::for_category(surveil), 4);
    });
    sim.run_until(secs(3));
    let client = sim.handler::<ClientNode>(c).unwrap();
    assert!(!client.compositions[0].found);
    assert!(client.compositions[0].chain.is_empty());
}
