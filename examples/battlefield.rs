//! The network-centric battlefield scenario (MILCOM companion paper).
//!
//! Demonstrates the *layered* stack: three kinds of devices share one
//! discovery infrastructure with different description models —
//!
//! * a legacy Tactical-Data-Link-style broadcaster advertising a bare
//!   pre-agreed URI ("services not relying on Web Services standards as
//!   their transport should be able to use the service discovery
//!   infrastructure");
//! * a mid-tier chat server using a name/type/attribute template;
//! * sensor services with full semantic profiles and QoS attributes,
//!   selected with subsumption *and* a QoS floor.
//!
//! Run with: `cargo run -p semdisc-examples --bin battlefield`

use std::sync::Arc;

use sds_core::{ClientConfig, ClientNode, QueryOptions, RegistryConfig, RegistryNode, ServiceConfig, ServiceNode};
use sds_protocol::{
    Codec, Compression, Description, DescriptionTemplate, DiscoveryMessage, QueryPayload, WireSize,
};
use sds_semantic::{QosKey, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::{secs, Sim, SimConfig, Topology};
use sds_workload::battlefield;

fn main() {
    let (ontology, c) = battlefield();
    let index = Arc::new(SubsumptionIndex::build(&ontology));

    // HQ LAN and a forward-deployed unit LAN over a narrow WAN link.
    let mut topology = Topology::new();
    let hq = topology.add_lan();
    let forward = topology.add_lan();
    let mut sim: Sim<DiscoveryMessage> =
        Sim::new(SimConfig { wan_latency: 60, wan_jitter: 20, ..Default::default() }, topology, 99);

    let hq_reg =
        sim.add_node(hq, Box::new(RegistryNode::new(RegistryConfig::default(), Some(index.clone()))));
    let _fwd_reg = sim.add_node(
        forward,
        Box::new(RegistryNode::new(
            RegistryConfig { seeds: vec![hq_reg], ..Default::default() },
            Some(index.clone()),
        )),
    );

    // Heavyweight semantic sensors at HQ, with QoS attributes.
    for (name, accuracy) in [("long-range-radar", 0.95), ("coastal-radar", 0.70)] {
        let profile = ServiceProfile::new(name, c.radar_service)
            .with_outputs(&[c.radar_data, c.air_track])
            .with_inputs(&[c.area_of_interest])
            .with_qos(QosKey::Accuracy, accuracy)
            .with_qos(QosKey::CoverageM, 120_000.0);
        sim.add_node(
            hq,
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Semantic(profile)],
                Some(index.clone()),
            )),
        );
    }
    // A legacy TDL broadcaster on the forward LAN: URI-only description.
    sim.add_node(
        forward,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:tdl:link16:surveillance".into())],
            None, // a primitive device: no semantic evaluator at all
        )),
    );
    // A chat server described by template.
    sim.add_node(
        forward,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Template(DescriptionTemplate {
                name: Some("coy-chat".into()),
                type_uri: Some("urn:svc:ChatService".into()),
                attrs: vec![("net".into(), "coy-alpha".into())],
            })],
            None,
        )),
    );

    let warfighter = sim.add_node(forward, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(3));

    // One infrastructure, three query models.
    sim.with_node::<ClientNode>(warfighter, |cl, ctx| {
        // Semantic + QoS floor: only the 0.95-accuracy radar qualifies.
        cl.issue_query(
            ctx,
            QueryPayload::Semantic(
                ServiceRequest::for_category(c.surveillance)
                    .with_provided_inputs(&[c.area_of_interest])
                    .with_qos(QosKey::Accuracy, 0.9),
            ),
            QueryOptions::default(),
        );
        // Legacy URI lookup.
        cl.issue_query(
            ctx,
            QueryPayload::Uri("urn:tdl:link16:surveillance".into()),
            QueryOptions::default(),
        );
        // Template lookup by attribute.
        cl.issue_query(
            ctx,
            QueryPayload::Template(DescriptionTemplate {
                attrs: vec![("net".into(), "coy-alpha".into())],
                ..Default::default()
            }),
            QueryOptions::default(),
        );
    });
    sim.run_until(secs(9));

    let client = sim.handler::<ClientNode>(warfighter).unwrap();
    let names: Vec<String> = client.completed[0]
        .hits
        .iter()
        .map(|h| match &h.advert.description {
            Description::Semantic(p) => p.name.clone(),
            _ => unreachable!(),
        })
        .collect();
    println!("surveillance with accuracy ≥ 0.9: {names:?}");
    assert_eq!(names, vec!["long-range-radar"], "QoS filter applied at the registry");
    println!("TDL hits: {}", client.completed[1].hits.len());
    assert_eq!(client.completed[1].hits.len(), 1);
    println!("chat hits: {}", client.completed[2].hits.len());
    assert_eq!(client.completed[2].hits.len(), 1);

    // The bandwidth story: semantic descriptions are big; binary XML helps.
    let radar_desc = Description::Semantic(
        ServiceProfile::new("long-range-radar", c.radar_service)
            .with_outputs(&[c.radar_data, c.air_track])
            .with_inputs(&[c.area_of_interest])
            .with_qos(QosKey::Accuracy, 0.95),
    );
    let uri_desc = Description::Uri("urn:tdl:link16:surveillance".into());
    println!(
        "\ndescription body sizes: semantic {} B vs URI {} B; semantic over binary XML: {} B",
        radar_desc.body_size(),
        uri_desc.body_size(),
        Codec::new(Compression::BinaryXml).message_size(&DiscoveryMessage::publishing(
            sds_protocol::PublishOp::Publish {
                advert: sds_protocol::SharedAdvert::from(sds_protocol::Advertisement {
                    id: sds_protocol::Uuid(1),
                    provider: warfighter,
                    description: radar_desc,
                    version: 1,
                }),
                lease_ms: 30_000
            }
        )),
    );
    println!(
        "traffic so far: LAN {} B, WAN {} B",
        sim.stats().lan_bytes,
        sim.stats().wan_bytes
    );
}
