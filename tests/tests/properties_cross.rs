//! Cross-crate property tests: the ground-truth oracle, the registry
//! engine, and a provider's fallback self-evaluation must agree on what
//! matches — they are three code paths over one matching semantics. Run
//! under the in-workspace seeded harness (`sds_rand::check`).

use std::sync::Arc;

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;

use sds_protocol::{Advertisement, Description, DescriptionTemplate, QueryId, QueryMessage, QueryPayload, Uuid};
use sds_registry::{LeasePolicy, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;
use sds_workload::Oracle;

fn taxonomy() -> (Ontology, u32) {
    // Depth-3 taxonomy with 10 classes: room for every degree of match.
    let mut o = Ontology::new();
    let thing = o.class("Thing", &[]);
    let a = o.class("A", &[thing]);
    let a1 = o.class("A1", &[a]);
    let a2 = o.class("A2", &[a]);
    let _a11 = o.class("A11", &[a1]);
    let b = o.class("B", &[thing]);
    let b1 = o.class("B1", &[b]);
    let _b11 = o.class("B11", &[b1]);
    let c = o.class("C", &[thing]);
    let _c1 = o.class("C1", &[c]);
    let _ = a2;
    let n = o.len();
    assert_eq!(n, 10, "generators below assume 10 classes");
    (o, n as u32)
}

fn arb_class(rng: &mut Rng, n: u32) -> ClassId {
    ClassId(rng.gen_range(0..n))
}

fn arb_profile(rng: &mut Rng, n: u32) -> ServiceProfile {
    ServiceProfile::new("p", arb_class(rng, n))
        .with_inputs(&gen::vec_of(rng, 0, 3, |r| arb_class(r, n)))
        .with_outputs(&gen::vec_of(rng, 0, 3, |r| arb_class(r, n)))
}

fn arb_request(rng: &mut Rng, n: u32) -> ServiceRequest {
    ServiceRequest {
        category: gen::option_of(rng, |r| arb_class(r, n)),
        outputs: gen::vec_of(rng, 0, 3, |r| arb_class(r, n)),
        provided_inputs: gen::vec_of(rng, 0, 3, |r| arb_class(r, n)),
        qos: Vec::new(),
    }
}

fn arb_description(rng: &mut Rng, n: u32) -> Description {
    match rng.gen_range(0..3u32) {
        0 => Description::Uri(format!("urn:svc:{}", rng.gen_range(0..6u32))),
        1 => Description::Template(DescriptionTemplate {
            name: None,
            type_uri: Some(format!("urn:svc:{}", rng.gen_range(0..6u32))),
            attrs: vec![],
        }),
        _ => Description::Semantic(arb_profile(rng, n)),
    }
}

fn arb_payload(rng: &mut Rng, n: u32) -> QueryPayload {
    match rng.gen_range(0..3u32) {
        0 => QueryPayload::Uri(format!("urn:svc:{}", rng.gen_range(0..6u32))),
        1 => QueryPayload::Template(DescriptionTemplate {
            name: None,
            type_uri: Some(format!("urn:svc:{}", rng.gen_range(0..6u32))),
            attrs: vec![],
        }),
        _ => QueryPayload::Semantic(arb_request(rng, n)),
    }
}

/// Builds the engine, publishes `descriptions`, and returns sorted provider
/// hit lists from both the engine and the oracle for `payload`.
fn engine_vs_oracle(descriptions: &[Description], payload: &QueryPayload) -> (Vec<NodeId>, Vec<NodeId>) {
    let (ont, _) = taxonomy();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let oracle = Oracle::new(idx.clone());

    let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
    engine.register_evaluator(Box::new(UriEvaluator));
    engine.register_evaluator(Box::new(TemplateEvaluator));
    engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));

    let services: Vec<(NodeId, Description)> = descriptions
        .iter()
        .enumerate()
        .map(|(i, d)| (NodeId(i as u32 + 100), d.clone()))
        .collect();
    for (i, (node, d)) in services.iter().enumerate() {
        let advert = Advertisement {
            id: Uuid(i as u128 + 1),
            provider: *node,
            description: d.clone(),
            version: 1,
        };
        engine.publish(advert, *node, 0, 1_000_000);
    }

    let query = QueryMessage {
        id: QueryId { origin: NodeId(0), seq: 0 },
        payload: payload.clone(),
        max_responses: None,
        ttl: 0,
        reply_to: None,
    };
    let mut engine_hits: Vec<NodeId> =
        engine.evaluate(&query, 100).iter().map(|h| h.advert.provider).collect();
    let mut oracle_hits = oracle.expected_providers(payload, &services, |_| true);
    engine_hits.sort();
    oracle_hits.sort();
    (engine_hits, oracle_hits)
}

#[test]
fn oracle_and_registry_engine_agree() {
    Checker::new("oracle_and_registry_engine_agree").run(|rng| {
        let n = taxonomy().1;
        let descriptions = gen::vec_of(rng, 1, 12, |r| arb_description(r, n));
        let payload = arb_payload(rng, n);
        let (engine_hits, oracle_hits) = engine_vs_oracle(&descriptions, &payload);
        assert_eq!(engine_hits, oracle_hits);
    });
}

/// The shrunken case preserved from `properties_cross.proptest-regressions`:
/// a semantic profile whose input concept (ClassId(10)) lies OUTSIDE the
/// 10-class taxonomy, queried with a request providing only ClassId(0). The
/// engine and the oracle must agree on how an out-of-ontology input fails to
/// be covered.
#[test]
fn regression_profile_with_out_of_taxonomy_input() {
    let descriptions = vec![Description::Semantic(ServiceProfile {
        name: "p".into(),
        category: ClassId(0),
        inputs: vec![ClassId(10)],
        outputs: vec![],
        qos: vec![],
    })];
    let payload = QueryPayload::Semantic(ServiceRequest {
        category: None,
        outputs: vec![],
        provided_inputs: vec![ClassId(0)],
        qos: vec![],
    });
    let (engine_hits, oracle_hits) = engine_vs_oracle(&descriptions, &payload);
    assert_eq!(engine_hits, oracle_hits);
}

#[test]
fn response_control_returns_a_prefix_of_the_unlimited_ranking() {
    Checker::new("response_control_returns_a_prefix_of_the_unlimited_ranking").run(|rng| {
        let n = taxonomy().1;
        let descriptions = gen::vec_of(rng, 1, 12, |r| arb_description(r, n));
        let payload = arb_payload(rng, n);
        let k = rng.gen_range(0..8u16);
        let (ont, _) = taxonomy();
        let idx = Arc::new(SubsumptionIndex::build(&ont));
        let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        engine.register_evaluator(Box::new(UriEvaluator));
        engine.register_evaluator(Box::new(TemplateEvaluator));
        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
        for (i, d) in descriptions.iter().enumerate() {
            let advert = Advertisement {
                id: Uuid(i as u128 + 1),
                provider: NodeId(i as u32),
                description: d.clone(),
                version: 1,
            };
            engine.publish(advert, NodeId(i as u32), 0, 1_000_000);
        }
        let mk = |max| QueryMessage {
            id: QueryId { origin: NodeId(0), seq: 0 },
            payload: payload.clone(),
            max_responses: max,
            ttl: 0,
            reply_to: None,
        };
        let unlimited = engine.evaluate(&mk(None), 100);
        let limited = engine.evaluate(&mk(Some(k)), 100);
        assert_eq!(limited.len(), unlimited.len().min(k as usize));
        for (l, u) in limited.iter().zip(unlimited.iter()) {
            assert_eq!(&l.advert.id, &u.advert.id, "truncation preserves ranking order");
        }
    });
}

/// A compact message generator spanning all three op families — enough
/// surface for the fuzz property below to reach every handler arm.
fn arb_wire_message(rng: &mut Rng, n: u32) -> sds_protocol::DiscoveryMessage {
    use sds_protocol::{
        DiscoveryMessage, MaintenanceOp, PublishOp, QueryOp, ResponseHit, SharedAdvert, SyncEntry,
    };
    use sds_semantic::Degree;
    let advert = |rng: &mut Rng| {
        SharedAdvert::from(Advertisement {
            id: Uuid(rng.gen_u128()),
            provider: NodeId(rng.gen_range(0..10u32)),
            description: arb_description(rng, n),
            version: rng.next_u32(),
        })
    };
    let qid = |rng: &mut Rng| QueryId {
        origin: NodeId(rng.gen_range(0..10u32)),
        seq: rng.next_u64(),
    };
    match rng.gen_range(0..17u32) {
        0 => DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbe),
        1 => DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
            advert_count: rng.next_u32(),
            load: rng.next_u32(),
        }),
        2 => DiscoveryMessage::maintenance(MaintenanceOp::Pong),
        3 => DiscoveryMessage::maintenance(MaintenanceOp::RegistryList {
            registries: gen::vec_of(rng, 0, 4, |r| NodeId(r.gen_range(0..10u32))),
        }),
        4 => DiscoveryMessage::maintenance(MaintenanceOp::FederationJoin {
            known_peers: gen::vec_of(rng, 0, 4, |r| NodeId(r.gen_range(0..10u32))),
        }),
        5 => DiscoveryMessage::publishing(PublishOp::Publish {
            advert: advert(rng),
            lease_ms: rng.next_u64(),
        }),
        6 => DiscoveryMessage::publishing(PublishOp::PublishAck {
            id: Uuid(rng.gen_u128()),
            lease_until: rng.next_u64(),
        }),
        7 => DiscoveryMessage::publishing(PublishOp::RenewAck {
            id: Uuid(rng.gen_u128()),
            lease_until: rng.next_u64(),
            known: rng.gen_bool(0.5),
        }),
        8 => DiscoveryMessage::querying(QueryOp::Query(QueryMessage {
            id: qid(rng),
            payload: arb_payload(rng, n),
            max_responses: gen::option_of(rng, |r| r.next_u64() as u16),
            ttl: rng.gen_range(0..=8u8),
            reply_to: gen::option_of(rng, |r| NodeId(r.gen_range(0..10u32))),
        })),
        9 => DiscoveryMessage::querying(QueryOp::QueryResponse {
            query_id: qid(rng),
            hits: gen::vec_of(rng, 0, 3, |r| ResponseHit {
                advert: advert(r),
                degree: Degree::Exact,
                distance: r.next_u32(),
            }),
            responder: NodeId(rng.gen_range(0..10u32)),
        }),
        10 => DiscoveryMessage::querying(QueryOp::Subscribe {
            id: qid(rng),
            payload: arb_payload(rng, n),
            lease_ms: rng.next_u64(),
        }),
        11 => DiscoveryMessage::querying(QueryOp::Notify {
            subscription: qid(rng),
            hit: ResponseHit { advert: advert(rng), degree: Degree::PlugIn, distance: 0 },
        }),
        // Anti-entropy ops. `count` deliberately decouples from the bucket
        // vector length so shape-skewed digests reach the comparison arm.
        12 => DiscoveryMessage::maintenance(MaintenanceOp::SyncDigest {
            count: rng.gen_range(0..20u32),
            buckets: gen::vec_of(rng, 0, 20, |r| r.next_u64()),
        }),
        13 => DiscoveryMessage::maintenance(MaintenanceOp::SyncDelta {
            buckets: gen::vec_of(rng, 0, 6, |r| r.next_u64() as u16),
            entries: gen::vec_of(rng, 0, 4, |r| {
                if r.gen_bool(0.5) {
                    SyncEntry::Full { advert: advert(r), lease_until: r.next_u64() }
                } else {
                    // Version-skewed delta: a renewal for an (id, version)
                    // pair the receiver almost certainly never stored.
                    SyncEntry::Delta {
                        id: Uuid(r.gen_u128()),
                        version: r.next_u32(),
                        lease_until: r.next_u64(),
                    }
                }
            }),
        }),
        14 => DiscoveryMessage::maintenance(MaintenanceOp::SyncAck {
            missing: gen::vec_of(rng, 0, 4, |r| Uuid(r.gen_u128())),
        }),
        // Overload ops: backpressure nacks (with absurd retry hints) and
        // admission-deduplicated retries (with root sequences unrelated to
        // the carried query id).
        15 => DiscoveryMessage::maintenance(MaintenanceOp::Busy {
            retry_after_ms: rng.next_u64(),
        }),
        _ => DiscoveryMessage::querying(QueryOp::QueryRetry {
            query: QueryMessage {
                id: qid(rng),
                payload: arb_payload(rng, n),
                max_responses: gen::option_of(rng, |r| r.next_u64() as u16),
                ttl: rng.gen_range(0..=8u8),
                reply_to: gen::option_of(rng, |r| NodeId(r.gen_range(0..10u32))),
            },
            root_seq: rng.next_u64(),
        }),
    }
}

#[test]
fn handlers_survive_fuzzed_payload_frames() {
    // Field-aware corruption produces frames with a valid envelope whose
    // payload bytes are garbage — precisely the frames that get past the
    // outer decode checks and into role handlers. Every decodable mutant,
    // delivered to every role, must be handled without a panic (bogus ids,
    // absurd lease times, unknown peers, hits for queries never issued).
    use sds_core::{ClientConfig, ClientNode, RegistryConfig, RegistryNode, ServiceConfig, ServiceNode};
    use sds_protocol::codec;
    use sds_simnet::{NodeHandler, Sim, SimConfig, Topology};

    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<sds_protocol::DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 9);
    let registry =
        sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    let service = sim.add_node(
        lan,
        Box::new(ServiceNode::new(
            ServiceConfig::default(),
            vec![Description::Uri("urn:svc:0".into())],
            None,
        )),
    );
    let client = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(2_000);

    let peers = [registry, service, client];
    Checker::new("handlers_survive_fuzzed_payload_frames").cases(1024).run(|rng| {
        let n = taxonomy().1;
        let msg = arb_wire_message(rng, n);
        let bytes = codec::encode(&msg);
        let fuzzed = codec::fuzz_payload(rng, &bytes);
        let Ok(decoded) = codec::decode(&fuzzed) else {
            return; // rejected at the wire; the simulator would drop it
        };
        let from = peers[rng.gen_range(0..peers.len())];
        sim.with_node::<RegistryNode>(registry, |node, ctx| {
            NodeHandler::on_message(node, ctx, from, decoded.clone());
        });
        sim.with_node::<ServiceNode>(service, |node, ctx| {
            NodeHandler::on_message(node, ctx, from, decoded.clone());
        });
        sim.with_node::<ClientNode>(client, |node, ctx| {
            NodeHandler::on_message(node, ctx, from, decoded);
        });
    });
    // Drain everything the mutants provoked (replies, timers, forwards).
    let drain_until = sim.now() + 30_000;
    sim.run_until(drain_until);
}
