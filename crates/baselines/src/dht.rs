//! A DHT keyword-index baseline (consistent hashing over super-peers).
//!
//! "Super-peer distributed hash tables are used in several peer-to-peer
//! systems … Such systems are based on storage of hashes in the intermediate
//! nodes, and therefore, semantic query evaluation cannot be performed at
//! the intermediate nodes in such systems."
//!
//! Advertisements are indexed under a single *key* extracted from the
//! description (the URI, the template's type, or the semantic category
//! IRI); lookups hash the query's key and route to the owner, which can
//! only compare keys for equality. Subsumption ("give me any `Sensor`")
//! structurally cannot be answered — the claim experiment E12 measures.
//!
//! Membership is static full membership (one-hop DHT), as in super-peer
//! deployments where the registry set is small and known.

use sds_protocol::{
    Codec, Description, DiscoveryMessage, MaintenanceOp, Operation, PublishOp, QueryOp,
    QueryPayload, ResponseHit, SharedAdvert,
};
use sds_semantic::Degree;
use sds_simnet::{secs, Ctx, Destination, IdMap, NodeHandler, NodeId, SimTime, TimerId};

const TAG_BEACON: u64 = 1;
/// Presence beacon period, so providers and clients can attach.
const BEACON_INTERVAL: SimTime = secs(5);

/// FNV-1a, the classic cheap string hash — adequate for ring placement.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The DHT key a description is indexed under, if it has one.
pub fn dht_key_of_description(d: &Description) -> Option<String> {
    match d {
        Description::Uri(u) => Some(u.clone()),
        Description::Template(t) => t.type_uri.clone().or_else(|| t.name.clone()),
        // Only the category concept is hashable; everything else in the
        // profile is invisible to a hash index.
        Description::Semantic(p) => Some(format!("cat:{}", p.category.0)),
    }
}

/// The DHT key a query routes by, if it has one.
pub fn dht_key_of_payload(p: &QueryPayload) -> Option<String> {
    match p {
        QueryPayload::Uri(u) => Some(u.clone()),
        QueryPayload::Template(t) => t.type_uri.clone().or_else(|| t.name.clone()),
        QueryPayload::Semantic(r) => r.category.map(|c| format!("cat:{}", c.0)),
    }
}

/// Counters for experiments.
#[derive(Clone, Copy, Default, Debug)]
pub struct DhtStats {
    pub stored: u64,
    pub routed_publishes: u64,
    pub routed_queries: u64,
    pub answered: u64,
}

/// One DHT super-peer node.
pub struct DhtNode {
    /// All ring members (including this node).
    members: Vec<NodeId>,
    /// Key → adverts stored under that key (this node owns these keys).
    index: IdMap<String, Vec<SharedAdvert>>,
    pub stats: DhtStats,
}

impl DhtNode {
    pub fn new(members: Vec<NodeId>) -> Self {
        Self { members, index: IdMap::default(), stats: DhtStats::default() }
    }

    pub fn stored_keys(&self) -> usize {
        self.index.len()
    }

    fn ring_position(node: NodeId) -> u64 {
        fnv1a(&format!("node:{}", node.0))
    }

    /// Consistent hashing: the owner of `key` is the member with the
    /// smallest ring position ≥ hash(key), wrapping around.
    fn owner_of(&self, key: &str) -> NodeId {
        let h = fnv1a(key);
        let mut best_wrap: Option<(u64, NodeId)> = None;
        let mut best_ge: Option<(u64, NodeId)> = None;
        for &m in &self.members {
            let pos = Self::ring_position(m);
            if pos >= h
                && best_ge.is_none_or(|(p, _)| pos < p) {
                    best_ge = Some((pos, m));
                }
            if best_wrap.is_none_or(|(p, _)| pos < p) {
                best_wrap = Some((pos, m));
            }
        }
        best_ge.or(best_wrap).expect("ring has members").1
    }

    fn send(&self, ctx: &mut Ctx<'_, DiscoveryMessage>, to: NodeId, msg: DiscoveryMessage) {
        let bytes = Codec::default().message_size(&msg);
        let kind = msg.kind();
        ctx.send(Destination::Unicast(to), msg, bytes, kind);
    }

    fn beacon(&self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let lan = ctx.lan();
        let msg = DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon {
            advert_count: self.index.len() as u32,
        });
        let bytes = Codec::default().message_size(&msg);
        ctx.send(Destination::Multicast(lan), msg, bytes, "beacon");
    }
}

impl NodeHandler<DiscoveryMessage> for DhtNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        self.index.clear();
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TAG_BEACON);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Maintenance(MaintenanceOp::RegistryProbe) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
                    advert_count: self.index.len() as u32,
                    load: 0,
                });
                self.send(ctx, from, reply);
            }
            Operation::Maintenance(MaintenanceOp::Ping) => {
                self.send(ctx, from, DiscoveryMessage::maintenance(MaintenanceOp::Pong));
            }
            Operation::Maintenance(MaintenanceOp::RegistryListRequest { .. }) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryList {
                    registries: self.members.clone(),
                });
                self.send(ctx, from, reply);
            }
            Operation::Publishing(PublishOp::Publish { advert, lease_ms })
            | Operation::Publishing(PublishOp::Update { advert, lease_ms }) => {
                let Some(key) = dht_key_of_description(&advert.description) else {
                    return; // unindexable description — dropped by design
                };
                let owner = self.owner_of(&key);
                if owner == ctx.node() {
                    let id = advert.id;
                    let provider = advert.provider;
                    let slot = self.index.entry(key).or_default();
                    slot.retain(|a| a.id != id);
                    slot.push(advert);
                    self.stats.stored += 1;
                    // Ack straight to the provider (not the routing hop).
                    self.send(
                        ctx,
                        provider,
                        DiscoveryMessage::publishing(PublishOp::PublishAck {
                            id,
                            lease_until: SimTime::MAX,
                        }),
                    );
                } else {
                    self.stats.routed_publishes += 1;
                    self.send(
                        ctx,
                        owner,
                        DiscoveryMessage::publishing(PublishOp::Publish { advert, lease_ms }),
                    );
                }
            }
            Operation::Publishing(PublishOp::RenewLease { id }) => {
                // No leases in the DHT; keep providers quiet.
                self.send(
                    ctx,
                    from,
                    DiscoveryMessage::publishing(PublishOp::RenewAck {
                        id,
                        lease_until: SimTime::MAX,
                        known: true,
                    }),
                );
            }
            Operation::Querying(QueryOp::Query(query)) => {
                let origin = query.id.origin;
                let Some(key) = dht_key_of_payload(&query.payload) else {
                    // Unroutable (e.g. a pure-outputs semantic request): the
                    // hash index has no entry point. Answer empty.
                    self.stats.answered += 1;
                    self.send(
                        ctx,
                        origin,
                        DiscoveryMessage::querying(QueryOp::QueryResponse {
                            query_id: query.id,
                            hits: Vec::new(),
                            responder: ctx.node(),
                        }),
                    );
                    return;
                };
                let owner = self.owner_of(&key);
                if owner == ctx.node() {
                    // Key equality is ALL the index can check.
                    let hits: Vec<ResponseHit> = self
                        .index
                        .get(&key)
                        .map(|adverts| {
                            adverts
                                .iter()
                                .map(|a| ResponseHit {
                                    advert: a.clone(),
                                    degree: Degree::Exact,
                                    distance: 0,
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    self.stats.answered += 1;
                    self.send(
                        ctx,
                        origin,
                        DiscoveryMessage::querying(QueryOp::QueryResponse {
                            query_id: query.id,
                            hits,
                            responder: ctx.node(),
                        }),
                    );
                } else {
                    self.stats.routed_queries += 1;
                    self.send(ctx, owner, DiscoveryMessage::querying(QueryOp::Query(query)));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, _timer: TimerId, tag: u64) {
        if tag == TAG_BEACON {
            self.beacon(ctx);
            ctx.set_timer(BEACON_INTERVAL, TAG_BEACON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_core::{ClientConfig, ClientNode, QueryOptions, ServiceConfig, ServiceNode};
    use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
    use sds_simnet::{secs, Sim, SimConfig, Topology};
    use std::sync::Arc;

    fn ring(n: usize, seed: u64) -> (Sim<DiscoveryMessage>, Vec<NodeId>, Vec<sds_simnet::LanId>) {
        let mut topo = Topology::new();
        let lans: Vec<_> = (0..n).map(|_| topo.add_lan()).collect();
        let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, seed);
        let members: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let ids: Vec<NodeId> = lans
            .iter()
            .map(|&lan| sim.add_node(lan, Box::new(DhtNode::new(members.clone()))))
            .collect();
        (sim, ids, lans)
    }

    #[test]
    fn owner_is_deterministic_and_consistent() {
        let (sim, ids, _) = ring(4, 1);
        let n0 = sim.handler::<DhtNode>(ids[0]).unwrap();
        let n3 = sim.handler::<DhtNode>(ids[3]).unwrap();
        for key in ["urn:a", "urn:b", "urn:c", "cat:7"] {
            assert_eq!(n0.owner_of(key), n3.owner_of(key), "all members agree on {key}");
        }
    }

    #[test]
    fn exact_uri_lookup_works_across_ring() {
        let (mut sim, _ids, lans) = ring(4, 2);
        let _svc = sim.add_node(
            lans[1],
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Uri("urn:svc:x".into())],
                None,
            )),
        );
        let c = sim.add_node(lans[2], Box::new(ClientNode::new(ClientConfig::default())));
        sim.run_until(secs(2));
        sim.with_node::<ClientNode>(c, |cl, ctx| {
            cl.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), QueryOptions::default());
        });
        sim.run_until(secs(8));
        let done = &sim.handler::<ClientNode>(c).unwrap().completed;
        assert_eq!(done[0].hits.len(), 1, "exact keyword lookup succeeds");
    }

    #[test]
    fn semantic_subsumption_query_fails_on_hash_index() {
        // A Radar service is indexed under its category; a request for the
        // PARENT category hashes to a different key — no subsumption.
        let mut ont = Ontology::new();
        let thing = ont.class("Thing", &[]);
        let surveil = ont.class("SurveillanceService", &[thing]);
        let radar_svc = ont.class("RadarService", &[surveil]);
        let idx = Arc::new(SubsumptionIndex::build(&ont));

        let (mut sim, _ids, lans) = ring(4, 3);
        let _svc = sim.add_node(
            lans[1],
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![Description::Semantic(ServiceProfile::new("radar", radar_svc))],
                Some(idx.clone()),
            )),
        );
        let c = sim.add_node(lans[2], Box::new(ClientNode::new(ClientConfig::default())));
        sim.run_until(secs(2));

        // Exact category: found (hash equality).
        sim.with_node::<ClientNode>(c, |cl, ctx| {
            cl.issue_query(
                ctx,
                QueryPayload::Semantic(ServiceRequest::for_category(radar_svc)),
                QueryOptions::default(),
            );
        });
        // Parent category: subsumption needed — structurally impossible.
        sim.with_node::<ClientNode>(c, |cl, ctx| {
            cl.issue_query(
                ctx,
                QueryPayload::Semantic(ServiceRequest::for_category(surveil)),
                QueryOptions::default(),
            );
        });
        sim.run_until(secs(10));
        let done = &sim.handler::<ClientNode>(c).unwrap().completed;
        assert_eq!(done.len(), 2);
        let exact = done.iter().find(|q| q.seq == 0).unwrap();
        let parent = done.iter().find(|q| q.seq == 1).unwrap();
        assert_eq!(exact.hits.len(), 1, "exact category key matches");
        assert_eq!(parent.hits.len(), 0, "subsumption query fails on the DHT");
    }

    #[test]
    fn unroutable_semantic_query_answers_empty() {
        let (mut sim, _ids, lans) = ring(3, 4);
        let c = sim.add_node(lans[0], Box::new(ClientNode::new(ClientConfig::default())));
        sim.run_until(secs(2));
        sim.with_node::<ClientNode>(c, |cl, ctx| {
            // No category at all: nothing to hash.
            cl.issue_query(
                ctx,
                QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[ClassId(1)])),
                QueryOptions::default(),
            );
        });
        sim.run_until(secs(8));
        let done = &sim.handler::<ClientNode>(c).unwrap().completed;
        assert_eq!(done[0].hits.len(), 0);
        assert!(done[0].responses_received >= 1, "the DHT answered, albeit emptily");
    }
}
