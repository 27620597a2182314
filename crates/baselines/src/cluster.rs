//! A UDDI-like replicated registry cluster.
//!
//! "One could view a clustered registry as a hybrid topology as well. With
//! this scheme, one registry is replicated on several nodes. This means that
//! exactly the same content is present at different nodes. An example of a
//! system using this principle is UDDI."
//!
//! Every replica answers queries from its full copy; publishes are forwarded
//! to the other replicas; nothing is leased, so adverts of crashed providers
//! persist until explicitly removed — exactly the staleness failure mode the
//! paper attributes to UDDI.

use std::sync::Arc;

use sds_protocol::{
    Codec, DiscoveryMessage, MaintenanceOp, ModelId, Operation, PublishOp, QueryOp,
};
use sds_registry::{
    LeasePolicy, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{Ctx, Destination, NodeHandler, NodeId, SimTime, TimerId};

const TAG_BEACON: u64 = 1;

/// Configuration of one cluster replica.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The other replicas this node pushes content to.
    pub replicas: Vec<NodeId>,
    /// Description models evaluated.
    pub models: Vec<ModelId>,
    /// Presence beacon period (0 disables; clients then need static
    /// endpoints, as with real UDDI).
    pub beacon_interval: SimTime,
    pub codec: Codec,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replicas: Vec::new(),
            models: vec![ModelId::Uri, ModelId::Template, ModelId::Semantic],
            beacon_interval: 5_000,
            codec: Codec::default(),
        }
    }
}

/// One replica of the UDDI-like cluster.
pub struct ClusterRegistryNode {
    cfg: ClusterConfig,
    semantic_index: Option<Arc<SubsumptionIndex>>,
    engine: ShardedEngine,
    /// Publishes accepted directly from providers (not replication traffic).
    pub direct_publishes: u64,
}

impl ClusterRegistryNode {
    pub fn new(cfg: ClusterConfig, semantic_index: Option<Arc<SubsumptionIndex>>) -> Self {
        let engine = Self::fresh_engine(&cfg, &semantic_index);
        Self { cfg, semantic_index, engine, direct_publishes: 0 }
    }

    fn fresh_engine(cfg: &ClusterConfig, idx: &Option<Arc<SubsumptionIndex>>) -> ShardedEngine {
        // UDDI semantics: no leases, ever — and one shard: a replica is one
        // plain registry.
        let mut engine = ShardedEngine::new(LeasePolicy::no_leasing(), 1, idx.as_deref());
        for model in &cfg.models {
            match model {
                ModelId::Uri => engine.register_evaluator(Box::new(UriEvaluator)),
                ModelId::Template => engine.register_evaluator(Box::new(TemplateEvaluator)),
                ModelId::Semantic => {
                    if let Some(idx) = idx {
                        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
                    }
                }
            }
        }
        engine
    }

    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    fn is_replica(&self, node: NodeId) -> bool {
        self.cfg.replicas.contains(&node)
    }

    fn send(&self, ctx: &mut Ctx<'_, DiscoveryMessage>, to: NodeId, msg: DiscoveryMessage) {
        let bytes = self.cfg.codec.message_size(&msg);
        let kind = msg.kind();
        ctx.send(Destination::Unicast(to), msg, bytes, kind);
    }
}

impl NodeHandler<DiscoveryMessage> for ClusterRegistryNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        self.engine = Self::fresh_engine(&self.cfg, &self.semantic_index);
        if self.cfg.beacon_interval > 0 {
            let lan = ctx.lan();
            let msg = DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon {
                advert_count: 0,
            });
            let bytes = self.cfg.codec.message_size(&msg);
            ctx.send(Destination::Multicast(lan), msg, bytes, "beacon");
            ctx.set_timer(self.cfg.beacon_interval, TAG_BEACON);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Maintenance(MaintenanceOp::RegistryProbe) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
                    advert_count: self.engine.store().len() as u32,
                    load: 0,
                });
                self.send(ctx, from, reply);
            }
            Operation::Maintenance(MaintenanceOp::Ping) => {
                self.send(ctx, from, DiscoveryMessage::maintenance(MaintenanceOp::Pong));
            }
            Operation::Maintenance(MaintenanceOp::RegistryListRequest { .. }) => {
                let mut registries = self.cfg.replicas.clone();
                registries.push(ctx.node());
                self.send(
                    ctx,
                    from,
                    DiscoveryMessage::maintenance(MaintenanceOp::RegistryList { registries }),
                );
            }
            Operation::Publishing(op) => match op {
                PublishOp::Publish { advert, .. } | PublishOp::Update { advert, .. } => {
                    let id = advert.id;
                    let (_, lease_until) =
                        self.engine.publish(advert.clone(), from, ctx.now(), 0);
                    self.direct_publishes += 1;
                    self.send(
                        ctx,
                        from,
                        DiscoveryMessage::publishing(PublishOp::PublishAck { id, lease_until }),
                    );
                    // Replicate to the rest of the cluster.
                    for &replica in &self.cfg.replicas.clone() {
                        self.send(
                            ctx,
                            replica,
                            DiscoveryMessage::publishing(PublishOp::ForwardAdverts {
                                adverts: vec![advert.clone()],
                            }),
                        );
                    }
                }
                PublishOp::ForwardAdverts { adverts } => {
                    for advert in adverts {
                        let _ = self.engine.publish(advert, from, ctx.now(), 0);
                    }
                }
                PublishOp::RenewLease { id } => {
                    // Nothing is leased; acknowledge so providers stay quiet.
                    let (known, lease_until) = self.engine.renew(id, ctx.now());
                    self.send(
                        ctx,
                        from,
                        DiscoveryMessage::publishing(PublishOp::RenewAck {
                            id,
                            lease_until,
                            known,
                        }),
                    );
                }
                PublishOp::Remove { id } => {
                    self.engine.remove(id);
                    // Propagate explicit removals, but never re-propagate
                    // replication traffic (loop avoidance).
                    if !self.is_replica(from) {
                        for &replica in &self.cfg.replicas.clone() {
                            self.send(
                                ctx,
                                replica,
                                DiscoveryMessage::publishing(PublishOp::Remove { id }),
                            );
                        }
                    }
                }
                // UDDI-class baselines do no ontology validation, so they
                // never emit nacks; arriving ones are ignored.
                PublishOp::PublishAck { .. }
                | PublishOp::RenewAck { .. }
                | PublishOp::PublishNack { .. } => {}
            },
            Operation::Querying(QueryOp::Query(query)) => {
                // Full replication: answer entirely from the local copy.
                let hits = self.engine.evaluate(&query, ctx.now());
                let reply = DiscoveryMessage::querying(QueryOp::QueryResponse {
                    query_id: query.id,
                    hits,
                    responder: ctx.node(),
                });
                self.send(ctx, from, reply);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, _timer: TimerId, tag: u64) {
        if tag == TAG_BEACON {
            let lan = ctx.lan();
            let msg = DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon {
                advert_count: self.engine.store().len() as u32,
            });
            let bytes = self.cfg.codec.message_size(&msg);
            ctx.send(Destination::Multicast(lan), msg, bytes, "beacon");
            ctx.set_timer(self.cfg.beacon_interval, TAG_BEACON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_core::{ClientNode, QueryOptions, ServiceNode};
    use sds_protocol::{Description, QueryPayload};
    use sds_simnet::{secs, Sim, SimConfig, Topology};

    fn cluster_world() -> (Sim<DiscoveryMessage>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let lan = topo.add_lan();
        let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 99);
        // Two replicas that know each other (ids 0 and 1).
        let r0 = sim.add_node(
            lan,
            Box::new(ClusterRegistryNode::new(
                ClusterConfig { replicas: vec![NodeId(1)], ..Default::default() },
                None,
            )),
        );
        let r1 = sim.add_node(
            lan,
            Box::new(ClusterRegistryNode::new(
                ClusterConfig { replicas: vec![NodeId(0)], ..Default::default() },
                None,
            )),
        );
        (sim, r0, r1)
    }

    #[test]
    fn publish_replicates_to_all_replicas() {
        let (mut sim, r0, r1) = cluster_world();
        let lan = sim.topology().lan_of(r0);
        let _svc = sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                crate::presets::uddi_service(r0),
                vec![Description::Uri("urn:svc:x".into())],
                None,
            )),
        );
        sim.run_until(secs(1));
        assert_eq!(sim.handler::<ClusterRegistryNode>(r0).unwrap().engine().store().len(), 1);
        assert_eq!(
            sim.handler::<ClusterRegistryNode>(r1).unwrap().engine().store().len(),
            1,
            "replicated"
        );
    }

    #[test]
    fn stale_adverts_survive_provider_crash() {
        let (mut sim, r0, _r1) = cluster_world();
        let lan = sim.topology().lan_of(r0);
        let svc = sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                crate::presets::uddi_service(r0),
                vec![Description::Uri("urn:svc:x".into())],
                None,
            )),
        );
        let client = sim.add_node(
            lan,
            Box::new(ClientNode::new(crate::presets::centralized_client(r0))),
        );
        sim.run_until(secs(1));
        sim.crash_node(svc);
        // Long after the crash, the lease-less registry still serves the
        // dead service — the paper's UDDI staleness failure.
        sim.run_until(secs(120));
        sim.with_node::<ClientNode>(client, |c, ctx| {
            c.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), QueryOptions::default());
        });
        sim.run_until(secs(126));
        let done = &sim.handler::<ClientNode>(client).unwrap().completed;
        assert_eq!(done[0].hits.len(), 1, "stale advert served");
        assert_eq!(done[0].hits[0].advert.provider, svc);
        assert!(!sim.is_alive(svc), "…whose provider is long dead");
    }

    #[test]
    fn explicit_remove_propagates_without_looping() {
        let (mut sim, r0, r1) = cluster_world();
        let lan = sim.topology().lan_of(r0);
        let svc = sim.add_node(
            lan,
            Box::new(ServiceNode::new(
                crate::presets::uddi_service(r0),
                vec![Description::Uri("urn:svc:x".into())],
                None,
            )),
        );
        sim.run_until(secs(1));
        let advert_id = sim.handler::<ServiceNode>(svc).unwrap().advert_ids()[0].unwrap();
        // Client-side explicit deregistration (what UDDI relies on).
        sim.with_node::<ServiceNode>(svc, |_s, ctx| {
            let msg = DiscoveryMessage::publishing(PublishOp::Remove { id: advert_id });
            let bytes = Codec::default().message_size(&msg);
            ctx.send(Destination::Unicast(r0), msg, bytes, "remove");
        });
        sim.run_until(secs(2));
        assert!(sim.handler::<ClusterRegistryNode>(r0).unwrap().engine().store().is_empty());
        assert!(sim.handler::<ClusterRegistryNode>(r1).unwrap().engine().store().is_empty());
    }
}
