//! A WS-Discovery-like LAN discovery baseline.
//!
//! Models the two modes of WS-Dynamic-Discovery the paper discusses:
//!
//! * **Ad hoc mode**: services announce themselves with a multicast *Hello*
//!   on joining and a *Bye* on graceful departure; clients probe by
//!   multicast and providers answer directly. "WS-Discovery, because of its
//!   decentralized nature, does not need an explicit leasing mechanism when
//!   used in decentralized mode."
//! * **Managed mode**: a *discovery proxy* caches Hello announcements and
//!   answers probes, suppressing the multicast storm — but "when used with a
//!   discovery proxy the same shortcoming applies": a crashed service never
//!   sends Bye, so the proxy serves it forever.
//!
//! Message reuse: Hello = multicast `Publish`, Bye = multicast `Remove`,
//! proxy presence = `RegistryBeacon` (so plain `sds-core` clients can attach
//! to the proxy), probes = multicast `Query`.

use std::sync::Arc;

use sds_protocol::{
    Advertisement, Codec, Description, DiscoveryMessage, MaintenanceOp, Operation, PublishOp,
    QueryOp, ResponseHit, SharedAdvert, Uuid,
};
use sds_registry::{ModelEvaluator, SemanticEvaluator, TemplateEvaluator, UriEvaluator};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{Ctx, Destination, NodeHandler, NodeId, SimTime, TimerId};

const TAG_BEACON: u64 = 1;

fn evaluators(idx: Option<Arc<SubsumptionIndex>>) -> Vec<Box<dyn ModelEvaluator>> {
    let mut v: Vec<Box<dyn ModelEvaluator>> =
        vec![Box::new(UriEvaluator), Box::new(TemplateEvaluator)];
    if let Some(idx) = idx {
        v.push(Box::new(SemanticEvaluator::new(idx)));
    }
    v
}

fn evaluate_all(
    evaluators: &[Box<dyn ModelEvaluator>],
    payload: &sds_protocol::QueryPayload,
    adverts: impl Iterator<Item = SharedAdvert>,
) -> Vec<ResponseHit> {
    let mut hits = Vec::new();
    for advert in adverts {
        for e in evaluators {
            if e.model() == payload.model() {
                if let Some((degree, distance)) = e.evaluate(payload, &advert) {
                    hits.push(ResponseHit { advert: advert.clone(), degree, distance });
                }
            }
        }
    }
    hits
}

/// A WS-Discovery service endpoint.
pub struct WsServiceNode {
    descriptions: Vec<Description>,
    evaluators: Vec<Box<dyn ModelEvaluator>>,
    codec: Codec,
    adverts: Vec<SharedAdvert>,
    /// When a proxy has been heard, providers stay silent on probes.
    proxy_seen: Option<SimTime>,
    /// How long a proxy beacon suppresses direct answers.
    proxy_timeout: SimTime,
    pub answers_sent: u64,
}

impl WsServiceNode {
    pub fn new(
        descriptions: Vec<Description>,
        semantic_index: Option<Arc<SubsumptionIndex>>,
        codec: Codec,
    ) -> Self {
        Self {
            descriptions,
            evaluators: evaluators(semantic_index),
            codec,
            adverts: Vec::new(),
            proxy_seen: None,
            proxy_timeout: 12_000,
            answers_sent: 0,
        }
    }

    /// Graceful departure: multicast Bye for every advert. (A crash never
    /// gets to call this — that asymmetry is the baseline's failure mode.)
    pub fn leave(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let lan = ctx.lan();
        for advert in &self.adverts {
            let msg = DiscoveryMessage::publishing(PublishOp::Remove { id: advert.id });
            let bytes = self.codec.message_size(&msg);
            ctx.send(Destination::Multicast(lan), msg, bytes, "bye");
        }
    }

    fn proxy_active(&self, now: SimTime) -> bool {
        self.proxy_seen.is_some_and(|t| now.saturating_sub(t) < self.proxy_timeout)
    }
}

impl NodeHandler<DiscoveryMessage> for WsServiceNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        // Hello: announce every hosted service on the LAN.
        self.adverts = self
            .descriptions
            .iter()
            .map(|d| {
                SharedAdvert::from(Advertisement {
                    id: Uuid::generate(ctx.rng()),
                    provider: ctx.node(),
                    description: d.clone(),
                    version: 1,
                })
            })
            .collect();
        let lan = ctx.lan();
        for advert in &self.adverts {
            let msg = DiscoveryMessage::publishing(PublishOp::Publish {
                advert: advert.clone(),
                lease_ms: 0,
            });
            let bytes = self.codec.message_size(&msg);
            ctx.send(Destination::Multicast(lan), msg, bytes, "hello");
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Maintenance(MaintenanceOp::RegistryBeacon { .. }) => {
                self.proxy_seen = Some(ctx.now());
            }
            Operation::Querying(QueryOp::Query(query)) => {
                if self.proxy_active(ctx.now()) {
                    return; // managed mode: the proxy answers
                }
                let hits =
                    evaluate_all(&self.evaluators, &query.payload, self.adverts.iter().cloned());
                if !hits.is_empty() {
                    self.answers_sent += 1;
                    let reply = DiscoveryMessage::querying(QueryOp::QueryResponse {
                        query_id: query.id,
                        hits,
                        responder: ctx.node(),
                    });
                    let bytes = self.codec.message_size(&reply);
                    ctx.send(Destination::Unicast(from), reply, bytes, "query-response");
                }
            }
            _ => {}
        }
    }
}

/// A WS-Discovery discovery proxy: caches Hellos, beacons its presence,
/// answers probes and unicast queries. No leases — Bye is the only way an
/// entry leaves the cache.
pub struct WsProxyNode {
    evaluators: Vec<Box<dyn ModelEvaluator>>,
    codec: Codec,
    beacon_interval: SimTime,
    cache: Vec<SharedAdvert>,
    pub answers_sent: u64,
}

impl WsProxyNode {
    pub fn new(
        semantic_index: Option<Arc<SubsumptionIndex>>,
        beacon_interval: SimTime,
        codec: Codec,
    ) -> Self {
        Self {
            evaluators: evaluators(semantic_index),
            codec,
            beacon_interval,
            cache: Vec::new(),
            answers_sent: 0,
        }
    }

    /// Cached advertisement count (staleness inspection).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn beacon(&self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let lan = ctx.lan();
        let msg = DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon {
            advert_count: self.cache.len() as u32,
        });
        let bytes = self.codec.message_size(&msg);
        ctx.send(Destination::Multicast(lan), msg, bytes, "beacon");
    }
}

impl NodeHandler<DiscoveryMessage> for WsProxyNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        self.cache.clear();
        self.beacon(ctx);
        ctx.set_timer(self.beacon_interval, TAG_BEACON);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Publishing(PublishOp::Publish { advert, .. }) => {
                // Hello: cache (replacing any same-id entry).
                self.cache.retain(|a| a.id != advert.id);
                self.cache.push(advert);
            }
            Operation::Publishing(PublishOp::Remove { id }) => {
                // Bye.
                self.cache.retain(|a| a.id != id);
            }
            Operation::Maintenance(MaintenanceOp::RegistryProbe) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
                    advert_count: self.cache.len() as u32,
                    load: 0,
                });
                let bytes = self.codec.message_size(&reply);
                ctx.send(Destination::Unicast(from), reply, bytes, "probe-reply");
            }
            Operation::Maintenance(MaintenanceOp::Ping) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::Pong);
                let bytes = self.codec.message_size(&reply);
                ctx.send(Destination::Unicast(from), reply, bytes, "pong");
            }
            Operation::Maintenance(MaintenanceOp::RegistryListRequest { .. }) => {
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryList {
                    registries: vec![ctx.node()],
                });
                let bytes = self.codec.message_size(&reply);
                ctx.send(Destination::Unicast(from), reply, bytes, "reglist");
            }
            Operation::Querying(QueryOp::Query(query)) => {
                let mut hits =
                    evaluate_all(&self.evaluators, &query.payload, self.cache.iter().cloned());
                sds_registry::rank_hits(&mut hits);
                if let Some(k) = query.max_responses {
                    hits.truncate(k as usize);
                }
                self.answers_sent += 1;
                let reply = DiscoveryMessage::querying(QueryOp::QueryResponse {
                    query_id: query.id,
                    hits,
                    responder: ctx.node(),
                });
                let bytes = self.codec.message_size(&reply);
                ctx.send(Destination::Unicast(from), reply, bytes, "query-response");
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, _timer: TimerId, tag: u64) {
        if tag == TAG_BEACON {
            self.beacon(ctx);
            ctx.set_timer(self.beacon_interval, TAG_BEACON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_core::{ClientConfig, ClientNode, QueryMode, QueryOptions};
    use sds_protocol::QueryPayload;
    use sds_simnet::{secs, Sim, SimConfig, Topology};

    fn lan_world() -> (Sim<DiscoveryMessage>, sds_simnet::LanId) {
        let mut topo = Topology::new();
        let lan = topo.add_lan();
        (Sim::new(SimConfig::default(), topo, 7), lan)
    }

    fn multicast_query(sim: &mut Sim<DiscoveryMessage>, client: NodeId, uri: &str) {
        let payload = QueryPayload::Uri(uri.into());
        sim.with_node::<ClientNode>(client, |c, ctx| {
            c.issue_query(
                ctx,
                payload,
                QueryOptions { mode: QueryMode::MulticastLan, ..Default::default() },
            );
        });
    }

    #[test]
    fn adhoc_mode_providers_answer_probes() {
        let (mut sim, lan) = lan_world();
        let _s = sim.add_node(
            lan,
            Box::new(WsServiceNode::new(
                vec![Description::Uri("urn:svc:print".into())],
                None,
                Codec::default(),
            )),
        );
        let c = sim.add_node(
            lan,
            Box::new(ClientNode::new(ClientConfig {
                attach: sds_core::AttachConfig {
                    bootstrap: sds_core::Bootstrap::PassiveOnly,
                    ..Default::default()
                },
                ..Default::default()
            })),
        );
        sim.run_until(secs(1));
        multicast_query(&mut sim, c, "urn:svc:print");
        sim.run_until(secs(6));
        let done = &sim.handler::<ClientNode>(c).unwrap().completed;
        assert_eq!(done[0].hits.len(), 1, "provider answered the probe directly");
    }

    #[test]
    fn managed_mode_proxy_answers_and_suppresses_providers() {
        let (mut sim, lan) = lan_world();
        let p = sim.add_node(lan, Box::new(WsProxyNode::new(None, secs(5), Codec::default())));
        let s = sim.add_node(
            lan,
            Box::new(WsServiceNode::new(
                vec![Description::Uri("urn:svc:print".into())],
                None,
                Codec::default(),
            )),
        );
        let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
        // Wait past the proxy's second beacon so the provider (added after
        // the proxy's initial beacon) learns a proxy is present.
        sim.run_until(secs(6));
        assert_eq!(sim.handler::<WsProxyNode>(p).unwrap().cache_len(), 1, "Hello cached");
        multicast_query(&mut sim, c, "urn:svc:print");
        sim.run_until(secs(11));
        let done = &sim.handler::<ClientNode>(c).unwrap().completed;
        assert_eq!(done[0].hits.len(), 1);
        assert_eq!(sim.handler::<WsServiceNode>(s).unwrap().answers_sent, 0, "provider silent");
        assert_eq!(sim.handler::<WsProxyNode>(p).unwrap().answers_sent, 1);
    }

    #[test]
    fn bye_removes_but_crash_leaves_stale_cache_entry() {
        let (mut sim, lan) = lan_world();
        let p = sim.add_node(lan, Box::new(WsProxyNode::new(None, secs(5), Codec::default())));
        let s1 = sim.add_node(
            lan,
            Box::new(WsServiceNode::new(
                vec![Description::Uri("urn:svc:a".into())],
                None,
                Codec::default(),
            )),
        );
        let s2 = sim.add_node(
            lan,
            Box::new(WsServiceNode::new(
                vec![Description::Uri("urn:svc:b".into())],
                None,
                Codec::default(),
            )),
        );
        sim.run_until(secs(1));
        assert_eq!(sim.handler::<WsProxyNode>(p).unwrap().cache_len(), 2);

        // Graceful leave sends Bye.
        sim.with_node::<WsServiceNode>(s1, |svc, ctx| svc.leave(ctx));
        sim.run_until(secs(2));
        assert_eq!(sim.handler::<WsProxyNode>(p).unwrap().cache_len(), 1);

        // A crash sends nothing: the entry stays forever.
        sim.crash_node(s2);
        sim.run_until(secs(300));
        assert_eq!(
            sim.handler::<WsProxyNode>(p).unwrap().cache_len(),
            1,
            "stale entry survives (the paper's proxy shortcoming)"
        );
    }
}
