//! The service-node role: publishing, lease renewal, republish, failover,
//! and decentralized fallback answering.
//!
//! "Service nodes are the providers of services. They are responsible for
//! obtaining a connection to the registry network to be able to publish the
//! service description of the services it hosts … periodic messages
//! indicating that services are still alive … republishing of updated
//! service advertisements … should the registry node disappear, the service
//! node must try to find another connection point to the registry network and
//! publish its advertisement there."

use std::sync::Arc;

use sds_protocol::{
    Advertisement, AdvertId, Description, DiscoveryMessage, MaintenanceOp, Operation, PublishOp,
    QueryOp, ResponseHit, SharedAdvert, Uuid,
};
use sds_registry::{ModelEvaluator, SemanticEvaluator, TemplateEvaluator, UriEvaluator};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{Ctx, Destination, NodeHandler, NodeId, Rng, TimerId};

use crate::attach::{AttachEvent, RegistryAttachment};
use crate::config::ServiceConfig;
use crate::util::{send_msg, tags};

/// One hosted service's advertisement state.
#[derive(Clone, Debug)]
struct HostedService {
    description: Description,
    /// Stable advert id, generated on first publish.
    id: Option<AdvertId>,
    version: u32,
    /// The registry nacked this advert (unknown ontology concepts). Stop
    /// republishing/renewing it until the description changes — retrying an
    /// advert the registry cannot reason about would loop forever.
    rejected: bool,
    /// A publish/renew was sent and its ack has not arrived yet (only
    /// tracked while the ack-retry policy is enabled).
    awaiting_ack: bool,
    /// Backoff resends performed for the currently awaited ack.
    attempts: u8,
    /// Whether a retry checkpoint timer for this service is outstanding.
    retry_timer_pending: bool,
    /// The advert as last sent. Reused while `id` and `version` still match,
    /// so renew-unknown republishes, retries and fallback answers re-send
    /// one allocation instead of cloning the description each time.
    advert: Option<SharedAdvert>,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Default, Debug)]
pub struct ServiceNodeStats {
    pub publishes: u64,
    pub renewals: u64,
    pub republishes_after_unknown: u64,
    pub fallback_answers: u64,
    /// Publishes the registry rejected for unknown ontology concepts.
    pub publish_nacks: u64,
    /// Backoff resends of publishes/renewals whose ack never arrived
    /// (always 0 with the passive default policy).
    pub retry_publishes: u64,
    /// `Busy` nacks received from an overloaded home registry.
    pub busy_nacks: u64,
}

/// The service-provider role node handler.
pub struct ServiceNode {
    cfg: ServiceConfig,
    attach: RegistryAttachment,
    services: Vec<HostedService>,
    evaluators: Vec<Box<dyn ModelEvaluator>>,
    /// Lazily derived jitter stream for ack-retry backoff; never created
    /// while the retry policy is passive.
    retry_rng: Option<Rng>,
    /// Renewal-cadence stretch under registry backpressure: doubled on every
    /// `Busy` nack, halved back toward 1 on every ack, and capped so the
    /// stretched interval never exceeds half the lease (liveness traffic
    /// slows down under overload but can never slow enough to lose the
    /// lease on its own).
    renew_stretch: u32,
    pub stats: ServiceNodeStats,
}

impl ServiceNode {
    /// `semantic_index` enables fallback self-evaluation of semantic queries;
    /// nodes without it silently ignore semantic payloads (the paper's
    /// "not all nodes may be able to evaluate queries on semantic service
    /// descriptions").
    pub fn new(
        cfg: ServiceConfig,
        descriptions: Vec<Description>,
        semantic_index: Option<Arc<SubsumptionIndex>>,
    ) -> Self {
        let mut evaluators: Vec<Box<dyn ModelEvaluator>> =
            vec![Box::new(UriEvaluator), Box::new(TemplateEvaluator)];
        if let Some(idx) = semantic_index {
            evaluators.push(Box::new(SemanticEvaluator::new(idx)));
        }
        let attach = RegistryAttachment::new(cfg.attach.clone(), cfg.codec);
        Self {
            cfg,
            attach,
            services: descriptions
                .into_iter()
                .map(|description| HostedService {
                    description,
                    id: None,
                    version: 1,
                    rejected: false,
                    awaiting_ack: false,
                    attempts: 0,
                    retry_timer_pending: false,
                    advert: None,
                })
                .collect(),
            evaluators,
            retry_rng: None,
            renew_stretch: 1,
            stats: ServiceNodeStats::default(),
        }
    }

    /// Renewal interval with the current backpressure stretch applied.
    /// Stretch 1 is the exact identity; any stretch is clamped so the
    /// interval never exceeds half the lease (never slower than the
    /// configured cadence already was).
    fn stretched_renew_interval(&self) -> u64 {
        let base = self.cfg.renew_interval;
        if self.renew_stretch <= 1 {
            return base;
        }
        let mut interval = base.saturating_mul(u64::from(self.renew_stretch));
        if self.cfg.lease_ms > 0 {
            interval = interval.min((self.cfg.lease_ms / 2).max(base));
        }
        interval
    }

    /// The registry this node currently publishes to.
    pub fn home_registry(&self) -> Option<NodeId> {
        self.attach.home()
    }

    /// Advert ids of this node's services (None until first publish).
    pub fn advert_ids(&self) -> Vec<Option<AdvertId>> {
        self.services.iter().map(|s| s.id).collect()
    }

    /// Gracefully deregisters every hosted service from the home registry
    /// (explicit `Remove`, the mechanism UDDI-class registries depend on
    /// exclusively; here it merely speeds up what lease expiry would do
    /// anyway). Typically called right before a planned shutdown.
    pub fn deregister_all(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        if let Some(home) = self.attach.home() {
            for s in &self.services {
                if let Some(id) = s.id {
                    send_msg(
                        ctx,
                        self.cfg.codec,
                        Destination::Unicast(home),
                        DiscoveryMessage::publishing(PublishOp::Remove { id }),
                    );
                }
            }
        }
    }

    /// Updates the description of hosted service `index` (e.g. a changed
    /// coverage area) and republishes immediately — the paper's "advertisement
    /// content … could change frequently in dynamic environments".
    pub fn update_description(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        index: usize,
        description: Description,
    ) {
        let svc = &mut self.services[index];
        svc.description = description;
        svc.version += 1;
        // A changed description gets a fresh chance at validation.
        svc.rejected = false;
        if let Some(home) = self.attach.home() {
            let advert = Self::advert_of(svc, ctx);
            self.stats.publishes += 1;
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(home),
                DiscoveryMessage::publishing(PublishOp::Update {
                    advert,
                    lease_ms: self.cfg.lease_ms,
                }),
            );
            self.arm_ack_retry(ctx, index);
        }
    }

    fn advert_of(
        svc: &mut HostedService,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
    ) -> SharedAdvert {
        let id = *svc.id.get_or_insert_with(|| Uuid::generate(ctx.rng()));
        let cached = svc.advert.take().filter(|a| a.id == id && a.version == svc.version);
        let advert = cached.unwrap_or_else(|| {
            SharedAdvert::from(Advertisement {
                id,
                provider: ctx.node(),
                description: svc.description.clone(),
                version: svc.version,
            })
        });
        svc.advert = Some(advert.clone());
        advert
    }

    fn publish_all(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, registry: NodeId) {
        for i in 0..self.services.len() {
            if self.services[i].rejected {
                continue;
            }
            let advert = Self::advert_of(&mut self.services[i], ctx);
            self.stats.publishes += 1;
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(registry),
                DiscoveryMessage::publishing(PublishOp::Publish {
                    advert,
                    lease_ms: self.cfg.lease_ms,
                }),
            );
            self.arm_ack_retry(ctx, i);
        }
    }

    /// Marks service `i` as awaiting an ack and schedules the first backoff
    /// checkpoint (no-op while the retry policy is passive).
    fn arm_ack_retry(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, i: usize) {
        if !self.cfg.retry.enabled() {
            return;
        }
        let policy = self.cfg.retry;
        let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.service.retry"));
        let svc = &mut self.services[i];
        svc.awaiting_ack = true;
        svc.attempts = 0;
        if !svc.retry_timer_pending {
            svc.retry_timer_pending = true;
            let delay = policy.backoff(0, rng);
            ctx.set_timer(delay, tags::tagged(tags::PUBLISH_RETRY_BASE, i as u64));
        }
    }

    /// Clears the awaiting-ack state for the service with advert `id`. Any
    /// ack is also evidence the registry is keeping up again, so the
    /// backpressure stretch decays back toward normal cadence.
    fn ack_received(&mut self, id: AdvertId) {
        self.renew_stretch = (self.renew_stretch / 2).max(1);
        if let Some(s) = self.services.iter_mut().find(|s| s.id == Some(id)) {
            s.awaiting_ack = false;
            s.attempts = 0;
        }
    }

    /// `PUBLISH_RETRY` checkpoint for service `i`: if the awaited ack still
    /// has not arrived, re-publish the full advert (publish is an
    /// idempotent upsert that also refreshes the lease, so one resend shape
    /// covers both lost publishes and lost renewals) and back off.
    fn on_ack_retry(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, i: usize) {
        let policy = self.cfg.retry;
        {
            let Some(svc) = self.services.get_mut(i) else {
                return;
            };
            svc.retry_timer_pending = false;
            if !policy.enabled() || !svc.awaiting_ack || svc.rejected {
                return;
            }
            if svc.attempts >= policy.max_retries {
                // Give up until the next renew round or re-attach restarts
                // the machinery.
                svc.awaiting_ack = false;
                return;
            }
        }
        let Some(home) = self.attach.home() else {
            // No registry to resend to; a failover re-attach republishes.
            return;
        };
        self.services[i].attempts += 1;
        let attempts = self.services[i].attempts;
        let advert = Self::advert_of(&mut self.services[i], ctx);
        self.stats.retry_publishes += 1;
        self.stats.publishes += 1;
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(home),
            DiscoveryMessage::publishing(PublishOp::Publish {
                advert,
                lease_ms: self.cfg.lease_ms,
            }),
        );
        let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.service.retry"));
        let delay = policy.backoff(attempts, rng);
        self.services[i].retry_timer_pending = true;
        ctx.set_timer(delay, tags::tagged(tags::PUBLISH_RETRY_BASE, i as u64));
    }

    fn on_attach_event(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, ev: AttachEvent) {
        if let AttachEvent::Attached(registry) = ev {
            self.publish_all(ctx, registry);
        }
    }

    /// Decentralized fallback (paper Fig. 3 right): with no registry on the
    /// LAN, provider nodes evaluate multicast queries against the adverts
    /// they host and answer the querying node directly.
    fn answer_fallback(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, query: &sds_protocol::QueryMessage) {
        let mut hits: Vec<ResponseHit> = Vec::new();
        for i in 0..self.services.len() {
            let advert = Self::advert_of(&mut self.services[i], ctx);
            for e in &self.evaluators {
                if e.model() == query.payload.model() {
                    if let Some((degree, distance)) = e.evaluate(&query.payload, &advert) {
                        hits.push(ResponseHit { advert: advert.clone(), degree, distance });
                    }
                }
            }
        }
        if !hits.is_empty() {
            self.stats.fallback_answers += 1;
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(from),
                DiscoveryMessage::querying(QueryOp::QueryResponse {
                    query_id: query.id,
                    hits,
                    responder: ctx.node(),
                }),
            );
        }
    }
}

impl NodeHandler<DiscoveryMessage> for ServiceNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        // Fresh boot (or restart): advert ids regenerate so stale copies of
        // the old incarnation age out independently.
        for s in &mut self.services {
            s.id = None;
            s.version = 1;
            s.rejected = false;
            s.awaiting_ack = false;
            s.attempts = 0;
            // Pre-crash timers died with the old epoch.
            s.retry_timer_pending = false;
        }
        // Backpressure history is soft state; a restart forgets it.
        self.renew_stretch = 1;
        if let Some(ev) = self.attach.start(ctx) {
            self.on_attach_event(ctx, ev);
        }
        ctx.set_timer(self.cfg.renew_interval, tags::RENEW);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Maintenance(op) => {
                if matches!(op, MaintenanceOp::Busy { .. }) {
                    // The registry shed our publish/renewal. Stretch the
                    // renewal cadence (capped at half the lease) instead of
                    // hammering it; the next RENEW round retries at the
                    // slower pace and acks shrink the stretch back.
                    self.stats.busy_nacks += 1;
                    self.renew_stretch = self.renew_stretch.saturating_mul(2).min(8);
                }
                if let Some(ev) = self.attach.on_maintenance(ctx, from, &op) {
                    self.on_attach_event(ctx, ev);
                }
            }
            Operation::Publishing(op) => match op {
                PublishOp::PublishAck { id, .. } => self.ack_received(id),
                PublishOp::PublishNack { id, .. } => {
                    if let Some(s) = self.services.iter_mut().find(|s| s.id == Some(id)) {
                        s.rejected = true;
                        s.awaiting_ack = false;
                        self.stats.publish_nacks += 1;
                    }
                }
                PublishOp::RenewAck { id, known, .. } => {
                    if known {
                        self.ack_received(id);
                    } else {
                        // Registry restarted and lost the advert: republish.
                        if let Some(i) =
                            self.services.iter().position(|s| s.id == Some(id))
                        {
                            if let Some(home) = self.attach.home() {
                                let advert = Self::advert_of(&mut self.services[i], ctx);
                                self.stats.republishes_after_unknown += 1;
                                self.stats.publishes += 1;
                                send_msg(
                                    ctx,
                                    self.cfg.codec,
                                    Destination::Unicast(home),
                                    DiscoveryMessage::publishing(PublishOp::Publish {
                                        advert,
                                        lease_ms: self.cfg.lease_ms,
                                    }),
                                );
                                self.arm_ack_retry(ctx, i);
                            }
                        }
                    }
                }
                _ => {}
            },
            Operation::Querying(QueryOp::Query(query)) => {
                if self.cfg.fallback_responder
                    && query.reply_to.is_none()
                    && !self.attach.lan_has_registry(ctx.now())
                {
                    self.answer_fallback(ctx, from, &query);
                }
            }
            Operation::Querying(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, _timer: TimerId, tag: u64) {
        match tag {
            tags::PROBE => {
                if let Some(ev) = self.attach.on_probe_timer(ctx) {
                    self.on_attach_event(ctx, ev);
                }
            }
            tags::PROBE_DECIDE => {
                if let Some(ev) = self.attach.on_probe_decide(ctx) {
                    self.on_attach_event(ctx, ev);
                }
            }
            tags::PING => {
                if let Some(ev) = self.attach.on_ping_timer(ctx) {
                    self.on_attach_event(ctx, ev);
                }
            }
            tags::RENEW => {
                if let Some(home) = self.attach.home() {
                    for i in 0..self.services.len() {
                        let s = &self.services[i];
                        if s.rejected {
                            continue;
                        }
                        if let Some(id) = s.id {
                            self.stats.renewals += 1;
                            send_msg(
                                ctx,
                                self.cfg.codec,
                                Destination::Unicast(home),
                                DiscoveryMessage::publishing(PublishOp::RenewLease { id }),
                            );
                            self.arm_ack_retry(ctx, i);
                        }
                    }
                }
                ctx.set_timer(self.stretched_renew_interval(), tags::RENEW);
            }
            t => {
                if let Some(i) = tags::seq_of(t, tags::PUBLISH_RETRY_BASE) {
                    self.on_ack_retry(ctx, i as usize);
                }
            }
        }
    }
}
