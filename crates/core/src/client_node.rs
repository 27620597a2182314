//! The client-node role: registry discovery, query issuing, result
//! collection, artifact fetching, and multicast fallback.
//!
//! "A client node is one that wants to discover a service that can fulfill
//! its needs. To do this, it first has to discover whether there are any
//! registry nodes available. When a client has obtained a connection to the
//! registry network, it can issue a query."


use sds_protocol::{
    DiscoveryMessage, MaintenanceOp, Operation, QueryId, QueryMessage, QueryOp, QueryPayload,
    ResponseHit, Uuid,
};
use sds_simnet::{Ctx, Destination, IdMap, NodeHandler, NodeId, Rng, SimTime, TimerId};

use crate::attach::{AttachEvent, RegistryAttachment};
use crate::config::{ClientConfig, QueryMode, QueryOptions};
use crate::util::{send_msg, tags};

/// A query that finished (deadline reached).
#[derive(Clone, Debug)]
pub struct CompletedQuery {
    pub seq: u64,
    pub sent_at: SimTime,
    pub finished_at: SimTime,
    /// Deduplicated hits, ranked best-first.
    pub hits: Vec<ResponseHit>,
    /// Number of `QueryResponse` messages that arrived (response-implosion
    /// metric: with registries this stays small; decentralized, it can be
    /// one per provider).
    pub responses_received: u32,
    /// False when the query could not even be sent (no registry, fallback
    /// disabled).
    pub dispatched: bool,
    /// When the first response arrived (None = never answered) — the
    /// meaningful latency metric, since completion waits for the deadline.
    pub first_response_at: Option<SimTime>,
    /// `Busy` nacks that hit this query while it was unanswered.
    pub busy_nacks: u32,
    /// Re-sends performed (backoff checkpoints + failover + busy retries).
    pub retries: u8,
}

struct OutstandingQuery {
    sent_at: SimTime,
    /// Absolute completion deadline (`sent_at + options.timeout`). Retries
    /// happen *inside* this budget; the completion semantics are unchanged.
    deadline: SimTime,
    options: QueryOptions,
    /// Kept only while the retry policy is enabled, for re-sends.
    payload: Option<QueryPayload>,
    /// Re-sends performed so far (backoff checkpoints + failover).
    attempt: u8,
    /// Wire seqs of those re-sends, each an entry in `ClientNode::alias`.
    aliases: Vec<u64>,
    hits: IdMap<Uuid, ResponseHit>,
    responses_received: u32,
    /// Responders already counted, so a duplicated delivery of the same
    /// response (chaos fault injection) cannot double-count.
    responders_seen: Vec<NodeId>,
    dispatched: bool,
    first_response_at: Option<SimTime>,
    /// `Busy` nacks attributed to this query while unanswered.
    busy_nacks: u32,
}

/// A notification delivered for a standing query.
#[derive(Clone, Debug)]
pub struct Notification {
    pub subscription: QueryId,
    pub hit: ResponseHit,
    pub at: SimTime,
}

/// A composition planning result.
#[derive(Clone, Debug)]
pub struct CompositionResult {
    pub id: QueryId,
    pub found: bool,
    /// The planned chain in execution order.
    pub chain: Vec<sds_protocol::SharedAdvert>,
    pub at: SimTime,
}

/// An artifact fetch result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FetchedArtifact {
    pub name: String,
    pub found: bool,
    pub size: u32,
    pub at: SimTime,
}

/// The consumer role node handler.
pub struct ClientNode {
    cfg: ClientConfig,
    attach: RegistryAttachment,
    next_seq: u64,
    outstanding: IdMap<u64, OutstandingQuery>,
    /// Wire-id aliases created by retries: retry seq → root query seq.
    /// Registries dedup query ids, so each re-send travels under a fresh
    /// id; responses to any alias are credited to the root query.
    alias: IdMap<u64, u64>,
    /// Lazily derived jitter stream for query-retry backoff; never created
    /// while the retry policy is passive.
    retry_rng: Option<Rng>,
    /// Consecutive `Busy` nacks from the current home with no counted
    /// response in between; drives hedging to an alternate registry.
    busy_streak: u32,
    /// Total `Busy` nacks received (diagnostics).
    pub busy_nacks_total: u64,
    /// Finished queries, in completion order. Experiments read these.
    pub completed: Vec<CompletedQuery>,
    /// Artifact fetches that completed.
    pub artifacts: Vec<FetchedArtifact>,
    /// Notifications received for standing queries.
    pub notifications: Vec<Notification>,
    /// Results of composition requests.
    pub compositions: Vec<CompositionResult>,
    /// Acknowledged subscription ids.
    pub active_subscriptions: Vec<QueryId>,
}

impl ClientNode {
    pub fn new(cfg: ClientConfig) -> Self {
        let attach = RegistryAttachment::new(cfg.attach.clone(), cfg.codec);
        Self {
            cfg,
            attach,
            next_seq: 0,
            outstanding: IdMap::default(),
            alias: IdMap::default(),
            retry_rng: None,
            busy_streak: 0,
            busy_nacks_total: 0,
            completed: Vec::new(),
            artifacts: Vec::new(),
            notifications: Vec::new(),
            compositions: Vec::new(),
            active_subscriptions: Vec::new(),
        }
    }

    /// The registry this client currently queries.
    pub fn home_registry(&self) -> Option<NodeId> {
        self.attach.home()
    }

    /// Known failover candidates (diagnostics).
    pub fn candidate_count(&self) -> usize {
        self.attach.candidate_count()
    }

    /// Issues a query; the result lands in [`ClientNode::completed`] once
    /// `options.timeout` elapses. Returns the query sequence number.
    pub fn issue_query(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        payload: QueryPayload,
        options: QueryOptions,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let retrying = self.cfg.retry.enabled();
        let saved_payload = retrying.then(|| payload.clone());
        let query = QueryMessage {
            id: QueryId { origin: ctx.node(), seq },
            payload,
            max_responses: options.max_responses,
            ttl: options.ttl,
            reply_to: None,
        };
        let msg = DiscoveryMessage::querying(QueryOp::Query(query));
        let dispatched = self.dispatch(ctx, msg, options.mode);
        let deadline = ctx.now().saturating_add(options.timeout);
        self.outstanding.insert(
            seq,
            OutstandingQuery {
                sent_at: ctx.now(),
                deadline,
                options,
                payload: saved_payload,
                attempt: 0,
                aliases: Vec::new(),
                hits: IdMap::default(),
                responses_received: 0,
                responders_seen: Vec::new(),
                dispatched,
                first_response_at: None,
                busy_nacks: 0,
            },
        );
        let delay = if retrying {
            // First backoff checkpoint; the chain walks to the deadline.
            let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
            self.cfg.retry.backoff(0, rng).min(deadline - ctx.now())
        } else {
            deadline - ctx.now()
        };
        ctx.set_timer(delay, tags::tagged(tags::QUERY_TIMEOUT_BASE, seq));
        seq
    }

    /// Sends a query message according to `mode`, falling back to LAN
    /// multicast when unattached (if configured). Returns whether the
    /// message went anywhere.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        msg: DiscoveryMessage,
        mode: QueryMode,
    ) -> bool {
        match mode {
            QueryMode::Unicast => match self.attach.home() {
                Some(home) => {
                    send_msg(ctx, self.cfg.codec, Destination::Unicast(home), msg);
                    true
                }
                None if self.cfg.fallback_query => {
                    // Decentralized LAN fallback.
                    let lan = ctx.lan();
                    send_msg(ctx, self.cfg.codec, Destination::Multicast(lan), msg);
                    true
                }
                None => false,
            },
            QueryMode::MulticastLan => {
                let lan = ctx.lan();
                send_msg(ctx, self.cfg.codec, Destination::Multicast(lan), msg);
                true
            }
        }
    }

    /// Re-sends an outstanding query under a fresh wire id (registries
    /// drop duplicate query ids, so the original id would be ignored).
    /// Charges one retry attempt. Returns whether anything was sent.
    ///
    /// A re-send aimed at a registry travels as `QueryRetry` carrying the
    /// root attempt's seq, so the registry can dedup against the admitted
    /// root instead of evaluating (and re-federating) the same query twice
    /// when the original response is merely slow or queued. The multicast
    /// fallback path keeps the plain `Query` shape — decentralized fallback
    /// responders answer statelessly and only understand that op.
    ///
    /// Under a sustained `Busy` streak from the home registry the retry
    /// hedges to the best alternate candidate instead (when
    /// `hedge_after_busy` is enabled and an alternate is known).
    fn redispatch(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, root: u64) -> bool {
        let Some(o) = self.outstanding.get_mut(&root) else {
            return false;
        };
        let Some(payload) = o.payload.clone() else {
            return false;
        };
        o.attempt += 1;
        let mode = o.options.mode;
        let max_responses = o.options.max_responses;
        let ttl = o.options.ttl;
        let wire = self.next_seq;
        self.next_seq += 1;
        o.aliases.push(wire);
        self.alias.insert(wire, root);
        let query = QueryMessage {
            id: QueryId { origin: ctx.node(), seq: wire },
            payload,
            max_responses,
            ttl,
            reply_to: None,
        };
        let sent = match (mode, self.attach.home()) {
            (QueryMode::Unicast, Some(home)) => {
                let hedge = self.cfg.hedge_after_busy > 0
                    && self.busy_streak >= u32::from(self.cfg.hedge_after_busy);
                let target = if hedge {
                    self.attach.best_candidate_excluding(home).unwrap_or(home)
                } else {
                    home
                };
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(target),
                    DiscoveryMessage::querying(QueryOp::QueryRetry { query, root_seq: root }),
                );
                true
            }
            _ => self.dispatch(ctx, DiscoveryMessage::querying(QueryOp::Query(query)), mode),
        };
        if sent {
            if let Some(o) = self.outstanding.get_mut(&root) {
                o.dispatched = true;
            }
        }
        sent
    }

    /// A query checkpoint fired: either the final deadline (finalize), or a
    /// backoff checkpoint — re-send if the query is still unanswered and
    /// schedule the next checkpoint, clamped to the deadline.
    fn on_query_checkpoint(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, seq: u64) {
        let Some(o) = self.outstanding.get(&seq) else {
            return;
        };
        let now = ctx.now();
        if now >= o.deadline {
            self.finalize(ctx, seq);
            return;
        }
        let deadline = o.deadline;
        let policy = self.cfg.retry;
        let next_delay = if o.responses_received == 0 && o.attempt < policy.max_retries {
            self.redispatch(ctx, seq);
            let attempt = self.outstanding[&seq].attempt;
            let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
            policy.backoff(attempt, rng).min(deadline - now)
        } else {
            // Answered, or retries exhausted: just wait out the deadline.
            deadline - now
        };
        ctx.set_timer(next_delay, tags::tagged(tags::QUERY_TIMEOUT_BASE, seq));
    }

    /// Reacts to attachment changes. After a failover re-attach, an
    /// outstanding query that nobody has answered is re-dispatched to the
    /// new home registry instead of being abandoned until its deadline.
    fn on_attach_event(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, ev: AttachEvent) {
        let AttachEvent::Attached(_) = ev else {
            return;
        };
        // A fresh home starts with a clean overload slate.
        self.busy_streak = 0;
        if !self.cfg.retry.enabled() {
            return;
        }
        let now = ctx.now();
        let max = self.cfg.retry.max_retries;
        let mut unanswered: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| {
                o.responses_received == 0
                    && o.attempt < max
                    && now < o.deadline
                    && o.options.mode == QueryMode::Unicast
            })
            .map(|(&seq, _)| seq)
            .collect();
        unanswered.sort_unstable();
        for seq in unanswered {
            self.redispatch(ctx, seq);
        }
    }

    /// Registers a standing query with the home registry: matching
    /// advertisements published later arrive as [`Notification`]s. Returns
    /// the subscription id, or `None` when unattached. The registry leases
    /// the subscription for `lease_ms` (0 = registry default).
    pub fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        payload: QueryPayload,
        lease_ms: u64,
    ) -> Option<QueryId> {
        let home = self.attach.home()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = QueryId { origin: ctx.node(), seq };
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(home),
            DiscoveryMessage::querying(QueryOp::Subscribe { id, payload, lease_ms }),
        );
        Some(id)
    }

    /// Asks the home registry to plan a service chain for a request no
    /// single service can satisfy (paper §4.3). The result arrives in
    /// [`ClientNode::compositions`]. Returns the request id, or `None` when
    /// unattached.
    pub fn request_composition(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        request: sds_semantic::ServiceRequest,
        max_depth: u8,
    ) -> Option<QueryId> {
        let home = self.attach.home()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = QueryId { origin: ctx.node(), seq };
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(home),
            DiscoveryMessage::querying(QueryOp::ComposeRequest { id, request, max_depth }),
        );
        Some(id)
    }

    /// Cancels a standing query.
    pub fn unsubscribe(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, id: QueryId) {
        if let Some(home) = self.attach.home() {
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(home),
                DiscoveryMessage::querying(QueryOp::Unsubscribe { id }),
            );
        }
        self.active_subscriptions.retain(|&s| s != id);
    }

    /// Requests an artifact (ontology, schema…) from the home registry.
    /// Returns `false` when unattached.
    pub fn fetch_artifact(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, name: &str) -> bool {
        let Some(home) = self.attach.home() else {
            return false;
        };
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(home),
            DiscoveryMessage::maintenance(MaintenanceOp::ArtifactRequest { name: name.into() }),
        );
        true
    }

    /// A `Busy` nack arrived: the registry shed one of our requests instead
    /// of answering. The nack is per-sender backpressure (it names no query
    /// id on the wire), so it is attributed to every outstanding unanswered
    /// unicast query. With a retry policy enabled, each such query gets an
    /// extra checkpoint at the hinted retry-after (jittered by the client's
    /// own stream, clamped defensively); the normal checkpoint machinery
    /// re-sends — and hedges — from there. Without a retry policy the nack
    /// is only recorded and the deadline stands.
    fn on_busy(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, retry_after_ms: u64) {
        self.busy_streak = self.busy_streak.saturating_add(1);
        self.busy_nacks_total += 1;
        let now = ctx.now();
        let mut affected: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| {
                o.responses_received == 0
                    && o.options.mode == QueryMode::Unicast
                    && now < o.deadline
            })
            .map(|(&seq, _)| seq)
            .collect();
        affected.sort_unstable();
        for &seq in &affected {
            if let Some(o) = self.outstanding.get_mut(&seq) {
                o.busy_nacks += 1;
            }
        }
        if !self.cfg.retry.enabled() || affected.is_empty() {
            return;
        }
        let hint = retry_after_ms.clamp(1, 30_000);
        let jitter = self.cfg.retry.jitter;
        let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
        for seq in affected {
            let extra = if jitter > 0 { rng.gen_range(0..=jitter) } else { 0 };
            ctx.set_timer(hint + extra, tags::tagged(tags::QUERY_TIMEOUT_BASE, seq));
        }
    }

    fn finalize(&mut self, ctx: &Ctx<'_, DiscoveryMessage>, seq: u64) {
        let Some(o) = self.outstanding.remove(&seq) else {
            return;
        };
        for wire in &o.aliases {
            self.alias.remove(wire);
        }
        let mut hits: Vec<ResponseHit> = o.hits.into_values().collect();
        sds_registry::rank_hits(&mut hits);
        if let Some(k) = o.options.max_responses {
            hits.truncate(k as usize);
        }
        self.completed.push(CompletedQuery {
            seq,
            sent_at: o.sent_at,
            finished_at: ctx.now(),
            hits,
            responses_received: o.responses_received,
            dispatched: o.dispatched,
            first_response_at: o.first_response_at,
            busy_nacks: o.busy_nacks,
            retries: o.attempt,
        });
    }
}

impl NodeHandler<DiscoveryMessage> for ClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        self.attach.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        match msg.op {
            Operation::Maintenance(op) => {
                if let MaintenanceOp::ArtifactResponse { name, found, size } = &op {
                    self.artifacts.push(FetchedArtifact {
                        name: name.clone(),
                        found: *found,
                        size: *size,
                        at: ctx.now(),
                    });
                }
                if let MaintenanceOp::Busy { retry_after_ms } = &op {
                    self.on_busy(ctx, *retry_after_ms);
                }
                if let Some(ev) = self.attach.on_maintenance(ctx, from, &op) {
                    self.on_attach_event(ctx, ev);
                }
            }
            Operation::Querying(QueryOp::SubscribeAck { id, .. })
                if id.origin == ctx.node() && !self.active_subscriptions.contains(&id) => {
                    self.active_subscriptions.push(id);
                }
            Operation::Querying(QueryOp::ComposeResponse { id, found, chain })
                if id.origin == ctx.node() => {
                    self.compositions.push(CompositionResult { id, found, chain, at: ctx.now() });
                }
            Operation::Querying(QueryOp::Notify { subscription, hit })
                if subscription.origin == ctx.node() => {
                    self.notifications.push(Notification { subscription, hit, at: ctx.now() });
                }
            Operation::Querying(QueryOp::QueryResponse { query_id, hits, responder }) => {
                if query_id.origin != ctx.node() {
                    return;
                }
                let root = self.alias.get(&query_id.seq).copied().unwrap_or(query_id.seq);
                if let Some(o) = self.outstanding.get_mut(&root) {
                    if o.responders_seen.contains(&responder) {
                        // Each responder answers a query once; a second copy
                        // is a network-level duplicate.
                        return;
                    }
                    o.responders_seen.push(responder);
                    o.responses_received += 1;
                    o.first_response_at.get_or_insert(ctx.now());
                    // A counted answer breaks the Busy streak.
                    self.busy_streak = 0;
                    for h in hits {
                        match o.hits.get(&h.advert.id) {
                            Some(existing)
                                if (existing.degree, std::cmp::Reverse(existing.distance))
                                    >= (h.degree, std::cmp::Reverse(h.distance)) => {}
                            _ => {
                                o.hits.insert(h.advert.id, h);
                            }
                        }
                    }
                }
            }
            _ => {}
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
            t => {
                if let Some(seq) = tags::seq_of(t, tags::QUERY_TIMEOUT_BASE) {
                    self.on_query_checkpoint(ctx, seq);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use sds_simnet::{secs, Sim, SimConfig, Topology};

    /// Root seqs that `alias` credits, with how many wire aliases each has.
    fn alias_roots(c: &ClientNode) -> std::collections::BTreeMap<u64, usize> {
        let mut roots = std::collections::BTreeMap::new();
        for &root in c.alias.values() {
            *roots.entry(root).or_insert(0) += 1;
        }
        roots
    }

    #[test]
    fn finalizing_a_query_removes_only_its_own_aliases() {
        // No registry: every query goes unanswered, so each backoff
        // checkpoint re-sends it under a fresh wire alias.
        let mut topo = Topology::new();
        let lan = topo.add_lan();
        let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 7);
        let cfg = ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() };
        let client = sim.add_node(lan, Box::new(ClientNode::new(cfg)));
        let mut seqs = Vec::new();
        for timeout in [secs(3), secs(20)] {
            sim.with_node::<ClientNode>(client, |c, ctx| {
                let options = QueryOptions { timeout, ..QueryOptions::default() };
                seqs.push(c.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), options));
            });
        }
        let (short, long) = (seqs[0], seqs[1]);

        sim.run_until(secs(2));
        let c = sim.handler::<ClientNode>(client).unwrap();
        let before = alias_roots(c);
        assert!(before[&short] > 0 && before[&long] > 0, "both queries retried: {before:?}");

        sim.run_until(secs(4));
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert_eq!(c.completed.len(), 1);
        let after = alias_roots(c);
        assert!(!after.contains_key(&short), "finalized query's aliases remain: {after:?}");
        assert!(after[&long] >= before[&long], "another query's aliases were removed");

        sim.run_until(secs(25));
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert_eq!(c.completed.len(), 2);
        assert!(c.alias.is_empty(), "aliases outlive their queries: {:?}", c.alias);
    }
}
