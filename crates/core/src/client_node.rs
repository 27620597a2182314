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
    /// Pending checkpoint timers with their fire times, in push order
    /// (see [`OutstandingQuery::arm`]).
    checkpoints: Vec<(SimTime, TimerId)>,
}

impl OutstandingQuery {
    /// Whether a checkpoint firing now would re-send: the query is
    /// unanswered and has retries left. A query that stops retrying never
    /// starts again, and from then on a checkpoint can only arm the
    /// deadline.
    fn retrying(&self, max_retries: u8) -> bool {
        self.responses_received == 0 && self.attempt < max_retries
    }

    fn deadline_armed(&self) -> bool {
        self.checkpoints.iter().any(|&(at, _)| at == self.deadline)
    }

    /// Arms the checkpoint `delay` from now, unless its firing could change
    /// nothing:
    /// - past the deadline, it would find the query finalized;
    /// - at the deadline once a deadline checkpoint is armed, the
    ///   earlier-pushed one finalizes first;
    /// - once the query stops retrying, a firing only arms the deadline, so
    ///   the query keeps just the one checkpoint that arms it first (see
    ///   [`OutstandingQuery::stop_retrying`]).
    ///
    /// Every checkpoint a retrying query arms up to its deadline stays: each
    /// one re-sends.
    fn arm(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        seq: u64,
        delay: SimTime,
        max_retries: u8,
    ) {
        let at = ctx.now().saturating_add(delay);
        let waiting = !self.retrying(max_retries);
        if at > self.deadline || (at == self.deadline || waiting) && self.deadline_armed() {
            return;
        }
        if waiting {
            debug_assert!(self.checkpoints.len() <= 1, "a waiting query keeps one checkpoint");
            if let Some(&(first, id)) = self.checkpoints.first() {
                // The armed one fires first, or at the same time and pushed
                // earlier, and arms the deadline before this one could. An
                // arm at the deadline itself is pushed now, before the
                // armed one could push its own.
                if at < self.deadline && at >= first {
                    return;
                }
                ctx.cancel_timer(id);
                self.checkpoints.clear();
            }
        }
        let id = ctx.set_timer(delay, tags::tagged(tags::QUERY_TIMEOUT_BASE, seq));
        self.checkpoints.push((at, id));
    }

    /// The query stopped retrying: keep the checkpoint that arms the
    /// deadline first (an armed deadline checkpoint, else the first to
    /// fire, earliest-pushed among equals) and cancel the rest, whose
    /// firings would only re-arm that deadline.
    fn stop_retrying(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        if self.checkpoints.len() <= 1 {
            return;
        }
        let deadline = self.deadline;
        let (keep, _) = self
            .checkpoints
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(at, _))| (at != deadline, at))
            .expect("more than one checkpoint");
        for (i, &(_, id)) in self.checkpoints.iter().enumerate() {
            if i != keep {
                ctx.cancel_timer(id);
            }
        }
        self.checkpoints.swap(0, keep);
        self.checkpoints.truncate(1);
    }
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
        let mut o = OutstandingQuery {
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
            checkpoints: Vec::new(),
        };
        let delay = if retrying {
            // First backoff checkpoint; the chain walks to the deadline.
            let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
            self.cfg.retry.backoff(0, rng).min(deadline - ctx.now())
        } else {
            deadline - ctx.now()
        };
        o.arm(ctx, seq, delay, self.cfg.retry.max_retries);
        self.outstanding.insert(seq, o);
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
        if let Some(o) = self.outstanding.get_mut(&root) {
            o.dispatched |= sent;
            if !o.retrying(self.cfg.retry.max_retries) {
                o.stop_retrying(ctx);
            }
        }
        sent
    }

    /// A query checkpoint fired: either the final deadline (finalize), or a
    /// backoff checkpoint — re-send if the query is still unanswered and
    /// schedule the next checkpoint, clamped to the deadline. The next
    /// checkpoint goes through [`OutstandingQuery::arm`], which skips it
    /// when its firing could change nothing; the backoff's jitter is drawn
    /// either way, so the retry stream stays where it was.
    fn on_query_checkpoint(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, seq: u64, timer: TimerId) {
        let Some(o) = self.outstanding.get_mut(&seq) else {
            return;
        };
        o.checkpoints.retain(|&(_, id)| id != timer);
        let now = ctx.now();
        if now >= o.deadline {
            self.finalize(ctx, seq);
            return;
        }
        let deadline = o.deadline;
        let policy = self.cfg.retry;
        let next_delay = if o.retrying(policy.max_retries) {
            self.redispatch(ctx, seq);
            let attempt = self.outstanding[&seq].attempt;
            let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
            policy.backoff(attempt, rng).min(deadline - now)
        } else {
            // Answered, or retries exhausted: just wait out the deadline.
            deadline - now
        };
        if let Some(o) = self.outstanding.get_mut(&seq) {
            o.arm(ctx, seq, next_delay, policy.max_retries);
        }
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
    ///
    /// [`OutstandingQuery::arm`] drops a checkpoint that could change
    /// nothing: one past the deadline, or one for a query that has run out
    /// of retries and already has a checkpoint that arms its deadline
    /// first. Its jitter is still drawn, for every affected query in seq
    /// order, so every later draw from the stream stays where it was.
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
        let max_retries = self.cfg.retry.max_retries;
        let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.client.retry"));
        for seq in affected {
            let extra = if jitter > 0 { rng.gen_range(0..=jitter) } else { 0 };
            if let Some(o) = self.outstanding.get_mut(&seq) {
                o.arm(ctx, seq, hint + extra, max_retries);
            }
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
        // A restart: the outstanding queries' checkpoints died with the
        // crash, so nothing would ever finalize them. They complete now,
        // with what they had gathered.
        let mut stranded: Vec<u64> = self.outstanding.keys().copied().collect();
        stranded.sort_unstable();
        for seq in stranded {
            self.finalize(ctx, seq);
        }
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
                    if o.responses_received == 1 {
                        o.stop_retrying(ctx);
                    }
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, timer: TimerId, tag: u64) {
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
                    self.on_query_checkpoint(ctx, seq, timer);
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

    /// A lone client (no registry, so nothing answers) issuing `n`
    /// unicast queries under `retry`.
    fn unanswered_client(
        retry: RetryPolicy,
        n: usize,
        timeout: SimTime,
    ) -> (Sim<DiscoveryMessage>, NodeId, Vec<u64>) {
        let mut topo = Topology::new();
        let lan = topo.add_lan();
        let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, 11);
        let cfg = ClientConfig { retry, ..ClientConfig::default() };
        let client = sim.add_node(lan, Box::new(ClientNode::new(cfg)));
        let mut seqs = Vec::new();
        for _ in 0..n {
            sim.with_node::<ClientNode>(client, |c, ctx| {
                let options = QueryOptions { timeout, ..QueryOptions::default() };
                seqs.push(c.issue_query(ctx, QueryPayload::Uri("urn:svc:x".into()), options));
            });
        }
        (sim, client, seqs)
    }

    fn busy(sim: &mut Sim<DiscoveryMessage>, client: NodeId, retry_after_ms: u64) {
        sim.with_node::<ClientNode>(client, |c, ctx| {
            let nack = DiscoveryMessage::maintenance(MaintenanceOp::Busy { retry_after_ms });
            c.on_message(ctx, NodeId(u32::MAX), nack);
        });
    }

    #[test]
    fn busy_nacks_after_retries_run_out_arm_no_timers() {
        // Two quick re-sends, then a long wait for the deadline: every
        // later nack lands on a query that can only wait.
        let retry = RetryPolicy { max_retries: 2, base_backoff: 100, max_backoff: 200, jitter: 50 };
        let n = 8;
        let (mut sim, client, _) = unanswered_client(retry, n, secs(60));
        sim.run_until(secs(2));
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert!(c.outstanding.values().all(|o| o.attempt == 2), "retries not yet exhausted");
        for k in 1..=40u64 {
            busy(&mut sim, client, 1_000 + 100 * k);
            sim.run_until(secs(2) + 50 * k);
            let pending = sim.pending_timer_count();
            assert!(pending <= 2 * n, "{pending} timers pending for {n} queries after {k} nacks");
        }
        sim.run_until(secs(61));
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert_eq!(c.completed.len(), n);
        assert!(c.completed.iter().all(|q| q.finished_at == secs(60) && q.busy_nacks == 40));
    }

    #[test]
    fn a_waiting_query_keeps_the_checkpoint_that_fires_first() {
        // Re-sends near 100 and 300 ms exhaust the retries; the checkpoint
        // armed by the last one fires near 500 ms and would arm the
        // deadline.
        let retry = RetryPolicy { max_retries: 2, base_backoff: 100, max_backoff: 200, jitter: 10 };
        let n = 4;
        let (mut sim, client, _) = unanswered_client(retry, n, secs(60));
        sim.run_until(400);
        let kept = |sim: &Sim<DiscoveryMessage>| -> Vec<Vec<(SimTime, TimerId)>> {
            let c = sim.handler::<ClientNode>(client).unwrap();
            let mut seqs: Vec<u64> = c.outstanding.keys().copied().collect();
            seqs.sort_unstable();
            seqs.iter().map(|s| c.outstanding[s].checkpoints.clone()).collect()
        };
        let before = kept(&sim);
        assert!(before.iter().all(|cps| cps.len() == 1 && cps[0].0 >= 500), "{before:?}");

        // A later nack's checkpoint would fire after the kept one: skipped.
        busy(&mut sim, client, 30_000);
        assert_eq!(kept(&sim), before);
        // One that fires first replaces it.
        busy(&mut sim, client, 1);
        let after = kept(&sim);
        for cps in &after {
            assert_eq!(cps.len(), 1);
            assert!((401..=411).contains(&cps[0].0), "{after:?}");
        }
    }

    #[test]
    fn a_skipped_busy_checkpoint_still_draws_its_jitter() {
        let retry = RetryPolicy { max_retries: 1, base_backoff: 100, max_backoff: 100, jitter: 50 };
        let n = 3;
        let (mut sim, client, _) = unanswered_client(retry, n, secs(10));
        sim.run_until(secs(1));
        let mut expected = sim.handler::<ClientNode>(client).unwrap().retry_rng.clone().unwrap();
        let pending = sim.pending_timer_count();
        // Past every deadline: no checkpoint is armed, every draw is made.
        busy(&mut sim, client, 20_000);
        assert_eq!(sim.pending_timer_count(), pending);
        for _ in 0..n {
            expected.gen_range(0..=50u64);
        }
        assert_eq!(sim.handler::<ClientNode>(client).unwrap().retry_rng, Some(expected));
    }

    #[test]
    fn a_restarted_client_completes_its_stranded_queries_once() {
        let (mut sim, client, mut seqs) = unanswered_client(RetryPolicy::standard(), 4, secs(20));
        sim.run_until(secs(1));
        busy(&mut sim, client, 300);
        sim.with_node::<ClientNode>(client, |c, ctx| {
            // Issued after the nack: outstanding at the crash, never nacked.
            let options = QueryOptions { timeout: secs(20), ..QueryOptions::default() };
            seqs.push(c.issue_query(ctx, QueryPayload::Uri("urn:svc:y".into()), options));
        });
        sim.run_until(secs(2));
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert_eq!(c.outstanding.len(), seqs.len());
        assert!(!c.alias.is_empty(), "the queries were retried before the crash");
        assert!(c.outstanding.values().any(|o| o.busy_nacks > 0));

        sim.crash_node(client);
        sim.run_until(secs(5));
        sim.revive_node(client);
        let c = sim.handler::<ClientNode>(client).unwrap();
        assert!(c.outstanding.is_empty(), "queries outlive the restart");
        assert!(c.alias.is_empty(), "aliases outlive the restart: {:?}", c.alias);
        assert!(c.completed.iter().all(|q| q.finished_at == secs(5)));

        // A query issued after the restart completes at its own deadline.
        sim.with_node::<ClientNode>(client, |c, ctx| {
            let options = QueryOptions { timeout: secs(3), ..QueryOptions::default() };
            seqs.push(c.issue_query(ctx, QueryPayload::Uri("urn:svc:z".into()), options));
        });
        sim.run_until(secs(30));
        let c = sim.handler::<ClientNode>(client).unwrap();
        let mut done: Vec<u64> = c.completed.iter().map(|q| q.seq).collect();
        done.sort_unstable();
        assert_eq!(done, seqs, "each issued query completes exactly once");
        assert_eq!(c.completed.last().unwrap().finished_at, secs(8));
        assert!(c.outstanding.is_empty() && c.alias.is_empty());
    }
}
