//! The registry-node role: an autonomous, federable super-peer registry.
//!
//! "A registry super-peer is responsible for answering queries based on its
//! knowledge and for forwarding queries and answers to and from other
//! registries. In addition, the registry must cooperate with other registries
//! to maintain the connectivity of the registry network."
//!
//! One [`RegistryNode`] implements, over the simulated network:
//!
//! * LAN presence: probe replies (active discovery) and periodic beacons
//!   (passive discovery);
//! * the publishing surface: publish/renew/remove/update with leases, and
//!   lease-based purging of obsolete advertisements;
//! * the querying surface: local evaluation by a one-shard
//!   [`sds_registry::ShardedEngine`] on the node's own thread, behind a
//!   registry-edge result cache ([`sds_registry::QueryCache`]) with
//!   lease-driven invalidation, federation forwarding (flood / expanding
//!   ring / random walk), response aggregation with deduplication, ranking,
//!   and query response control;
//! * registry network maintenance: seeded federation join, peer liveness
//!   pings, peer-list gossip (registry signaling), summaries;
//! * gateway election among co-located registries (paper §4.7) so only one
//!   local registry forwards a given query onto the WAN.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use sds_protocol::{
    Advertisement, Description, DiscoveryMessage, MaintenanceOp, Operation, PublishOp,
    QueryId, QueryMessage, QueryOp, QueryPayload, ResponseHit, SharedAdvert, SyncEntry, Uuid,
    WireSize,
};
use sds_registry::{
    cache_key, rank_hits, CacheStats, PublishOutcome, QueryCache, SeenQueries, SemanticEvaluator,
    ShardedEngine, SubscriptionIndex, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{Artifact, ClassId, SubsumptionIndex};
use sds_simnet::{
    take_payload, Ctx, Destination, IdMap, NodeHandler, NodeId, Rng, SimTime, TimerId,
};

use crate::config::{
    ForwardStrategy, RegistryConfig, BUSY_PCT, CACHE_SWEEP_INTERVAL, DEGRADED_MAX_RESPONSES,
    DEGRADE_PCT, EWMA_ALPHA_PCT, GOSSIP_PEER_CAP, OVERLOAD_TICK_INTERVAL, PEER_PING_INTERVAL,
    PEER_PING_TOLERANCE, PURGE_INTERVAL, QUERY_CACHE_CAPACITY, RETRY_AFTER, SEEN_RETENTION,
    STALE_PCT, STALE_SLACK, SYNC_BUCKETS,
};
use crate::util::{send_fanout_msg, send_msg, tags};

/// The fixed wire size of a [`SyncEntry::Delta`] body (id, version, lease):
/// what a delta-encoded advert update costs instead of the full advert.
const SYNC_DELTA_ENTRY_BYTES: u32 = 56;

/// A federation peer that stopped answering pings and is being re-probed
/// under backoff before eviction (opt-in via `RegistryConfig::probation`).
#[derive(Clone, Copy, Debug)]
struct ProbationState {
    /// Backed-off re-pings sent since the peer was suspected.
    attempts: u8,
}

/// Per-peer anti-entropy bookkeeping. Both maps carry the origin's *stated*
/// version and lease so digest comparison is independent of locally granted
/// lease times, and both are pruned whenever the corresponding advert leaves
/// the store ("believed synced ⊆ stored") so beliefs can never silently
/// diverge from reality.
#[derive(Default, Debug)]
struct PeerSync {
    /// Our belief of the peer's first-hand set: replicas we hold from it,
    /// keyed by advert id with the stated (version, lease-until) we applied.
    /// Digest rounds fold exactly this map; the peer corrects any bucket
    /// whose digest disagrees with its actual first-hand content.
    synced: BTreeMap<Uuid, (u32, SimTime)>,
    /// Versions of our own first-hand adverts we shipped in full and
    /// optimistically assume the peer holds: the delta-encoding base. Voided
    /// when the peer reports the advert missing (`SyncAck`) or rejoins.
    acked: BTreeMap<Uuid, u32>,
}

/// Overload-control runtime state. Only mutated while
/// [`crate::OverloadPolicy::enabled`] holds; a disabled policy leaves it
/// untouched (and the jitter stream underived), so default runs stay
/// byte-identical to the pre-overload behaviour.
#[derive(Default)]
struct OverloadState {
    /// Operations handled since the last overload tick.
    ops_in_window: u64,
    /// Utilization EWMA in integer percent of `ops_budget` (exceeds 100
    /// under overload).
    util_pct: u32,
    /// Lazily derived jitter stream for `retry_after_ms` hints; never
    /// created while the policy is disabled.
    rng: Option<Rng>,
}

/// A standing query registered by a client.
#[derive(Debug)]
struct Subscription {
    client: NodeId,
    payload: QueryPayload,
    lease_until: SimTime,
}

/// A query being aggregated on behalf of a client.
#[derive(Debug)]
struct PendingQuery {
    client: NodeId,
    original: QueryMessage,
    /// Best hit per advert id seen so far.
    hits: IdMap<Uuid, ResponseHit>,
    /// Expanding-ring round index (0-based); unused for other strategies.
    ring_round: usize,
    /// Query ids whose responses feed this aggregation (original id plus any
    /// ring-round rewrites).
    aliases: Vec<QueryId>,
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Default, Debug)]
pub struct RegistryNodeStats {
    pub queries_received: u64,
    pub duplicate_queries_dropped: u64,
    pub queries_adopted: u64,
    pub forwards_sent: u64,
    pub responses_to_clients: u64,
    pub federation_responses: u64,
    pub adverts_purged: u64,
    pub notifications_sent: u64,
    /// Publishes rejected because the advert referenced ontology concepts
    /// this registry does not know (direct publishes nacked, plus replicated
    /// adverts silently skipped).
    pub publishes_nacked: u64,
    /// Silent peers moved to probation instead of being evicted.
    pub peers_suspected: u64,
    /// Probationers that answered a backed-off re-ping and were reinstated.
    pub peers_reinstated: u64,
    /// Probationers evicted after exhausting the probation retry budget.
    pub peers_evicted: u64,
    /// Anti-entropy digests sent (one per peer per sync round).
    pub sync_rounds: u64,
    /// `SyncDelta` replies sent for mismatched digests or loss-recovery acks.
    pub deltas_sent: u64,
    /// Wire bytes avoided by delta-encoding adverts against the version the
    /// peer last acknowledged (full entry size minus the fixed delta size).
    pub bytes_saved: u64,
    /// Fresh client queries refused with a `Busy` nack above `BUSY_PCT`.
    pub busy_nacks: u64,
    /// Publishes/renewals refused with a `Busy` nack above
    /// `busy_renewal_pct` — nonzero only in the deepest overload band.
    pub renewal_busy_nacks: u64,
    /// Adopted queries whose response budget was tightened to
    /// `DEGRADED_MAX_RESPONSES` in the degraded band.
    pub responses_capped: u64,
    /// Queries answered from a lapsed-but-within-slack cache entry.
    pub stale_served: u64,
    /// Adoptions whose federation forwarding was suppressed in the stale
    /// band (answered from local knowledge only).
    pub forwards_suppressed: u64,
    /// Inbound federation-forwarded queries silently shed above `BUSY_PCT`
    /// (the origin's own registry still answers from local knowledge).
    pub federation_shed: u64,
    /// `QueryRetry` attempts whose root query had already been admitted.
    pub retries_deduped: u64,
}

/// The registry role node handler.
pub struct RegistryNode {
    cfg: RegistryConfig,
    /// Shared subsumption index for the semantic evaluator, kept so the
    /// engine can be rebuilt from scratch after a simulated crash.
    semantic_index: Option<Arc<SubsumptionIndex>>,
    /// Artifacts re-hosted on restart (assumed to live on disk, unlike the
    /// soft-state advertisement store).
    artifacts: Vec<Artifact>,
    engine: ShardedEngine,
    /// Registry-edge result cache: memoized ranked hits with lease-driven
    /// validity plus reverse invalidation on publish/renew/remove.
    query_cache: QueryCache,
    /// Federation peers, each with its count of unanswered pings.
    peers: BTreeMap<NodeId, u8>,
    /// Anti-entropy state per peer, kept through probation (so a reinstated
    /// peer resynchronizes in O(divergence)) and dropped on eviction.
    sync: BTreeMap<NodeId, PeerSync>,
    /// Suspected-silent peers being re-pinged under backoff.
    probation: BTreeMap<NodeId, ProbationState>,
    /// Lazily derived jitter stream for probation backoff; never created
    /// while the probation policy is passive.
    probation_rng: Option<Rng>,
    /// Overload-control state (ops counter, utilization EWMA, jitter
    /// stream); inert while `cfg.overload` is disabled.
    overload: OverloadState,
    /// Co-located registries, by last beacon/probe time.
    local_registries: BTreeMap<NodeId, SimTime>,
    seen: SeenQueries,
    /// Nodes that recently attached here (refreshed by their periodic
    /// RegistryListRequest), as the load hint for probe replies.
    attached: IdMap<NodeId, SimTime>,
    /// Standing queries: subscription id → (subscriber, payload, lease).
    subscriptions: IdMap<QueryId, Subscription>,
    /// Reverse index over subscription payloads so a publish only re-matches
    /// the standing queries whose constraints relate to the new advert.
    sub_index: SubscriptionIndex,
    pending: IdMap<u64, PendingQuery>,
    pending_by_alias: IdMap<QueryId, u64>,
    next_pending: u64,
    next_rewrite_seq: u64,
    pub stats: RegistryNodeStats,
}

impl RegistryNode {
    pub fn new(cfg: RegistryConfig, semantic_index: Option<Arc<SubsumptionIndex>>) -> Self {
        let engine = Self::fresh_engine(&cfg, &semantic_index);
        Self {
            cfg,
            semantic_index,
            artifacts: Vec::new(),
            engine,
            query_cache: QueryCache::new(QUERY_CACHE_CAPACITY),
            peers: BTreeMap::new(),
            sync: BTreeMap::new(),
            probation: BTreeMap::new(),
            probation_rng: None,
            overload: OverloadState::default(),
            local_registries: BTreeMap::new(),
            seen: SeenQueries::new(SEEN_RETENTION),
            attached: IdMap::default(),
            subscriptions: IdMap::default(),
            sub_index: SubscriptionIndex::new(),
            pending: IdMap::default(),
            pending_by_alias: IdMap::default(),
            next_pending: 0,
            next_rewrite_seq: 0,
            stats: RegistryNodeStats::default(),
        }
    }

    /// Hosts an artifact (persists across simulated crashes, unlike
    /// advertisements, which are soft state).
    pub fn with_artifact(mut self, artifact: Artifact) -> Self {
        self.engine.host_artifact(artifact.clone());
        self.artifacts.push(artifact);
        self
    }

    fn fresh_engine(cfg: &RegistryConfig, idx: &Option<Arc<SubsumptionIndex>>) -> ShardedEngine {
        let mut engine = ShardedEngine::new(cfg.lease_policy, 1, idx.as_deref());
        engine.register_evaluator(Box::new(UriEvaluator));
        engine.register_evaluator(Box::new(TemplateEvaluator));
        if let Some(idx) = idx {
            engine.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
        }
        engine
    }

    /// The engine, for inspection in tests and experiments.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Query-cache counters, for experiments.
    pub fn cache_stats(&self) -> CacheStats {
        self.query_cache.stats()
    }

    /// Number of live standing queries (diagnostics).
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Current federation peers.
    pub fn peer_ids(&self) -> Vec<NodeId> {
        self.peers.keys().copied().collect()
    }

    /// Known co-located registries (excluding self).
    pub fn local_registry_ids(&self) -> Vec<NodeId> {
        self.local_registries.keys().copied().collect()
    }

    /// Peers currently on probation (diagnostics).
    pub fn probation_count(&self) -> usize {
        self.probation.len()
    }

    /// Current utilization EWMA, integer percent (diagnostics/experiments).
    pub fn utilization_pct(&self) -> u32 {
        self.overload.util_pct
    }

    /// Whether the utilization EWMA sits at or above `threshold_pct`; always
    /// false while the overload policy is disabled.
    fn above(&self, threshold_pct: u16) -> bool {
        self.cfg.overload.enabled() && self.overload.util_pct >= u32::from(threshold_pct)
    }

    /// Refuses `to`'s request with an explicit `Busy` nack carrying a
    /// jittered retry hint — backpressure, never a silent drop. Jitter
    /// de-phases the shed crowd's re-arrival.
    fn send_busy(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, to: NodeId) {
        let jitter_max = self.cfg.overload.retry_jitter;
        let rng = self
            .overload
            .rng
            .get_or_insert_with(|| ctx.derive_rng("core.registry.overload"));
        let jitter = if jitter_max > 0 { rng.gen_range(0..=jitter_max) } else { 0 };
        let retry_after_ms = RETRY_AFTER.saturating_add(jitter);
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(to),
            DiscoveryMessage::maintenance(MaintenanceOp::Busy { retry_after_ms }),
        );
    }

    /// Gateway election (paper §4.7): among the registries recently heard on
    /// this LAN plus self, the lowest node id is the WAN gateway. Without
    /// election every registry is its own gateway.
    fn gateway(&self, ctx: &Ctx<'_, DiscoveryMessage>) -> NodeId {
        if !self.cfg.gateway_election {
            return ctx.node();
        }
        let horizon = self.cfg.beacon_interval.saturating_mul(5) / 2;
        let now = ctx.now();
        self.local_registries
            .iter()
            .filter(|&(_, &t)| now.saturating_sub(t) <= horizon)
            .fold(ctx.node(), |gw, (&id, _)| gw.min(id))
    }

    fn beacon(&self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let lan = ctx.lan();
        let msg = DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon {
            advert_count: self.engine.store().len() as u32,
        });
        send_msg(ctx, self.cfg.codec, Destination::Multicast(lan), msg);
    }

    fn join_seeds(&self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let seeds = self.cfg.seeds.clone();
        self.join_seeds_to(ctx, &seeds);
    }

    /// Peer-list payload for federation gossip (`FederationJoin::known_peers`
    /// / `FederationAck::peers`) toward `recipient`: sorted and unique (the
    /// peer map's key order), never naming the recipient or the sender (the
    /// receiver learns the sender from the message itself), and capped at
    /// `GOSSIP_PEER_CAP` so each gossip payload stays O(cap) instead of
    /// O(federation).
    fn gossip_peer_list(&self, recipient: NodeId) -> Vec<NodeId> {
        self.peers
            .keys()
            .copied()
            .filter(|&p| p != recipient)
            .take(GOSSIP_PEER_CAP)
            .collect()
    }

    fn join_seeds_to(&self, ctx: &mut Ctx<'_, DiscoveryMessage>, targets: &[NodeId]) {
        for &target in targets {
            if target == ctx.node() {
                continue;
            }
            let known_peers = self.gossip_peer_list(target);
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(target),
                DiscoveryMessage::maintenance(MaintenanceOp::FederationJoin { known_peers }),
            );
        }
    }

    fn add_peer(&mut self, id: NodeId, self_id: NodeId) {
        if id == self_id || self.local_registries.contains_key(&id) {
            return;
        }
        // A probationer announcing itself (FederationJoin/Ack, gossip) is
        // proof of life: reinstate immediately.
        if self.probation.remove(&id).is_some() {
            self.stats.peers_reinstated += 1;
        }
        self.peers.insert(id, 0);
    }

    /// Moves a silent peer to probation and schedules the first backed-off
    /// re-ping.
    fn suspect_peer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, id: NodeId) {
        self.peers.remove(&id);
        self.probation.insert(id, ProbationState { attempts: 0 });
        self.stats.peers_suspected += 1;
        let rng = self
            .probation_rng
            .get_or_insert_with(|| ctx.derive_rng("core.registry.probation"));
        let delay = self.cfg.probation.backoff(0, rng);
        ctx.set_timer(delay, tags::tagged(tags::PROBATION_BASE, u64::from(id.0)));
    }

    /// `PROBATION_BASE + node` timer: re-ping a probationer or evict it once
    /// the retry budget is spent.
    fn on_probation_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, id: NodeId) {
        let Some(state) = self.probation.get_mut(&id) else {
            // Reinstated (or evicted) before the timer fired.
            return;
        };
        if state.attempts >= self.cfg.probation.max_retries {
            self.probation.remove(&id);
            // Eviction is final: the sync belief for this peer dies with it
            // (a later rejoin starts from a clean digest exchange).
            self.sync.remove(&id);
            self.stats.peers_evicted += 1;
            return;
        }
        state.attempts += 1;
        let attempts = state.attempts;
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(id),
            DiscoveryMessage::maintenance(MaintenanceOp::Ping),
        );
        let rng = self
            .probation_rng
            .get_or_insert_with(|| ctx.derive_rng("core.registry.probation"));
        let delay = self.cfg.probation.backoff(attempts, rng);
        ctx.set_timer(delay, tags::tagged(tags::PROBATION_BASE, u64::from(id.0)));
    }

    /// A probationer answered: put it back in the peer set and re-announce
    /// our state (peer list, and adverts when replication is on) so both
    /// sides converge without waiting for the next gossip round.
    fn reinstate_peer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, id: NodeId) {
        self.probation.remove(&id);
        self.stats.peers_reinstated += 1;
        // Bypass add_peer's probation bookkeeping (already done above).
        if id != ctx.node() && !self.local_registries.contains_key(&id) {
            self.peers.insert(id, 0);
        }
        self.join_seeds_to(ctx, &[id]);
        // The belief maps survived probation, so one digest round heals in
        // O(divergence): only what changed while the peer was dark flows,
        // not the whole store. A replication-free deployment
        // (`sync_interval == 0`) must not start replicating here.
        if self.anti_entropy_on() {
            self.send_sync_digest(ctx, id);
        }
    }

    /// Registry-network targets for a fresh adoption, per strategy. Every
    /// branch carries `remaining_ttl - 1`.
    fn forward_targets(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        remaining_ttl: u8,
    ) -> Vec<NodeId> {
        if remaining_ttl == 0 || matches!(self.cfg.strategy, ForwardStrategy::None) {
            return Vec::new();
        }
        let mut peers: Vec<NodeId> = self.peers.keys().copied().collect();
        if let ForwardStrategy::RandomWalk { walkers, .. } = &self.cfg.strategy {
            if !peers.is_empty() {
                ctx.rng().shuffle(&mut peers);
                peers.truncate(*walkers as usize);
            }
        }
        peers
    }

    /// Continuation targets for a query this registry did NOT adopt. Every
    /// branch carries `remaining_ttl - 1`.
    fn relay_targets(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        remaining_ttl: u8,
        from: NodeId,
    ) -> Vec<NodeId> {
        if remaining_ttl == 0 || matches!(self.cfg.strategy, ForwardStrategy::None) {
            return Vec::new();
        }
        let mut peers: Vec<NodeId> =
            self.peers.keys().copied().filter(|&p| p != from).collect();
        if matches!(self.cfg.strategy, ForwardStrategy::RandomWalk { .. }) && !peers.is_empty() {
            // A walk continues through exactly one random neighbour.
            let &next = ctx.rng().choose(&peers).expect("non-empty");
            peers.clear();
            peers.push(next);
        }
        peers
    }

    /// Forwards `query` to every peer of `targets` with one TTL: one
    /// fan-out, so the forwarded message is built and sized once and every
    /// peer receives the same payload.
    fn send_forwards(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        query: &QueryMessage,
        targets: &[NodeId],
        ttl: u8,
        reply_to: NodeId,
    ) {
        if targets.is_empty() {
            return;
        }
        let mut fwd = query.clone();
        fwd.ttl = ttl;
        fwd.reply_to = Some(reply_to);
        self.stats.forwards_sent += targets.len() as u64;
        send_fanout_msg(
            ctx,
            self.cfg.codec,
            targets.iter().copied(),
            DiscoveryMessage::querying(QueryOp::Query(fwd)),
        );
    }

    /// Initial TTL for an adopted query: the client's requested TTL, capped
    /// by the strategy's own budget.
    fn adoption_ttl(&self, requested: u8, ring_round: usize) -> u8 {
        match &self.cfg.strategy {
            ForwardStrategy::Flood { ttl } => requested.min(*ttl),
            ForwardStrategy::RandomWalk { ttl, .. } => requested.min(*ttl),
            ForwardStrategy::ExpandingRing { ttls } => {
                ttls.get(ring_round).copied().unwrap_or(0).min(requested.max(1))
            }
            ForwardStrategy::None => 0,
        }
    }

    /// Evaluates a query through the registry-edge cache: a repeat of a
    /// recently evaluated query is served from memory while every returned
    /// lease is still running, byte-identical to a fresh evaluation.
    fn cached_evaluate(&mut self, query: &QueryMessage, now: SimTime) -> Vec<ResponseHit> {
        let key = cache_key(&query.payload, query.max_responses);
        if let Some(hits) = self.query_cache.get(&key, now) {
            return hits.to_vec();
        }
        let (hits, valid_until) = self.engine.evaluate_with_validity(query, now);
        self.query_cache.insert(key, &query.payload, hits.clone(), valid_until, now);
        hits
    }

    /// Drops cached results the advert could affect (appear in, or newly
    /// match).
    fn invalidate_cache(&mut self, advert: &Advertisement) {
        if self.query_cache.is_empty() {
            return;
        }
        self.query_cache.invalidate_for_advert(advert, self.semantic_index.as_deref());
    }

    /// Publishes through the engine, keeping the query cache coherent. Every
    /// event that can change some query's result set drops the affected
    /// entries: new content, updated content (old and new constraints both),
    /// and resurrection — a lease extension bringing an expired-but-unpurged
    /// advert back to life without a content change (duplicate publish, or a
    /// stale-version provider heartbeat). Pure expiry needs no hook: each
    /// cache entry's validity already ends at its earliest returned lease.
    fn publish_cached(
        &mut self,
        advert: SharedAdvert,
        from: NodeId,
        now: SimTime,
        lease_ms: u64,
    ) -> (PublishOutcome, SimTime) {
        let before = self
            .engine
            .store()
            .get(&advert.id)
            .map(|s| (s.advert.clone(), s.is_live(now)));
        let (outcome, lease_until) = self.engine.publish(advert.clone(), from, now, lease_ms);
        match (outcome, &before) {
            (PublishOutcome::New, _) => self.invalidate_cache(&advert),
            (PublishOutcome::Updated, Some((old, _))) => {
                self.invalidate_cache(old);
                self.invalidate_cache(&advert);
            }
            (PublishOutcome::Updated, None) => self.invalidate_cache(&advert),
            (PublishOutcome::Unchanged, Some((_, false))) => self.invalidate_cache(&advert),
            (PublishOutcome::StaleVersion, Some((old, false))) => {
                // The provider-heartbeat rule may have revived the *stored*
                // version; its constraints are what now match again.
                if self.engine.store().get(&advert.id).is_some_and(|s| s.is_live(now)) {
                    self.invalidate_cache(old);
                }
            }
            _ => {}
        }
        (outcome, lease_until)
    }

    /// Renews through the engine, keeping the query cache coherent: a
    /// renewal can revive an expired-but-unpurged advert, which changes
    /// query results without new content.
    fn renew_cached(&mut self, id: Uuid, now: SimTime) -> (bool, SimTime) {
        let revived =
            self.engine.store().get(&id).and_then(|s| (!s.is_live(now)).then(|| s.advert.clone()));
        let (known, lease_until) = self.engine.renew(id, now);
        if known {
            if let Some(advert) = revived {
                self.invalidate_cache(&advert);
            }
        }
        (known, lease_until)
    }

    /// Removes through the engine, keeping the query cache coherent and the
    /// sync beliefs within the store. Removing a live advert can shrink
    /// cached results; removing an already-expired one cannot (validity
    /// ended with it).
    fn remove_cached(&mut self, id: Uuid, now: SimTime) {
        let removed =
            self.engine.store().get(&id).and_then(|s| s.is_live(now).then(|| s.advert.clone()));
        self.engine.remove(id);
        if let Some(advert) = removed {
            self.invalidate_cache(&advert);
        }
        // The next digest round propagates the deletion: peers prune it
        // from the covered bucket.
        self.forget_synced(&[id]);
    }

    /// Keeps "believed synced ⊆ stored" for adverts that left the store: a
    /// removed or purged replica must be fetched again if its origin still
    /// lists it, and a first-hand advert gone can no longer serve as a
    /// delta base.
    fn forget_synced(&mut self, ids: &[Uuid]) {
        for st in self.sync.values_mut() {
            for id in ids {
                st.synced.remove(id);
                st.acked.remove(id);
            }
        }
    }

    /// Answers `client`'s query: ranks the hits, truncates them to the
    /// query's response cap, and sends them. Every answer to a client goes
    /// through here; a federation answer toward an aggregator is neither
    /// ranked nor truncated.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        client: NodeId,
        query_id: QueryId,
        max_responses: Option<u16>,
        mut hits: Vec<ResponseHit>,
    ) {
        rank_hits(&mut hits);
        if let Some(k) = max_responses {
            hits.truncate(usize::from(k));
        }
        self.stats.responses_to_clients += 1;
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(client),
            DiscoveryMessage::querying(QueryOp::QueryResponse {
                query_id,
                hits,
                responder: ctx.node(),
            }),
        );
    }

    /// Adopts a client query: evaluate locally, then either answer at once
    /// or aggregate federation responses within the response window. Under
    /// overload the answer degrades before availability does: the response
    /// budget is capped in the degraded band, and in the stale band a
    /// lapsed-but-within-slack cached answer short-circuits evaluation and
    /// federation entirely.
    fn adopt_query(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        mut query: QueryMessage,
    ) {
        self.stats.queries_adopted += 1;
        // Degraded band: tighten the budget before evaluation, so the cache
        // key, ranking truncation, and any federation forwards all see it.
        if self.above(DEGRADE_PCT) {
            let capped =
                query.max_responses.map_or(DEGRADED_MAX_RESPONSES, |m| m.min(DEGRADED_MAX_RESPONSES));
            if query.max_responses != Some(capped) {
                query.max_responses = Some(capped);
                self.stats.responses_capped += 1;
            }
        }
        // Stale band: serve a slightly-lapsed cached answer as is — no
        // evaluation, no federation — while this close to saturation.
        if self.above(STALE_PCT) {
            let key = cache_key(&query.payload, query.max_responses);
            let stale =
                self.query_cache.get_stale(&key, ctx.now(), STALE_SLACK).map(<[_]>::to_vec);
            if let Some(hits) = stale {
                self.stats.stale_served += 1;
                self.respond(ctx, from, query.id, query.max_responses, hits);
                return;
            }
        }
        let local_hits = self.cached_evaluate(&query, ctx.now());

        let gateway = self.gateway(ctx);
        let ttl = self.adoption_ttl(query.ttl, 0);
        let (targets, fwd_ttl) = if gateway == ctx.node() {
            (self.forward_targets(ctx, ttl), ttl.saturating_sub(1))
        } else if ttl > 0 {
            // Delegate WAN forwarding to the elected gateway (full TTL: the
            // local hop does not spend registry-network budget).
            (vec![gateway], ttl)
        } else {
            (Vec::new(), 0)
        };
        // Stale band: keep the query off the federation even on a cache
        // miss; local knowledge is the whole answer.
        let targets = if self.above(STALE_PCT) && !targets.is_empty() {
            self.stats.forwards_suppressed += 1;
            Vec::new()
        } else {
            targets
        };

        if targets.is_empty() {
            // Answer immediately from local knowledge.
            self.respond(ctx, from, query.id, query.max_responses, local_hits);
            return;
        }

        let seq = self.next_pending;
        self.next_pending += 1;
        let mut pending = PendingQuery {
            client: from,
            original: query.clone(),
            hits: IdMap::default(),
            ring_round: 0,
            aliases: vec![query.id],
        };
        for h in local_hits {
            pending.hits.insert(h.advert.id, h);
        }
        self.pending_by_alias.insert(query.id, seq);
        self.pending.insert(seq, pending);
        self.send_forwards(ctx, &query, &targets, fwd_ttl, ctx.node());
        ctx.set_timer(self.cfg.response_window, tags::AGG_BASE + seq);
    }

    /// Handles a query forwarded by another registry: answer toward the
    /// aggregator and relay onward per strategy.
    fn relay_query(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        query: &QueryMessage,
        aggregator: NodeId,
    ) {
        let hits = self.cached_evaluate(query, ctx.now());
        if !hits.is_empty() {
            self.stats.federation_responses += 1;
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(aggregator),
                DiscoveryMessage::querying(QueryOp::QueryResponse {
                    query_id: query.id,
                    hits,
                    responder: ctx.node(),
                }),
            );
        }
        let targets = self.relay_targets(ctx, query.ttl, from);
        self.send_forwards(ctx, query, &targets, query.ttl.saturating_sub(1), aggregator);
    }

    /// Finalizes a pending aggregation: rank, apply response control, reply.
    fn finalize_pending(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, seq: u64) {
        // Expanding ring: if this round found nothing and rounds remain,
        // widen the ring instead of answering.
        if let ForwardStrategy::ExpandingRing { ttls } = &self.cfg.strategy {
            let ttls = ttls.clone();
            if let Some(p) = self.pending.get_mut(&seq) {
                if p.hits.is_empty() && p.ring_round + 1 < ttls.len() {
                    p.ring_round += 1;
                    let round = p.ring_round;
                    // Rewrite the query id so peers that deduplicated the
                    // previous round evaluate the wider one.
                    let rewritten = QueryId { origin: ctx.node(), seq: self.next_rewrite_seq };
                    self.next_rewrite_seq += 1;
                    let mut q = p.original.clone();
                    q.id = rewritten;
                    p.aliases.push(rewritten);
                    self.pending_by_alias.insert(rewritten, seq);
                    let ttl = self.adoption_ttl(q.ttl.max(1), round);
                    let targets = self.forward_targets(ctx, ttl);
                    if !targets.is_empty() {
                        self.send_forwards(ctx, &q, &targets, ttl - 1, ctx.node());
                        ctx.set_timer(self.cfg.response_window, tags::AGG_BASE + seq);
                        return;
                    }
                }
            }
        }
        let Some(pending) = self.pending.remove(&seq) else {
            return;
        };
        for alias in &pending.aliases {
            self.pending_by_alias.remove(alias);
        }
        let hits = pending.hits.into_values().collect();
        let original = &pending.original;
        self.respond(ctx, pending.client, original.id, original.max_responses, hits);
    }

    /// Checks a freshly stored advert against every live standing query and
    /// notifies subscribers ("registration for notifications about service
    /// advertisements of interest").
    fn notify_subscribers(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        advert: &SharedAdvert,
    ) {
        let now = ctx.now();
        // Candidate generation over the subscription index: only standing
        // queries whose constraints relate to this advert are re-matched
        // (sorted by id, so notification order is deterministic).
        let matches: Vec<(NodeId, QueryId, sds_semantic::Degree, u32)> = self
            .sub_index
            .candidates(advert, self.semantic_index.as_deref())
            .into_iter()
            .filter_map(|id| {
                let sub = self.subscriptions.get(&id)?;
                if sub.lease_until <= now {
                    return None;
                }
                self.engine
                    .evaluate_single(&sub.payload, advert)
                    .map(|(degree, distance)| (sub.client, id, degree, distance))
            })
            .collect();
        for (client, subscription, degree, distance) in matches {
            self.stats.notifications_sent += 1;
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(client),
                DiscoveryMessage::querying(QueryOp::Notify {
                    subscription,
                    hit: ResponseHit { advert: advert.clone(), degree, distance },
                }),
            );
        }
    }

    /// Whether this node replicates adverts with its federation peers.
    fn anti_entropy_on(&self) -> bool {
        self.cfg.sync_interval > 0
    }

    /// One anti-entropy round toward `peer`: fold our *belief* of the peer's
    /// first-hand set into per-bucket digests and send them. The peer
    /// compares against its actual first-hand content (it is authoritative
    /// for its own adverts) and answers mismatched buckets with a
    /// `SyncDelta`; agreement costs one fixed-size message and no reply.
    fn send_sync_digest(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, peer: NodeId) {
        let buckets = {
            let st = self.sync.entry(peer).or_default();
            sds_registry::sync::fold_digests(
                st.synced.iter().map(|(&id, &(version, lease))| (id, version, lease)),
                SYNC_BUCKETS,
            )
        };
        self.stats.sync_rounds += 1;
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(peer),
            DiscoveryMessage::maintenance(MaintenanceOp::SyncDigest {
                count: u32::from(SYNC_BUCKETS),
                buckets,
            }),
        );
    }

    /// Answers a digest mismatch (or a loss-recovery `SyncAck` via `resend`)
    /// with our first-hand adverts the peer is missing or holds stale. Each
    /// advert is delta-encoded against the version the peer last
    /// acknowledged: a matching version ships as a fixed-size (id, version,
    /// lease) renewal, anything else as the full advert. An empty `buckets`
    /// slice marks a resend that must not prune the receiver's belief.
    fn send_sync_delta(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        peer: NodeId,
        buckets: &[u16],
        resend: Option<&[Uuid]>,
    ) {
        let now = ctx.now();
        let mut owned: Vec<(SharedAdvert, SimTime)> = self
            .engine
            .store()
            .first_hand(now)
            .filter(|s| match resend {
                Some(ids) => ids.contains(&s.advert.id),
                None => {
                    buckets.contains(&sds_registry::sync::bucket_of(s.advert.id, SYNC_BUCKETS))
                }
            })
            .map(|s| (s.advert.clone(), s.lease_until))
            .collect();
        owned.sort_unstable_by_key(|(a, _)| a.id);
        if owned.is_empty() && buckets.is_empty() {
            // Nothing to resend and no bucket coverage to report.
            return;
        }
        let st = self.sync.entry(peer).or_default();
        let mut entries = Vec::with_capacity(owned.len());
        let mut saved = 0u64;
        for (advert, lease_until) in owned {
            // A resend answers a peer that does NOT hold the advert: the
            // acked version is void there, ship the full advert again.
            let delta_ok =
                resend.is_none() && st.acked.get(&advert.id) == Some(&advert.version);
            if delta_ok {
                let full = 16 + advert.body_size();
                saved += u64::from(full.saturating_sub(SYNC_DELTA_ENTRY_BYTES));
                entries.push(SyncEntry::Delta {
                    id: advert.id,
                    version: advert.version,
                    lease_until,
                });
            } else {
                st.acked.insert(advert.id, advert.version);
                entries.push(SyncEntry::Full { advert, lease_until });
            }
        }
        self.stats.bytes_saved += saved;
        self.stats.deltas_sent += 1;
        send_msg(
            ctx,
            self.cfg.codec,
            Destination::Unicast(peer),
            DiscoveryMessage::maintenance(MaintenanceOp::SyncDelta {
                buckets: buckets.to_vec(),
                entries,
            }),
        );
    }

    /// Applies a peer's `SyncDelta`: store full adverts, renew delta-encoded
    /// ones we already hold at that version, report the rest missing, and
    /// prune beliefs the covered buckets no longer mention (deletion
    /// propagation). Idempotent under duplication and reorder: every step
    /// converges the replica toward the origin's stated (version, lease).
    fn apply_sync_delta(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        buckets: Vec<u16>,
        entries: Vec<SyncEntry>,
    ) {
        let now = ctx.now();
        let mut missing: Vec<Uuid> = Vec::new();
        let mut mentioned: Vec<Uuid> = Vec::new();
        for entry in entries {
            match entry {
                SyncEntry::Full { advert, lease_until } => {
                    mentioned.push(advert.id);
                    // Replicated adverts get the same ontology check as
                    // direct publishes; there is no provider to nack.
                    if !self.unknown_concepts(&advert).is_empty() {
                        self.stats.publishes_nacked += 1;
                        continue;
                    }
                    // Grant what remains of the origin's lease, so the
                    // replica expires when the origin stops refreshing it.
                    let lease_ms = lease_until.saturating_sub(now);
                    if lease_ms == 0 {
                        continue;
                    }
                    let (outcome, _) = self.publish_cached(advert.clone(), from, now, lease_ms);
                    if outcome == PublishOutcome::New {
                        self.notify_subscribers(ctx, &advert);
                    }
                    self.sync
                        .entry(from)
                        .or_default()
                        .synced
                        .insert(advert.id, (advert.version, lease_until));
                }
                SyncEntry::Delta { id, version, lease_until } => {
                    mentioned.push(id);
                    if self.engine.store().get(&id).is_some_and(|s| s.advert.version == version) {
                        self.renew_cached(id, now);
                        let st = self.sync.entry(from).or_default();
                        st.synced.insert(id, (version, lease_until));
                    } else {
                        // Unknown advert or version skew: the delta base is
                        // wrong on our side, ask for the full advert.
                        missing.push(id);
                    }
                }
            }
        }
        // A mismatched bucket's reply lists the origin's entire first-hand
        // content for that bucket, so believed entries it no longer mentions
        // are gone at the origin. An empty bucket list marks a loss-recovery
        // resend and prunes nothing.
        if !buckets.is_empty() {
            if let Some(st) = self.sync.get_mut(&from) {
                st.synced.retain(|&id, _| {
                    !buckets.contains(&sds_registry::sync::bucket_of(id, SYNC_BUCKETS))
                        || mentioned.contains(&id)
                });
            }
        }
        if !missing.is_empty() {
            missing.sort_unstable();
            missing.dedup();
            send_msg(
                ctx,
                self.cfg.codec,
                Destination::Unicast(from),
                DiscoveryMessage::maintenance(MaintenanceOp::SyncAck { missing }),
            );
        }
    }

    fn on_maintenance(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, op: MaintenanceOp) {
        match op {
            MaintenanceOp::RegistryProbe => {
                let horizon = ctx.now().saturating_sub(60_000);
                let load =
                    self.attached.values().filter(|&&t| t >= horizon).count() as u32;
                let reply = DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
                    advert_count: self.engine.store().len() as u32,
                    load,
                });
                send_msg(ctx, self.cfg.codec, Destination::Unicast(from), reply);
            }
            MaintenanceOp::RegistryBeacon { .. } => {
                // Multicast is link-local, so a received beacon implies a
                // co-located registry.
                self.local_registries.insert(from, ctx.now());
            }
            MaintenanceOp::Ping => {
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::maintenance(MaintenanceOp::Pong),
                );
            }
            MaintenanceOp::Pong => {
                if self.probation.contains_key(&from) {
                    self.reinstate_peer(ctx, from);
                } else if let Some(unanswered) = self.peers.get_mut(&from) {
                    *unanswered = 0;
                }
            }
            MaintenanceOp::RegistryListRequest { from_registry } => {
                // Attachment tracking: clients/services refresh their lists
                // periodically, so the sender counts as attached; overlay
                // self-healing requests from other registries do not.
                if !from_registry {
                    self.attached.insert(from, ctx.now());
                }
                let mut registries: Vec<NodeId> = self
                    .local_registries
                    .keys()
                    .chain(self.peers.keys())
                    .copied()
                    .filter(|&r| r != from)
                    .collect();
                registries.push(ctx.node());
                registries.sort_unstable();
                registries.dedup();
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::maintenance(MaintenanceOp::RegistryList { registries }),
                );
            }
            MaintenanceOp::RegistryList { registries } => {
                if self.cfg.transitive_peering {
                    let self_id = ctx.node();
                    let had_peers = !self.peers.is_empty();
                    for r in registries {
                        self.add_peer(r, self_id);
                    }
                    // Coming back from isolation: announce ourselves so the
                    // links become bidirectional immediately.
                    if !had_peers && !self.peers.is_empty() {
                        self.join_seeds_to(ctx, &self.peers.keys().copied().collect::<Vec<_>>());
                    }
                }
            }
            MaintenanceOp::FederationJoin { known_peers } => {
                let self_id = ctx.node();
                let peers = self.gossip_peer_list(from);
                self.add_peer(from, self_id);
                if self.cfg.transitive_peering {
                    for p in known_peers {
                        self.add_peer(p, self_id);
                    }
                }
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::maintenance(MaintenanceOp::FederationAck { peers }),
                );
                if self.anti_entropy_on() {
                    // A (re)joining peer may have restarted with nothing: our
                    // delta-encoding base is void, and one immediate digest
                    // round does the initial replication (the peer corrects
                    // whatever differs).
                    if let Some(st) = self.sync.get_mut(&from) {
                        st.acked.clear();
                    }
                    self.send_sync_digest(ctx, from);
                }
            }
            MaintenanceOp::FederationAck { peers } => {
                let self_id = ctx.node();
                self.add_peer(from, self_id);
                if self.cfg.transitive_peering {
                    for p in peers {
                        self.add_peer(p, self_id);
                    }
                }
                if self.anti_entropy_on() {
                    // Complete the initial exchange in both directions.
                    self.send_sync_digest(ctx, from);
                }
            }
            MaintenanceOp::SyncDigest { count, buckets } => {
                // A digest is proof the sender holds us as a federation peer
                // (digests only go to peers) and proof of life: adopt it.
                // Transitive peering can leave one-way edges behind —
                // symmetric closure through the sync plane converges them in
                // one round instead of waiting on signaling gossip.
                if self.anti_entropy_on() {
                    let newly_adopted = !self.peers.contains_key(&from);
                    self.add_peer(from, ctx.node());
                    if newly_adopted && self.peers.contains_key(&from) {
                        self.send_sync_digest(ctx, from);
                    }
                }
                let own = self.engine.store().sync_digests(ctx.now(), SYNC_BUCKETS);
                // Bucket-for-bucket comparison only when the shapes agree; a
                // peer with different bucket geometry (or a corrupted frame)
                // counts every bucket as divergent.
                let shape_ok = count as usize == buckets.len() && buckets.len() == own.len();
                let mismatched: Vec<u16> = (0..SYNC_BUCKETS)
                    .filter(|&b| !shape_ok || own[usize::from(b)] != buckets[usize::from(b)])
                    .collect();
                if !mismatched.is_empty() {
                    self.send_sync_delta(ctx, from, &mismatched, None);
                }
            }
            MaintenanceOp::SyncDelta { buckets, entries } => {
                self.apply_sync_delta(ctx, from, buckets, entries);
            }
            MaintenanceOp::SyncAck { missing } => {
                if !missing.is_empty() {
                    // The peer lacks these (first sight on its side, or it
                    // lost the original full advert): void the acked
                    // versions and resend complete adverts. Empty bucket
                    // coverage keeps the peer from pruning its beliefs.
                    let st = self.sync.entry(from).or_default();
                    for id in &missing {
                        st.acked.remove(id);
                    }
                    self.send_sync_delta(ctx, from, &[], Some(&missing));
                }
            }
            MaintenanceOp::ArtifactRequest { name } => {
                let (found, size) = match self.engine.artifacts().get_latest(&name) {
                    Some(a) => (true, a.body.len() as u32),
                    None => (false, 0),
                };
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::maintenance(MaintenanceOp::ArtifactResponse {
                        name,
                        found,
                        size,
                    }),
                );
            }
            // A registry never backs off on `Busy` itself: overloaded peers
            // shed federation traffic silently, so an arriving nack is for
            // a client/provider role and carries nothing for us. Peers'
            // summaries are sent for the wire's sake; nothing reads them.
            MaintenanceOp::RegistryProbeReply { .. }
            | MaintenanceOp::ArtifactResponse { .. }
            | MaintenanceOp::SummaryAdvert { .. }
            | MaintenanceOp::Busy { .. } => {}
        }
    }

    /// Concepts referenced by the advert's semantic description that this
    /// registry's ontology does not cover. Non-semantic descriptions (and
    /// registries without a semantic index) validate vacuously: there is
    /// nothing to check concepts against.
    fn unknown_concepts(&self, advert: &Advertisement) -> Vec<ClassId> {
        let Some(idx) = &self.semantic_index else { return Vec::new() };
        let Description::Semantic(p) = &advert.description else { return Vec::new() };
        let mut unknown: Vec<ClassId> = std::iter::once(p.category)
            .chain(p.inputs.iter().copied())
            .chain(p.outputs.iter().copied())
            .filter(|&c| !idx.contains(c))
            .collect();
        unknown.sort_unstable_by_key(|c| c.0);
        unknown.dedup();
        unknown
    }

    fn on_publishing(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, op: PublishOp) {
        // The publishing surface (lease renewals included) is liveness-class
        // traffic: it sheds only above `busy_renewal_pct`, a deliberately
        // higher watermark than the query threshold, so degradation consumes
        // answer quality first and provider liveness last.
        if self.above(self.cfg.overload.busy_renewal_pct)
            && matches!(
                op,
                PublishOp::Publish { .. } | PublishOp::Update { .. } | PublishOp::RenewLease { .. }
            )
        {
            self.stats.renewal_busy_nacks += 1;
            self.send_busy(ctx, from);
            return;
        }
        match op {
            PublishOp::Publish { advert, lease_ms } | PublishOp::Update { advert, lease_ms } => {
                let id = advert.id;
                // Validate ontology references before anything is stored: an
                // advert naming concepts we cannot reason about would sit in
                // the store forever matching nothing.
                let unknown = self.unknown_concepts(&advert);
                if !unknown.is_empty() {
                    self.stats.publishes_nacked += 1;
                    send_msg(
                        ctx,
                        self.cfg.codec,
                        Destination::Unicast(from),
                        DiscoveryMessage::publishing(PublishOp::PublishNack { id, unknown }),
                    );
                    return;
                }
                let (outcome, lease_until) =
                    self.publish_cached(advert.clone(), from, ctx.now(), lease_ms);
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::publishing(PublishOp::PublishAck { id, lease_until }),
                );
                // Only genuinely new content triggers notifications: a
                // duplicated publish (Unchanged) must not double-notify.
                if matches!(outcome, PublishOutcome::New | PublishOutcome::Updated) {
                    self.notify_subscribers(ctx, &advert);
                }
            }
            PublishOp::RenewLease { id } => {
                // A provider renewing a copy we hold only as a replica (its
                // publish to us was lost, or a peer's replica overwrote it)
                // is attached here: re-adopt the copy as first-hand, or no
                // registry offers it to the federation once the peer's own
                // copy lapses. Re-publishing revives and invalidates like
                // the plain renewal below.
                let replica = self
                    .engine
                    .store()
                    .get(&id)
                    .filter(|s| s.advert.provider == from && s.source != from)
                    .map(|s| (s.advert.clone(), s.requested_lease_ms));
                let (known, lease_until) = if let Some((advert, lease_ms)) = replica {
                    let (_, lease_until) = self.publish_cached(advert, from, ctx.now(), lease_ms);
                    (true, lease_until)
                } else {
                    self.renew_cached(id, ctx.now())
                };
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::publishing(PublishOp::RenewAck { id, lease_until, known }),
                );
            }
            PublishOp::Remove { id } => self.remove_cached(id, ctx.now()),
            // `ForwardAdverts` is the cluster baseline's full-copy
            // replication; federated registries replicate by sync digests
            // and deltas and take adverts from no other op.
            PublishOp::ForwardAdverts { .. }
            | PublishOp::PublishAck { .. }
            | PublishOp::RenewAck { .. }
            | PublishOp::PublishNack { .. } => {}
        }
    }

    /// Admits a `Query`, or a client's `QueryRetry` of the attempt `root`,
    /// reading it in place: counts it, sheds it in the busy band, drops a
    /// duplicate, and relays a federation forward. Returns whether the query
    /// is this registry's to adopt; the caller adopts an owned copy. A
    /// relayed or adopted query is marked seen.
    ///
    /// A retry differs twice: it is always nacked in the busy band (its
    /// sender is a client), and it dedups on its root attempt, re-answering
    /// a root that already completed, because the retry means that answer
    /// was lost.
    fn receive_query(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        query: &QueryMessage,
        root: Option<QueryId>,
    ) -> bool {
        self.stats.queries_received += 1;
        // Overload admission runs before duplicate tracking: a shed query
        // must not be marked seen, or its later `QueryRetry` would dedup
        // against an attempt that was never processed.
        if self.above(BUSY_PCT) {
            match query.reply_to {
                Some(aggregator) if root.is_none() && aggregator != ctx.node() => {
                    // A federation forward: the origin's registry still
                    // answers from local knowledge, so shed silently instead
                    // of backpressuring a peer mid-aggregation.
                    self.stats.federation_shed += 1;
                }
                _ => {
                    self.stats.busy_nacks += 1;
                    self.send_busy(ctx, from);
                }
            }
            return false;
        }
        let fresh = match root {
            None => self.seen.first_sighting(query.id, ctx.now()),
            Some(root) => {
                let fresh = self.seen.first_sighting(root, ctx.now());
                // Track the retry's own wire id too, so duplicates of the
                // retry itself dedup normally.
                let _ = self.seen.first_sighting(query.id, ctx.now());
                fresh
            }
        };
        if !fresh {
            let Some(root) = root else {
                self.stats.duplicate_queries_dropped += 1;
                return false;
            };
            // The root attempt was admitted, so re-adopting it would double
            // the evaluation (and federation) work exactly when the client
            // suspects the registry is slow. With the root's aggregation
            // still in flight, its answer is coming under an id the client
            // accepts. Otherwise the root completed and the retry means its
            // *response* was lost or shed in transit: re-answer cheaply from
            // local knowledge (cache-hot for a recent query) without
            // re-federating.
            self.stats.retries_deduped += 1;
            if !self.pending_by_alias.contains_key(&root) {
                let hits = self.cached_evaluate(query, ctx.now());
                self.respond(ctx, from, query.id, query.max_responses, hits);
            }
            return false;
        }
        // A retry whose root was shed or lost before admission is processed
        // as a fresh query under its own wire id: the client's alias map
        // credits responses to the root attempt.
        match query.reply_to {
            Some(aggregator) if aggregator != ctx.node() => {
                self.relay_query(ctx, from, query, aggregator);
                false
            }
            _ => true,
        }
    }

    /// One unit of modeled work for the overload tick's utilization EWMA.
    fn count_op(&mut self) {
        if self.cfg.overload.enabled() {
            self.overload.ops_in_window += 1;
        }
    }

    fn on_querying(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, op: QueryOp) {
        match op {
            QueryOp::Subscribe { id, payload, lease_ms } => {
                let lease_until = self.cfg.lease_policy.grant(ctx.now(), lease_ms);
                let replaced = self
                    .subscriptions
                    .insert(id, Subscription { client: from, payload: payload.clone(), lease_until });
                if let Some(old) = replaced {
                    self.sub_index.remove(id, &old.payload);
                }
                self.sub_index.insert(id, &payload);
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::querying(QueryOp::SubscribeAck { id, lease_until }),
                );
            }
            QueryOp::Unsubscribe { id } => {
                if let Some(sub) = self.subscriptions.remove(&id) {
                    self.sub_index.remove(id, &sub.payload);
                }
            }
            QueryOp::ComposeRequest { id, request, max_depth } => {
                let chain = self.engine.compose(&request, ctx.now(), max_depth as usize);
                let (found, chain) = match chain {
                    Some(c) => (true, c),
                    None => (false, Vec::new()),
                };
                send_msg(
                    ctx,
                    self.cfg.codec,
                    Destination::Unicast(from),
                    DiscoveryMessage::querying(QueryOp::ComposeResponse { id, found, chain }),
                );
            }
            // Queries and retries are received by reference, in
            // `on_shared_message`, and never reach this match.
            QueryOp::Query(_)
            | QueryOp::QueryRetry { .. }
            | QueryOp::Notify { .. }
            | QueryOp::SubscribeAck { .. }
            | QueryOp::ComposeResponse { .. } => {}
            QueryOp::QueryResponse { query_id, hits, responder: _ } => {
                if let Some(&seq) = self.pending_by_alias.get(&query_id) {
                    if let Some(p) = self.pending.get_mut(&seq) {
                        for h in hits {
                            match p.hits.get(&h.advert.id) {
                                Some(existing)
                                    if (existing.degree, std::cmp::Reverse(existing.distance))
                                        >= (h.degree, std::cmp::Reverse(h.distance)) => {}
                                _ => {
                                    p.hits.insert(h.advert.id, h);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl NodeHandler<DiscoveryMessage> for RegistryNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        // A (re)starting registry keeps configuration and hosted artifacts
        // but loses soft state: adverts, peers, pending queries.
        self.engine = Self::fresh_engine(&self.cfg, &self.semantic_index);
        for a in &self.artifacts {
            self.engine.host_artifact(a.clone());
        }
        self.query_cache = QueryCache::new(QUERY_CACHE_CAPACITY);
        self.peers.clear();
        self.probation.clear();
        self.local_registries.clear();
        self.seen.clear();
        self.attached.clear();
        self.subscriptions.clear();
        self.sub_index.clear();
        self.pending.clear();
        self.pending_by_alias.clear();
        self.sync.clear();

        if self.cfg.beacon_interval > 0 {
            self.beacon(ctx);
            ctx.set_timer(self.cfg.beacon_interval, tags::BEACON);
        }
        ctx.set_timer(PURGE_INTERVAL, tags::PURGE);
        if !self.cfg.seeds.is_empty() {
            self.join_seeds(ctx);
        }
        ctx.set_timer(PEER_PING_INTERVAL, tags::SEED_RETRY);
        ctx.set_timer(PEER_PING_INTERVAL, tags::PEER_PING);
        if self.cfg.signaling_interval > 0 {
            ctx.set_timer(self.cfg.signaling_interval, tags::SIGNALING);
        }
        if self.anti_entropy_on() {
            ctx.set_timer(self.cfg.sync_interval, tags::SYNC);
        }
        ctx.set_timer(CACHE_SWEEP_INTERVAL, tags::CACHE_SWEEP);
        // A restart clears overload history (the EWMA is soft state); the
        // jitter stream, like `probation_rng`, persists across restarts.
        self.overload.ops_in_window = 0;
        self.overload.util_pct = 0;
        if self.cfg.overload.enabled() {
            ctx.set_timer(OVERLOAD_TICK_INTERVAL, tags::OVERLOAD_TICK);
        }
    }

    /// An owned message takes the one receive path below.
    fn on_message(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, from: NodeId, msg: DiscoveryMessage) {
        self.on_shared_message(ctx, from, Rc::new(msg));
    }

    /// A flooded query reaches a registry once per peer that relays it, and
    /// all but the first arrival are duplicates. A query or retry is
    /// received on the shared delivery, so a dropped one is never copied and
    /// a relayed one is read in place (its forwards are a fresh fan-out
    /// payload anyway); only an adopted query is materialized. Every other
    /// message is taken out of the box and dispatched by plane.
    fn on_shared_message(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        msg: Rc<DiscoveryMessage>,
    ) {
        // Every handled message is one unit of modeled work.
        self.count_op();
        let (query, root) = match &msg.op {
            Operation::Querying(QueryOp::Query(query)) => (query, None),
            Operation::Querying(QueryOp::QueryRetry { query, root_seq }) => {
                (query, Some(QueryId { origin: query.id.origin, seq: *root_seq }))
            }
            _ => {
                return match take_payload(msg).op {
                    Operation::Maintenance(op) => self.on_maintenance(ctx, from, op),
                    Operation::Publishing(op) => self.on_publishing(ctx, from, op),
                    Operation::Querying(op) => self.on_querying(ctx, from, op),
                };
            }
        };
        if self.receive_query(ctx, from, query, root) {
            let Operation::Querying(QueryOp::Query(query) | QueryOp::QueryRetry { query, .. }) =
                take_payload(msg).op
            else {
                unreachable!("matched as a query above");
            };
            self.adopt_query(ctx, from, query);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, _timer: TimerId, tag: u64) {
        match tag {
            tags::BEACON => {
                self.beacon(ctx);
                ctx.set_timer(self.cfg.beacon_interval, tags::BEACON);
            }
            tags::PURGE => {
                // Expiry needs no cache hook: each cache entry's validity
                // already ends at its earliest returned lease.
                let purged = self.engine.purge(ctx.now());
                self.stats.adverts_purged += purged.len() as u64;
                self.forget_synced(&purged);
                let now = ctx.now();
                let sub_index = &mut self.sub_index;
                self.subscriptions.retain(|&id, sub| {
                    let live = sub.lease_until > now;
                    if !live {
                        sub_index.remove(id, &sub.payload);
                    }
                    live
                });
                ctx.set_timer(PURGE_INTERVAL, tags::PURGE);
            }
            tags::PEER_PING => {
                let dead: Vec<NodeId> = self
                    .peers
                    .iter()
                    .filter(|&(_, &unanswered)| unanswered >= PEER_PING_TOLERANCE)
                    .map(|(&id, _)| id)
                    .collect();
                for id in dead {
                    if self.cfg.probation.enabled() {
                        // Probation keeps the sync belief: reinstatement
                        // then heals in O(divergence), not O(state).
                        self.suspect_peer(ctx, id);
                    } else {
                        self.peers.remove(&id);
                        self.sync.remove(&id);
                    }
                }
                let targets: Vec<NodeId> = self.peers.keys().copied().collect();
                for peer in targets {
                    if let Some(unanswered) = self.peers.get_mut(&peer) {
                        *unanswered += 1;
                    }
                    send_msg(
                        ctx,
                        self.cfg.codec,
                        Destination::Unicast(peer),
                        DiscoveryMessage::maintenance(MaintenanceOp::Ping),
                    );
                }
                ctx.set_timer(PEER_PING_INTERVAL, tags::PEER_PING);
            }
            tags::SIGNALING => {
                // Gossip the peer list and a summary to one random peer.
                let peers: Vec<NodeId> = self.peers.keys().copied().collect();
                if !peers.is_empty() {
                    let target = peers[ctx.rng().gen_range(0..peers.len())];
                    let mut registries = peers.clone();
                    registries.extend(self.local_registries.keys().copied());
                    registries.push(ctx.node());
                    registries.sort_unstable();
                    registries.dedup();
                    send_msg(
                        ctx,
                        self.cfg.codec,
                        Destination::Unicast(target),
                        DiscoveryMessage::maintenance(MaintenanceOp::RegistryList { registries }),
                    );
                    let summary = self.engine.summary(ctx.now());
                    send_msg(
                        ctx,
                        self.cfg.codec,
                        Destination::Unicast(target),
                        DiscoveryMessage::maintenance(MaintenanceOp::SummaryAdvert {
                            advert_count: summary.advert_count,
                            models: summary.models,
                        }),
                    );
                }
                ctx.set_timer(self.cfg.signaling_interval, tags::SIGNALING);
            }
            tags::SYNC => {
                // Anti-entropy round: one digest per peer. Belief state for
                // nodes that are neither peers nor probationers is garbage.
                let peers_ref = &self.peers;
                let probation_ref = &self.probation;
                self.sync
                    .retain(|id, _| peers_ref.contains_key(id) || probation_ref.contains_key(id));
                let peers: Vec<NodeId> = self.peers.keys().copied().collect();
                for peer in peers {
                    self.send_sync_digest(ctx, peer);
                }
                ctx.set_timer(self.cfg.sync_interval, tags::SYNC);
            }
            tags::CACHE_SWEEP => {
                self.query_cache.sweep(ctx.now());
                ctx.set_timer(CACHE_SWEEP_INTERVAL, tags::CACHE_SWEEP);
            }
            tags::OVERLOAD_TICK => {
                // Fold the window's ops count into the utilization EWMA
                // (integer percent of the modeled per-window budget).
                let sample = (self.overload.ops_in_window.saturating_mul(100)
                    / u64::from(self.cfg.overload.ops_budget.max(1)))
                .min(u64::from(u32::MAX)) as u32;
                self.overload.ops_in_window = 0;
                let alpha = u64::from(EWMA_ALPHA_PCT);
                self.overload.util_pct = ((alpha * u64::from(sample)
                    + (100 - alpha) * u64::from(self.overload.util_pct))
                    / 100) as u32;
                ctx.set_timer(OVERLOAD_TICK_INTERVAL, tags::OVERLOAD_TICK);
            }
            tags::SEED_RETRY => {
                if self.peers.is_empty() {
                    self.join_seeds(ctx);
                    // A restarted registry may hold no seeds (it WAS the
                    // seed): recover the federation through co-located
                    // registries' knowledge (registry signaling).
                    let locals: Vec<NodeId> = self.local_registries.keys().copied().collect();
                    for l in locals {
                        send_msg(
                            ctx,
                            self.cfg.codec,
                            Destination::Unicast(l),
                            DiscoveryMessage::maintenance(MaintenanceOp::RegistryListRequest {
                                from_registry: true,
                            }),
                        );
                    }
                }
                ctx.set_timer(PEER_PING_INTERVAL.saturating_mul(2), tags::SEED_RETRY);
            }
            t => {
                if let Some(seq) = tags::seq_of(t, tags::AGG_BASE) {
                    self.finalize_pending(ctx, seq);
                } else if let Some(raw) = tags::seq_of(t, tags::PROBATION_BASE) {
                    self.on_probation_timer(ctx, NodeId(raw as u32));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverloadPolicy;
    use sds_simnet::{Sim, SimConfig, Topology};

    const CLIENT: NodeId = NodeId(5);
    const PEER: NodeId = NodeId(6);
    const AGGREGATOR: NodeId = NodeId(7);

    fn query(seq: u64, reply_to: Option<NodeId>) -> QueryMessage {
        QueryMessage {
            id: QueryId { origin: NodeId(9), seq },
            payload: QueryPayload::Uri("urn:svc:printer".into()),
            max_responses: None,
            ttl: 2,
            reply_to,
        }
    }

    /// One overload-enabled registry, alone on its LAN.
    fn world() -> (Sim<DiscoveryMessage>, NodeId) {
        let mut topo = Topology::new();
        let lan = topo.add_lan();
        let mut sim = Sim::new(SimConfig::default(), topo, 1);
        let cfg =
            RegistryConfig { overload: OverloadPolicy::standard(100), ..RegistryConfig::default() };
        let r = sim.add_node(lan, Box::new(RegistryNode::new(cfg, None)));
        (sim, r)
    }

    /// Hands `op` to the registry as the engine would: behind a shared `Rc`
    /// (`shared`), or owned.
    fn deliver(sim: &mut Sim<DiscoveryMessage>, r: NodeId, from: NodeId, op: QueryOp, shared: bool) {
        let msg = DiscoveryMessage::querying(op);
        sim.with_node::<RegistryNode>(r, |reg, ctx| {
            if shared {
                reg.on_shared_message(ctx, from, Rc::new(msg));
            } else {
                reg.on_message(ctx, from, msg);
            }
        });
    }

    fn set_util(sim: &mut Sim<DiscoveryMessage>, r: NodeId, pct: u32) {
        sim.handler_mut::<RegistryNode>(r).expect("registry").overload.util_pct = pct;
    }

    #[test]
    fn a_query_shed_by_reference_is_not_seen_so_its_retry_is_adopted() {
        let (mut sim, r) = world();
        let busy = u32::from(BUSY_PCT);
        set_util(&mut sim, r, busy);
        deliver(&mut sim, r, CLIENT, QueryOp::Query(query(1, None)), true);
        deliver(&mut sim, r, PEER, QueryOp::Query(query(3, Some(AGGREGATOR))), true);
        let reg = sim.handler::<RegistryNode>(r).expect("registry");
        assert_eq!(reg.stats.queries_received, 2);
        assert_eq!((reg.stats.busy_nacks, reg.stats.federation_shed), (1, 1));
        assert_eq!(reg.stats.queries_adopted, 0);

        set_util(&mut sim, r, 0);
        let retry = QueryOp::QueryRetry { query: query(2, None), root_seq: 1 };
        deliver(&mut sim, r, CLIENT, retry, true);
        // The shed forward is relayed, not dropped, when it comes again.
        deliver(&mut sim, r, PEER, QueryOp::Query(query(3, Some(AGGREGATOR))), true);
        let reg = sim.handler::<RegistryNode>(r).expect("registry");
        assert_eq!(reg.stats.queries_received, 4);
        assert_eq!((reg.stats.retries_deduped, reg.stats.duplicate_queries_dropped), (0, 0));
        assert_eq!(reg.stats.queries_adopted, 1, "the retry of a shed query is adopted");
    }

    #[test]
    fn a_duplicate_dropped_by_reference_counts_as_the_owned_path_does() {
        let mut books = Vec::new();
        for shared in [true, false] {
            let (mut sim, r) = world();
            // A federation forward (relayed) and a client query (adopted),
            // each arriving twice.
            for op in [QueryOp::Query(query(1, Some(AGGREGATOR))), QueryOp::Query(query(2, None))] {
                deliver(&mut sim, r, PEER, op.clone(), shared);
                deliver(&mut sim, r, PEER, op, shared);
            }
            let reg = sim.handler::<RegistryNode>(r).expect("registry");
            assert_eq!(reg.stats.queries_received, 4, "shared: {shared}");
            assert_eq!(reg.stats.duplicate_queries_dropped, 2, "shared: {shared}");
            assert_eq!(reg.stats.queries_adopted, 1, "shared: {shared}");
            assert_eq!(reg.overload.ops_in_window, 4, "shared: {shared}");
            books.push(format!("{:?} {}", reg.stats, reg.overload.ops_in_window));
        }
        assert_eq!(books[0], books[1], "the shared and the owned path disagree");
    }

    /// Records the ids of every query answer it receives.
    #[derive(Default)]
    struct Sink {
        answers: Vec<(QueryId, Vec<Uuid>)>,
    }

    impl NodeHandler<DiscoveryMessage> for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_, DiscoveryMessage>, _: NodeId, msg: DiscoveryMessage) {
            if let Operation::Querying(QueryOp::QueryResponse { query_id, hits, .. }) = msg.op {
                self.answers.push((query_id, hits.iter().map(|h| h.advert.id).collect()));
            }
        }
    }

    /// A default-configured registry (query cache on, purge every second)
    /// with two sinks on its LAN: one that publishes and asks, and one that
    /// plays a federation peer.
    struct Coherence {
        sim: Sim<DiscoveryMessage>,
        registry: NodeId,
        client: NodeId,
        peer: NodeId,
        next_seq: u64,
    }

    const ADVERT: Uuid = Uuid(0xAD);

    impl Coherence {
        fn new() -> Self {
            let mut topo = Topology::new();
            let lan = topo.add_lan();
            let mut sim = Sim::new(SimConfig::default(), topo, 1);
            let registry = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
            let client = sim.add_node(lan, Box::new(Sink::default()));
            let peer = sim.add_node(lan, Box::new(Sink::default()));
            Self { sim, registry, client, peer, next_seq: 0 }
        }

        fn advert(&self, uri: &str, version: u32) -> SharedAdvert {
            SharedAdvert::from(Advertisement {
                id: ADVERT,
                provider: self.client,
                description: Description::Uri(uri.into()),
                version,
            })
        }

        /// Delivers `msg` from `from` at sim time `at`.
        fn deliver_at(&mut self, at: SimTime, from: NodeId, msg: DiscoveryMessage) {
            self.sim.run_until(at);
            self.sim.with_node::<RegistryNode>(self.registry, |reg, ctx| reg.on_message(ctx, from, msg));
        }

        fn publish_at(&mut self, at: SimTime, op: PublishOp) {
            let client = self.client;
            self.deliver_at(at, client, DiscoveryMessage::publishing(op));
        }

        /// Asks the client's next URI query at `at` and returns the ids the
        /// registry answered with.
        fn ask_at(&mut self, at: SimTime, uri: &str) -> Vec<Uuid> {
            self.next_seq += 1;
            let id = QueryId { origin: self.client, seq: self.next_seq };
            let q = QueryMessage {
                id,
                payload: QueryPayload::Uri(uri.into()),
                max_responses: None,
                ttl: 0,
                reply_to: None,
            };
            let client = self.client;
            self.deliver_at(at, client, DiscoveryMessage::querying(QueryOp::Query(q)));
            self.sim.run_until(at + 50);
            let sink = self.sim.handler::<Sink>(self.client).expect("sink");
            let (answered, hits) = sink.answers.last().expect("an answer");
            assert_eq!(*answered, id, "the registry answered another query");
            hits.clone()
        }
    }

    #[test]
    fn a_renewal_that_revives_an_expired_advert_reaches_the_next_answer() {
        let mut w = Coherence::new();
        let advert = w.advert("urn:svc:printer", 1);
        // Lease 100..1_100; the purge ticks at 1_000 and 2_000 leave it
        // expired but stored between 1_100 and 2_000.
        w.publish_at(100, PublishOp::Publish { advert, lease_ms: 1_000 });
        assert_eq!(w.ask_at(200, "urn:svc:printer"), vec![ADVERT]);
        assert_eq!(w.ask_at(1_200, "urn:svc:printer"), Vec::<Uuid>::new());
        w.publish_at(1_300, PublishOp::RenewLease { id: ADVERT });
        assert_eq!(w.ask_at(1_400, "urn:svc:printer"), vec![ADVERT]);
    }

    #[test]
    fn a_sync_delta_that_revives_a_replica_reaches_the_next_answer() {
        let mut w = Coherence::new();
        let advert = w.advert("urn:svc:printer", 1);
        let peer = w.peer;
        let full = SyncEntry::Full { advert, lease_until: 1_100 };
        let op = MaintenanceOp::SyncDelta { buckets: Vec::new(), entries: vec![full] };
        w.deliver_at(100, peer, DiscoveryMessage::maintenance(op));
        assert_eq!(w.ask_at(200, "urn:svc:printer"), vec![ADVERT]);
        assert_eq!(w.ask_at(1_200, "urn:svc:printer"), Vec::<Uuid>::new());
        let delta = SyncEntry::Delta { id: ADVERT, version: 1, lease_until: 2_300 };
        let op = MaintenanceOp::SyncDelta { buckets: Vec::new(), entries: vec![delta] };
        w.deliver_at(1_300, peer, DiscoveryMessage::maintenance(op));
        assert_eq!(w.ask_at(1_400, "urn:svc:printer"), vec![ADVERT]);
    }

    #[test]
    fn removing_a_live_advert_reaches_the_next_answer() {
        let mut w = Coherence::new();
        let advert = w.advert("urn:svc:printer", 1);
        w.publish_at(100, PublishOp::Publish { advert, lease_ms: 10_000 });
        assert_eq!(w.ask_at(200, "urn:svc:printer"), vec![ADVERT]);
        w.publish_at(300, PublishOp::Remove { id: ADVERT });
        assert_eq!(w.ask_at(400, "urn:svc:printer"), Vec::<Uuid>::new());
    }

    #[test]
    fn an_update_that_changes_content_reaches_the_next_answers() {
        let mut w = Coherence::new();
        let advert = w.advert("urn:svc:printer", 1);
        w.publish_at(100, PublishOp::Publish { advert, lease_ms: 10_000 });
        assert_eq!(w.ask_at(200, "urn:svc:printer"), vec![ADVERT]);
        assert_eq!(w.ask_at(250, "urn:svc:scanner"), Vec::<Uuid>::new());
        let advert = w.advert("urn:svc:scanner", 2);
        w.publish_at(300, PublishOp::Update { advert, lease_ms: 10_000 });
        assert_eq!(w.ask_at(400, "urn:svc:printer"), Vec::<Uuid>::new());
        assert_eq!(w.ask_at(450, "urn:svc:scanner"), vec![ADVERT]);
    }
}
