//! The registry engine: store + evaluators + response control + artifacts,
//! with no networking — `sds-core` drives it from a node handler, baselines
//! from their own policies. Its advert table is split across worker shards
//! by [`ShardRouter`] partition, so each query is evaluated against one
//! shard's postings in the common case; `shard_count = 1` is the unsharded
//! registry.
//!
//! Observable equivalence is the design invariant: every public operation
//! returns the same outcomes, granted leases, ranked hit bytes and summaries
//! at every shard count, and the hits of a linear scan over the live adverts
//! ([`ShardedEngine::naive_evaluate`]) — which the `shard_props` property
//! suite locks. The ranking order `(degree desc, distance asc, id asc)` is
//! total over unique advert ids, so merging per-shard confirmed hits through
//! the shared top-k selection reproduces the one-shard result whatever order
//! shards enumerate in.
//!
//! Multi-homing: a semantic advert whose category and outputs fall in
//! different taxonomy components is stored in every one of those shards (its
//! *home mask*), so each single-shard route still sees every possible match.
//! Broadcast queries deduplicate by evaluating an advert only in its first
//! home shard. Lease state is kept identical across an advert's home shards:
//! publishes, renewals, heartbeats, and purges fan out to the whole mask.
//!
//! Parallel execution: with [`ShardedEngine::set_workers`] above 1, a
//! broadcast query's per-shard scans and a batch's per-shard queues fan out
//! across scoped worker threads ([`sds_simnet::pool`]). Each worker reads
//! only its own shard's store — share-nothing —
//! and results merge through the total ranking order, so the worker count
//! is unobservable: every byte matches the sequential path (see DESIGN §16
//! and the `shard_props` sweep).

use std::cmp::Reverse;

use sds_protocol::{
    Advertisement, AdvertId, ModelId, QueryMessage, QueryPayload, ResponseHit, SharedAdvert,
};
use sds_semantic::{Artifact, ArtifactRepository, SubsumptionIndex};
use sds_simnet::{pool, IdMap, NodeId, SimTime};

use crate::cache::{cache_key, CacheKey};
use crate::engine::{rank_hits, select_ranked, Ranked, RankedRef, RegistrySummary, TopK};
use crate::evaluate::ModelEvaluator;
use crate::shard::{Route, ShardRouter};
use crate::store::{LeasePolicy, PublishOutcome, RegistryStore, StoredAdvert};

/// Where an advert lives: its shard bitmask plus the model it counts under.
#[derive(Clone, Copy, Debug)]
struct Home {
    mask: u64,
    model: ModelId,
}

/// One batch's results: ranked hits per *unique* coalesced query plus the
/// input-position → unique-slot mapping. Duplicates share their slot's
/// vector instead of deep-cloning it, so a 1000-way coalesced burst
/// allocates one result, not 1000 (pinned by the `batch_alloc` test).
pub struct BatchResult {
    /// Ranked hits per unique `(payload, max_responses)` pair, in
    /// first-appearance order.
    pub unique_hits: Vec<Vec<ResponseHit>>,
    /// For each input query, the index into `unique_hits` it coalesced to.
    pub slot_of: Vec<usize>,
}

impl BatchResult {
    /// Number of input queries in the batch.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// How many evaluations actually ran after coalescing identical
    /// payloads: N identical in-flight queries cost 1.
    pub fn unique_evaluations(&self) -> usize {
        self.unique_hits.len()
    }

    /// The ranked hits for input query `i`, borrowed from its unique slot.
    pub fn hits(&self, i: usize) -> &[ResponseHit] {
        &self.unique_hits[self.slot_of[i]]
    }

    /// Iterates results in input order (duplicates borrow the same slot).
    pub fn iter(&self) -> impl Iterator<Item = &[ResponseHit]> + '_ {
        self.slot_of.iter().map(|&s| self.unique_hits[s].as_slice())
    }
}

/// One registry's complete local state and query-evaluation logic:
/// publish/renew/remove/purge with leases, ranked evaluation with response
/// control (plus batch and validity-tracking variants), composition,
/// summaries and artifact hosting.
pub struct ShardedEngine {
    router: ShardRouter,
    shards: Vec<RegistryStore>,
    homes: IdMap<AdvertId, Home>,
    /// Distinct stored adverts per model wire tag (multi-homed adverts count
    /// once) — the sharded analogue of the store's model buckets, kept
    /// incrementally so `summary`'s fast path stays O(shards).
    model_counts: [usize; 3],
    lease_policy: LeasePolicy,
    evaluators: IdMap<ModelId, Box<dyn ModelEvaluator>>,
    artifacts: ArtifactRepository,
    /// Worker threads the read path fans out to (1 = everything on the
    /// calling thread). Writes (publish/renew/purge) always run sequentially
    /// — they are borrow-exclusive and cheap next to evaluation.
    workers: usize,
}

impl ShardedEngine {
    /// An engine with `shard_count` worker shards, partitioned over `idx`
    /// when given (without it, semantic descriptions pin to shard 0; see
    /// [`ShardRouter::new`]).
    pub fn new(
        lease_policy: LeasePolicy,
        shard_count: usize,
        idx: Option<&SubsumptionIndex>,
    ) -> Self {
        let router = ShardRouter::new(shard_count, idx);
        let shards = (0..router.shard_count()).map(|_| RegistryStore::new()).collect();
        Self {
            router,
            shards,
            homes: IdMap::default(),
            model_counts: [0; 3],
            lease_policy,
            evaluators: IdMap::default(),
            artifacts: ArtifactRepository::new(),
            workers: 1,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sets how many scoped worker threads broadcast scans and batched
    /// evaluation fan out across. 1 (the default) keeps the data plane on
    /// the calling thread — the historical sequential path. Results are
    /// byte-identical at every count; only wall clock changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Registers an evaluator plug-in; replaces any previous evaluator for
    /// the same model.
    pub fn register_evaluator(&mut self, evaluator: Box<dyn ModelEvaluator>) {
        self.evaluators.insert(evaluator.model(), evaluator);
    }

    pub fn supports(&self, model: ModelId) -> bool {
        self.evaluators.contains_key(&model)
    }

    pub fn lease_policy(&self) -> LeasePolicy {
        self.lease_policy
    }

    pub fn artifacts(&self) -> &ArtifactRepository {
        &self.artifacts
    }

    pub fn host_artifact(&mut self, artifact: Artifact) {
        self.artifacts.put(artifact);
    }

    /// A read view over the sharded advert table: multi-homed adverts
    /// appear once.
    pub fn store(&self) -> StoreView<'_> {
        StoreView { shards: &self.shards, homes: &self.homes }
    }

    fn first_shard(mask: u64) -> usize {
        debug_assert_ne!(mask, 0, "every stored advert has at least one home");
        mask.trailing_zeros() as usize
    }

    /// Iterates the shard indices set in `mask`, ascending.
    fn shards_of(mask: u64) -> impl Iterator<Item = usize> {
        (0..64usize).filter(move |s| mask & (1u64 << s) != 0)
    }

    /// Handles a publish/update; grants a lease per policy, fans the write
    /// out to the advert's home shards, and keeps lease state identical
    /// across them. Outcome and granted expiry are those of a single
    /// [`RegistryStore`], including its stale-heartbeat and
    /// requested-duration rules.
    pub fn publish(
        &mut self,
        advert: impl Into<SharedAdvert>,
        source: NodeId,
        now: SimTime,
        requested_lease_ms: u64,
    ) -> (PublishOutcome, SimTime) {
        // One allocation, shared by every home shard.
        let advert: SharedAdvert = advert.into();
        let lease_until = self.lease_policy.grant(now, requested_lease_ms);
        let id = advert.id;
        let new_mask = self.router.home_mask(&advert);
        let model = advert.description.model();
        let Some(&home) = self.homes.get(&id) else {
            for s in Self::shards_of(new_mask) {
                self.shards[s].publish(advert.clone(), source, now, lease_until, requested_lease_ms);
            }
            self.homes.insert(id, Home { mask: new_mask, model });
            self.model_counts[model.wire_tag() as usize] += 1;
            return (PublishOutcome::New, lease_until);
        };
        let existing = self.shards[Self::first_shard(home.mask)]
            .get(&id)
            .expect("homes tracks stored adverts");
        if advert.version < existing.advert.version {
            // Stale content: every home shard applies the same
            // provider-heartbeat rule, so leases stay aligned.
            for s in Self::shards_of(home.mask) {
                self.shards[s].publish(advert.clone(), source, now, lease_until, requested_lease_ms);
            }
            return (PublishOutcome::StaleVersion, lease_until);
        }
        let newer = advert.version > existing.advert.version;
        let unchanged = advert.version == existing.advert.version && advert == existing.advert;
        // A content change can move the advert between shards. Shards kept in
        // the mask update in place; shards leaving drop it; shards joining
        // insert it fresh — carrying over the *effective* lease and requested
        // duration so every home shard stores the same record a single
        // store would.
        let effective_lease = existing.lease_until.max(lease_until);
        let keep_requested =
            if newer { requested_lease_ms } else { existing.requested_lease_ms };
        debug_assert!(!unchanged || new_mask == home.mask, "mask is a function of content");
        for s in Self::shards_of(home.mask & new_mask) {
            self.shards[s].publish(advert.clone(), source, now, lease_until, requested_lease_ms);
        }
        for s in Self::shards_of(home.mask & !new_mask) {
            self.shards[s].remove(id);
        }
        for s in Self::shards_of(new_mask & !home.mask) {
            self.shards[s].publish(advert.clone(), source, now, effective_lease, keep_requested);
        }
        if new_mask != home.mask || model != home.model {
            self.model_counts[home.model.wire_tag() as usize] -= 1;
            self.model_counts[model.wire_tag() as usize] += 1;
            self.homes.insert(id, Home { mask: new_mask, model });
        }
        (if unchanged { PublishOutcome::Unchanged } else { PublishOutcome::Updated }, lease_until)
    }

    /// Handles a lease renewal, re-granting the originally requested
    /// duration; the extension fans out to every home shard. Returns
    /// `(known, new_expiry)`.
    pub fn renew(&mut self, id: AdvertId, now: SimTime) -> (bool, SimTime) {
        let Some(&home) = self.homes.get(&id) else {
            return (false, self.lease_policy.grant(now, 0));
        };
        let requested = self.shards[Self::first_shard(home.mask)]
            .get(&id)
            .map_or(0, |a| a.requested_lease_ms);
        let lease_until = self.lease_policy.grant(now, requested);
        let mut known = false;
        for s in Self::shards_of(home.mask) {
            known |= self.shards[s].renew(id, lease_until);
        }
        (known, lease_until)
    }

    /// Handles explicit removal across every home shard.
    pub fn remove(&mut self, id: AdvertId) -> bool {
        let Some(home) = self.homes.remove(&id) else {
            return false;
        };
        self.model_counts[home.model.wire_tag() as usize] -= 1;
        let mut had = false;
        for s in Self::shards_of(home.mask) {
            had |= self.shards[s].remove(id);
        }
        debug_assert!(had, "homes tracks stored adverts");
        had
    }

    /// Purges expired adverts from every shard; returns purged ids in the
    /// same global `(lease_until, id)` order a single store produces.
    /// Leases are identical across a mask, so an advert expires from all its
    /// home shards in the same purge.
    pub fn purge(&mut self, now: SimTime) -> Vec<AdvertId> {
        let mut dead: Vec<(SimTime, AdvertId)> = Vec::new();
        for shard in &mut self.shards {
            dead.extend(shard.purge_expired_with_times(now));
        }
        dead.sort_unstable();
        dead.dedup();
        let mut out = Vec::with_capacity(dead.len());
        for (_, id) in dead {
            let home = self.homes.remove(&id).expect("purged adverts were homed");
            self.model_counts[home.model.wire_tag() as usize] -= 1;
            out.push(id);
        }
        out
    }

    /// Evaluates a query against the live adverts: dispatches on the
    /// payload's model (silently returning nothing for unsupported models),
    /// ranks hits best-first, and truncates to the query's `max_responses` —
    /// the query response control the paper requires of registries. Routed
    /// to one shard when the payload pins a partition, merged across shards
    /// (first-home deduplicated) otherwise.
    ///
    /// Sublinear path: the store's secondary indexes produce a candidate set
    /// (a sound over-approximation — see [`RegistryStore::candidates`]), each
    /// candidate is confirmed — a semantic one from its packed match row,
    /// the others by the evaluator over *borrowed* adverts — selection runs
    /// on inline ranking keys, and only the final top-k hits' adverts are
    /// fetched and shared. The result is identical to
    /// [`ShardedEngine::naive_evaluate`] regardless of candidate enumeration
    /// order.
    pub fn evaluate(&self, query: &QueryMessage, now: SimTime) -> Vec<ResponseHit> {
        self.evaluate_with_validity(query, now).0
    }

    /// [`ShardedEngine::evaluate`] also reporting how long the result stays
    /// valid: the earliest lease expiry among the returned hits
    /// (`SimTime::MAX` when empty — an empty result only changes when a
    /// publish arrives, which cache invalidation covers separately). A
    /// cached copy served while `now < valid_until` is byte-identical to a
    /// fresh evaluation, because expiry of any *non*-returned advert cannot
    /// change a top-k selection it was not part of.
    pub fn evaluate_with_validity(
        &self,
        query: &QueryMessage,
        now: SimTime,
    ) -> (Vec<ResponseHit>, SimTime) {
        self.evaluate_on(self.router.route(&query.payload), query, now)
    }

    /// [`Self::evaluate_with_validity`] on a route already computed.
    fn evaluate_on(
        &self,
        route: Route,
        query: &QueryMessage,
        now: SimTime,
    ) -> (Vec<ResponseHit>, SimTime) {
        let Some(evaluator) = self.evaluators.get(&query.payload.model()).map(Box::as_ref) else {
            return (Vec::new(), SimTime::MAX); // "silently discard messages they cannot understand"
        };
        let ranked = match route {
            Route::One(s) => self.scan_shard(s, evaluator, query, now, false),
            // Sound because the ranking order is total over unique advert
            // ids: a shard's top-k retains every advert that could appear in
            // the global top-k, so merging per-shard selections through the
            // same `select_ranked` equals selecting over the raw
            // concatenation — whatever order (or thread) the shards scanned
            // in.
            Route::Broadcast => {
                let per_shard = pool::map_indexed(self.workers, self.shards.len(), |si| {
                    self.scan_shard(si, evaluator, query, now, true)
                });
                select_ranked(per_shard.into_iter().flatten(), query.max_responses)
            }
        };
        let valid_until =
            ranked.iter().map(|h| h.stored.lease_until).min().unwrap_or(SimTime::MAX);
        (ranked.into_iter().map(RankedRef::into_hit).collect(), valid_until)
    }

    /// One shard's unit of work, on the calling thread for a routed query
    /// and fanned across workers for a broadcast: confirms the shard's
    /// candidates — live at `now`, matched — and selects its bounded top
    /// `max_responses`. With `first_home_only`, a multi-homed advert answers
    /// from its first home shard only (broadcast deduplication).
    ///
    /// A semantic query whose evaluator exposes its subsumption index is
    /// confirmed from the store's match column
    /// ([`RegistryStore::confirm_semantic`]) and selected on bare ranking
    /// keys; only the selection's survivors are then fetched from the advert
    /// table. Exposing the index is the evaluator's statement that its
    /// verdict is `match_request` over that index, the contract candidate
    /// generation has always relied on. Every other query streams the
    /// store's [`crate::Candidates`] through the evaluator, one table probe
    /// each, and the selection carries the probed advert along.
    fn scan_shard<'a>(
        &'a self,
        shard: usize,
        evaluator: &dyn ModelEvaluator,
        query: &QueryMessage,
        now: SimTime,
        first_home_only: bool,
    ) -> Vec<RankedRef<'a>> {
        let store = &self.shards[shard];
        let answers_here = |id: &AdvertId| {
            !first_home_only
                || self.homes.get(id).is_some_and(|h| Self::first_shard(h.mask) == shard)
        };
        match (&query.payload, evaluator.subsumption_index()) {
            (QueryPayload::Semantic(request), Some(idx)) => {
                let mut top = TopK::new(query.max_responses, None);
                store.confirm_semantic(request, idx, now, |id, degree, distance| {
                    if answers_here(&id) {
                        top.push(Ranked { degree: Reverse(degree), distance, id });
                    }
                });
                let fetch = |rank: Ranked| RankedRef {
                    rank,
                    stored: store.get(&rank.id).expect("its row was just confirmed in this store"),
                };
                top.into_ranked().into_iter().map(fetch).collect()
            }
            (payload, idx) => {
                let candidates = store.candidates(payload, idx);
                let confirmed = candidates.iter().filter_map(|id| {
                    let stored = store.get(&id).filter(|s| s.is_live(now) && answers_here(&id))?;
                    let (degree, distance) = evaluator.evaluate(payload, &stored.advert)?;
                    let rank = Ranked { degree: Reverse(degree), distance, id };
                    Some(RankedRef { rank, stored })
                });
                select_ranked(confirmed, query.max_responses)
            }
        }
    }

    /// The linear-scan reference implementation: every live advert through
    /// the evaluator, ranked, truncated — no index, no routing, no top-k
    /// heap. Kept for the equivalence properties and the `q1_query_scaling`
    /// comparison bench; not part of the public API surface.
    #[doc(hidden)]
    pub fn naive_evaluate(&self, query: &QueryMessage, now: SimTime) -> Vec<ResponseHit> {
        let Some(evaluator) = self.evaluators.get(&query.payload.model()) else {
            return Vec::new();
        };
        let mut hits: Vec<ResponseHit> = self
            .store()
            .live(now)
            .filter_map(|stored| {
                evaluator
                    .evaluate(&query.payload, &stored.advert)
                    .map(|(degree, distance)| ResponseHit {
                        advert: stored.advert.clone(),
                        degree,
                        distance,
                    })
            })
            .collect();
        rank_hits(&mut hits);
        if let Some(k) = query.max_responses {
            hits.truncate(k as usize);
        }
        hits
    }

    /// Evaluates a queue of outstanding queries as one batch: identical
    /// payloads are coalesced to a single evaluation. With multiple workers,
    /// the unique queue is partitioned by home shard and per-shard queues
    /// evaluate in parallel — each worker reads only its own shard, no
    /// locking. Results come back in input order, byte-identical to
    /// evaluating each query alone at any worker count (evaluation is pure:
    /// shared `&self` and the deterministic input-order reassembly below).
    pub fn evaluate_batch(&self, queries: &[QueryMessage], now: SimTime) -> BatchResult {
        // Coalesce by the edge cache's key, so two queries share an
        // evaluation exactly when they would share a cache entry: the codec
        // encoding is injective, so equal keys ⇔ equal queries (QoS floats
        // block a derived Eq).
        let mut unique_of: IdMap<CacheKey, usize> = IdMap::default();
        let mut uniques: Vec<&QueryMessage> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            let key = cache_key(&q.payload, q.max_responses);
            let slot = *unique_of.entry(key).or_insert_with(|| {
                uniques.push(q);
                uniques.len() - 1
            });
            slot_of.push(slot);
        }
        // Partition uniques by home shard. Broadcast routes fall outside the
        // share-nothing scheme; they evaluate via the (itself parallel)
        // broadcast path after the per-shard scope joins.
        let mut shard_queue: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut broadcasts: Vec<usize> = Vec::new();
        for (ui, q) in uniques.iter().enumerate() {
            match self.router.route(&q.payload) {
                Route::One(s) => shard_queue[s].push(ui),
                Route::Broadcast => broadcasts.push(ui),
            }
        }
        // Only shards with queued work occupy pool slots, so a skewed batch
        // does not spawn workers that immediately exit.
        let active: Vec<usize> =
            (0..self.shards.len()).filter(|&s| !shard_queue[s].is_empty()).collect();
        let per_shard = pool::map_indexed(self.workers, active.len(), |k| {
            let s = active[k];
            shard_queue[s]
                .iter()
                .map(|&ui| (ui, self.evaluate_on(Route::One(s), uniques[ui], now).0))
                .collect::<Vec<_>>()
        });
        let mut unique_hits: Vec<Vec<ResponseHit>> = Vec::new();
        unique_hits.resize_with(uniques.len(), Vec::new);
        for (ui, hits) in per_shard.into_iter().flatten() {
            unique_hits[ui] = hits;
        }
        for &ui in &broadcasts {
            unique_hits[ui] = self.evaluate(uniques[ui], now);
        }
        BatchResult { unique_hits, slot_of }
    }

    /// Plans a service chain (paper §4.3 composition support) over the live
    /// *semantic* advertisements. Returns the chain's advertisements in
    /// execution order, or `None` when no chain exists or the semantic
    /// model is unsupported. The planner picks the first producer of a
    /// needed concept, so candidates are offered in ascending advert-id
    /// order: the chain is a function of the store's content, not of hash
    /// map iteration order.
    pub fn compose(
        &self,
        request: &sds_semantic::ServiceRequest,
        now: SimTime,
        max_depth: usize,
    ) -> Option<Vec<SharedAdvert>> {
        let evaluator = self.evaluators.get(&ModelId::Semantic)?;
        let index = evaluator.subsumption_index()?;
        let mut live: Vec<(&SharedAdvert, &sds_semantic::ServiceProfile)> = self
            .store()
            .live(now)
            .filter_map(|s| match &s.advert.description {
                sds_protocol::Description::Semantic(p) => Some((&s.advert, p)),
                _ => None,
            })
            .collect();
        live.sort_unstable_by_key(|(a, _)| a.id);
        let profiles: Vec<sds_semantic::ServiceProfile> =
            live.iter().map(|&(_, p)| p.clone()).collect();
        let plan = sds_semantic::compose(index, request, &profiles, max_depth)?;
        Some(plan.steps.iter().map(|&i| live[i].0.clone()).collect())
    }

    /// Evaluates a single payload against a single advertisement — used for
    /// subscription matching on publish. `None` for unsupported models and
    /// non-matches alike.
    pub fn evaluate_single(
        &self,
        payload: &QueryPayload,
        advert: &Advertisement,
    ) -> Option<(sds_semantic::Degree, u32)> {
        self.evaluators.get(&payload.model())?.evaluate(payload, advert)
    }

    /// Current summary for registry signaling. Models come out ascending by
    /// wire tag by construction. Fast path: when no shard holds an
    /// expired-but-unpurged advert, the maintained per-model counts answer
    /// in O(shards). `&mut` because deciding "nothing expired" pops stale
    /// expiry-heap entries — without that, every renewal would knock the
    /// summary onto full scans until the superseded expiry passed.
    pub fn summary(&mut self, now: SimTime) -> RegistrySummary {
        let none_expired = self.shards.iter_mut().all(|s| s.none_expired(now));
        let counts: [usize; 3] = if none_expired {
            self.model_counts
        } else {
            let mut counts = [0usize; 3];
            for a in self.store().live(now) {
                counts[a.advert.description.model().wire_tag() as usize] += 1;
            }
            counts
        };
        let models: Vec<ModelId> = ModelId::ALL
            .into_iter()
            .filter(|m| counts[m.wire_tag() as usize] > 0)
            .collect();
        RegistrySummary { advert_count: counts.iter().sum::<usize>() as u32, models }
    }
}

/// A read view over the sharded table presenting each advert once (from its
/// first home shard — all home shards store identical records). Mirrors the
/// accessor surface callers use on `engine().store()`.
pub struct StoreView<'a> {
    shards: &'a [RegistryStore],
    homes: &'a IdMap<AdvertId, Home>,
}

impl<'a> StoreView<'a> {
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    pub fn get(&self, id: &AdvertId) -> Option<&'a StoredAdvert> {
        let home = self.homes.get(id)?;
        self.shards[ShardedEngine::first_shard(home.mask)].get(id)
    }

    /// Iterates all adverts including expired-but-not-yet-purged ones.
    pub fn iter(&self) -> impl Iterator<Item = &'a StoredAdvert> + '_ {
        self.homes.iter().map(|(id, home)| {
            self.shards[ShardedEngine::first_shard(home.mask)]
                .get(id)
                .expect("homes tracks stored adverts")
        })
    }

    /// Iterates adverts whose lease is still live at `now`.
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = &'a StoredAdvert> + '_ {
        self.iter().filter(move |a| a.is_live(now))
    }

    /// Iterates the registry's *first-hand* live adverts: those published
    /// directly by their provider, excluding replicas learned from peers.
    /// This is the set anti-entropy advertises to federation peers —
    /// replicating replicas would make every registry re-gossip everyone
    /// else's state and turn deletions ambiguous.
    pub fn first_hand(&self, now: SimTime) -> impl Iterator<Item = &'a StoredAdvert> + '_ {
        self.live(now).filter(|a| a.source == a.advert.provider)
    }

    /// Per-bucket anti-entropy digests over the first-hand live set (see
    /// [`crate::sync`]); order-independent, so the `homes` hash map's
    /// nondeterministic iteration order cannot leak into the wire.
    pub fn sync_digests(&self, now: SimTime, buckets: u16) -> Vec<u64> {
        crate::sync::fold_digests(
            self.first_hand(now).map(|a| (a.advert.id, a.advert.version, a.lease_until)),
            buckets,
        )
    }
}
