//! The advertisement store: registry information model records plus leases,
//! with incrementally-maintained secondary indexes so query evaluation scans
//! candidates instead of the whole table, a packed match column so a
//! semantic candidate is confirmed without touching the table at all, and a
//! lazy min-heap over lease expiries so purge scheduling is O(log n) instead
//! of a full scan.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use sds_protocol::{AdvertId, Advertisement, Description, ModelId, QueryPayload, SharedAdvert};
use sds_semantic::{ClassId, Degree, ServiceProfile, SubsumptionIndex};
use sds_simnet::{IdMap, NodeId, SimTime};

use crate::column::{CompiledRequest, MatchRow};

/// How a registry grants leases.
///
/// "Typically, the provider of a service obtains a lease when publishing its
/// service description to the registry. From then on, the provider must
/// periodically confirm that it is alive."
#[derive(Clone, Copy, Debug)]
pub struct LeasePolicy {
    /// Granted when the publisher does not ask for a duration (`lease_ms` 0).
    pub default_ms: u64,
    /// Upper bound on granted lease durations.
    pub max_ms: u64,
    /// When `false`, leases never expire — the UDDI-like baseline behaviour
    /// the paper criticizes ("neither UDDI nor ebXML use leasing … a serious
    /// shortcoming").
    pub leasing_enabled: bool,
}

impl Default for LeasePolicy {
    fn default() -> Self {
        Self { default_ms: 30_000, max_ms: 300_000, leasing_enabled: true }
    }
}

impl LeasePolicy {
    /// A lease-less policy (UDDI-like baseline).
    pub fn no_leasing() -> Self {
        Self { leasing_enabled: false, ..Self::default() }
    }

    /// Computes the expiry for a publish/renew arriving at `now` asking for
    /// `requested_ms` (0 = registry default).
    pub fn grant(&self, now: SimTime, requested_ms: u64) -> SimTime {
        if !self.leasing_enabled {
            return SimTime::MAX;
        }
        let ms = if requested_ms == 0 { self.default_ms } else { requested_ms.min(self.max_ms) };
        now.saturating_add(ms)
    }
}

/// One stored advertisement with its registry information model record.
#[derive(Clone, Debug)]
pub struct StoredAdvert {
    /// Shared with every hit, cache entry and message that carries this
    /// advert; an update replaces the handle, never mutates through it.
    pub advert: SharedAdvert,
    /// The node the publish physically came from (usually the provider, but
    /// replication forwards on behalf of others).
    pub source: NodeId,
    pub published_at: SimTime,
    pub lease_until: SimTime,
    /// The lease duration the provider asked for at publish time (0 =
    /// registry default); renewals re-grant the same duration.
    pub requested_lease_ms: u64,
    /// Generation of the latest expiry-heap entry for this advert. Heap
    /// entries carrying an older generation are stale and skipped on pop;
    /// generations are store-unique so re-published ids cannot collide with
    /// entries left behind by a removed predecessor.
    lease_generation: u64,
    /// Slot of a semantic advert's row in the match column; [`NO_ROW`]
    /// for the other models.
    row: u32,
}

/// `StoredAdvert::row` of an advert without a match row. Never a slot: the
/// column would need 2^32 live rows.
const NO_ROW: u32 = u32::MAX;

impl StoredAdvert {
    pub fn is_live(&self, now: SimTime) -> bool {
        self.lease_until > now
    }
}

/// Result of a publish/update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PublishOutcome {
    /// First time this advert id was seen.
    New,
    /// Replaced content with an equal-or-newer version.
    Updated,
    /// Same version, same content (a duplicated or retransmitted publish).
    /// The lease is still extended, but nothing changed — subscribers must
    /// not be re-notified, keeping duplicate deliveries from double-counting.
    Unchanged,
    /// Dropped: the incoming version is older than what is stored
    /// (replication races).
    StaleVersion,
}

/// A semantic posting: advert id → the slot of its row in the match column,
/// so a walk reaches the row without a table probe.
type RowPosting = BTreeMap<AdvertId, u32>;

/// Secondary indexes over the advert table, keyed by the description fields
/// the built-in evaluators constrain on, and the match column the semantic
/// postings point into. Postings are ordered so candidate enumeration is
/// deterministic (ascending advert id).
#[derive(Default, Debug)]
struct SecondaryIndex {
    /// Exact service-type URI → adverts (the URI model matches exactly).
    by_uri: IdMap<String, BTreeSet<AdvertId>>,
    /// Template `type_uri` → adverts carrying that type. Untyped template
    /// adverts appear only in the model bucket; a type-constrained template
    /// query can never match them.
    by_template_type: IdMap<String, BTreeSet<AdvertId>>,
    /// Advertised category concept → semantic adverts (one posting each).
    by_category: IdMap<ClassId, RowPosting>,
    /// Advertised output concept → semantic adverts producing it.
    by_output: IdMap<ClassId, RowPosting>,
    /// All adverts of each description model, by wire tag.
    by_model: [BTreeSet<AdvertId>; 3],
    /// The match column: one packed row per stored semantic advert, dense.
    /// A row's slot is stable for as long as its advert keeps its content.
    rows: Vec<MatchRow>,
    /// Slots of removed adverts, reused before the column grows: churn
    /// never makes it longer than the most semantic adverts held at once.
    free_rows: Vec<u32>,
}

impl SecondaryIndex {
    /// Indexes `advert`; a semantic one also gets a match row, whose slot is
    /// returned ([`NO_ROW`] otherwise).
    fn insert(&mut self, id: AdvertId, advert: &Advertisement, lease_until: SimTime) -> u32 {
        self.by_model[advert.description.model().wire_tag() as usize].insert(id);
        match &advert.description {
            Description::Uri(u) => {
                self.by_uri.entry(u.clone()).or_default().insert(id);
            }
            Description::Template(t) => {
                if let Some(ty) = &t.type_uri {
                    self.by_template_type.entry(ty.clone()).or_default().insert(id);
                }
            }
            Description::Semantic(p) => {
                let row = MatchRow::pack(p, lease_until);
                let slot = match self.free_rows.pop() {
                    Some(slot) => {
                        self.rows[slot as usize] = row;
                        slot
                    }
                    None => {
                        assert!(self.rows.len() < NO_ROW as usize, "the match column is full");
                        self.rows.push(row);
                        (self.rows.len() - 1) as u32
                    }
                };
                self.by_category.entry(p.category).or_default().insert(id, slot);
                for &out in &p.outputs {
                    self.by_output.entry(out).or_default().insert(id, slot);
                }
                return slot;
            }
        }
        NO_ROW
    }

    /// Unindexes `advert`, whose row (if it has one) is at `slot`.
    fn remove(&mut self, id: AdvertId, advert: &Advertisement, slot: u32) {
        self.by_model[advert.description.model().wire_tag() as usize].remove(&id);
        let from_set = |set: &mut BTreeSet<AdvertId>| {
            set.remove(&id);
            set.is_empty()
        };
        let from_rows = |rows: &mut RowPosting| {
            rows.remove(&id);
            rows.is_empty()
        };
        match &advert.description {
            Description::Uri(u) => remove_posting(&mut self.by_uri, u, from_set),
            Description::Template(t) => {
                if let Some(ty) = &t.type_uri {
                    remove_posting(&mut self.by_template_type, ty, from_set);
                }
            }
            Description::Semantic(p) => {
                remove_posting(&mut self.by_category, &p.category, from_rows);
                for out in &p.outputs {
                    remove_posting(&mut self.by_output, out, from_rows);
                }
                self.free_rows.push(slot);
            }
        }
    }
}

/// Takes one advert out of the posting under `key` (`take` does it and
/// reports whether the posting is now empty), dropping an emptied entry so
/// churn does not leak keys.
fn remove_posting<K: std::hash::Hash + Eq, P>(
    map: &mut IdMap<K, P>,
    key: &K,
    take: impl FnOnce(&mut P) -> bool,
) {
    if map.get_mut(key).is_some_and(take) {
        map.remove(key);
    }
}

/// Candidate adverts for one query: a sound over-approximation of the ids
/// that could match — the evaluator still confirms every one. Sets borrow
/// from the index; `Merged` holds a sorted, deduplicated union.
#[derive(Debug)]
pub enum Candidates<'a> {
    /// One posting list (or a whole model bucket) covers the query.
    Set(&'a BTreeSet<AdvertId>),
    /// Union of several posting lists, sorted ascending and deduplicated.
    Merged(Vec<AdvertId>),
    /// Provably no advert can match (e.g. an unseen exact URI).
    None,
}

static EMPTY_POSTING: BTreeSet<AdvertId> = BTreeSet::new();

impl<'a> Candidates<'a> {
    /// Iterates candidate ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = AdvertId> + '_ {
        let (set, merged) = match self {
            Candidates::Set(s) => (*s, &[][..]),
            Candidates::Merged(v) => (&EMPTY_POSTING, v.as_slice()),
            Candidates::None => (&EMPTY_POSTING, &[][..]),
        };
        set.iter().copied().chain(merged.iter().copied())
    }

    /// Number of candidate ids.
    pub fn len(&self) -> usize {
        match self {
            Candidates::Set(s) => s.len(),
            Candidates::Merged(v) => v.len(),
            Candidates::None => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The advertisement table of one registry.
#[derive(Default, Debug)]
pub struct RegistryStore {
    adverts: IdMap<AdvertId, StoredAdvert>,
    index: SecondaryIndex,
    /// Lazy min-heap of `(lease_until, id, generation)`. An entry is current
    /// when the stored advert's `lease_generation` matches; anything else
    /// (removed advert, extended lease) is stale and skipped on pop. Leases
    /// of `SimTime::MAX` never enter the heap.
    expiry: BinaryHeap<Reverse<(SimTime, AdvertId, u64)>>,
    next_generation: u64,
}

impl RegistryStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a fresh heap generation and records the advert's current lease
    /// in the expiry heap (infinite leases stay out of the heap entirely).
    fn schedule_expiry(&mut self, id: AdvertId, lease_until: SimTime) -> u64 {
        let generation = self.next_generation;
        self.next_generation += 1;
        if lease_until != SimTime::MAX {
            self.expiry.push(Reverse((lease_until, id, generation)));
        }
        generation
    }

    /// Publishes or updates an advertisement. Content is compared
    /// structurally: an equal advert in a fresh allocation is `Unchanged`.
    pub fn publish(
        &mut self,
        advert: impl Into<SharedAdvert>,
        source: NodeId,
        now: SimTime,
        lease_until: SimTime,
        requested_lease_ms: u64,
    ) -> PublishOutcome {
        let advert: SharedAdvert = advert.into();
        let id = advert.id;
        let Some(existing) = self.adverts.get_mut(&id) else {
            let row = self.index.insert(id, &advert, lease_until);
            let lease_generation = self.schedule_expiry(id, lease_until);
            self.adverts.insert(
                id,
                StoredAdvert {
                    advert,
                    source,
                    published_at: now,
                    lease_until,
                    requested_lease_ms,
                    lease_generation,
                    row,
                },
            );
            return PublishOutcome::New;
        };
        if advert.version < existing.advert.version {
            // The content is stale, but a publish from the advert's own
            // provider still proves the provider is alive: a replication race
            // must not cost a live service its lease. Extend (never shorten)
            // like any other heartbeat; replication forwards from third
            // parties carry no such liveness evidence and are dropped whole.
            if source == existing.advert.provider {
                self.renew(id, lease_until);
            }
            return PublishOutcome::StaleVersion;
        }
        let newer = advert.version > existing.advert.version;
        let unchanged = advert.version == existing.advert.version && advert == existing.advert;
        let old = std::mem::replace(&mut existing.advert, advert);
        existing.source = source;
        // A same-version duplicate may be a reordered copy of an older
        // publish: adopting its requested duration could silently downgrade
        // every future renewal grant. Only a genuinely newer version speaks
        // for the provider's current wishes.
        if newer {
            existing.requested_lease_ms = requested_lease_ms;
        }
        if !unchanged {
            // Field-disjoint borrows: `index` is not `adverts`. The freed
            // slot is the next one handed out, so a semantic advert that
            // stays semantic is repacked in place.
            self.index.remove(id, &old, existing.row);
            existing.row = self.index.insert(id, &existing.advert, existing.lease_until);
        }
        self.renew(id, lease_until);
        if unchanged {
            PublishOutcome::Unchanged
        } else {
            PublishOutcome::Updated
        }
    }

    /// Extends the lease of a known advertisement. Returns `false` when the
    /// id is unknown (the provider should republish). This is the one place
    /// a stored advert's lease is written after its first publish: a lease
    /// only ever grows, and the table, the expiry heap and the advert's match
    /// row learn of it together.
    pub fn renew(&mut self, id: AdvertId, lease_until: SimTime) -> bool {
        let Some(a) = self.adverts.get_mut(&id) else {
            return false;
        };
        if lease_until > a.lease_until {
            a.lease_until = lease_until;
            if let Some(row) = self.index.rows.get_mut(a.row as usize) {
                row.lease_until = lease_until;
            }
            let generation = self.schedule_expiry(id, lease_until);
            self.adverts.get_mut(&id).expect("present above").lease_generation = generation;
        }
        true
    }

    /// Takes an advert out of the table, the indexes and the match column.
    /// Any expiry-heap entry for it is now stale and gets skipped on pop.
    fn evict(&mut self, id: AdvertId) -> Option<StoredAdvert> {
        let stored = self.adverts.remove(&id)?;
        self.index.remove(id, &stored.advert, stored.row);
        Some(stored)
    }

    /// Explicit deregistration. Returns `true` when the advert existed.
    pub fn remove(&mut self, id: AdvertId) -> bool {
        self.evict(id).is_some()
    }

    /// Drops every advert whose lease expired at or before `now`; returns the
    /// purged ids ("should a service crash, it would not be able to renew its
    /// lease, and the service description would be purged"), ordered by
    /// `(lease_until, id)`.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<AdvertId> {
        self.purge_expired_with_times(now).into_iter().map(|(_, id)| id).collect()
    }

    /// [`RegistryStore::purge_expired`] keeping each purged advert's expiry
    /// time, so callers holding several stores (the sharded data plane) can
    /// merge per-shard results back into one global `(lease_until, id)`
    /// order.
    #[doc(hidden)]
    pub fn purge_expired_with_times(&mut self, now: SimTime) -> Vec<(SimTime, AdvertId)> {
        if now == SimTime::MAX {
            // At the end of time everything is expired — `is_live` is strict,
            // so even `SimTime::MAX` leases (which never enter the heap) die.
            let mut dead: Vec<(SimTime, AdvertId)> =
                self.adverts.iter().map(|(&id, a)| (a.lease_until, id)).collect();
            dead.sort_unstable();
            for &(_, id) in &dead {
                self.evict(id).expect("collected above");
            }
            self.expiry.clear();
            return dead;
        }
        let mut dead = Vec::new();
        while let Some(&Reverse((t, id, generation))) = self.expiry.peek() {
            if t > now {
                break;
            }
            self.expiry.pop();
            let current = self
                .adverts
                .get(&id)
                .is_some_and(|a| a.lease_generation == generation);
            if current {
                let stored = self.evict(id).expect("checked above");
                debug_assert_eq!(stored.lease_until, t, "current entry carries the lease");
                dead.push((t, id));
            }
        }
        dead
    }

    /// The earliest lease expiry among stored adverts, for scheduling the
    /// next purge without polling. Pops stale heap entries as it goes, hence
    /// `&mut`.
    pub fn next_expiry(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id, generation))) = self.expiry.peek() {
            let current = self
                .adverts
                .get(&id)
                .is_some_and(|a| a.lease_generation == generation);
            if current {
                return Some(t);
            }
            self.expiry.pop();
        }
        None
    }

    /// True when no stored advert can be expired at `now`. Stale heap
    /// entries (renewed leases, removed adverts) are popped first — deciding
    /// from the raw minimum would stay pessimistically false for the whole
    /// window between a renewal and the old expiry passing, knocking
    /// `summary` off its O(1) fast path — hence `&mut`. After popping, the
    /// heap minimum is the true earliest expiry among stored adverts.
    pub fn none_expired(&mut self, now: SimTime) -> bool {
        self.next_expiry().is_none_or(|t| t > now)
    }

    /// Candidate adverts for `payload`: a sound over-approximation of every
    /// advert the built-in evaluator for the payload's model could accept.
    /// The caller confirms each candidate with the full evaluator, so pruning
    /// here only ever removes provable non-matches:
    ///
    /// - URI queries match on exact string equality → the `by_uri` posting.
    /// - Template queries constrained on `type_uri` require equality on that
    ///   field → the `by_template_type` posting; unconstrained ones fall back
    ///   to every template advert.
    /// - Semantic queries require the requested category (when present) to be
    ///   related to the advertised category, and every requested output to be
    ///   related to some advertised output. Relatedness is membership in
    ///   ancestors∪descendants, so unioning the postings of every concept
    ///   related to the requested one cannot lose a match (`idx` is the same
    ///   index the evaluator reasons with). Without an index, or without any
    ///   category/output constraint, every semantic advert is a candidate.
    pub fn candidates(
        &self,
        payload: &QueryPayload,
        idx: Option<&SubsumptionIndex>,
    ) -> Candidates<'_> {
        let model_bucket =
            |m: ModelId| Candidates::Set(&self.index.by_model[m.wire_tag() as usize]);
        match payload {
            QueryPayload::Uri(u) => match self.index.by_uri.get(u) {
                Some(set) => Candidates::Set(set),
                None => Candidates::None,
            },
            QueryPayload::Template(t) => match &t.type_uri {
                Some(ty) => match self.index.by_template_type.get(ty) {
                    Some(set) => Candidates::Set(set),
                    None => Candidates::None,
                },
                None => model_bucket(ModelId::Template),
            },
            QueryPayload::Semantic(req) => {
                let Some(idx) = idx else {
                    return model_bucket(ModelId::Semantic);
                };
                if let Some(cat) = req.category {
                    Self::merge_postings(&self.index.by_category, idx, cat)
                } else if let Some(&out) = req.outputs.first() {
                    Self::merge_postings(&self.index.by_output, idx, out)
                } else {
                    // No category and no outputs constrains nothing the
                    // inverted indexes cover (inputs/QoS only).
                    model_bucket(ModelId::Semantic)
                }
            }
        }
    }

    /// The non-empty postings of every concept related to `root`, each with
    /// its concept: what a semantic request constrained on `root` walks.
    fn related_postings<'a>(
        postings: &'a IdMap<ClassId, RowPosting>,
        idx: &'a SubsumptionIndex,
        root: ClassId,
    ) -> impl Iterator<Item = (ClassId, &'a RowPosting)> {
        idx.related_concepts(root).filter_map(move |c| Some((c, postings.get(&c)?)))
    }

    /// Unions the postings related to `root` into one sorted, deduplicated
    /// candidate list.
    fn merge_postings(
        postings: &IdMap<ClassId, RowPosting>,
        idx: &SubsumptionIndex,
        root: ClassId,
    ) -> Candidates<'static> {
        let mut merged: Vec<AdvertId> = Self::related_postings(postings, idx, root)
            .flat_map(|(_, posting)| posting.keys().copied())
            .collect();
        if merged.is_empty() {
            return Candidates::None;
        }
        merged.sort_unstable();
        merged.dedup();
        Candidates::Merged(merged)
    }

    /// Confirms a semantic request against the match column and calls `hit`
    /// with `(id, degree, distance)` for every stored semantic advert that is
    /// live at `now` and matches, each once, in no particular order. The
    /// same walk as [`RegistryStore::candidates`] (postings of every concept
    /// related to the requested category, else to the first requested
    /// output, else every semantic advert), but a posting hands over the
    /// advert's row slot, so liveness and the full verdict are read from one
    /// cache line per candidate; the advert table is consulted only for a
    /// profile whose concept lists did not fit in its row.
    pub(crate) fn confirm_semantic(
        &self,
        request: &sds_semantic::ServiceRequest,
        idx: &SubsumptionIndex,
        now: SimTime,
        mut hit: impl FnMut(AdvertId, Degree, u32),
    ) {
        let compiled = CompiledRequest::compile(idx, request);
        let rows = &self.index.rows;
        let mut confirm = |id: AdvertId, slot: u32, by_output: Option<ClassId>| {
            let row = &rows[slot as usize];
            if row.lease_until <= now {
                return;
            }
            let (outputs, inputs) = row.concepts(|| self.profile_of(&id));
            // An advert sits in the posting of each of its outputs, and
            // several of them can be related to the requested one: it
            // answers from the first such output's posting only.
            if let Some(posting) = by_output {
                let first = outputs.iter().copied().find(|&o| compiled.first_output_related(o));
                if first != Some(posting) {
                    return;
                }
            }
            if let Some((degree, distance)) = compiled.verdict(row, outputs, inputs) {
                hit(id, degree, distance);
            }
        };
        let mut walk = |posting: &RowPosting, by_output: Option<ClassId>| {
            posting.iter().for_each(|(&id, &slot)| confirm(id, slot, by_output));
        };
        // Category postings are disjoint: an advert has one category, so the
        // first and the last walk meet each advert once.
        if let Some(cat) = request.category {
            for (_, posting) in Self::related_postings(&self.index.by_category, idx, cat) {
                walk(posting, None);
            }
        } else if let Some(&out) = request.outputs.first() {
            for (c, posting) in Self::related_postings(&self.index.by_output, idx, out) {
                walk(posting, Some(c));
            }
        } else {
            self.index.by_category.values().for_each(|posting| walk(posting, None));
        }
    }

    /// The profile of a stored semantic advert.
    fn profile_of(&self, id: &AdvertId) -> &ServiceProfile {
        match self.adverts.get(id).map(|a| &a.advert.description) {
            Some(Description::Semantic(p)) => p,
            _ => unreachable!("semantic postings name stored semantic adverts"),
        }
    }

    /// Test support: panics unless the match column mirrors the table. Every
    /// stored semantic advert's row is a fresh pack of its profile and lease
    /// and its postings carry that row's slot; every posting entry names a
    /// stored advert that advertises the concept; every slot is either one
    /// advert's or on the free list, never both or twice. Returns the
    /// column's length, free slots included.
    #[doc(hidden)]
    pub fn audit_match_column(&self) -> usize {
        let ix = &self.index;
        let mut accounted = vec![false; ix.rows.len()];
        let mut account = |slot: u32, what: &dyn std::fmt::Debug| {
            let twice = std::mem::replace(&mut accounted[slot as usize], true);
            assert!(!twice, "slot {slot} of {what:?} is already an advert's or free");
        };
        for (id, stored) in &self.adverts {
            let Description::Semantic(p) = &stored.advert.description else {
                assert_eq!(stored.row, NO_ROW, "{id:?}: only semantic adverts have rows");
                continue;
            };
            account(stored.row, id);
            let row = &ix.rows[stored.row as usize];
            let fresh = MatchRow::pack(p, stored.lease_until);
            assert!(row.same_as(&fresh), "{id:?}: row {row:?} drifted from {fresh:?}");
            assert_eq!(ix.by_category[&p.category].get(id), Some(&stored.row));
            for out in &p.outputs {
                assert_eq!(ix.by_output[out].get(id), Some(&stored.row));
            }
        }
        for (c, posting) in &ix.by_category {
            assert!(posting.keys().all(|id| self.profile_of(id).category == *c), "{c:?}");
        }
        for (c, posting) in &ix.by_output {
            assert!(posting.keys().all(|id| self.profile_of(id).outputs.contains(c)), "{c:?}");
        }
        ix.free_rows.iter().for_each(|&slot| account(slot, &"the free list"));
        assert!(accounted.iter().all(|&a| a), "a slot is neither an advert's nor free");
        ix.rows.len()
    }

    pub fn get(&self, id: &AdvertId) -> Option<&StoredAdvert> {
        self.adverts.get(id)
    }

    /// Live advert count per model (by wire tag) — exact only while nothing
    /// is expired-but-unpurged; pair with [`RegistryStore::none_expired`].
    pub fn model_counts(&self) -> [usize; 3] {
        [
            self.index.by_model[0].len(),
            self.index.by_model[1].len(),
            self.index.by_model[2].len(),
        ]
    }

    pub fn len(&self) -> usize {
        self.adverts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.adverts.is_empty()
    }

    /// Iterates adverts whose lease is still live at `now`.
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = &StoredAdvert> {
        self.adverts.values().filter(move |a| a.is_live(now))
    }

    /// Iterates all adverts including expired-but-not-yet-purged ones.
    pub fn iter(&self) -> impl Iterator<Item = &StoredAdvert> {
        self.adverts.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_protocol::Uuid;

    fn advert(id: u128, version: u32) -> Advertisement {
        Advertisement {
            id: Uuid(id),
            provider: NodeId(1),
            description: Description::Uri("urn:x".into()),
            version,
        }
    }

    #[test]
    fn publish_new_update_and_stale() {
        let mut s = RegistryStore::new();
        assert_eq!(s.publish(advert(1, 1), NodeId(1), 0, 100, 0), PublishOutcome::New);
        assert_eq!(s.publish(advert(1, 2), NodeId(1), 10, 200, 0), PublishOutcome::Updated);
        // A stale version from a third party (replication race) is dropped
        // whole; it is no liveness evidence for the provider.
        assert_eq!(s.publish(advert(1, 1), NodeId(7), 20, 300, 0), PublishOutcome::StaleVersion);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&Uuid(1)).unwrap().advert.version, 2);
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 200);
    }

    #[test]
    fn stale_publish_from_provider_extends_lease() {
        // Regression: a stale-version publish used to early-return before
        // touching the lease, so a replication race could let a live
        // provider's advert expire. The provider's own publish is a
        // heartbeat whatever version it carries.
        let mut s = RegistryStore::new();
        s.publish(advert(1, 2), NodeId(1), 0, 200, 0);
        assert_eq!(s.publish(advert(1, 1), NodeId(1), 20, 300, 0), PublishOutcome::StaleVersion);
        let stored = s.get(&Uuid(1)).unwrap();
        assert_eq!(stored.advert.version, 2, "stale content still dropped");
        assert_eq!(stored.lease_until, 300, "provider heartbeat extends the lease");
        // The heap follows the extension: nothing purges at the old expiry.
        assert_eq!(s.purge_expired(200), Vec::<AdvertId>::new());
        assert_eq!(s.next_expiry(), Some(300));
        // Never shorten: a provider-sourced stale publish with an older
        // (shorter) lease leaves the grant alone.
        assert_eq!(s.publish(advert(1, 1), NodeId(1), 30, 250, 0), PublishOutcome::StaleVersion);
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 300);
    }

    #[test]
    fn reordered_duplicate_keeps_requested_lease_duration() {
        // Regression: every publish used to overwrite `requested_lease_ms`,
        // so a reordered duplicate carrying 0 downgraded future renewals to
        // the registry default. Only a newer version adopts a new duration.
        let mut s = RegistryStore::new();
        s.publish(advert(1, 2), NodeId(1), 0, 100, 90_000);
        // Reordered duplicate of the same version asking for the default.
        assert_eq!(s.publish(advert(1, 2), NodeId(1), 10, 150, 0), PublishOutcome::Unchanged);
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 150, "heartbeat still extends");
        assert_eq!(
            s.get(&Uuid(1)).unwrap().requested_lease_ms,
            90_000,
            "renewals keep re-granting the provider's requested duration"
        );
        // A genuinely newer version speaks for the provider's current wish.
        s.publish(advert(1, 3), NodeId(1), 20, 200, 45_000);
        assert_eq!(s.get(&Uuid(1)).unwrap().requested_lease_ms, 45_000);
    }

    #[test]
    fn duplicated_publish_is_unchanged_but_extends_lease() {
        let mut s = RegistryStore::new();
        assert_eq!(s.publish(advert(1, 1), NodeId(1), 0, 100, 0), PublishOutcome::New);
        // The network delivered the same publish twice.
        assert_eq!(s.publish(advert(1, 1), NodeId(1), 5, 150, 0), PublishOutcome::Unchanged);
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 150);
        // Same version but different content is a real update.
        let mut changed = advert(1, 1);
        changed.description = Description::Uri("urn:y".into());
        assert_eq!(s.publish(changed, NodeId(1), 10, 150, 0), PublishOutcome::Updated);
    }

    #[test]
    fn renew_extends_but_never_shortens() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.renew(Uuid(1), 500));
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 500);
        assert!(s.renew(Uuid(1), 300), "older renewal acknowledged");
        assert_eq!(s.get(&Uuid(1)).unwrap().lease_until, 500, "but lease not shortened");
        assert!(!s.renew(Uuid(9), 500), "unknown id");
    }

    #[test]
    fn purge_removes_expired_only() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        s.publish(advert(2, 1), NodeId(1), 0, 200, 0);
        let purged = s.purge_expired(150);
        assert_eq!(purged, vec![Uuid(1)]);
        assert_eq!(s.len(), 1);
        assert!(s.get(&Uuid(2)).is_some());
        assert_eq!(s.live(150).count(), 1);
    }

    #[test]
    fn lease_exactly_at_expiry_is_dead() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert_eq!(s.live(99).count(), 1);
        assert_eq!(s.live(100).count(), 0);
    }

    #[test]
    fn next_expiry_ignores_infinite_leases() {
        let mut s = RegistryStore::new();
        assert_eq!(s.next_expiry(), None);
        s.publish(advert(1, 1), NodeId(1), 0, SimTime::MAX, 0);
        assert_eq!(s.next_expiry(), None);
        s.publish(advert(2, 1), NodeId(1), 0, 400, 0);
        s.publish(advert(3, 1), NodeId(1), 0, 300, 0);
        assert_eq!(s.next_expiry(), Some(300));
    }

    #[test]
    fn renewal_makes_old_heap_entry_stale() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.renew(Uuid(1), 500));
        // The (100, id) heap entry is stale: purging at its time must not
        // drop the renewed advert.
        assert_eq!(s.purge_expired(100), Vec::<AdvertId>::new());
        assert!(s.get(&Uuid(1)).is_some());
        assert_eq!(s.next_expiry(), Some(500), "stale entry skipped");
        assert_eq!(s.purge_expired(500), vec![Uuid(1)]);
        assert!(s.is_empty());
    }

    #[test]
    fn republish_after_remove_ignores_predecessors_heap_entries() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.remove(Uuid(1)));
        // Same id comes back with a longer lease; the removed predecessor's
        // (100, id) entry must not purge it.
        s.publish(advert(1, 2), NodeId(1), 50, 400, 0);
        assert_eq!(s.purge_expired(100), Vec::<AdvertId>::new());
        assert_eq!(s.get(&Uuid(1)).unwrap().advert.version, 2);
        assert_eq!(s.purge_expired(400), vec![Uuid(1)]);
    }

    #[test]
    fn non_extending_renewal_keeps_current_entry_live() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 300, 0);
        // A late-arriving shorter renewal changes nothing; the original
        // entry must still fire.
        assert!(s.renew(Uuid(1), 200));
        assert_eq!(s.next_expiry(), Some(300));
        assert_eq!(s.purge_expired(300), vec![Uuid(1)]);
    }

    #[test]
    fn purge_at_end_of_time_drains_infinite_leases_too() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, SimTime::MAX, 0);
        s.publish(advert(2, 1), NodeId(1), 0, 100, 0);
        // `is_live` is strict, so at SimTime::MAX everything is expired —
        // including leases that never entered the heap.
        assert_eq!(s.purge_expired(SimTime::MAX), vec![Uuid(2), Uuid(1)]);
        assert!(s.is_empty());
        assert_eq!(s.next_expiry(), None);
    }

    #[test]
    fn purge_returns_ids_ordered_by_expiry_then_id() {
        let mut s = RegistryStore::new();
        s.publish(advert(3, 1), NodeId(1), 0, 100, 0);
        s.publish(advert(1, 1), NodeId(1), 0, 200, 0);
        s.publish(advert(2, 1), NodeId(1), 0, 100, 0);
        assert_eq!(s.purge_expired(200), vec![Uuid(2), Uuid(3), Uuid(1)]);
    }

    #[test]
    fn none_expired_tracks_heap_minimum() {
        let mut s = RegistryStore::new();
        assert!(s.none_expired(SimTime::MAX - 1), "empty store has no expiries");
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.none_expired(99));
        assert!(!s.none_expired(100));
        s.purge_expired(100);
        assert!(s.none_expired(100));
    }

    #[test]
    fn none_expired_skips_stale_entries_after_renewal() {
        // Regression: the raw heap minimum used to pin `none_expired` false
        // for the whole window between a renewal and the superseded expiry
        // passing. Stale entries must be popped, not believed.
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.renew(Uuid(1), 500));
        assert!(s.none_expired(250), "stale (100, id) entry must not count");
        assert!(!s.none_expired(500), "the renewed expiry still does");
        // Removal leaves a stale entry behind too.
        s.publish(advert(2, 1), NodeId(1), 0, 300, 0);
        assert!(s.remove(Uuid(2)));
        assert!(s.none_expired(350));
    }

    fn sem_advert(id: u128, category: ClassId, outputs: &[ClassId]) -> Advertisement {
        Advertisement {
            id: Uuid(id),
            provider: NodeId(1),
            description: Description::Semantic(
                sds_semantic::ServiceProfile::new(format!("s{id}"), category)
                    .with_outputs(outputs),
            ),
            version: 1,
        }
    }

    #[test]
    fn uri_candidates_are_exact() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0); // urn:x
        let ids = |c: Candidates<'_>| c.iter().collect::<Vec<_>>();
        assert_eq!(ids(s.candidates(&QueryPayload::Uri("urn:x".into()), None)), vec![Uuid(1)]);
        assert!(ids(s.candidates(&QueryPayload::Uri("urn:y".into()), None)).is_empty());
        // Removal unindexes.
        s.remove(Uuid(1));
        assert!(ids(s.candidates(&QueryPayload::Uri("urn:x".into()), None)).is_empty());
    }

    #[test]
    fn template_candidates_by_type_with_wildcard_fallback() {
        use sds_protocol::DescriptionTemplate;
        let mut s = RegistryStore::new();
        let typed = Advertisement {
            id: Uuid(1),
            provider: NodeId(1),
            description: Description::Template(DescriptionTemplate {
                type_uri: Some("urn:t".into()),
                ..Default::default()
            }),
            version: 1,
        };
        let untyped = Advertisement {
            id: Uuid(2),
            provider: NodeId(1),
            description: Description::Template(DescriptionTemplate {
                name: Some("n".into()),
                ..Default::default()
            }),
            version: 1,
        };
        s.publish(typed, NodeId(1), 0, 100, 0);
        s.publish(untyped, NodeId(1), 0, 100, 0);
        let by_type = QueryPayload::Template(DescriptionTemplate {
            type_uri: Some("urn:t".into()),
            ..Default::default()
        });
        assert_eq!(s.candidates(&by_type, None).iter().collect::<Vec<_>>(), vec![Uuid(1)]);
        let open = QueryPayload::Template(DescriptionTemplate::default());
        assert_eq!(
            s.candidates(&open, None).iter().collect::<Vec<_>>(),
            vec![Uuid(1), Uuid(2)],
            "unconstrained query scans the model bucket"
        );
    }

    #[test]
    fn semantic_candidates_union_related_postings() {
        use sds_semantic::Ontology;
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let weapon = o.class("Weapon", &[thing]);
        let idx = SubsumptionIndex::build(&o);

        let mut s = RegistryStore::new();
        s.publish(sem_advert(1, radar, &[radar]), NodeId(1), 0, 100, 0);
        s.publish(sem_advert(2, weapon, &[weapon]), NodeId(1), 0, 100, 0);
        s.publish(sem_advert(3, sensor, &[sensor, radar]), NodeId(1), 0, 100, 0);

        let cat_q = QueryPayload::Semantic(sds_semantic::ServiceRequest::for_category(sensor));
        assert_eq!(
            s.candidates(&cat_q, Some(&idx)).iter().collect::<Vec<_>>(),
            vec![Uuid(1), Uuid(3)],
            "weapon-category advert pruned"
        );
        let out_q = QueryPayload::Semantic(
            sds_semantic::ServiceRequest::default().with_outputs(&[radar]),
        );
        // Advert 3 appears in both the sensor and radar postings; the union
        // must deduplicate it.
        assert_eq!(
            s.candidates(&out_q, Some(&idx)).iter().collect::<Vec<_>>(),
            vec![Uuid(1), Uuid(3)]
        );
        let open = QueryPayload::Semantic(sds_semantic::ServiceRequest::default());
        assert_eq!(s.candidates(&open, Some(&idx)).len(), 3, "model bucket");
        assert_eq!(s.candidates(&open, None).len(), 3, "no index, model bucket");
    }

    #[test]
    fn remove_is_idempotent() {
        let mut s = RegistryStore::new();
        s.publish(advert(1, 1), NodeId(1), 0, 100, 0);
        assert!(s.remove(Uuid(1)));
        assert!(!s.remove(Uuid(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn lease_policy_grants() {
        let p = LeasePolicy { default_ms: 10_000, max_ms: 60_000, leasing_enabled: true };
        assert_eq!(p.grant(100, 0), 10_100);
        assert_eq!(p.grant(100, 5_000), 5_100);
        assert_eq!(p.grant(100, 999_999), 60_100, "capped at max");
        assert_eq!(LeasePolicy::no_leasing().grant(100, 5_000), SimTime::MAX);
    }
}
