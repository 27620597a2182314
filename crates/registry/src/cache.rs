//! The registry-edge result cache: memoized ranked query results with
//! lease-driven invalidation, so repeated identical queries — the paper's E2
//! response-implosion traffic pattern seen from the registry side — cost one
//! evaluation instead of N.
//!
//! Correctness rests on two mechanisms covering the two ways a result can
//! go stale:
//!
//! 1. **Expiry** is handled by each entry's `valid_until` — the earliest
//!    lease expiry among the *returned* hits, stamped by
//!    [`ShardedEngine::evaluate_with_validity`](crate::ShardedEngine). A hit
//!    is served only while `now < valid_until`; expiry of any advert outside
//!    the returned set cannot change a top-k selection it was not part of.
//! 2. **Mutation** (publish / update / renew-resurrection / remove) is
//!    handled by reverse invalidation through a [`SubscriptionIndex`]: every
//!    cached payload is indexed like a standing query, and an advert's
//!    candidate set there is a sound over-approximation of the cached
//!    queries whose results it could appear in (or newly match). The caller
//!    invalidates on the events that can change results; see
//!    `RegistryNode::{publish_cached, renew_cached, remove_cached}` in
//!    `sds-core`.
//!
//! Keys are the payload's canonical wire bytes (the codec encoding is
//! injective; QoS `f64`s keep `QueryPayload` from deriving `Eq`/`Hash`)
//! paired with the response cap. Eviction is FIFO by insertion sequence —
//! cheap, deterministic, and good enough for a cache whose entries are
//! usually invalidated by lease churn long before capacity pressure.

use std::collections::BTreeMap;

use sds_protocol::{Advertisement, QueryId, QueryPayload, ResponseHit};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{IdMap, NodeId, SimTime};

use crate::subscriptions::SubscriptionIndex;

/// Cache key: canonical payload bytes plus the response cap (the cap changes
/// the result, so it is part of identity).
pub type CacheKey = (Vec<u8>, Option<u16>);

/// Builds the cache key for a query.
pub fn cache_key(payload: &QueryPayload, max_responses: Option<u16>) -> CacheKey {
    (sds_protocol::codec::encode_payload(payload), max_responses)
}

/// The synthetic origin marking cache entries inside the reverse index.
/// Real query origins are simulated node ids, which never reach `u32::MAX`.
const CACHE_ORIGIN: NodeId = NodeId(u32::MAX);

struct CacheEntry {
    /// Kept for unindexing `entries` on removal.
    key: CacheKey,
    /// Kept for unindexing on removal (the reverse index is keyed by what
    /// the payload constrains on).
    payload: QueryPayload,
    hits: Vec<ResponseHit>,
}

/// Hit/miss/invalidation counters, for stats reporting and tests.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by reverse invalidation (publish/renew/remove).
    pub invalidated: u64,
    /// Entries dropped because their `valid_until` passed (sweep or lookup).
    pub expired: u64,
    /// Entries dropped by FIFO eviction at capacity.
    pub evicted: u64,
}

/// The cache proper. Not a shard: one per registry node, sitting in front of
/// whatever engine evaluates misses.
pub struct QueryCache {
    /// Key → `(insertion seq, valid_until)`: everything a lookup decides on
    /// comes out of this one probe by copy, so a hit hashes the key once and
    /// a lapsed entry can be dropped without a borrow of it in the way.
    entries: IdMap<CacheKey, (u64, SimTime)>,
    /// Insertion order → entry, for FIFO eviction and seq → entry resolution
    /// during reverse invalidation.
    by_seq: BTreeMap<u64, CacheEntry>,
    /// Reverse index over cached payloads, probed with published adverts.
    index: SubscriptionIndex,
    next_seq: u64,
    capacity: usize,
    stats: CacheStats,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (0 disables caching:
    /// every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: IdMap::default(),
            by_seq: BTreeMap::new(),
            index: SubscriptionIndex::new(),
            next_seq: 0,
            capacity,
            stats: CacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a cached result still valid at `now`. A hit is
    /// byte-identical to what a fresh evaluation would return (and shares
    /// the store's advert allocations). An entry whose validity has lapsed
    /// is dropped on the spot.
    pub fn get(&mut self, key: &CacheKey, now: SimTime) -> Option<&[ResponseHit]> {
        match self.entries.get(key) {
            Some(&(seq, valid_until)) if now < valid_until => {
                self.stats.hits += 1;
                Some(&self.by_seq[&seq].hits)
            }
            Some(&(seq, _)) => {
                self.drop_seq(seq);
                self.stats.expired += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Caches one evaluated result. `valid_until` must come from the
    /// evaluation (earliest returned-hit lease); entries already invalid (or
    /// a zero capacity) are not stored. Re-inserting an existing key
    /// replaces the entry.
    pub fn insert(
        &mut self,
        key: CacheKey,
        payload: &QueryPayload,
        hits: Vec<ResponseHit>,
        valid_until: SimTime,
        now: SimTime,
    ) {
        if self.capacity == 0 || now >= valid_until {
            return;
        }
        if let Some(&(seq, _)) = self.entries.get(&key) {
            self.drop_seq(seq);
        }
        while self.entries.len() >= self.capacity {
            let (&oldest, _) =
                self.by_seq.first_key_value().expect("entries nonempty ⇒ by_seq nonempty");
            self.drop_seq(oldest);
            self.stats.evicted += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.index.insert(QueryId { origin: CACHE_ORIGIN, seq }, payload);
        self.by_seq.insert(seq, CacheEntry { key: key.clone(), payload: payload.clone(), hits });
        self.entries.insert(key, (seq, valid_until));
    }

    /// Drops every cached result `advert` could affect — the queries whose
    /// results it may appear in (so updates/removals re-evaluate) or could
    /// newly match (so a cached empty/partial result does not mask a fresh
    /// publish). The reverse index over-approximates exactly like
    /// subscription matching on publish does. Returns how many entries were
    /// dropped.
    pub fn invalidate_for_advert(
        &mut self,
        advert: &Advertisement,
        idx: Option<&SubsumptionIndex>,
    ) -> usize {
        let affected = self.index.candidates(advert, idx);
        let dropped = affected.into_iter().filter(|qid| self.drop_seq(qid.seq)).count();
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Drops entries whose validity has lapsed; for the periodic sweep timer
    /// so dead entries do not linger until their next lookup. Returns how
    /// many entries were dropped.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let dead: Vec<u64> = self
            .entries
            .values()
            .filter(|&&(_, valid_until)| now >= valid_until)
            .map(|&(seq, _)| seq)
            .collect();
        for &seq in &dead {
            self.drop_seq(seq);
        }
        self.stats.expired += dead.len() as u64;
        dead.len()
    }

    /// Drops everything (restart: cached soft state does not survive).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_seq.clear();
        self.index.clear();
    }

    /// Drops the entry inserted as `seq`; `false` when it is already gone.
    fn drop_seq(&mut self, seq: u64) -> bool {
        let Some(e) = self.by_seq.remove(&seq) else {
            return false;
        };
        self.entries.remove(&e.key);
        self.index.remove(QueryId { origin: CACHE_ORIGIN, seq }, &e.payload);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_protocol::{Description, SharedAdvert, Uuid};
    use sds_semantic::{Degree, Ontology, ServiceProfile, ServiceRequest};

    fn uri_hit(id: u128, uri: &str) -> ResponseHit {
        ResponseHit {
            advert: SharedAdvert::from(Advertisement {
                id: Uuid(id),
                provider: NodeId(1),
                description: Description::Uri(uri.into()),
                version: 1,
            }),
            degree: Degree::Exact,
            distance: 0,
        }
    }

    #[test]
    fn hit_returns_identical_bytes_until_validity_lapses() {
        let mut c = QueryCache::new(8);
        let payload = QueryPayload::Uri("urn:a".into());
        let key = cache_key(&payload, Some(4));
        assert!(c.get(&key, 10).is_none());
        let hits = vec![uri_hit(1, "urn:a")];
        c.insert(key.clone(), &payload, hits.clone(), 100, 10);
        assert_eq!(c.get(&key, 50).unwrap(), &hits[..]);
        assert_eq!(c.get(&key, 99).unwrap(), &hits[..]);
        // At the earliest returned lease expiry the hit is no longer live.
        assert!(c.get(&key, 100).is_none());
        assert!(c.is_empty(), "lapsed entry dropped on lookup");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expired), (2, 2, 1));
    }

    #[test]
    fn max_responses_is_part_of_identity() {
        let mut c = QueryCache::new(8);
        let payload = QueryPayload::Uri("urn:a".into());
        c.insert(cache_key(&payload, Some(1)), &payload, vec![uri_hit(1, "urn:a")], 100, 0);
        assert!(c.get(&cache_key(&payload, Some(2)), 10).is_none());
        assert!(c.get(&cache_key(&payload, Some(1)), 10).is_some());
    }

    #[test]
    fn publish_invalidates_exactly_the_affected_entries() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let weapon = o.class("Weapon", &[thing]);
        let idx = SubsumptionIndex::build(&o);

        let mut c = QueryCache::new(8);
        let sensor_q = QueryPayload::Semantic(ServiceRequest::for_category(sensor));
        let weapon_q = QueryPayload::Semantic(ServiceRequest::for_category(weapon));
        let uri_q = QueryPayload::Uri("urn:x".into());
        c.insert(cache_key(&sensor_q, None), &sensor_q, vec![], SimTime::MAX, 0);
        c.insert(cache_key(&weapon_q, None), &weapon_q, vec![], SimTime::MAX, 0);
        c.insert(cache_key(&uri_q, None), &uri_q, vec![], SimTime::MAX, 0);
        assert_eq!(c.len(), 3);

        // A radar advert relates to the sensor query only.
        let radar_advert = Advertisement {
            id: Uuid(9),
            provider: NodeId(2),
            description: Description::Semantic(ServiceProfile::new("r", radar)),
            version: 1,
        };
        assert_eq!(c.invalidate_for_advert(&radar_advert, Some(&idx)), 1);
        assert!(c.get(&cache_key(&sensor_q, None), 10).is_none(), "affected entry dropped");
        assert!(c.get(&cache_key(&weapon_q, None), 10).is_some(), "unrelated survives");
        assert!(c.get(&cache_key(&uri_q, None), 10).is_some(), "other model survives");
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = QueryCache::new(2);
        let p1 = QueryPayload::Uri("urn:1".into());
        let p2 = QueryPayload::Uri("urn:2".into());
        let p3 = QueryPayload::Uri("urn:3".into());
        c.insert(cache_key(&p1, None), &p1, vec![], SimTime::MAX, 0);
        c.insert(cache_key(&p2, None), &p2, vec![], SimTime::MAX, 0);
        c.insert(cache_key(&p3, None), &p3, vec![], SimTime::MAX, 0);
        assert_eq!(c.len(), 2);
        assert!(c.get(&cache_key(&p1, None), 1).is_none(), "oldest evicted");
        assert!(c.get(&cache_key(&p2, None), 1).is_some());
        assert!(c.get(&cache_key(&p3, None), 1).is_some());
        assert_eq!(c.stats().evicted, 1);
        // The evicted entry's reverse-index posting is gone too: publishing
        // its URI invalidates nothing.
        let a = Advertisement {
            id: Uuid(1),
            provider: NodeId(1),
            description: Description::Uri("urn:1".into()),
            version: 1,
        };
        assert_eq!(c.invalidate_for_advert(&a, None), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = QueryCache::new(0);
        let p = QueryPayload::Uri("urn:a".into());
        c.insert(cache_key(&p, None), &p, vec![], SimTime::MAX, 0);
        assert!(c.is_empty());
        assert!(c.get(&cache_key(&p, None), 1).is_none());
    }

    #[test]
    fn sweep_drops_only_lapsed_entries() {
        let mut c = QueryCache::new(8);
        let p1 = QueryPayload::Uri("urn:1".into());
        let p2 = QueryPayload::Uri("urn:2".into());
        c.insert(cache_key(&p1, None), &p1, vec![uri_hit(1, "urn:1")], 100, 0);
        c.insert(cache_key(&p2, None), &p2, vec![uri_hit(2, "urn:2")], 300, 0);
        assert_eq!(c.sweep(50), 0);
        assert_eq!(c.sweep(200), 1);
        assert!(c.get(&cache_key(&p2, None), 200).is_some());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_and_unindexes_the_old_entry() {
        let mut c = QueryCache::new(8);
        let p = QueryPayload::Uri("urn:a".into());
        let key = cache_key(&p, None);
        c.insert(key.clone(), &p, vec![uri_hit(1, "urn:a")], 100, 0);
        c.insert(key.clone(), &p, vec![uri_hit(2, "urn:a")], 400, 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key, 200).unwrap().len(), 1);
        assert_eq!(c.get(&key, 200).unwrap()[0].advert.id, Uuid(2));
        // One invalidation posting, not two.
        let a = Advertisement {
            id: Uuid(3),
            provider: NodeId(1),
            description: Description::Uri("urn:a".into()),
            version: 1,
        };
        assert_eq!(c.invalidate_for_advert(&a, None), 1);
        assert!(c.is_empty());
    }
}
