//! Loop avoidance: a time-bounded cache of query ids already handled.
//!
//! "We think that giving queries their unique query ID is a good approach to
//! avoid query looping between registry nodes." A registry records each
//! query id it processes; a re-arrival within the retention window is
//! dropped instead of being evaluated and forwarded again.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use sds_protocol::QueryId;
use sds_simnet::{IdMap, SimTime};

/// Time-bounded set of recently seen query ids.
///
/// Ids expire in arrival order: a node's clock never runs back, so the
/// oldest recording is always at the front of `arrivals`, and each sighting
/// pops only the recordings that have expired by then. Bookkeeping is O(1)
/// amortised per sighting however many ids are held.
#[derive(Debug)]
pub struct SeenQueries {
    retention_ms: u64,
    seen: IdMap<QueryId, SimTime>,
    /// Every recording in `seen`, oldest first.
    arrivals: VecDeque<(SimTime, QueryId)>,
}

impl SeenQueries {
    /// `retention_ms` should exceed the maximum plausible query lifetime in
    /// the registry network (TTL × per-hop latency, with margin).
    pub fn new(retention_ms: u64) -> Self {
        Self { retention_ms, seen: IdMap::default(), arrivals: VecDeque::new() }
    }

    /// Records `id` at `now`. Returns `true` when the id is new (the query
    /// should be processed), `false` when it is a duplicate (drop it).
    /// `now` must not decrease between calls.
    pub fn first_sighting(&mut self, id: QueryId, now: SimTime) -> bool {
        self.expire(now);
        match self.seen.entry(id) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(now);
                self.arrivals.push_back((now, id));
                true
            }
        }
    }

    /// Forgets every id recorded `retention_ms` or more before `now`, the
    /// same predicate that stops an id counting as a duplicate.
    fn expire(&mut self, now: SimTime) {
        while let Some(&(at, id)) = self.arrivals.front() {
            if now.saturating_sub(at) < self.retention_ms {
                break;
            }
            self.arrivals.pop_front();
            // An id is recorded only while absent, and leaves the map only
            // here, so each map entry has exactly one arrival.
            let recorded = self.seen.remove(&id);
            debug_assert_eq!(recorded, Some(at), "arrival out of step with the map");
        }
    }

    /// Number of retained entries (diagnostic).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Drops all state (e.g. on simulated node restart).
    pub fn clear(&mut self) {
        self.seen.clear();
        self.arrivals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_simnet::NodeId;

    fn qid(seq: u64) -> QueryId {
        QueryId { origin: NodeId(1), seq }
    }

    #[test]
    fn duplicate_within_window_is_dropped() {
        let mut s = SeenQueries::new(1_000);
        assert!(s.first_sighting(qid(1), 0));
        assert!(!s.first_sighting(qid(1), 500));
        assert!(s.first_sighting(qid(2), 500), "different id is fresh");
    }

    #[test]
    fn reappearance_after_retention_is_fresh() {
        let mut s = SeenQueries::new(1_000);
        assert!(s.first_sighting(qid(1), 0));
        assert!(s.first_sighting(qid(1), 1_500));
    }

    #[test]
    fn eviction_bounds_memory() {
        let mut s = SeenQueries::new(100);
        for i in 0..2_000 {
            assert!(s.first_sighting(qid(i), i));
        }
        assert_eq!(s.len(), 100, "only the last retention window is held");
    }

    #[test]
    fn many_sightings_inside_the_window_keep_the_first_id() {
        // Before `now` reaches the retention, an id seen at t = 0 is still
        // inside its window however many other ids arrive meanwhile.
        let mut s = SeenQueries::new(30_000);
        assert!(s.first_sighting(qid(0), 0));
        for i in 1..1_100 {
            assert!(s.first_sighting(qid(i), i * 10));
        }
        assert!(!s.first_sighting(qid(0), 11_000), "t = 0 id forgotten inside its window");
        assert_eq!(s.len(), 1_100);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut s = SeenQueries::new(1_000);
        s.first_sighting(qid(1), 0);
        s.clear();
        assert!(s.is_empty());
        assert!(s.first_sighting(qid(1), 1));
    }
}
