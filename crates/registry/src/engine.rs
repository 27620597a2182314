//! The engine's shard-independent pieces: the total ranking order, bounded
//! top-k selection over inline ranking keys, and the registry summary. The
//! engine itself is [`crate::ShardedEngine`]; the unit tests below run it at
//! one shard, which *is* the unsharded registry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sds_protocol::{AdvertId, ModelId, ResponseHit};
use sds_semantic::Degree;

/// Summary information a registry shares with peers ("send out summary
/// information about the advertisements present in a registry").
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegistrySummary {
    pub advert_count: u32,
    /// Which description models are present, ascending by wire tag.
    pub models: Vec<ModelId>,
}

/// The ranking key of a confirmed hit, ordered best-first: degree desc,
/// distance asc, advert id asc — the same total order as [`rank_hits`], so
/// "greatest" means "worst" and a max-heap of size k retains the top k. The
/// order is total over unique advert ids, which is what makes a ranked
/// result independent of the order shards (or worker threads) enumerate in.
/// The key is the whole value, 32 inline bytes: selecting over keys never
/// reaches into the advert table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) struct Ranked {
    pub(crate) degree: Reverse<Degree>,
    pub(crate) distance: u32,
    pub(crate) id: AdvertId,
}

/// A confirmed hit over a borrowed advert, ordered by its inline [`Ranked`]
/// key alone: a comparison never follows `stored`.
pub(crate) struct RankedRef<'a> {
    pub(crate) rank: Ranked,
    pub(crate) stored: &'a crate::store::StoredAdvert,
}

impl RankedRef<'_> {
    pub(crate) fn into_hit(self) -> ResponseHit {
        ResponseHit {
            advert: self.stored.advert.clone(),
            degree: self.rank.degree.0,
            distance: self.rank.distance,
        }
    }
}

impl PartialEq for RankedRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for RankedRef<'_> {}
impl PartialOrd for RankedRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankedRef<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// The best `max` hits pushed so far, or all of them when unbounded.
/// Bounded selection keeps a max-heap of the k best, worst on top:
/// O(n · log k) and never more than k entries resident.
pub(crate) enum TopK<T> {
    Bounded { k: usize, best: BinaryHeap<T> },
    All(Vec<T>),
}

impl<T: Ord> TopK<T> {
    /// A selection of the best `max`, from at most `at_most` pushes when the
    /// caller knows a bound: reserving for hits that cannot arrive would make
    /// the one-candidate query pay for a `max`-sized block.
    pub(crate) fn new(max: Option<u16>, at_most: Option<usize>) -> Self {
        match max.map(usize::from) {
            Some(k) => {
                let reserve = at_most.map_or(k, |n| n.min(k));
                TopK::Bounded { k, best: BinaryHeap::with_capacity(reserve) }
            }
            None => TopK::All(Vec::with_capacity(at_most.unwrap_or(0))),
        }
    }

    pub(crate) fn push(&mut self, hit: T) {
        match self {
            TopK::Bounded { k, best } if best.len() < *k => best.push(hit),
            // Full (or `k` is 0): `hit` replaces the worst kept hit, which is
            // on top, or is itself the worst and dropped.
            TopK::Bounded { best, .. } => {
                if let Some(mut worst) = best.peek_mut().filter(|worst| hit < **worst) {
                    *worst = hit;
                }
            }
            TopK::All(all) => all.push(hit),
        }
    }

    /// The selection in rank order, best first.
    pub(crate) fn into_ranked(self) -> Vec<T> {
        let mut ranked = match self {
            TopK::Bounded { best, .. } => best.into_vec(),
            TopK::All(all) => all,
        };
        ranked.sort_unstable();
        ranked
    }
}

/// Selects the best `max` hits (all of them when unbounded) in rank order
/// from an arbitrarily-ordered stream of confirmed hits.
///
/// Because the ranking key is a *total* order over unique advert ids,
/// selection is composable: `select_ranked(concat(streams), k)` equals
/// `select_ranked(concat(per-stream select_ranked(stream, k)), k)` — any
/// global top-k member survives its own stream's top-k. The parallel
/// sharded plane leans on exactly this to merge per-shard selections
/// deterministically (DESIGN §16).
pub(crate) fn select_ranked<T: Ord>(
    confirmed: impl Iterator<Item = T>,
    max: Option<u16>,
) -> Vec<T> {
    let mut top = TopK::new(max, confirmed.size_hint().1);
    confirmed.for_each(|hit| top.push(hit));
    top.into_ranked()
}

/// Ranks hits best-first: degree desc, distance asc, advert id for
/// determinism. Shared with federation-side aggregation.
pub fn rank_hits(hits: &mut [ResponseHit]) {
    hits.sort_by(|a, b| {
        b.degree
            .cmp(&a.degree)
            .then(a.distance.cmp(&b.distance))
            .then(a.advert.id.cmp(&b.advert.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{SemanticEvaluator, TemplateEvaluator, UriEvaluator};
    use crate::{LeasePolicy, PublishOutcome, ShardedEngine};
    use sds_protocol::{
        codec, Advertisement, Description, DiscoveryMessage, QueryId, QueryMessage, QueryOp,
        QueryPayload, SharedAdvert, Uuid,
    };
    use sds_semantic::{
        Artifact, ArtifactId, ArtifactKind, Degree, Ontology, ServiceProfile, ServiceRequest,
        SubsumptionIndex,
    };
    use sds_simnet::NodeId;
    use std::sync::Arc;

    fn uri_advert(id: u128, uri: &str) -> Advertisement {
        Advertisement {
            id: Uuid(id),
            provider: NodeId(1),
            description: Description::Uri(uri.into()),
            version: 1,
        }
    }

    fn query(payload: QueryPayload, max: Option<u16>) -> QueryMessage {
        QueryMessage {
            id: QueryId { origin: NodeId(9), seq: 1 },
            payload,
            max_responses: max,
            ttl: 0,
            reply_to: None,
        }
    }

    fn engine_with_uri() -> ShardedEngine {
        let mut e = ShardedEngine::new(LeasePolicy::default(), 1, None);
        e.register_evaluator(Box::new(UriEvaluator));
        e
    }

    #[test]
    fn publish_evaluate_and_lease_expiry() {
        let mut e = engine_with_uri();
        let (outcome, lease) = e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 10_000);
        assert_eq!(outcome, PublishOutcome::New);
        assert_eq!(lease, 10_000);
        let q = query(QueryPayload::Uri("urn:a".into()), None);
        assert_eq!(e.evaluate(&q, 5_000).len(), 1);
        // After expiry the advert no longer matches even before purge runs.
        assert_eq!(e.evaluate(&q, 10_000).len(), 0);
        assert_eq!(e.purge(10_000), vec![Uuid(1)]);
    }

    #[test]
    fn unsupported_model_silently_discarded() {
        let mut e = engine_with_uri();
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 10_000);
        let sem = query(QueryPayload::Semantic(ServiceRequest::default()), None);
        assert!(e.evaluate(&sem, 0).is_empty());
        assert!(!e.supports(ModelId::Semantic));
        assert!(e.supports(ModelId::Uri));
    }

    #[test]
    fn response_control_truncates_after_ranking() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let track = o.class("Track", &[thing]);
        let air = o.class("AirTrack", &[track]);
        let svc = o.class("Svc", &[thing]);
        let idx = Arc::new(SubsumptionIndex::build(&o));

        let mut e = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        e.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
        for (i, out) in [air, track, air, track].iter().enumerate() {
            let advert = Advertisement {
                id: Uuid(i as u128 + 1),
                provider: NodeId(1),
                description: Description::Semantic(
                    ServiceProfile::new(format!("s{i}"), svc).with_outputs(&[*out]),
                ),
                version: 1,
            };
            e.publish(advert, NodeId(1), 0, 60_000);
        }
        let q = query(
            QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[air])),
            Some(2),
        );
        let hits = e.evaluate(&q, 1_000);
        assert_eq!(hits.len(), 2, "truncated to max_responses");
        assert!(hits.iter().all(|h| h.degree == Degree::Exact), "best hits kept: {hits:?}");
    }

    #[test]
    fn renew_unknown_tells_provider_to_republish() {
        let mut e = engine_with_uri();
        let (known, _) = e.renew(Uuid(7), 0);
        assert!(!known);
        e.publish(uri_advert(7, "urn:a"), NodeId(1), 0, 1_000);
        let (known, lease) = e.renew(Uuid(7), 500);
        assert!(known);
        assert_eq!(lease, 1_500, "renewal re-grants the requested 1s lease");
    }

    #[test]
    fn summary_reflects_live_adverts_and_models() {
        let mut e = engine_with_uri();
        e.register_evaluator(Box::new(TemplateEvaluator));
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 1_000);
        e.publish(uri_advert(2, "urn:b"), NodeId(1), 0, 10_000);
        let s = e.summary(500);
        assert_eq!(s, RegistrySummary { advert_count: 2, models: vec![ModelId::Uri] });
        let s_late = e.summary(5_000);
        assert_eq!(s_late.advert_count, 1, "expired advert excluded from summary");
    }

    #[test]
    fn renewed_store_regains_summary_fast_path() {
        // Regression: after a renewal the superseded heap entry used to pin
        // the raw minimum, so `none_expired` stayed false and `summary` fell
        // off its O(1) fast path for the whole old-lease window.
        let mut e = engine_with_uri();
        e.publish(uri_advert(1, "urn:a"), NodeId(1), 0, 1_000);
        let (known, lease) = e.renew(Uuid(1), 500);
        assert!(known);
        assert_eq!(lease, 1_500);
        // Between the old expiry (1 000) and the new one (1 500) the summary
        // answers from the maintained counts; the gate itself is pinned by
        // the store's `none_expired_skips_stale_entries_after_renewal`.
        let s = e.summary(1_200);
        assert_eq!(s, RegistrySummary { advert_count: 1, models: vec![ModelId::Uri] });
        assert_eq!(e.summary(1_500).advert_count, 0, "renewed expiry still honoured");
    }

    #[test]
    fn artifact_hosting_round_trip() {
        let mut e = engine_with_uri();
        e.host_artifact(Artifact {
            id: ArtifactId::new("nato-sensors", 1),
            kind: ArtifactKind::Ontology,
            body: vec![0; 2_048],
        });
        assert_eq!(e.artifacts().get_latest("nato-sensors").unwrap().body.len(), 2_048);
        assert!(e.artifacts().get_latest("missing").is_none());
    }

    #[test]
    fn compose_chain_is_a_function_of_content_not_hash_order() {
        // Regression: `compose` handed the planner the live adverts in hash
        // map iteration order, and the planner takes the *first* producer of
        // a needed concept — identical stores answered with different
        // providers from one process to the next (and one store to the next:
        // every `IdMap` draws its own hash key).
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let track = o.class("Track", &[thing]);
        let svc = o.class("Svc", &[thing]);
        let idx = Arc::new(SubsumptionIndex::build(&o));
        let request = ServiceRequest::default().with_outputs(&[track]);
        for store in 0..32 {
            let mut e = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
            e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
            for i in 1..=16u128 {
                let advert = Advertisement {
                    id: Uuid(i),
                    provider: NodeId(i as u32),
                    description: Description::Semantic(
                        ServiceProfile::new(format!("s{i}"), svc).with_outputs(&[track]),
                    ),
                    version: 1,
                };
                e.publish(advert, NodeId(i as u32), 0, 60_000);
            }
            let chain = e.compose(&request, 1_000, 4).expect("every advert produces a Track");
            let ids: Vec<u128> = chain.iter().map(|a| a.id.0).collect();
            assert_eq!(ids, vec![1], "store {store}: the lowest advert id provides");
        }
    }

    #[test]
    fn a_multi_homed_advert_is_one_allocation_from_publish_to_cache_hit() {
        use crate::{cache_key, QueryCache, ShardRouter};
        // Eight disjoint trees: their components spread over the four shards,
        // so some (category, output) pair has two home shards.
        let mut o = Ontology::new();
        let roots: Vec<_> = (0..8).map(|i| o.class(&format!("T{i}"), &[])).collect();
        let idx = Arc::new(SubsumptionIndex::build(&o));
        let router = ShardRouter::new(4, Some(&idx));
        let (category, output, published) = roots
            .iter()
            .flat_map(|&c| roots.iter().map(move |&out| (c, out)))
            .map(|(c, out)| {
                let advert = Advertisement {
                    id: Uuid(1),
                    provider: NodeId(1),
                    description: Description::Semantic(
                        ServiceProfile::new("s", c).with_outputs(&[out]),
                    ),
                    version: 1,
                };
                (c, out, SharedAdvert::from(advert))
            })
            .find(|(_, _, a)| router.home_mask(a).count_ones() == 2)
            .expect("eight components do not all hash to one of four shards");

        let mut e = ShardedEngine::new(LeasePolicy::default(), 4, Some(&idx));
        e.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
        e.publish(published.clone(), NodeId(1), 0, 60_000);
        assert!(SharedAdvert::ptr_eq(&e.store().get(&Uuid(1)).unwrap().advert, &published));
        // Ours plus one per home shard: neither shard holds a private copy.
        assert_eq!(SharedAdvert::strong_count(&published), 1 + 2);

        // The category query routes to one home shard, the output query to
        // the other; both hand out the published allocation, and so does a
        // cache hit afterwards.
        let mut cache = QueryCache::new(4);
        for request in [
            ServiceRequest::for_category(category),
            ServiceRequest::default().with_outputs(&[output]),
        ] {
            let q = query(QueryPayload::Semantic(request), None);
            let (hits, valid_until) = e.evaluate_with_validity(&q, 10);
            assert_eq!(hits.len(), 1);
            assert!(SharedAdvert::ptr_eq(&hits[0].advert, &published));
            let key = cache_key(&q.payload, q.max_responses);
            cache.insert(key.clone(), &q.payload, hits, valid_until, 10);
            let served = cache.get(&key, 20).expect("inserted above");
            assert!(SharedAdvert::ptr_eq(&served[0].advert, &published));
        }
    }

    #[test]
    fn an_update_is_encoded_afresh_while_a_held_handle_keeps_its_bytes() {
        let frame = |hits: Vec<ResponseHit>| {
            codec::encode(&DiscoveryMessage::querying(QueryOp::QueryResponse {
                query_id: QueryId { origin: NodeId(9), seq: 1 },
                hits,
                responder: NodeId(0),
            }))
        };
        // The frame of `hits` with `advert` in a never-encoded allocation.
        let fresh = |hits: &[ResponseHit], advert: &Advertisement| {
            let advert = SharedAdvert::from(advert.clone());
            frame(vec![ResponseHit { advert, ..hits[0].clone() }])
        };
        let v1 = uri_advert(1, "urn:a");
        let v2 = Advertisement { provider: NodeId(2), version: 2, ..v1.clone() };
        let q = query(QueryPayload::Uri("urn:a".into()), None);
        let mut e = engine_with_uri();
        e.publish(v1.clone(), NodeId(1), 0, 10_000);
        let held = e.evaluate(&q, 1);
        // Writes v1's segment into the stored advert.
        assert_eq!(frame(held.clone()), fresh(&held, &v1));

        assert_eq!(e.publish(v2.clone(), NodeId(2), 2, 10_000).0, PublishOutcome::Updated);
        let served = e.evaluate(&q, 3);
        assert_eq!(*served[0].advert, v2);
        assert_eq!(frame(served.clone()), fresh(&served, &v2), "the update ships v2's bytes");
        assert_ne!(fresh(&served, &v2), fresh(&held, &v1));
        assert_eq!(frame(held.clone()), fresh(&held, &v1), "a held v1 handle still encodes v1");
    }

    #[test]
    fn an_advert_in_two_related_output_postings_answers_once() {
        // Regression guard for the posting walk: the id-merging path it
        // replaced ended in `merged.dedup()`. Every advert here produces
        // both Sensor and Radar, so a request for either output reaches it
        // through two postings; their categories sit in eight unrelated
        // trees, so at four shards some are multi-homed and the broadcast
        // (unconstrained) request meets them in two shards.
        let mut o = Ontology::new();
        let roots: Vec<_> = (0..8).map(|i| o.class(&format!("T{i}"), &[])).collect();
        let sensor = o.class("Sensor", &[roots[0]]);
        let radar = o.class("Radar", &[sensor]);
        let idx = Arc::new(SubsumptionIndex::build(&o));
        for shards in [1, 4] {
            let mut e = ShardedEngine::new(LeasePolicy::default(), shards, Some(&idx));
            e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
            for (i, &category) in roots.iter().enumerate() {
                let advert = Advertisement {
                    id: Uuid(i as u128 + 1),
                    provider: NodeId(1),
                    description: Description::Semantic(
                        ServiceProfile::new(format!("s{i}"), category)
                            .with_outputs(&[sensor, radar]),
                    ),
                    version: 1,
                };
                e.publish(advert, NodeId(1), 0, 60_000);
            }
            let every_advert: Vec<u128> = (1..=8).collect();
            for (request, degree) in [
                (ServiceRequest::default().with_outputs(&[radar]), Degree::Exact), // routed
                (ServiceRequest::default().with_outputs(&[sensor]), Degree::Exact), // routed
                (ServiceRequest::default().with_outputs(&[roots[0]]), Degree::PlugIn), // routed
                (ServiceRequest::default(), Degree::Exact),                        // broadcast
            ] {
                let q = query(QueryPayload::Semantic(request), None);
                let hits = e.evaluate(&q, 10);
                let ids: Vec<u128> = hits.iter().map(|h| h.advert.id.0).collect();
                assert_eq!(ids, every_advert, "{shards} shard(s), {:?}", q.payload);
                assert!(hits.iter().all(|h| h.degree == degree));
                assert_eq!(hits, e.naive_evaluate(&q, 10));
            }
        }
    }

    #[test]
    fn a_profile_too_wide_for_its_row_is_confirmed_from_the_advert() {
        // Three outputs and two inputs are more concept references than a
        // match row holds inline, so the confirm reads this advert's lists
        // from its profile; its narrow neighbour is confirmed from the row.
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let [a, b, c, x, y] = ["A", "B", "C", "X", "Y"].map(|n| o.class(n, &[thing]));
        let idx = Arc::new(SubsumptionIndex::build(&o));
        let mut e = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        e.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
        let wide = ServiceProfile::new("wide", thing).with_outputs(&[a, b, c]).with_inputs(&[x, y]);
        let narrow = ServiceProfile::new("narrow", thing).with_outputs(&[c]).with_inputs(&[x]);
        for (id, profile) in [(1, wide), (2, narrow)] {
            let advert = Advertisement {
                id: Uuid(id),
                provider: NodeId(1),
                description: Description::Semantic(profile),
                version: 1,
            };
            e.publish(advert, NodeId(1), 0, 60_000);
        }
        let wants_c = ServiceRequest::default().with_outputs(&[c]);
        for (request, expected) in [
            (wants_c.clone().with_provided_inputs(&[x, y]), vec![1, 2]),
            (wants_c.clone().with_provided_inputs(&[x]), vec![2]), // wide also needs Y
            (wants_c, vec![]),
            (ServiceRequest::for_category(thing).with_provided_inputs(&[y, x]), vec![1, 2]),
            (ServiceRequest::default().with_outputs(&[a]).with_provided_inputs(&[x, y]), vec![1]),
        ] {
            let q = query(QueryPayload::Semantic(request), None);
            let hits = e.evaluate(&q, 10);
            let ids: Vec<u128> = hits.iter().map(|h| h.advert.id.0).collect();
            assert_eq!(ids, expected, "{:?}", q.payload);
            assert_eq!(hits, e.naive_evaluate(&q, 10));
        }
    }

    #[test]
    fn rank_hits_orders_deterministically() {
        let mk = |id: u128, degree: Degree, distance: u32| ResponseHit {
            advert: uri_advert(id, "urn:x").into(),
            degree,
            distance,
        };
        let mut hits = vec![
            mk(3, Degree::Subsumes, 1),
            mk(2, Degree::Exact, 0),
            mk(1, Degree::Exact, 0),
            mk(4, Degree::PlugIn, 2),
            mk(5, Degree::PlugIn, 1),
        ];
        rank_hits(&mut hits);
        let ids: Vec<u128> = hits.iter().map(|h| h.advert.id.0).collect();
        assert_eq!(ids, vec![1, 2, 5, 4, 3]);
    }
}
