//! Equivalence properties for the sharded data plane: on randomized
//! taxonomies, stores, and lease schedules, [`ShardedEngine`] at 1, 2, 4,
//! and 8 shards must return ranked hit vectors byte-identical to the
//! independent linear scan (`naive_evaluate`), and at 2, 4, and 8 shards the
//! same publish outcomes, granted leases, purge order, summaries and store
//! sizes as at one shard — which is the unsharded registry. Batched
//! evaluation must coalesce duplicate queries without changing a single
//! result byte, a query cache fed by `evaluate_with_validity` plus the
//! node's invalidation rules must never serve bytes a fresh evaluation would
//! not return, and the parallel data plane (`set_workers`) must be
//! byte-identical to the sequential path at 1, 2, and 4 workers.

use std::sync::Arc;

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;

use sds_protocol::{
    codec, Advertisement, Description, DescriptionTemplate, DiscoveryMessage, PublishOp, QueryId,
    QueryMessage, QueryPayload, SharedAdvert, Uuid,
};
use sds_registry::{
    cache_key, LeasePolicy, PublishOutcome, QueryCache, SemanticEvaluator, ShardedEngine,
    TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;

const GHOST_CONCEPTS: u32 = 3;
/// Shard counts under test; the first (one shard) is the reference.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Worker counts under test; the first (sequential) is the reference.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn arb_ontology(rng: &mut Rng) -> Ontology {
    let n = rng.gen_range(2..14u32);
    let mut o = Ontology::new();
    let mut ids: Vec<ClassId> = Vec::new();
    for i in 0..n {
        let parents: Vec<ClassId> = match ids.len() {
            0 => Vec::new(),
            have => {
                let count = rng.gen_range(0..3usize).min(have);
                let mut p: Vec<ClassId> =
                    (0..count).map(|_| ids[rng.gen_range(0..have as u64) as usize]).collect();
                p.sort_unstable_by_key(|c| c.0);
                p.dedup();
                p
            }
        };
        ids.push(o.class(&format!("C{i}"), &parents));
    }
    o
}

fn arb_concept(rng: &mut Rng, ontology_len: u32) -> ClassId {
    ClassId(rng.gen_range(0..u64::from(ontology_len + GHOST_CONCEPTS)) as u32)
}

fn arb_template(rng: &mut Rng) -> DescriptionTemplate {
    let name = (rng.gen_range(0..3u32) == 0).then(|| format!("n{}", rng.gen_range(0..3u32)));
    let type_uri = (rng.gen_range(0..2u32) == 0).then(|| format!("urn:t{}", rng.gen_range(0..3u32)));
    let attrs = gen::vec_of(rng, 0, 2, |r| {
        (format!("k{}", r.gen_range(0..2u32)), format!("v{}", r.gen_range(0..2u32)))
    });
    DescriptionTemplate { name, type_uri, attrs }
}

fn arb_description(rng: &mut Rng, ontology_len: u32) -> Description {
    match rng.gen_range(0..3u32) {
        0 => Description::Uri(format!("urn:u{}", rng.gen_range(0..5u32))),
        1 => Description::Template(arb_template(rng)),
        _ => {
            let category = arb_concept(rng, ontology_len);
            let outputs = gen::vec_of(rng, 0, 3, |r| arb_concept(r, ontology_len));
            let inputs = gen::vec_of(rng, 0, 2, |r| arb_concept(r, ontology_len));
            Description::Semantic(
                ServiceProfile::new(format!("svc{}", rng.gen_range(0..100u32)), category)
                    .with_outputs(&outputs)
                    .with_inputs(&inputs),
            )
        }
    }
}

fn arb_payload(rng: &mut Rng, ontology_len: u32) -> QueryPayload {
    match rng.gen_range(0..3u32) {
        0 => QueryPayload::Uri(format!("urn:u{}", rng.gen_range(0..5u32))),
        1 => QueryPayload::Template(arb_template(rng)),
        _ => {
            let category =
                (rng.gen_range(0..2u32) == 0).then(|| arb_concept(rng, ontology_len));
            let outputs = gen::vec_of(rng, 0, 2, |r| arb_concept(r, ontology_len));
            let provided_inputs = gen::vec_of(rng, 0, 2, |r| arb_concept(r, ontology_len));
            QueryPayload::Semantic(ServiceRequest {
                category,
                outputs,
                provided_inputs,
                qos: Vec::new(),
            })
        }
    }
}

#[derive(Debug)]
enum Op {
    Publish { id: u128, version: u32, lease_ms: u64, from_provider: bool },
    Renew { id: u128 },
    Remove { id: u128 },
    Purge,
    Query { max: Option<u16> },
}

fn arb_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..8u32) {
        0 | 1 | 2 => Op::Publish {
            id: u128::from(rng.gen_range(0..12u64)),
            version: rng.gen_range(0..3u32),
            lease_ms: rng.gen_range(1..300u64),
            from_provider: rng.gen_range(0..2u32) == 0,
        },
        3 => Op::Renew { id: u128::from(rng.gen_range(0..12u64)) },
        4 => Op::Remove { id: u128::from(rng.gen_range(0..12u64)) },
        5 => Op::Purge,
        _ => Op::Query {
            max: (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..4u64) as u16),
        },
    }
}

fn sharded_engine(shards: usize, idx: &Arc<SubsumptionIndex>) -> ShardedEngine {
    let mut e = ShardedEngine::new(
        LeasePolicy { default_ms: 50, max_ms: 100_000, leasing_enabled: true },
        shards,
        Some(idx),
    );
    e.register_evaluator(Box::new(UriEvaluator));
    e.register_evaluator(Box::new(TemplateEvaluator));
    e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
    e
}

#[test]
fn sharded_engine_matches_unsharded_at_every_shard_count() {
    Checker::new("sharded_engine_matches_unsharded_at_every_shard_count").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));

        let mut engines: Vec<ShardedEngine> =
            SHARD_COUNTS.iter().map(|&n| sharded_engine(n, &idx)).collect();

        let ops = gen::vec_of(rng, 1, 60, arb_op);
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            now += rng.gen_range(0..40u64);
            let (reference, sharded) = engines.split_first_mut().expect("counts nonempty");
            match op {
                Op::Publish { id, version, lease_ms, from_provider } => {
                    let advert = Advertisement {
                        id: Uuid(id),
                        provider: NodeId(id as u32),
                        description: arb_description(rng, ontology_len),
                        version,
                    };
                    let source = if from_provider { NodeId(id as u32) } else { NodeId(999) };
                    let want = reference.publish(advert.clone(), source, now, lease_ms);
                    for (engine, &n) in sharded.iter_mut().zip(&SHARD_COUNTS[1..]) {
                        let got = engine.publish(advert.clone(), source, now, lease_ms);
                        assert_eq!(got, want, "publish outcome diverged at {n} shards, t={now}");
                    }
                }
                Op::Renew { id } => {
                    let want = reference.renew(Uuid(id), now);
                    for (engine, &n) in sharded.iter_mut().zip(&SHARD_COUNTS[1..]) {
                        let got = engine.renew(Uuid(id), now);
                        assert_eq!(got, want, "renew grant diverged at {n} shards, t={now}");
                    }
                }
                Op::Remove { id } => {
                    let want = reference.remove(Uuid(id));
                    for (engine, &n) in sharded.iter_mut().zip(&SHARD_COUNTS[1..]) {
                        assert_eq!(engine.remove(Uuid(id)), want, "remove diverged at {n} shards");
                    }
                }
                Op::Purge => {
                    let want = reference.purge(now);
                    for (engine, &n) in sharded.iter_mut().zip(&SHARD_COUNTS[1..]) {
                        let got = engine.purge(now);
                        assert_eq!(got, want, "purge order diverged at {n} shards, t={now}");
                    }
                }
                Op::Query { max } => {
                    seq += 1;
                    let query = QueryMessage {
                        id: QueryId { origin: NodeId(99), seq },
                        payload: arb_payload(rng, ontology_len),
                        max_responses: max,
                        ttl: 0,
                        reply_to: None,
                    };
                    // The oracle shares nothing with the path under test but
                    // the evaluator: no index, no routing, no top-k heap.
                    // Every shard count answers to it, one shard included.
                    let want = reference.naive_evaluate(&query, now);
                    for (engine, &n) in engines.iter().zip(&SHARD_COUNTS) {
                        let got = engine.evaluate(&query, now);
                        assert_eq!(
                            got, want,
                            "ranked hits diverged from the linear scan at {n} shards for {:?} \
                             at t={now}",
                            query.payload
                        );
                    }
                }
            }
            let (reference, sharded) = engines.split_first_mut().expect("counts nonempty");
            let want = reference.summary(now);
            let want_len = reference.store().len();
            for (engine, &n) in sharded.iter_mut().zip(&SHARD_COUNTS[1..]) {
                assert_eq!(engine.summary(now), want, "summary diverged at {n} shards, t={now}");
                assert_eq!(engine.store().len(), want_len, "store size diverged at {n} shards");
            }
        }
    });
}

/// Publish equality is structural, never pointer identity: sharing adverts
/// behind `SharedAdvert` must not tempt anyone to compare allocations. An
/// equal advert arriving in a fresh allocation (a decoded retransmission) is
/// `Unchanged`, also when only the stored copy has its wire segment
/// written; a same-version advert with different content is `Updated`.
#[test]
fn publish_compares_content_not_allocations() {
    Checker::new("publish_compares_content_not_allocations").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let advert = Advertisement {
            id: Uuid(1),
            provider: NodeId(1),
            description: arb_description(rng, ontology_len),
            version: rng.gen_range(0..3u32),
        };
        let changed = loop {
            let description = arb_description(rng, ontology_len);
            if description != advert.description {
                break Advertisement { description, ..advert.clone() };
            }
        };
        for &n in &SHARD_COUNTS {
            let mut engine = sharded_engine(n, &idx);
            let (first, twin) =
                (SharedAdvert::from(advert.clone()), SharedAdvert::from(advert.clone()));
            assert!(!SharedAdvert::ptr_eq(&first, &twin));
            let outcome = |e: &mut ShardedEngine, a: SharedAdvert, now| {
                e.publish(a, NodeId(1), now, 100).0
            };
            assert_eq!(outcome(&mut engine, first.clone(), 0), PublishOutcome::New);
            // Sent on: `first` now carries its wire segment, `twin` does not.
            codec::encode(&DiscoveryMessage::publishing(PublishOp::Publish {
                advert: first.clone(),
                lease_ms: 100,
            }));
            assert_eq!(outcome(&mut engine, first, 1), PublishOutcome::Unchanged);
            assert_eq!(outcome(&mut engine, twin, 2), PublishOutcome::Unchanged, "{n} shards");
            let changed = SharedAdvert::from(changed.clone());
            assert_eq!(outcome(&mut engine, changed, 3), PublishOutcome::Updated, "{n} shards");
        }
    });
}

#[test]
fn batched_evaluation_coalesces_without_changing_results() {
    Checker::new("batched_evaluation_coalesces_without_changing_results").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let mut engine = sharded_engine(rng.gen_range(1..9u64) as usize, &idx);

        let adverts = rng.gen_range(0..16u64);
        for i in 0..adverts {
            let advert = Advertisement {
                id: Uuid(u128::from(i)),
                provider: NodeId(i as u32),
                description: arb_description(rng, ontology_len),
                version: 1,
            };
            engine.publish(advert, NodeId(1), 0, rng.gen_range(1..300u64));
        }
        let now = rng.gen_range(0..200u64);

        // A burst with deliberate duplicates: a few distinct payloads, many
        // queries drawing from them.
        let distinct: Vec<(QueryPayload, Option<u16>)> = (0..rng.gen_range(1..5u64))
            .map(|_| {
                let payload = arb_payload(rng, ontology_len);
                let max = (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..4u64) as u16);
                (payload, max)
            })
            .collect();
        let queries: Vec<QueryMessage> = (0..rng.gen_range(1..20u64))
            .map(|seq| {
                let (payload, max) = &distinct[rng.gen_range(0..distinct.len() as u64) as usize];
                QueryMessage {
                    id: QueryId { origin: NodeId(7), seq },
                    payload: payload.clone(),
                    max_responses: *max,
                    ttl: 0,
                    reply_to: None,
                }
            })
            .collect();

        let batch = engine.evaluate_batch(&queries, now);
        assert_eq!(batch.len(), queries.len(), "one result per input, in order");
        for (q, hits) in queries.iter().zip(batch.iter()) {
            assert_eq!(
                hits,
                &engine.evaluate(q, now)[..],
                "batched result diverged from a lone evaluation for {:?}",
                q.payload
            );
        }
        // Coalescing: N identical in-flight queries cost one evaluation.
        let mut keys: Vec<_> = queries
            .iter()
            .map(|q| cache_key(&q.payload, q.max_responses))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            batch.unique_evaluations(),
            keys.len(),
            "evaluations must equal distinct (payload, cap) pairs"
        );
    });
}

#[test]
fn parallel_data_plane_matches_sequential_at_every_worker_count() {
    // The worker-count unobservability contract (DESIGN §16): the same op
    // sequence driven through engines differing only in `set_workers` must
    // produce byte-identical outcomes, grants, purge sets, ranked hits,
    // batch results, and summaries. Shard counts vary per case so the
    // parallel paths (broadcast fan-out, per-shard batch queues) all fire.
    Checker::new("parallel_data_plane_matches_sequential_at_every_worker_count").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let counts = WORKER_COUNTS;
        let shards = rng.gen_range(1..9u64) as usize;
        let mut engines: Vec<ShardedEngine> = counts
            .iter()
            .map(|&w| {
                let mut e = sharded_engine(shards, &idx);
                e.set_workers(w);
                e
            })
            .collect();

        let ops = gen::vec_of(rng, 1, 60, arb_op);
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            now += rng.gen_range(0..40u64);
            match op {
                Op::Publish { id, version, lease_ms, from_provider } => {
                    let advert = Advertisement {
                        id: Uuid(id),
                        provider: NodeId(id as u32),
                        description: arb_description(rng, ontology_len),
                        version,
                    };
                    let source = if from_provider { NodeId(id as u32) } else { NodeId(999) };
                    let (reference, rest) = engines.split_first_mut().expect("counts nonempty");
                    let want = reference.publish(advert.clone(), source, now, lease_ms);
                    for (engine, &w) in rest.iter_mut().zip(&counts[1..]) {
                        let got = engine.publish(advert.clone(), source, now, lease_ms);
                        assert_eq!(got, want, "publish outcome diverged at {w} workers, t={now}");
                    }
                }
                Op::Renew { id } => {
                    let (reference, rest) = engines.split_first_mut().expect("counts nonempty");
                    let want = reference.renew(Uuid(id), now);
                    for (engine, &w) in rest.iter_mut().zip(&counts[1..]) {
                        assert_eq!(
                            engine.renew(Uuid(id), now),
                            want,
                            "renew grant diverged at {w} workers, t={now}"
                        );
                    }
                }
                Op::Remove { id } => {
                    let (reference, rest) = engines.split_first_mut().expect("counts nonempty");
                    let want = reference.remove(Uuid(id));
                    for (engine, &w) in rest.iter_mut().zip(&counts[1..]) {
                        assert_eq!(engine.remove(Uuid(id)), want, "remove diverged at {w} workers");
                    }
                }
                Op::Purge => {
                    let (reference, rest) = engines.split_first_mut().expect("counts nonempty");
                    let want = reference.purge(now);
                    for (engine, &w) in rest.iter_mut().zip(&counts[1..]) {
                        assert_eq!(
                            engine.purge(now),
                            want,
                            "purge set diverged at {w} workers, t={now}"
                        );
                    }
                }
                Op::Query { max } => {
                    // Drive both read paths: a lone evaluation and a small
                    // burst with duplicates through evaluate_batch.
                    seq += 1;
                    let query = QueryMessage {
                        id: QueryId { origin: NodeId(99), seq },
                        payload: arb_payload(rng, ontology_len),
                        max_responses: max,
                        ttl: 0,
                        reply_to: None,
                    };
                    let mut batch_queries = vec![query.clone(); 3];
                    batch_queries.push(QueryMessage {
                        id: QueryId { origin: NodeId(99), seq },
                        payload: arb_payload(rng, ontology_len),
                        max_responses: max,
                        ttl: 0,
                        reply_to: None,
                    });
                    let want = engines[0].evaluate(&query, now);
                    let want_batch = engines[0].evaluate_batch(&batch_queries, now);
                    for (engine, &w) in engines.iter().zip(&counts).skip(1) {
                        assert_eq!(
                            engine.evaluate(&query, now),
                            want,
                            "ranked hits diverged at {w} workers for {:?}, t={now}",
                            query.payload
                        );
                        let got = engine.evaluate_batch(&batch_queries, now);
                        assert_eq!(
                            got.unique_hits, want_batch.unique_hits,
                            "batch unique hits diverged at {w} workers, t={now}"
                        );
                        assert_eq!(
                            got.slot_of, want_batch.slot_of,
                            "batch slot mapping diverged at {w} workers, t={now}"
                        );
                    }
                }
            }
            let (reference, rest) = engines.split_first_mut().expect("counts nonempty");
            let want = reference.summary(now);
            for (engine, &w) in rest.iter_mut().zip(&counts[1..]) {
                assert_eq!(engine.summary(now), want, "summary diverged at {w} workers, t={now}");
            }
        }
    });
}

#[test]
fn cache_served_bytes_always_match_a_fresh_evaluation() {
    // Drives a cache exactly the way `RegistryNode` does — lookup before
    // evaluation, `evaluate_with_validity` on miss, the same invalidation
    // rules on publish/renew/remove — and checks every served result against
    // a fresh evaluation, across lease expiry, resurrection, and updates.
    Checker::new("cache_served_bytes_always_match_a_fresh_evaluation").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let mut engine = sharded_engine(rng.gen_range(1..9u64) as usize, &idx);
        let mut cache = QueryCache::new(rng.gen_range(1..32u64) as usize);

        let ops = gen::vec_of(rng, 1, 60, arb_op);
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            now += rng.gen_range(0..40u64);
            match op {
                Op::Publish { id, version, lease_ms, from_provider } => {
                    let advert = Advertisement {
                        id: Uuid(id),
                        provider: NodeId(id as u32),
                        description: arb_description(rng, ontology_len),
                        version,
                    };
                    let source = if from_provider { NodeId(id as u32) } else { NodeId(999) };
                    let before = engine
                        .store()
                        .get(&advert.id)
                        .map(|s| (s.advert.clone(), s.is_live(now)));
                    let (outcome, _) = engine.publish(advert.clone(), source, now, lease_ms);
                    match (outcome, &before) {
                        (PublishOutcome::New, _) => {
                            cache.invalidate_for_advert(&advert, Some(&idx));
                        }
                        (PublishOutcome::Updated, Some((old, _))) => {
                            cache.invalidate_for_advert(old, Some(&idx));
                            cache.invalidate_for_advert(&advert, Some(&idx));
                        }
                        (PublishOutcome::Updated, None) => {
                            cache.invalidate_for_advert(&advert, Some(&idx));
                        }
                        (PublishOutcome::Unchanged, Some((_, false))) => {
                            cache.invalidate_for_advert(&advert, Some(&idx));
                        }
                        (PublishOutcome::StaleVersion, Some((old, false))) => {
                            if engine.store().get(&advert.id).is_some_and(|s| s.is_live(now)) {
                                cache.invalidate_for_advert(old, Some(&idx));
                            }
                        }
                        _ => {}
                    }
                }
                Op::Renew { id } => {
                    let revived = engine
                        .store()
                        .get(&Uuid(id))
                        .and_then(|s| (!s.is_live(now)).then(|| s.advert.clone()));
                    let (known, _) = engine.renew(Uuid(id), now);
                    if known {
                        if let Some(advert) = revived {
                            cache.invalidate_for_advert(&advert, Some(&idx));
                        }
                    }
                }
                Op::Remove { id } => {
                    let removed = engine
                        .store()
                        .get(&Uuid(id))
                        .and_then(|s| s.is_live(now).then(|| s.advert.clone()));
                    engine.remove(Uuid(id));
                    if let Some(advert) = removed {
                        cache.invalidate_for_advert(&advert, Some(&idx));
                    }
                }
                Op::Purge => {
                    // Expiry needs no invalidation: validity already ends at
                    // the earliest returned lease.
                    engine.purge(now);
                }
                Op::Query { max } => {
                    seq += 1;
                    let query = QueryMessage {
                        id: QueryId { origin: NodeId(99), seq },
                        payload: arb_payload(rng, ontology_len),
                        max_responses: max,
                        ttl: 0,
                        reply_to: None,
                    };
                    let fresh = engine.evaluate(&query, now);
                    let key = cache_key(&query.payload, query.max_responses);
                    if let Some(cached) = cache.get(&key, now) {
                        assert_eq!(
                            cached,
                            &fresh[..],
                            "cache served stale bytes for {:?} at t={now}",
                            query.payload
                        );
                    } else {
                        let (hits, valid_until) = engine.evaluate_with_validity(&query, now);
                        assert_eq!(hits, fresh);
                        cache.insert(key, &query.payload, hits, valid_until, now);
                    }
                }
            }
        }
    });
}
