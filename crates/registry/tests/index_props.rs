//! Equivalence properties for the indexed query path: on randomized stores
//! (random taxonomies, mixed description models, expired leases, removals,
//! renewals, out-of-ontology ClassIds straight "from the wire"), the
//! candidate-generation `evaluate` must return exactly the ranked hit vector
//! of the naive full scan — same hit set, same tie-break order — and
//! `summary` must agree with a from-scratch recount. Both run on the engine
//! at one shard, i.e. the unsharded registry (`shard_props` carries the same
//! oracle across shard counts). Run under the in-workspace seeded harness
//! (`sds_rand::check`).

use std::sync::Arc;

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;

use sds_protocol::{
    Advertisement, Description, DescriptionTemplate, ModelId, QueryId, QueryMessage, QueryPayload,
    Uuid,
};
use sds_registry::{
    LeasePolicy, RegistrySummary, SemanticEvaluator, ShardedEngine, TemplateEvaluator,
    UriEvaluator,
};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;

/// How many ids beyond the ontology count as "wire garbage": concepts that
/// decode fine but name nothing this registry can reason about.
const GHOST_CONCEPTS: u32 = 3;

/// A random multi-rooted DAG taxonomy: each class picks 0–2 parents among
/// its predecessors (0 parents = another root).
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

/// A concept id, sometimes outside the ontology (the wire accepts any u32).
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
    Publish { id: u128, version: u32, lease_ms: u64 },
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
        },
        3 => Op::Renew { id: u128::from(rng.gen_range(0..12u64)) },
        4 => Op::Remove { id: u128::from(rng.gen_range(0..12u64)) },
        5 => Op::Purge,
        _ => Op::Query {
            max: (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..4u64) as u16),
        },
    }
}

/// Recomputes the summary by scanning the live adverts, the pre-index way.
fn naive_summary(engine: &ShardedEngine, now: u64) -> RegistrySummary {
    let mut models: Vec<ModelId> = Vec::new();
    let mut count = 0u32;
    for a in engine.store().live(now) {
        count += 1;
        let m = a.advert.description.model();
        if !models.contains(&m) {
            models.push(m);
        }
    }
    models.sort_by_key(|m| m.wire_tag());
    RegistrySummary { advert_count: count, models }
}

#[test]
fn indexed_evaluate_equals_naive_full_scan() {
    Checker::new("indexed_evaluate_equals_naive_full_scan").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));

        let mut engine = ShardedEngine::new(
            LeasePolicy { default_ms: 50, max_ms: 100_000, leasing_enabled: true },
            1,
            Some(&idx),
        );
        engine.register_evaluator(Box::new(UriEvaluator));
        engine.register_evaluator(Box::new(TemplateEvaluator));
        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));

        let ops = gen::vec_of(rng, 1, 60, arb_op);
        let mut now = 0u64;
        let mut seq = 0u64;
        for op in ops {
            // Time moves forward unevenly so leases straddle queries: some
            // adverts are live, some expired-but-unpurged, some purged.
            now += rng.gen_range(0..40u64);
            match op {
                Op::Publish { id, version, lease_ms } => {
                    let advert = Advertisement {
                        id: Uuid(id),
                        provider: NodeId(id as u32),
                        description: arb_description(rng, ontology_len),
                        version,
                    };
                    engine.publish(advert, NodeId(1), now, lease_ms);
                }
                Op::Renew { id } => {
                    engine.renew(Uuid(id), now);
                }
                Op::Remove { id } => {
                    engine.remove(Uuid(id));
                }
                Op::Purge => {
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
                    let indexed = engine.evaluate(&query, now);
                    let naive = engine.naive_evaluate(&query, now);
                    assert_eq!(
                        indexed, naive,
                        "indexed and naive evaluation diverged for {:?} at t={now}",
                        query.payload
                    );
                }
            }
            let expected_summary = naive_summary(&engine, now);
            assert_eq!(engine.summary(now), expected_summary, "summary diverged at t={now}");
        }
    });
}

#[test]
fn unlimited_queries_return_every_live_match() {
    // With no response cap and a category-free, output-free request, the
    // indexed path must still see every live semantic advert.
    Checker::new("unlimited_queries_return_every_live_match").run(|rng| {
        let ontology = arb_ontology(rng);
        let ontology_len = ontology.len() as u32;
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));

        let n = rng.gen_range(0..20u64);
        for i in 0..n {
            let advert = Advertisement {
                id: Uuid(u128::from(i)),
                provider: NodeId(i as u32),
                description: Description::Semantic(ServiceProfile::new(
                    format!("s{i}"),
                    arb_concept(rng, ontology_len),
                )),
                version: 1,
            };
            engine.publish(advert, NodeId(1), 0, 60_000);
        }
        let query = QueryMessage {
            id: QueryId { origin: NodeId(9), seq: 1 },
            payload: QueryPayload::Semantic(ServiceRequest::default()),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        };
        let hits = engine.evaluate(&query, 1);
        assert_eq!(hits.len() as u64, n, "empty request matches everything live");
        assert_eq!(hits, engine.naive_evaluate(&query, 1));
    });
}
