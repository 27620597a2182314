//! Q1 — Indexed query evaluation vs store size (registry indexing).
//!
//! The paper's conceptual registry must answer subsumption queries over
//! dynamic advert populations; a naive registry re-runs the matchmaker
//! against every stored advert per query, so evaluation cost grows linearly
//! with the store. The indexed store prunes to the postings of the requested
//! concept's related set (ancestors ∪ descendants) — or an exact bucket for
//! URI/template queries — before confirming candidates with the full
//! matchmaker, which is sublinear whenever queries are selective.
//!
//! This binary measures both paths on the same engine at store sizes
//! 10²–10⁵ for all three description models (timed by the shared harness)
//! and prints the EXPERIMENTS-style table. Selective workload: URI queries
//! probe one exact URI; template queries one of 64 type URIs; semantic
//! queries ask for a mid-level category covering 1/256 of the leaf classes
//! of a 1364-class parametric taxonomy.

use std::sync::Arc;

use sds_bench::harness::Harness;
use sds_bench::{f2, Table};
use sds_protocol::{
    Advertisement, Description, DescriptionTemplate, ModelId, QueryId, QueryMessage, QueryPayload,
    Uuid,
};
use sds_rand::Rng;
use sds_registry::{
    LeasePolicy, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;
use sds_workload::parametric;

/// Distinct template type URIs: a template query for one type matches ~n/64
/// of the store.
const TEMPLATE_TYPES: u32 = 64;

/// The taxonomy every semantic advert draws its category from: 4 roots ×
/// branching 4 × depth 4 = 1364 classes, 1024 of them leaves.
fn taxonomy() -> (Ontology, Vec<ClassId>, ClassId) {
    let ont = parametric(4, 4, 4);
    let leaves: Vec<ClassId> =
        (ont.len() - 1024..ont.len()).map(|i| ClassId(i as u32)).collect();
    // A level-2 class: 4 leaf descendants of 1024 → 1/256 of the store.
    let query_category = ont.lookup("C2_0_0").expect("level-2 class exists");
    (ont, leaves, query_category)
}

fn advert(model: ModelId, i: usize, leaves: &[ClassId], rng: &mut Rng) -> Advertisement {
    let description = match model {
        ModelId::Uri => Description::Uri(format!("urn:svc:q1-{i}")),
        ModelId::Template => Description::Template(DescriptionTemplate {
            name: Some(format!("svc{i}")),
            type_uri: Some(format!("urn:type:{}", rng.gen_range(0..TEMPLATE_TYPES))),
            attrs: Vec::new(),
        }),
        ModelId::Semantic => {
            let cat = leaves[rng.gen_range(0..leaves.len() as u64) as usize];
            let out = leaves[rng.gen_range(0..leaves.len() as u64) as usize];
            Description::Semantic(
                ServiceProfile::new(format!("svc{i}"), cat).with_outputs(&[out]),
            )
        }
    };
    Advertisement { id: Uuid(i as u128 + 1), provider: NodeId(i as u32), description, version: 1 }
}

/// The selective query for `model` against a store of `n` adverts.
fn query(model: ModelId, n: usize, query_category: ClassId) -> QueryMessage {
    let payload = match model {
        ModelId::Uri => QueryPayload::Uri(format!("urn:svc:q1-{}", n / 2)),
        ModelId::Template => QueryPayload::Template(DescriptionTemplate {
            type_uri: Some("urn:type:0".into()),
            ..Default::default()
        }),
        ModelId::Semantic => QueryPayload::Semantic(ServiceRequest::for_category(query_category)),
    };
    // Clients cap responses in every deployed configuration (E2: response
    // implosion), so the benchmarked query does too; this also exercises the
    // bounded top-k selection path.
    QueryMessage {
        id: QueryId { origin: NodeId(0), seq: 1 },
        payload,
        max_responses: Some(32),
        ttl: 0,
        reply_to: None,
    }
}

fn engine_with(n: usize, model: ModelId, leaves: &[ClassId], idx: Arc<SubsumptionIndex>) -> ShardedEngine {
    let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
    engine.register_evaluator(Box::new(UriEvaluator));
    engine.register_evaluator(Box::new(TemplateEvaluator));
    engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
    let mut rng = Rng::seed_from_u64(0x51_5EED ^ n as u64);
    for i in 0..n {
        engine.publish(advert(model, i, leaves, &mut rng), NodeId(0), 0, 1_000_000);
    }
    engine
}

fn main() {
    let (ont, leaves, query_category) = taxonomy();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let quick = std::env::var_os("SDS_BENCH_QUICK").is_some();
    let sizes: &[usize] =
        if quick { &[100, 1_000] } else { &[100, 1_000, 10_000, 100_000] };

    // Building the stores (up to 3 × 10⁵ publishes) dominates setup and
    // each store is independent, so construction fans out across cores;
    // the timed measurements below stay strictly sequential so medians are
    // never polluted by sibling threads.
    let cases: Vec<(ModelId, usize)> = [ModelId::Uri, ModelId::Template, ModelId::Semantic]
        .into_iter()
        .flat_map(|m| sizes.iter().map(move |&n| (m, n)))
        .collect();
    let engines = sds_bench::parallel::map(&cases, |_, &(model, n)| {
        engine_with(n, model, &leaves, Arc::clone(&idx))
    });

    let mut h = Harness::from_args();
    let mut table =
        Table::new(&["model", "store size", "matches", "indexed µs", "naive µs", "speedup"]);
    let mut speedup_at_max = Vec::new();

    for model in [ModelId::Uri, ModelId::Template, ModelId::Semantic] {
        let mut g = h.group(&format!("q1/{}", format!("{model:?}").to_lowercase()));
        for &n in sizes {
            let engine = &engines[cases
                .iter()
                .position(|&(m, s)| m == model && s == n)
                .expect("every (model, size) case was built")];
            let q = query(model, n, query_category);
            assert_eq!(
                engine.evaluate(&q, 1),
                engine.naive_evaluate(&q, 1),
                "paths agree"
            );
            // Full (uncapped) match count, the table's selectivity column.
            let uncapped = QueryMessage { max_responses: None, ..q.clone() };
            let hits = engine.evaluate(&uncapped, 1).len();

            let indexed = g.bench(&format!("{n}/indexed"), |b| {
                b.iter(|| engine.evaluate(&q, 1))
            });
            let naive = g.bench(&format!("{n}/naive"), |b| {
                b.iter(|| engine.naive_evaluate(&q, 1))
            });
            let (Some(indexed), Some(naive)) = (indexed, naive) else { continue };
            let speedup = naive.median / indexed.median;
            if n == *sizes.last().unwrap() {
                speedup_at_max.push((model, speedup));
            }
            table.row(&[
                format!("{model:?}"),
                n.to_string(),
                hits.to_string(),
                f2(indexed.median * 1e6),
                f2(naive.median * 1e6),
                format!("{speedup:.1}x"),
            ]);
        }
    }

    table.print("Q1: indexed vs naive query evaluation by model and store size");
    for (model, speedup) in &speedup_at_max {
        println!(
            "{model:?} at {} adverts: {speedup:.1}x {}",
            sizes.last().unwrap(),
            if *speedup >= 10.0 { "(>=10x: index pays for itself)" } else { "(below 10x)" },
        );
    }
    println!(
        "\nExpectation: naive cost grows ~linearly with the store; indexed cost\n\
         tracks the candidate set (hits plus confirmations), so the gap widens\n\
         with scale."
    );
    h.finish();
}
