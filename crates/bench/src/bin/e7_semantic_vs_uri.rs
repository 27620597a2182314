//! E7 — Description-model expressivity vs evaluation cost (paper §2, §4.2).
//!
//! Claims under test: (a) "by using semantics we can enhance service
//! descriptions, reduce ambiguity and enable dynamic service usage" — i.e.
//! subsumption queries (give me any *SurveillanceService*) are answerable
//! only by the semantic model; (b) "it can become more costly to evaluate
//! queries, since reasoning about service descriptions may be necessary."
//!
//! Part 1 runs the same workload shape under each description model in a
//! live deployment and reports recall. Part 2 micro-times raw registry
//! evaluation per model over a large store.

use std::sync::Arc;
use std::time::Instant;

use sds_bench::{f2, Table};
use sds_core::{ClientNode, QueryOptions};
use sds_protocol::{
    Advertisement, Description, DescriptionTemplate, ModelId, QueryId, QueryMessage, QueryPayload,
    Uuid,
};
use sds_registry::{LeasePolicy, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator};
use sds_semantic::SubsumptionIndex;
use sds_semantic::{ServiceRequest};
use sds_simnet::{secs, NodeId};
use sds_workload::{battlefield, Deployment, PopulationSpec, Scenario, ScenarioConfig, Workload};

/// The fixed information need: "any SurveillanceService". Deploys the same
/// service population described in `model`, issues the need expressed as
/// well as that model allows, and reports recall against the true set of
/// surveillance providers. `enumerate` lets the URI/template client issue
/// one exact query per known leaf subtype instead (complete taxonomy
/// knowledge assumed).
fn need_recall(model: ModelId, enumerate: bool, seed: u64) -> (usize, f64) {
    let mut s = Scenario::build(ScenarioConfig {
        lans: 2,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec { model, services: 30, queries: 1, generalization_rate: 0.0, seed },
        seed,
        ..Default::default()
    });
    s.sim.run_until(secs(4));
    let c = s.classes;

    // Ground truth: providers whose category is subsumed by Surveillance.
    let category_of = |d: &Description| match d {
        Description::Uri(u) => s.ontology.lookup(u.trim_start_matches("urn:svc:")),
        Description::Template(t) => t
            .type_uri
            .as_deref()
            .and_then(|u| s.ontology.lookup(u.trim_start_matches("urn:svc:"))),
        Description::Semantic(p) => Some(p.category),
    };
    let expected: Vec<NodeId> = s
        .services
        .iter()
        .filter(|(_, d)| {
            category_of(d).is_some_and(|cat| s.idx.is_subclass(cat, c.surveillance))
        })
        .map(|(n, _)| *n)
        .collect();

    let payloads: Vec<QueryPayload> = match (model, enumerate) {
        (ModelId::Semantic, _) => {
            vec![QueryPayload::Semantic(
                ServiceRequest::for_category(c.surveillance)
                    .with_provided_inputs(&[c.area_of_interest, c.unit_id]),
            )]
        }
        (ModelId::Uri, false) => vec![QueryPayload::Uri("urn:svc:SurveillanceService".into())],
        (ModelId::Uri, true) => vec![
            QueryPayload::Uri("urn:svc:RadarService".into()),
            QueryPayload::Uri("urn:svc:SonarService".into()),
        ],
        (ModelId::Template, false) => vec![QueryPayload::Template(DescriptionTemplate {
            type_uri: Some("urn:svc:SurveillanceService".into()),
            ..Default::default()
        })],
        (ModelId::Template, true) => vec![
            QueryPayload::Template(DescriptionTemplate {
                type_uri: Some("urn:svc:RadarService".into()),
                ..Default::default()
            }),
            QueryPayload::Template(DescriptionTemplate {
                type_uri: Some("urn:svc:SonarService".into()),
                ..Default::default()
            }),
        ],
    };

    let n_queries = payloads.len();
    let client = s.clients[0];
    for payload in payloads {
        s.sim.with_node::<ClientNode>(client, |cl, ctx| {
            cl.issue_query(ctx, payload, QueryOptions { timeout: secs(2), ..Default::default() });
        });
        let until = s.sim.now() + secs(3);
        s.sim.run_until(until);
    }
    let got: Vec<NodeId> = s
        .sim
        .handler::<ClientNode>(client)
        .unwrap()
        .completed
        .iter()
        .flat_map(|q| q.hits.iter().map(|h| h.advert.provider))
        .collect();
    (n_queries, sds_metrics::recall(&expected, &got))
}

/// Mean evaluation time (µs) per query over a store of `n` adverts.
fn eval_cost(model: ModelId, n: usize, seed: u64) -> f64 {
    let (ont, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let spec = PopulationSpec {
        model,
        services: n,
        queries: 64,
        generalization_rate: 0.5,
        seed,
    };
    let w = Workload::generate(&ont, &classes, &spec);

    let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
    engine.register_evaluator(Box::new(UriEvaluator));
    engine.register_evaluator(Box::new(TemplateEvaluator));
    engine.register_evaluator(Box::new(SemanticEvaluator::new(idx)));
    for (i, d) in w.descriptions.iter().enumerate() {
        let advert = Advertisement {
            id: Uuid(i as u128 + 1),
            provider: NodeId(0),
            description: d.clone(),
            version: 1,
        };
        engine.publish(advert, NodeId(0), 0, 1_000_000);
    }

    let queries: Vec<QueryMessage> = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, p)| QueryMessage {
            id: QueryId { origin: NodeId(1), seq: i as u64 },
            payload: p.clone(),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        })
        .collect();

    // Warm up, then time.
    for q in &queries {
        std::hint::black_box(engine.evaluate(q, 100));
    }
    let rounds = 50;
    let start = Instant::now();
    for _ in 0..rounds {
        for q in &queries {
            std::hint::black_box(engine.evaluate(q, 100));
        }
    }
    start.elapsed().as_micros() as f64 / (rounds * queries.len()) as f64
}

fn main() {
    let mut t1 = Table::new(&["model", "client knowledge", "queries", "recall"]);
    for (model, enumerate, knowledge) in [
        (ModelId::Uri, false, "parent URI only"),
        (ModelId::Uri, true, "full taxonomy"),
        (ModelId::Template, false, "parent URI only"),
        (ModelId::Template, true, "full taxonomy"),
        (ModelId::Semantic, false, "parent concept"),
    ] {
        let (n, recall) = need_recall(model, enumerate, 13);
        t1.row(&[format!("{model:?}"), knowledge.into(), n.to_string(), f2(recall)]);
    }
    t1.print("E7a: answering the need 'any SurveillanceService' per description model");

    let mut t2 = Table::new(&["model", "store size", "eval µs/query"]);
    for model in [ModelId::Uri, ModelId::Template, ModelId::Semantic] {
        for n in [100usize, 1_000, 10_000] {
            t2.row(&[format!("{model:?}"), n.to_string(), f2(eval_cost(model, n, 13))]);
        }
    }
    t2.print("E7b: query evaluation cost by model and store size");
    println!(
        "Paper expectation: URI/template matching cannot express the generalized need\n\
         (recall 0 with one query); it needs one exact query per leaf type and full\n\
         taxonomy knowledge at the client. One semantic query with subsumption gets\n\
         recall 1. The price (E7b): a constant-factor higher evaluation cost."
    );
}
