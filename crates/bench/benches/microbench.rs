//! Microbenchmarks for the hot paths of the discovery stack:
//! subsumption-closure construction, matchmaking, triple-store operations,
//! registry evaluation, wire codec, and raw simulator event throughput.
//! Runs under the in-workspace wall-clock harness (`sds_bench::harness`);
//! filter with `cargo bench -- <substring>`, smoke-run with
//! `SDS_BENCH_QUICK=1`.

use std::sync::Arc;

use sds_bench::harness::{black_box, Harness};

use sds_protocol::{
    codec, Advertisement, Description, DescriptionTemplate, DiscoveryMessage, ModelId, PublishOp,
    QueryId, QueryMessage, QueryOp, QueryPayload, ResponseHit, SharedAdvert, Uuid,
};
use sds_rand::Rng;
use sds_registry::{
    LeasePolicy, RegistryStore, SemanticEvaluator, ShardedEngine, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{
    ClassId, Degree, Interner, Matchmaker, QosKey, ServiceProfile, ServiceRequest,
    SubsumptionIndex, Triple, TriplePattern, TripleStore,
};
use sds_simnet::{Ctx, Destination, NodeHandler, NodeId, Sim, SimConfig, Topology};
use sds_workload::{battlefield, parametric, PopulationSpec, Workload};

fn bench_subsumption(h: &mut Harness) {
    let mut g = h.group("subsumption");
    for (roots, branching, depth) in [(2usize, 3usize, 4usize), (4, 4, 5)] {
        let ont = parametric(roots, branching, depth);
        g.bench(&format!("closure_build/{}classes", ont.len()), |b| {
            b.iter(|| SubsumptionIndex::build(black_box(&ont)))
        });
        let idx = SubsumptionIndex::build(&ont);
        let classes: Vec<_> = ont.classes().collect();
        let mut i = 0usize;
        g.bench(&format!("is_subclass/{}classes", ont.len()), |b| {
            b.iter(|| {
                i = (i + 1) % classes.len();
                black_box(idx.is_subclass(classes[i], classes[i / 2]))
            })
        });
    }
}

fn bench_matchmaker(h: &mut Harness) {
    let (ont, classes) = battlefield();
    let idx = SubsumptionIndex::build(&ont);
    let mm = Matchmaker::new(&idx);
    let mut g = h.group("matchmaker");
    for n in [100usize, 1_000] {
        let w = Workload::generate(
            &ont,
            &classes,
            &PopulationSpec {
                model: ModelId::Semantic,
                services: n,
                queries: 1,
                generalization_rate: 0.5,
                seed: 1,
            },
        );
        let profiles: Vec<_> = w
            .descriptions
            .iter()
            .map(|d| match d {
                Description::Semantic(p) => p.clone(),
                _ => unreachable!(),
            })
            .collect();
        let request = ServiceRequest::for_category(classes.surveillance)
            .with_provided_inputs(&[classes.area_of_interest, classes.unit_id]);
        g.bench(&format!("rank/{n}"), |b| {
            b.iter(|| mm.rank(black_box(&request), black_box(&profiles), Some(10)))
        });
    }
}

fn bench_triple_store(h: &mut Harness) {
    let mut g = h.group("triple_store");
    g.bench("insert_10k", |b| {
        b.iter(|| {
            let mut interner = Interner::new();
            let mut store = TripleStore::new();
            for i in 0..10_000u32 {
                let s = interner.intern(&format!("s{}", i % 500));
                let p = interner.intern(&format!("p{}", i % 7));
                let o = interner.intern(&format!("o{i}"));
                store.insert(Triple::new(s, p, o));
            }
            black_box(store.len())
        })
    });

    let mut interner = Interner::new();
    let mut store = TripleStore::new();
    for i in 0..10_000u32 {
        let s = interner.intern(&format!("s{}", i % 500));
        let p = interner.intern(&format!("p{}", i % 7));
        let o = interner.intern(&format!("o{i}"));
        store.insert(Triple::new(s, p, o));
    }
    let s0 = interner.get("s0").unwrap();
    let p0 = interner.get("p0").unwrap();
    g.bench("query_by_subject", |b| {
        b.iter(|| black_box(store.query(TriplePattern::any().with_s(s0)).count()))
    });
    g.bench("query_by_predicate", |b| {
        b.iter(|| black_box(store.query(TriplePattern::any().with_p(p0)).count()))
    });
}

fn bench_registry_evaluate(h: &mut Harness) {
    let (ont, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let mut g = h.group("registry_evaluate");
    for model in [ModelId::Uri, ModelId::Semantic] {
        let w = Workload::generate(
            &ont,
            &classes,
            &PopulationSpec { model, services: 1_000, queries: 16, generalization_rate: 0.5, seed: 2 },
        );
        let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        engine.register_evaluator(Box::new(UriEvaluator));
        engine.register_evaluator(Box::new(TemplateEvaluator));
        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
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
                max_responses: Some(10),
                ttl: 0,
                reply_to: None,
            })
            .collect();
        let mut i = 0usize;
        g.bench(&format!("evaluate_1k_store/{model:?}"), |b| {
            b.iter(|| {
                i = (i + 1) % queries.len();
                black_box(engine.evaluate(&queries[i], 100))
            })
        });
        let mut j = 0usize;
        g.bench(&format!("naive_evaluate_1k_store/{model:?}"), |b| {
            b.iter(|| {
                j = (j + 1) % queries.len();
                black_box(engine.naive_evaluate(&queries[j], 100))
            })
        });
    }

    // The same evaluate where memory matters: a 100 000-advert mixed store
    // (a third each URI, template, semantic; 1 024 leaf categories), one
    // category request per leaf in turn, so a query's ~33 candidates were
    // last touched 1 023 queries ago. This is the confirm cost the
    // benchmark's traced replay cannot see (it times the public reference
    // path).
    let ont = parametric(4, 4, 4);
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let leaves: Vec<ClassId> = (ont.len() - 1024..ont.len()).map(|i| ClassId(i as u32)).collect();
    let mut built: Option<ShardedEngine> = None;
    let build = || {
        let mut rng = Rng::seed_from_u64(0x100_000);
        let mut engine = ShardedEngine::new(LeasePolicy::default(), 1, Some(&idx));
        engine.register_evaluator(Box::new(UriEvaluator));
        engine.register_evaluator(Box::new(TemplateEvaluator));
        engine.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
        for i in 0..100_000u32 {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            let description = match i % 3 {
                0 => Description::Uri(format!("urn:svc:{i}")),
                1 => Description::Template(DescriptionTemplate {
                    name: Some(format!("svc{i}")),
                    type_uri: Some(format!("urn:type:{}", i % 64)),
                    attrs: Vec::new(),
                }),
                _ => Description::Semantic(
                    ServiceProfile::new(format!("svc{i}"), leaf)
                        .with_outputs(&[leaves[rng.gen_range(0..leaves.len())]])
                        .with_qos(QosKey::Accuracy, 0.5 + 0.5 * rng.gen_f64()),
                ),
            };
            let id = Uuid(u128::from(i) + 1);
            let advert = Advertisement { id, provider: NodeId(0), description, version: 1 };
            engine.publish(advert, NodeId(0), 0, 1_000_000);
        }
        engine
    };
    let mut k = 0usize;
    g.bench("evaluate_100k_store/Semantic", |b| {
        let engine = built.get_or_insert_with(build);
        b.iter(|| {
            // 389 is coprime to 1 024: every leaf once per cycle, neighbours apart.
            k = (k + 389) % leaves.len();
            let query = QueryMessage {
                id: QueryId { origin: NodeId(1), seq: k as u64 },
                payload: QueryPayload::Semantic(
                    ServiceRequest::for_category(leaves[k]).with_qos(QosKey::Accuracy, 0.25),
                ),
                max_responses: Some(32),
                ttl: 0,
                reply_to: None,
            };
            black_box(engine.evaluate(&query, 100))
        })
    });
}

/// The incremental cost of the secondary indexes and the expiry heap:
/// publish/remove churn, lease-driven purge, and raw candidate generation.
fn bench_registry_index(h: &mut Harness) {
    let (ont, classes) = battlefield();
    let idx = SubsumptionIndex::build(&ont);
    let w = Workload::generate(
        &ont,
        &classes,
        &PopulationSpec {
            model: ModelId::Semantic,
            services: 1_000,
            queries: 0,
            generalization_rate: 0.5,
            seed: 4,
        },
    );
    let adverts: Vec<Advertisement> = w
        .descriptions
        .iter()
        .enumerate()
        .map(|(i, d)| Advertisement {
            id: Uuid(i as u128 + 1),
            provider: NodeId(0),
            description: d.clone(),
            version: 1,
        })
        .collect();

    let mut g = h.group("registry_index");
    g.bench("publish_remove_churn_1k", |b| {
        b.iter(|| {
            let mut store = RegistryStore::new();
            for a in &adverts {
                store.publish(a.clone(), NodeId(0), 0, 1_000, 0);
            }
            for a in &adverts {
                store.remove(a.id);
            }
            black_box(store.len())
        })
    });
    g.bench("publish_expire_purge_1k", |b| {
        b.iter(|| {
            let mut store = RegistryStore::new();
            for (i, a) in adverts.iter().enumerate() {
                store.publish(a.clone(), NodeId(0), 0, (i as u64 % 100) + 1, 0);
            }
            black_box(store.purge_expired(50).len())
        })
    });

    let mut store = RegistryStore::new();
    for a in &adverts {
        store.publish(a.clone(), NodeId(0), 0, u64::MAX, 0);
    }
    let payload =
        sds_protocol::QueryPayload::Semantic(ServiceRequest::for_category(classes.surveillance));
    g.bench("candidates_semantic_1k", |b| {
        b.iter(|| black_box(store.candidates(&payload, Some(&idx)).len()))
    });
}

fn bench_codec(h: &mut Harness) {
    let (ont, classes) = battlefield();
    let w = Workload::generate(
        &ont,
        &classes,
        &PopulationSpec {
            model: ModelId::Semantic,
            services: 32,
            queries: 0,
            generalization_rate: 0.0,
            seed: 3,
        },
    );
    let msg = DiscoveryMessage::publishing(PublishOp::Publish {
        advert: SharedAdvert::from(Advertisement {
            id: Uuid(7),
            provider: NodeId(3),
            description: w.descriptions[0].clone(),
            version: 1,
        }),
        lease_ms: 30_000,
    });
    let bytes = codec::encode(&msg);
    let mut g = h.group("codec");
    g.bench("encode_publish", |b| b.iter(|| black_box(codec::encode(black_box(&msg)))));
    g.bench("decode_publish", |b| {
        b.iter(|| black_box(codec::decode(black_box(&bytes)).unwrap()))
    });

    // The two frames of every benchmark query: a capped semantic category
    // request in, up to 32 ranked hits out, whose adverts are already
    // encoded (the store's adverts are, after their first response).
    let query = codec::encode(&DiscoveryMessage::querying(QueryOp::Query(QueryMessage {
        id: QueryId { origin: NodeId(0), seq: 4_242 },
        payload: QueryPayload::Semantic(
            ServiceRequest::for_category(ClassId(5)).with_qos(QosKey::Accuracy, 0.37),
        ),
        max_responses: Some(32),
        ttl: 0,
        reply_to: None,
    })));
    g.bench("decode_query", |b| b.iter(|| black_box(codec::decode(black_box(&query)).unwrap())));
    let hits = (0..32)
        .map(|i| ResponseHit {
            advert: SharedAdvert::from(Advertisement {
                id: Uuid(i as u128),
                provider: NodeId(i),
                description: w.descriptions[i as usize].clone(),
                version: 1,
            }),
            degree: Degree::PlugIn,
            distance: 1,
        })
        .collect();
    let response = DiscoveryMessage::querying(QueryOp::QueryResponse {
        query_id: QueryId { origin: NodeId(0), seq: 4_242 },
        hits,
        responder: NodeId(0),
    });
    codec::encode(&response);
    g.bench("encode_response_32", |b| b.iter(|| black_box(codec::encode(black_box(&response)))));
}

struct PingPong {
    peer: NodeId,
    remaining: u32,
}

impl NodeHandler<u32> for PingPong {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(Destination::Unicast(self.peer), msg + 1, 16, "ping");
        }
    }
}

fn bench_simnet(h: &mut Harness) {
    let mut g = h.group("simnet");
    g.bench("100k_events", |b| {
        b.iter(|| {
            let mut topo = Topology::new();
            let lan = topo.add_lan();
            let mut sim: Sim<u32> = Sim::new(SimConfig::default(), topo, 1);
            let a = sim.add_node(lan, Box::new(PingPong { peer: NodeId(1), remaining: 50_000 }));
            let bn = sim.add_node(lan, Box::new(PingPong { peer: NodeId(0), remaining: 50_000 }));
            sim.with_node::<PingPong>(a, |_, ctx| {
                ctx.send(Destination::Unicast(bn), 0, 16, "ping");
            });
            sim.run_until(u64::MAX / 2);
            black_box(sim.stats().total_messages())
        })
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_subsumption(&mut h);
    bench_matchmaker(&mut h);
    bench_triple_store(&mut h);
    bench_registry_evaluate(&mut h);
    bench_registry_index(&mut h);
    bench_codec(&mut h);
    bench_simnet(&mut h);
    h.finish();
}
