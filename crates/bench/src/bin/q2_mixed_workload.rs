//! Q2 — Sharded data plane + registry-edge cache under heavy mixed traffic.
//!
//! A registry in a dynamic environment does not see one query at a time: it
//! sees sustained bursts of repeated queries (many clients hunting the same
//! capability — the demand side of E2's response implosion) interleaved with
//! publish churn and lease expiry. This binary drives that mix through four
//! data-plane configurations over the same advert population:
//!
//! * `s1`           — [`ShardedEngine`] at one shard (the unsharded registry),
//!   one evaluation per query: the baseline every "vs s1" ratio divides by;
//! * `sharded`      — [`ShardedEngine`] (4 shards), routed single evaluations;
//! * `shard+batch`  — per-burst [`ShardedEngine::evaluate_batch`]: identical
//!   in-flight queries coalesce to one evaluation;
//! * `shard+cache`  — a [`QueryCache`] in front of the sharded engine, with
//!   lease-driven validity and publish invalidation, as `RegistryNode` runs;
//! * `batch/s{S}w{W}` — the workers × shards matrix: the batch path at
//!   `S ∈ {4, 16}` shards with `data_plane_workers ∈ {1, 2, 4}` scoped
//!   worker threads fanning each burst's per-shard queues in parallel.
//!
//! Reported per configuration: sustained queries/s plus p50/p99 per-query
//! latency. The binary also asserts the coalescing claim outright: a burst
//! with N copies of a query costs exactly one evaluation per distinct
//! (payload, cap) pair, and every configuration returns byte-identical hits
//! for a probe query. In full mode on ≥4-core machines, it further asserts
//! the parallel win: ≥2× queries/s at 4 workers vs 1 at 10⁵ adverts (never
//! checked on narrower machines — there is nothing to win there).

use std::sync::Arc;
use std::time::Instant;

use sds_bench::{f2, Table};
use sds_protocol::{
    Advertisement, Description, DescriptionTemplate, QueryId, QueryMessage, QueryPayload, Uuid,
};
use sds_rand::Rng;
use sds_registry::{
    cache_key, LeasePolicy, QueryCache, SemanticEvaluator, ShardedEngine, TemplateEvaluator,
    UriEvaluator,
};
use sds_semantic::{ClassId, Ontology, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;
use sds_workload::parametric;

const TEMPLATE_TYPES: u32 = 64;
const SHARDS: usize = 4;
/// The parallel-batch matrix: shard counts × data-plane worker counts.
const SHARD_MATRIX: [usize; 2] = [4, 16];
const WORKER_MATRIX: [usize; 3] = [1, 2, 4];
/// Queries per burst; every burst draws from `DISTINCT_QUERIES` payloads, so
/// the average duplication factor is their ratio.
const BURST_QUERIES: usize = 256;
const DISTINCT_QUERIES: usize = 32;
/// Fresh short-lease adverts published per burst (the churn half of the
/// workload; they expire a few bursts later).
const CHURN_PER_BURST: usize = 16;
/// Simulated time per burst; churn leases span a handful of bursts.
const BURST_DT: u64 = 100;
const CHURN_LEASE_MS: u64 = 350;

fn taxonomy() -> (Ontology, Vec<ClassId>, Vec<ClassId>) {
    let ont = parametric(4, 4, 4);
    let leaves: Vec<ClassId> =
        (ont.len() - 1024..ont.len()).map(|i| ClassId(i as u32)).collect();
    // All level-2 classes (4 leaf descendants each → 1/256 selectivity):
    // named C2_<root>_<child> in the parametric taxonomy.
    let categories: Vec<ClassId> = (0..4)
        .flat_map(|r| (0..4).map(move |c| (r, c)))
        .map(|(r, c)| ont.lookup(&format!("C2_{r}_{c}")).expect("level-2 class exists"))
        .collect();
    (ont, leaves, categories)
}

fn advert(i: usize, leaves: &[ClassId], rng: &mut Rng) -> Advertisement {
    let description = match i % 3 {
        0 => Description::Uri(format!("urn:svc:q2-{i}")),
        1 => Description::Template(DescriptionTemplate {
            name: Some(format!("svc{i}")),
            type_uri: Some(format!("urn:type:{}", rng.gen_range(0..TEMPLATE_TYPES))),
            attrs: Vec::new(),
        }),
        _ => {
            let cat = leaves[rng.gen_range(0..leaves.len() as u64) as usize];
            let out = leaves[rng.gen_range(0..leaves.len() as u64) as usize];
            Description::Semantic(
                ServiceProfile::new(format!("svc{i}"), cat).with_outputs(&[out]),
            )
        }
    };
    Advertisement { id: Uuid(i as u128 + 1), provider: NodeId(i as u32), description, version: 1 }
}

/// The mixed query pool: half semantic category queries, the rest split
/// between exact URI and typed template probes — all selective, all capped.
fn query_pool(n: usize, categories: &[ClassId], rng: &mut Rng) -> Vec<QueryPayload> {
    (0..DISTINCT_QUERIES)
        .map(|i| match i % 4 {
            0 | 1 => {
                let cat = categories[rng.gen_range(0..categories.len() as u64) as usize];
                QueryPayload::Semantic(ServiceRequest::for_category(cat))
            }
            2 => QueryPayload::Uri(format!("urn:svc:q2-{}", rng.gen_range(0..n as u64))),
            _ => QueryPayload::Template(DescriptionTemplate {
                type_uri: Some(format!("urn:type:{}", rng.gen_range(0..TEMPLATE_TYPES))),
                ..Default::default()
            }),
        })
        .collect()
}

/// One burst of the sustained workload: queries drawn from the pool plus the
/// churn adverts published before them.
struct Burst {
    queries: Vec<QueryMessage>,
    churn: Vec<Advertisement>,
}

fn make_bursts(n: usize, bursts: usize, pool: &[QueryPayload], leaves: &[ClassId]) -> Vec<Burst> {
    let mut rng = Rng::seed_from_u64(0x52_B00F ^ n as u64);
    let mut seq = 0u64;
    (0..bursts)
        .map(|b| {
            let churn = (0..CHURN_PER_BURST)
                .map(|c| {
                    let i = 10_000_000 + b * CHURN_PER_BURST + c;
                    advert(i, leaves, &mut rng)
                })
                .collect();
            let queries = (0..BURST_QUERIES)
                .map(|_| {
                    seq += 1;
                    QueryMessage {
                        id: QueryId { origin: NodeId(0), seq },
                        payload: pool[rng.gen_range(0..pool.len() as u64) as usize].clone(),
                        max_responses: Some(32),
                        ttl: 0,
                        reply_to: None,
                    }
                })
                .collect();
            Burst { queries, churn }
        })
        .collect()
}

fn base_population(n: usize, leaves: &[ClassId]) -> Vec<Advertisement> {
    let mut rng = Rng::seed_from_u64(0x52_5EED ^ n as u64);
    (0..n).map(|i| advert(i, leaves, &mut rng)).collect()
}

fn sharded(adverts: &[Advertisement], idx: &Arc<SubsumptionIndex>) -> ShardedEngine {
    sharded_with(adverts, idx, SHARDS, 1)
}

fn sharded_with(
    adverts: &[Advertisement],
    idx: &Arc<SubsumptionIndex>,
    shards: usize,
    workers: usize,
) -> ShardedEngine {
    let mut e = ShardedEngine::new(LeasePolicy::default(), shards, Some(idx));
    e.set_workers(workers);
    e.register_evaluator(Box::new(UriEvaluator));
    e.register_evaluator(Box::new(TemplateEvaluator));
    e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
    for a in adverts {
        e.publish(a.clone(), NodeId(0), 0, 1_000_000);
    }
    e
}

/// Latency summary over one configuration's run.
struct RunStats {
    total_secs: f64,
    queries: usize,
    /// Per-query latencies in seconds (burst-level averages for the batch
    /// path, where queries are not timed individually).
    latencies: Vec<f64>,
}

impl RunStats {
    fn percentile(&mut self, p: f64) -> f64 {
        self.latencies.sort_unstable_by(f64::total_cmp);
        let i = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[i]
    }
    fn qps(&self) -> f64 {
        self.queries as f64 / self.total_secs
    }
    fn mean(&self) -> f64 {
        self.total_secs / self.queries as f64
    }
}

fn run_sharded(engine: &mut ShardedEngine, bursts: &[Burst], batch: bool) -> RunStats {
    let mut stats = RunStats { total_secs: 0.0, queries: 0, latencies: Vec::new() };
    let mut now = 0u64;
    for burst in bursts {
        now += BURST_DT;
        for a in &burst.churn {
            engine.publish(a.clone(), NodeId(0), now, CHURN_LEASE_MS);
        }
        if batch {
            let t = Instant::now();
            let out = engine.evaluate_batch(&burst.queries, now);
            let dt = t.elapsed().as_secs_f64();
            assert!(
                out.unique_evaluations() <= DISTINCT_QUERIES,
                "coalescing must collapse duplicates to distinct payloads"
            );
            std::hint::black_box(out.unique_hits);
            stats.total_secs += dt;
            stats.queries += burst.queries.len();
            // Burst-level per-query average: batch queries are not timed
            // individually.
            stats
                .latencies
                .extend(std::iter::repeat_n(dt / burst.queries.len() as f64, burst.queries.len()));
        } else {
            for q in &burst.queries {
                let t = Instant::now();
                let hits = engine.evaluate(q, now);
                let dt = t.elapsed().as_secs_f64();
                std::hint::black_box(hits);
                stats.total_secs += dt;
                stats.latencies.push(dt);
                stats.queries += 1;
            }
        }
    }
    stats
}

fn run_cached(engine: &mut ShardedEngine, bursts: &[Burst], idx: &SubsumptionIndex) -> RunStats {
    let mut stats = RunStats { total_secs: 0.0, queries: 0, latencies: Vec::new() };
    let mut cache = QueryCache::new(2 * DISTINCT_QUERIES);
    let mut now = 0u64;
    for burst in bursts {
        now += BURST_DT;
        for a in &burst.churn {
            // Publish invalidation, exactly as RegistryNode wires it for a
            // fresh advert; churn ids are always new here.
            engine.publish(a.clone(), NodeId(0), now, CHURN_LEASE_MS);
            cache.invalidate_for_advert(a, Some(idx));
        }
        for q in &burst.queries {
            let t = Instant::now();
            let key = cache_key(&q.payload, q.max_responses);
            if let Some(hits) = cache.get(&key, now) {
                std::hint::black_box(hits);
            } else {
                let (hits, valid_until) = engine.evaluate_with_validity(q, now);
                cache.insert(key, &q.payload, hits.clone(), valid_until, now);
                std::hint::black_box(hits);
            }
            let dt = t.elapsed().as_secs_f64();
            stats.total_secs += dt;
            stats.latencies.push(dt);
            stats.queries += 1;
        }
    }
    let cs = cache.stats();
    assert!(cs.hits > 0, "a duplicated workload must produce cache hits");
    stats
}

fn main() {
    let (ont, leaves, categories) = taxonomy();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let quick = std::env::var_os("SDS_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick { &[1_000] } else { &[10_000, 100_000] };
    let bursts_per_run = if quick { 8 } else { 32 };

    let mut table = Table::new(&[
        "store size",
        "configuration",
        "queries/s",
        "p50 µs",
        "p99 µs",
        "vs s1",
    ]);
    let mut headline = Vec::new();

    for &n in sizes {
        // Store construction (3 configurations × up to 10⁵ publishes each)
        // dominates setup; the runs themselves stay strictly sequential.
        let population = base_population(n, &leaves);
        let mut rng = Rng::seed_from_u64(0x52_9001 ^ n as u64);
        let pool = query_pool(n, &categories, &mut rng);
        let bursts = make_bursts(n, bursts_per_run, &pool, &leaves);
        let built =
            sds_bench::parallel::map(&[(); 3], |_, _| sharded(&population, &idx));
        let mut reference = sharded_with(&population, &idx, 1, 1);
        let mut engines = built.into_iter();
        let mut plain = engines.next().expect("built");
        let mut batched = engines.next().expect("built");
        let mut cached = engines.next().expect("built");

        // Equivalence probe before timing: every configuration answers a
        // pool query with byte-identical ranked hits.
        let probe = QueryMessage {
            id: QueryId { origin: NodeId(0), seq: 0 },
            payload: pool[0].clone(),
            max_responses: Some(32),
            ttl: 0,
            reply_to: None,
        };
        let want = reference.evaluate(&probe, 1);
        assert_eq!(want, plain.evaluate(&probe, 1), "sharded must match one shard");
        let probe_batch = plain.evaluate_batch(std::slice::from_ref(&probe), 1);
        assert_eq!(want.as_slice(), probe_batch.hits(0), "batched must match one shard");

        let runs: Vec<(&str, RunStats)> = vec![
            ("s1", run_sharded(&mut reference, &bursts, false)),
            ("sharded", run_sharded(&mut plain, &bursts, false)),
            ("shard+batch", run_sharded(&mut batched, &bursts, true)),
            ("shard+cache", run_cached(&mut cached, &bursts, &idx)),
        ];
        let base_mean = runs[0].1.mean();
        for (name, mut stats) in runs {
            let mean = stats.mean();
            let p50 = stats.percentile(0.50);
            let p99 = stats.percentile(0.99);
            table.row(&[
                n.to_string(),
                name.to_string(),
                format!("{:.0}", stats.qps()),
                f2(p50 * 1e6),
                f2(p99 * 1e6),
                format!("{:.1}x", base_mean / mean),
            ]);
            if n == *sizes.last().unwrap() {
                headline.push((name.to_string(), base_mean / mean));
            }
        }

        // Workers × shards matrix over the batch path: same bursts, fresh
        // engines (runs mutate lease state), per-burst per-shard queues
        // fanned across `w` scoped workers. `batch/s4w1` is the sequential
        // baseline the speedup assertion compares against.
        let matrix: Vec<(usize, usize)> = SHARD_MATRIX
            .iter()
            .flat_map(|&s| WORKER_MATRIX.iter().map(move |&w| (s, w)))
            .collect();
        let engines =
            sds_bench::parallel::map(&matrix, |_, &(s, w)| sharded_with(&population, &idx, s, w));
        let mut matrix_qps = Vec::new();
        for (&(s, w), mut engine) in matrix.iter().zip(engines) {
            assert_eq!(
                want.as_slice(),
                engine.evaluate_batch(std::slice::from_ref(&probe), 1).hits(0),
                "parallel batch must match one shard at s={s} w={w}"
            );
            let mut stats = run_sharded(&mut engine, &bursts, true);
            let name = format!("batch/s{s}w{w}");
            let mean = stats.mean();
            table.row(&[
                n.to_string(),
                name,
                format!("{:.0}", stats.qps()),
                f2(stats.percentile(0.50) * 1e6),
                f2(stats.percentile(0.99) * 1e6),
                format!("{:.1}x", base_mean / mean),
            ]);
            matrix_qps.push(((s, w), stats.qps()));
        }
        let qps_at = |s: usize, w: usize| {
            matrix_qps
                .iter()
                .find(|(k, _)| *k == (s, w))
                .map(|&(_, q)| q)
                .expect("matrix ran")
        };
        if n == *sizes.last().unwrap() {
            // mean = 1/qps per query, so "vs s1" = base_mean * qps.
            headline.push((format!("batch/s{SHARDS}w4"), base_mean * qps_at(SHARDS, 4)));
        }
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        if !quick && n >= 100_000 && cores >= 4 {
            let (w1, w4) = (qps_at(SHARDS, 1), qps_at(SHARDS, 4));
            assert!(
                w4 >= 2.0 * w1,
                "parallel batch at {SHARDS} shards / 4 workers must sustain >=2x \
                 queries/s over 1 worker at {n} adverts on a {cores}-core machine \
                 (got {w4:.0} vs {w1:.0})"
            );
        }
    }

    table.print("Q2: mixed query/publish/expiry workload by data-plane configuration");
    for (name, speedup) in &headline {
        println!(
            "{name} at {} adverts: {speedup:.1}x vs s1",
            sizes.last().unwrap()
        );
    }
    println!(
        "\nExpectation: batching coalesces the burst's duplicate queries to one\n\
         evaluation per distinct payload; the edge cache amortizes repeats\n\
         across bursts until leases or churn invalidate them."
    );
}
