//! `registry_hot` and `registry_scan`: the pipeline a `RegistryNode` runs per
//! query, without the simulator, over a 114 000-advert mixed-model store.
//!
//! frames in → `codec::decode` → `cache_key`/`QueryCache::get` →
//! `ShardedEngine::evaluate_with_validity` → `QueryCache::insert` →
//! `codec::encode` of the `QueryResponse` → ranked frames out. Closed loop:
//! the next 256-query burst starts when the previous one is answered. Each
//! burst also publishes 16 short-lease adverts (invalidating the cache as
//! the node does), renews 8 and purges, so a read gain that taxes the write
//! path shows.

use std::sync::Arc;
use std::time::Instant;

use sds_protocol::{codec, DiscoveryMessage, Operation, QueryMessage, QueryOp, ResponseHit};
use sds_rand::Seed;
use sds_registry::{
    cache_key, rank_hits, LeasePolicy, ModelEvaluator, PublishOutcome, QueryCache, RegistryStore,
    SemanticEvaluator, ShardRouter, ShardedEngine, TemplateEvaluator, UriEvaluator,
};
use sds_semantic::{match_request, SubsumptionIndex};
use sds_simnet::{NodeId, SimTime};

use crate::catalog::{Metrics, Outcome};
use crate::gen::{self, Burst, BurstGenerator, PayloadSource, Taxonomy, BURST_QUERIES};
use crate::harness::{peak_rss_mib, span, timed, HostSamples, Phases, RunOpts};
use crate::trace::{SpanName, Tracer};

/// Adverts in the store before the run: about 10^5, and just under what a
/// hashbrown table of 131 072 buckets holds (114 688). The store's advert
/// table sheds tombstones under publish/purge churn by doubling once (+45 MiB
/// here), after which it rehashes in place. At exactly 10^5 adverts that
/// doubling came a few thousand bursts into the measured phase, or not at
/// all, as the process's hash seeds fell, and `peak_rss_mib` read 79 or
/// 124 MiB. At this size it comes within the first hundred bursts of
/// set-up, every time.
const POPULATION: usize = 114_000;
/// Distinct payloads of the hot workload; fewer than the cache holds.
const HOT_PAYLOADS: usize = 96;
/// Share of the scan workload's semantic requests that name a parent class.
const SCAN_GENERALIZED: f64 = 0.3;
/// The node's default plane: one shard, 128 cache entries.
const SHARDS: usize = 1;
const CACHE_CAPACITY: usize = 128;
/// Simulated time per burst, and the churn adverts' lease: they expire a few
/// bursts after they were published unless renewed.
const BURST_DT: SimTime = 100;
const CHURN_LEASE_MS: u64 = 350;
/// The base population never expires during a run.
const BASE_LEASE_MS: u64 = 1 << 48;
/// Bursts per repetition: the fixed work `wall_s` times.
const BLOCK_BURSTS: usize = 32;
/// Bursts whose writes alone run first in set-up, to take the advert table
/// past its one doubling (see [`POPULATION`]) and put churn adverts at every
/// stage of their lease.
const SETTLE_BURSTS: usize = 256;
/// Whole bursts run at the end of set-up, so the measured phase starts with
/// a warm cache.
const WARM_BURSTS: usize = 8;
/// Set-ups per untraced run; `setup_s` is their median. The store the run
/// measures on is the first; the others follow the measured phase.
const SETUPS: usize = 5;
/// Host seconds a run may spend in the linear-scan oracle (one sampled
/// query per burst until this is used up), outside every timed window.
const ORACLE_BUDGET_S: f64 = 1.0;
/// Queries per burst replayed on the shadow store in a traced run.
const REPLAYS_PER_BURST: usize = BURST_QUERIES / 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Hot,
    Scan,
}

impl Kind {
    /// Tail percentile of the burst time the run's sample supports: a hot
    /// burst takes well under a millisecond, so a run has thousands; a scan
    /// burst takes several, so it has hundreds.
    fn tail_pct(self) -> f64 {
        match self {
            Kind::Hot => 99.0,
            Kind::Scan => 95.0,
        }
    }
}

fn lease_policy() -> LeasePolicy {
    LeasePolicy {
        max_ms: 1 << 50,
        ..LeasePolicy::default()
    }
}

fn evaluators(idx: &Arc<SubsumptionIndex>) -> [Box<dyn ModelEvaluator>; 3] {
    [
        Box::new(UriEvaluator),
        Box::new(TemplateEvaluator),
        Box::new(SemanticEvaluator::new(idx.clone())),
    ]
}

/// Running totals the pipeline keeps whether traced or not.
#[derive(Default, Clone, Copy)]
struct Counters {
    queries: u64,
    hits: u64,
    query_bytes: u64,
    response_bytes: u64,
    purged: u64,
}

/// The registry data plane under test plus the benchmark's clock.
struct Plane {
    tax: Taxonomy,
    idx: Arc<SubsumptionIndex>,
    engine: ShardedEngine,
    cache: QueryCache,
    generator: BurstGenerator,
    now: SimTime,
    counters: Counters,
    closure_build_s: f64,
    generate_s: f64,
}

impl Plane {
    fn build(kind: Kind, seed: Seed) -> Self {
        let tax = Taxonomy::build();
        let (closure_build_s, idx) = timed(|| Arc::new(SubsumptionIndex::build(&tax.ontology)));
        let (generate_s, population) = timed(|| gen::population(POPULATION, &tax, seed));
        let mut engine = ShardedEngine::new(lease_policy(), SHARDS, Some(&idx));
        engine.set_workers(1);
        for e in evaluators(&idx) {
            engine.register_evaluator(e);
        }
        for a in population {
            engine.publish(a, NodeId(0), 0, BASE_LEASE_MS);
        }
        let source = match kind {
            Kind::Hot => PayloadSource::pool(HOT_PAYLOADS, POPULATION, &tax, seed),
            Kind::Scan => PayloadSource::Fresh {
                population: POPULATION,
                generalized: SCAN_GENERALIZED,
            },
        };
        let mut plane = Self {
            generator: BurstGenerator::new(seed, source),
            tax,
            idx,
            engine,
            cache: QueryCache::new(CACHE_CAPACITY),
            now: 0,
            counters: Counters::default(),
            closure_build_s,
            generate_s,
        };
        for _ in 0..SETTLE_BURSTS {
            let burst = plane.generator.next_burst(&plane.tax);
            plane.apply_writes(&burst, &mut None);
        }
        for _ in 0..WARM_BURSTS {
            let burst = plane.generator.next_burst(&plane.tax);
            plane
                .run_burst(&burst, &[], &mut None)
                .expect("generated frames decode");
        }
        plane
    }

    /// Advances the clock one burst and applies the burst's writes.
    fn apply_writes(&mut self, burst: &Burst, tracer: &mut Option<&mut Tracer>) {
        self.now += BURST_DT;
        let (now, request) = (self.now, burst.index);
        for advert in &burst.churn {
            let (outcome, _) = span(tracer, SpanName::Publish, request, || {
                self.engine
                    .publish(advert.clone(), NodeId(0), now, CHURN_LEASE_MS)
            });
            // A fresh advert can newly match a cached query: drop what it
            // could affect, exactly as the node does on `PublishOutcome::New`.
            if outcome == PublishOutcome::New {
                span(tracer, SpanName::CacheInvalidate, request, || {
                    self.cache.invalidate_for_advert(advert, Some(&self.idx))
                });
            }
        }
        for &id in &burst.renewals {
            span(tracer, SpanName::Renew, request, || {
                self.engine.renew(id, now)
            });
        }
        self.counters.purged +=
            span(tracer, SpanName::Purge, request, || self.engine.purge(now)).len() as u64;
    }

    /// Runs one burst, writes then queries; returns the response frames at
    /// the `keep` indices.
    fn run_burst(
        &mut self,
        burst: &Burst,
        keep: &[usize],
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<Vec<Vec<u8>>, String> {
        self.apply_writes(burst, tracer);
        let request = burst.index;
        let mut kept = Vec::with_capacity(keep.len());
        for (i, frame) in burst.frames.iter().enumerate() {
            let out = self.answer(frame, tracer, request)?;
            if keep.contains(&i) {
                kept.push(out);
            }
        }
        Ok(kept)
    }

    /// One query through the pipeline: request frame in, response frame out.
    fn answer(
        &mut self,
        frame: &[u8],
        tracer: &mut Option<&mut Tracer>,
        request: u64,
    ) -> Result<Vec<u8>, String> {
        let now = self.now;
        let msg = span(tracer, SpanName::Decode, request, || codec::decode(frame))
            .map_err(|e| format!("query frame does not decode: {e}"))?;
        let Operation::Querying(QueryOp::Query(query)) = msg.op else {
            return Err("generated frame is not a query".into());
        };
        let key = span(tracer, SpanName::CacheKey, request, || {
            cache_key(&query.payload, query.max_responses)
        });
        let cached = span(tracer, SpanName::CacheGet, request, || {
            self.cache.get(&key, now).map(<[_]>::to_vec)
        });
        let hits = match cached {
            Some(hits) => hits,
            None => {
                let (hits, valid_until) = span(tracer, SpanName::Evaluate, request, || {
                    self.engine.evaluate_with_validity(&query, now)
                });
                span(tracer, SpanName::CacheInsert, request, || {
                    self.cache
                        .insert(key, &query.payload, hits.clone(), valid_until, now)
                });
                hits
            }
        };
        self.counters.queries += 1;
        self.counters.hits += hits.len() as u64;
        let response = DiscoveryMessage::querying(QueryOp::QueryResponse {
            query_id: query.id,
            hits,
            responder: NodeId(0),
        });
        let out = span(tracer, SpanName::Encode, request, || {
            codec::encode(&response)
        });
        self.counters.query_bytes += frame.len() as u64;
        self.counters.response_bytes += out.len() as u64;
        Ok(out)
    }
}

fn decode_query(frame: &[u8]) -> QueryMessage {
    match codec::decode(frame)
        .expect("the pipeline already decoded this frame")
        .op
    {
        Operation::Querying(QueryOp::Query(q)) => q,
        _ => unreachable!("the pipeline already checked this is a query"),
    }
}

fn response_frame(query: &QueryMessage, hits: Vec<ResponseHit>) -> Vec<u8> {
    codec::encode(&DiscoveryMessage::querying(QueryOp::QueryResponse {
        query_id: query.id,
        hits,
        responder: NodeId(0),
    }))
}

/// The benchmark's own oracle: every stored advert through the public
/// evaluator, then `rank_hits` and the response cap. Returns whether the
/// pipeline's response frame is byte-equal to the oracle's.
fn oracle_agrees(plane: &Plane, query_frame: &[u8], response: &[u8]) -> bool {
    let query = decode_query(query_frame);
    let all = evaluators(&plane.idx);
    let evaluator = all
        .iter()
        .find(|e| e.model() == query.payload.model())
        .expect("three models");
    let mut hits: Vec<ResponseHit> = plane
        .engine
        .store()
        .live(plane.now)
        .filter_map(|stored| {
            evaluator
                .evaluate(&query.payload, &stored.advert)
                .map(|(degree, distance)| ResponseHit {
                    advert: stored.advert.clone(),
                    degree,
                    distance,
                })
        })
        .collect();
    rank_hits(&mut hits);
    hits.truncate(query.max_responses.map_or(usize::MAX, usize::from));
    response_frame(&query, hits) == response
}

/// A second store the traced run keeps in step with the engine's writes, so
/// the split inside the opaque `evaluate` call can be replayed through
/// public calls: route, candidates, matchmaker confirm, rank.
struct Shadow {
    store: RegistryStore,
    router: ShardRouter,
    evaluators: [Box<dyn ModelEvaluator>; 3],
    policy: LeasePolicy,
    candidates: u64,
    confirmed: u64,
    replays: u64,
    mismatches: u64,
}

impl Shadow {
    fn build(plane: &Plane) -> Self {
        let mut store = RegistryStore::new();
        for s in plane.engine.store().iter() {
            store.publish(
                s.advert.clone(),
                s.source,
                s.published_at,
                s.lease_until,
                s.requested_lease_ms,
            );
        }
        Self {
            store,
            router: ShardRouter::new(SHARDS, Some(&plane.idx)),
            evaluators: evaluators(&plane.idx),
            policy: lease_policy(),
            candidates: 0,
            confirmed: 0,
            replays: 0,
            mismatches: 0,
        }
    }

    /// Mirrors the writes `run_burst` is about to apply at `now`.
    fn apply_writes(&mut self, burst: &Burst, now: SimTime) {
        for a in &burst.churn {
            let until = self.policy.grant(now, CHURN_LEASE_MS);
            self.store
                .publish(a.clone(), NodeId(0), now, until, CHURN_LEASE_MS);
        }
        for &id in &burst.renewals {
            let requested = self.store.get(&id).map_or(0, |a| a.requested_lease_ms);
            self.store.renew(id, self.policy.grant(now, requested));
        }
        self.store.purge_expired(now);
    }

    fn replay(
        &mut self,
        idx: &SubsumptionIndex,
        query_frame: &[u8],
        response: &[u8],
        now: SimTime,
        tracer: &mut Tracer,
        request: u64,
    ) {
        let query = decode_query(query_frame);
        let payload = &query.payload;
        tracer.enter_replayed(SpanName::Route, request);
        std::hint::black_box(self.router.route(payload));
        tracer.exit();

        let evaluator = self
            .evaluators
            .iter()
            .find(|e| e.model() == payload.model())
            .expect("three models");
        tracer.enter_replayed(SpanName::Candidates, request);
        let ids: Vec<_> = self
            .store
            .candidates(payload, evaluator.subsumption_index())
            .iter()
            .collect();
        tracer.exit();

        tracer.enter_replayed(SpanName::Match, request);
        let mut confirmed = Vec::new();
        for id in &ids {
            let Some(stored) = self.store.get(id).filter(|s| s.is_live(now)) else {
                continue;
            };
            let verdict = match (payload, &stored.advert.description) {
                (
                    sds_protocol::QueryPayload::Semantic(req),
                    sds_protocol::Description::Semantic(profile),
                ) => {
                    let r = match_request(idx, req, profile);
                    r.degree.is_match().then_some((r.degree, r.distance))
                }
                _ => evaluator.evaluate(payload, &stored.advert),
            };
            if let Some((degree, distance)) = verdict {
                confirmed.push((stored, degree, distance));
            }
        }
        tracer.exit();
        let confirmed_count = confirmed.len();

        tracer.enter_replayed(SpanName::Rank, request);
        let mut hits: Vec<ResponseHit> = confirmed
            .into_iter()
            .map(|(s, degree, distance)| ResponseHit {
                advert: s.advert.clone(),
                degree,
                distance,
            })
            .collect();
        rank_hits(&mut hits);
        hits.truncate(query.max_responses.map_or(usize::MAX, usize::from));
        tracer.exit();

        self.replays += 1;
        self.candidates += ids.len() as u64;
        self.confirmed += confirmed_count as u64;
        if response_frame(&query, hits) != response {
            self.mismatches += 1;
        }
    }
}

/// Which query of burst `index` the oracle samples: one in 256.
fn oracle_sample(index: u64) -> usize {
    (index.wrapping_mul(0x9E37_79B9) % BURST_QUERIES as u64) as usize
}

pub fn run(kind: Kind, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let seed = Seed(opts.seed);
    let mut samples = HostSamples::default();
    let (first_setup_s, mut plane) = timed(|| Plane::build(kind, seed));
    samples.setups.push(first_setup_s);
    let mut shadow = opts.trace.then(|| Shadow::build(&plane));

    let (mut oracle_s, mut oracle_checks, mut oracle_failures) = (0.0, 0u64, 0u64);
    let mut generate_s = plane.generate_s;
    let mut violations = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let (mut traced_wall_ns, mut traced_purged) = (0u64, 0u64);
    let at_start = (plane.counters, plane.cache.stats());

    let phases = Phases::start(opts);
    let mut blocks = 0usize;
    while !phases.done(samples.walls.len(), traced_walls.len()) {
        let tracing = phases.tracing(samples.walls.len());
        let mut block_wall = 0.0;
        let mut block_steps = Vec::with_capacity(BLOCK_BURSTS);
        for _ in 0..BLOCK_BURSTS {
            let (g, burst) = timed(|| plane.generator.next_burst(&plane.tax));
            generate_s += g;
            let sample = oracle_sample(burst.index);
            let mut keep = vec![sample];
            if tracing {
                keep.extend((0..REPLAYS_PER_BURST).map(|r| (sample + 1 + 64 * r) % BURST_QUERIES));
                keep.sort_unstable();
                keep.dedup();
            }
            if let Some(shadow) = &mut shadow {
                shadow.apply_writes(&burst, plane.now + BURST_DT);
            }

            let purged_before = plane.counters.purged;
            let t = Instant::now();
            let kept = if tracing {
                tracer.enter(SpanName::Burst, burst.index);
                let r = plane.run_burst(&burst, &keep, &mut Some(&mut *tracer));
                tracer.exit();
                r
            } else {
                plane.run_burst(&burst, &keep, &mut None)
            };
            let dt = t.elapsed().as_secs_f64();
            let kept = kept?;
            block_wall += dt;
            block_steps.push(dt);
            if tracing {
                traced_purged += plane.counters.purged - purged_before;
            }

            if oracle_s < ORACLE_BUDGET_S {
                let at = keep
                    .iter()
                    .position(|&k| k == sample)
                    .expect("sample is kept");
                let (s, agrees) = timed(|| oracle_agrees(&plane, &burst.frames[sample], &kept[at]));
                oracle_s += s;
                oracle_checks += 1;
                oracle_failures += u64::from(!agrees);
            }
            if let (true, Some(shadow)) = (tracing, &mut shadow) {
                for (&k, response) in keep.iter().zip(&kept).filter(|(&k, _)| k != sample) {
                    shadow.replay(
                        &plane.idx,
                        &burst.frames[k],
                        response,
                        plane.now,
                        tracer,
                        burst.index,
                    );
                }
            }
        }
        blocks += 1;
        if blocks == 1 {
            continue; // the discarded warm-up repetition
        }
        if tracing {
            traced_walls.push(block_wall);
            traced_wall_ns += (block_wall * 1e9) as u64;
        } else {
            samples.walls.push(block_wall);
            samples.steps.extend(block_steps);
        }
    }

    let answered = plane.counters.queries - at_start.0.queries;
    if oracle_checks == 0 {
        violations.push("the oracle checked no query".into());
    }
    if let Some(shadow) = &shadow {
        if shadow.mismatches > 0 {
            violations.push(format!(
                "{} of {} shadow replays differ from the pipeline's hits",
                shadow.mismatches, shadow.replays
            ));
        }
    }

    let mut metrics = Metrics::default();
    let work = (BLOCK_BURSTS * BURST_QUERIES) as f64;
    let fold_start = Instant::now();
    if opts.trace {
        layer_metrics(
            &mut metrics,
            &plane,
            shadow.as_ref(),
            tracer,
            at_start,
            traced_purged,
        );
        samples.fold_traced(&mut metrics, &mut traced_walls, kind.tail_pct());
        metrics.set("workload.generate_ms", generate_s * 1e3);
        metrics.set("workload.oracle_ms", oracle_s * 1e3);
        println!(
            "per-layer self time over {} traced bursts ({:.1} ms of burst wall; the split inside \
             `evaluate` (shard, store, matchmaker, engine rows) is replayed after the burst on {} \
             sampled queries, so those rows are extra to the wall):",
            tracer.aggregate(SpanName::Burst).count,
            traced_wall_ns as f64 / 1e6,
            shadow.as_ref().map_or(0, |s| s.replays),
        );
        print!("{}", tracer.layer_table(traced_wall_ns));
        metrics.set("metrics.fold_ms", fold_start.elapsed().as_secs_f64() * 1e3);
    } else {
        // `VmHWM` now is what one store and its traffic need. The further
        // set-ups, which only steady `setup_s`, run after it is read: what
        // the allocator fails to reuse between them is not the program's.
        let peak_rss = peak_rss_mib()?;
        drop(plane);
        for _ in 1..SETUPS {
            samples.setups.push(timed(|| Plane::build(kind, seed)).0);
        }
        samples.fold(&mut metrics, work, peak_rss)?;
    }
    println!(
        "closed loop, 1 client: {answered} queries answered in {} timed repetitions of \
         {BLOCK_BURSTS} bursts; oracle checked {oracle_checks} sampled queries \
         ({oracle_failures} differ); {} step samples",
        samples.walls.len() + traced_walls.len(),
        samples.steps.len(),
    );
    Ok(Outcome {
        attempted: answered,
        failed: oracle_failures,
        violations,
        metrics,
    })
}

fn layer_metrics(
    m: &mut Metrics,
    plane: &Plane,
    shadow: Option<&Shadow>,
    tracer: &Tracer,
    at_start: (Counters, sds_registry::CacheStats),
    traced_purged: u64,
) {
    let c = plane.counters;
    let queries = (c.queries - at_start.0.queries) as f64;
    let cache = plane.cache.stats();
    let hits = (cache.hits - at_start.1.hits) as f64;
    let lookups = hits + (cache.misses - at_start.1.misses) as f64;
    m.set("registry.cache.lookups", lookups);
    m.set("registry.cache.hits", hits);
    m.set("registry.cache.hit_ratio", hits / lookups);
    m.set(
        "registry.cache.invalidations",
        (cache.invalidated - at_start.1.invalidated) as f64,
    );
    m.set("registry.cache.get_ns", tracer.mean_ns(SpanName::CacheGet));
    m.set(
        "registry.cache.insert_ns",
        tracer.mean_ns(SpanName::CacheInsert),
    );
    m.set(
        "registry.sharded.evaluate_ns_per_query",
        tracer.mean_ns(SpanName::Evaluate),
    );
    m.set(
        "registry.store.publish_ns",
        tracer.mean_ns(SpanName::Publish),
    );
    m.set("registry.store.renew_ns", tracer.mean_ns(SpanName::Renew));
    if traced_purged > 0 {
        let purge_ns = tracer.aggregate(SpanName::Purge).total_ns as f64;
        m.set(
            "registry.store.purge_ns_per_advert",
            purge_ns / traced_purged as f64,
        );
    }
    m.set(
        "registry.store.adverts_live",
        plane.engine.store().len() as f64,
    );
    m.set(
        "registry.engine.hits_per_query",
        (c.hits - at_start.0.hits) as f64 / queries,
    );
    m.set(
        "protocol.codec.decode_ns_per_msg",
        tracer.mean_ns(SpanName::Decode),
    );
    m.set(
        "protocol.codec.encode_ns_per_msg",
        tracer.mean_ns(SpanName::Encode),
    );
    m.set(
        "protocol.codec.query_frame_bytes",
        (c.query_bytes - at_start.0.query_bytes) as f64 / queries,
    );
    m.set(
        "protocol.codec.response_frame_bytes",
        (c.response_bytes - at_start.0.response_bytes) as f64 / queries,
    );
    m.set(
        "semantic.reasoner.closure_build_ms",
        plane.closure_build_s * 1e3,
    );
    if let Some(s) = shadow.filter(|s| s.replays > 0) {
        let replays = s.replays as f64;
        let (cand, mat, rank, route) = (
            tracer.aggregate(SpanName::Candidates).total_ns as f64,
            tracer.aggregate(SpanName::Match).total_ns as f64,
            tracer.aggregate(SpanName::Rank).total_ns as f64,
            tracer.aggregate(SpanName::Route).total_ns as f64,
        );
        m.set("registry.shard.route_ns", route / replays);
        m.set("registry.store.candidates_ns_per_query", cand / replays);
        m.set(
            "registry.store.candidates_per_query",
            s.candidates as f64 / replays,
        );
        if s.confirmed > 0 {
            m.set(
                "registry.store.candidates_per_hit",
                s.candidates as f64 / s.confirmed as f64,
            );
        }
        m.set("registry.engine.rank_ns_per_query", rank / replays);
        if s.candidates > 0 {
            m.set(
                "semantic.matchmaker.match_ns_per_pair",
                mat / s.candidates as f64,
            );
        }
        m.set("semantic.matchmaker.pairs_confirmed", s.confirmed as f64);
        m.set(
            "semantic.matchmaker.match_share",
            mat / (cand + mat + rank + route),
        );
    }
}
