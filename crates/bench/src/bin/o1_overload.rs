//! O1 — Overload resilience: admission control and backpressure under a
//! metro-scale flash crowd.
//!
//! Every registry gets a modeled processing budget (`NodeCapacity`: one
//! delivery per simulated millisecond, a bounded ingress queue), and a flash
//! crowd pushes 10× the baseline query rate at every LAN for the storm
//! window. Two otherwise identical worlds are compared:
//!
//! * **baseline** — the overload layer off: no admission control, passive
//!   clients. Queries beyond the ingress queue are silently lost and never
//!   retried; storm goodput collapses to roughly `queue_limit / burst`.
//! * **layered** — registries run the `OverloadPolicy` admission control
//!   (`Busy` nacks for fresh queries, with renewals priced out of
//!   shedding entirely; an admitted query gets a full answer), clients honor
//!   `retry_after_ms` hints with jittered backoff and hedge after repeated
//!   nacks, and providers stretch renewal cadence under pressure.
//!
//! The claim under test: at 10⁵+ nodes on the partitioned engine, the
//! layered world sustains ≥2× the storm goodput of the baseline, sheds
//! strictly lowest-priority-first (zero renewal-class shedding while query
//! shedding is active, and any renewal the saturated FIFO queue physically
//! drops is healed by provider ack-retries — no lease ever expires), and
//! recovers to recall 1.0 within one `SDS_RECOVERY_BOUND` of the storm
//! ending. Storm demand comes from a deterministic
//! [`OverloadPlan::flash_crowd`]; goodput/latency accounting is an
//! [`OverloadLedger`] fold over every client's completed queries.
//!
//! The storm interval (997 ms) is deliberately coprime-ish to the renewal
//! cadence so demand bursts drift across the renewal marks instead of
//! phase-locking with them; the bounded queue therefore always drains
//! between a burst and the next synchronized renewal wave.

use sds_bench::{f2, Table};
use sds_core::{
    ClientNode, OverloadPolicy, QueryMode, QueryOptions, RegistryConfig, RegistryNode,
    RetryPolicy, ServiceNode,
};
use sds_metrics::{recall, OverloadLedger};
use sds_protocol::ModelId;
use sds_simnet::{secs, NodeCapacity, PartitionPlan, SimTime};
use sds_workload::{Deployment, OverloadPlan, PopulationSpec, Scenario, ScenarioConfig};

/// Per-LAN baseline queries per demand event; the storm multiplies this.
const BASE_PER_LAN: u32 = 20;
/// Flash-crowd multiplier (the acceptance criterion's "10× flash crowd").
const SURGE: u32 = 10;
/// Demand event spacing. Odd on purpose, twice over: bursts must not
/// phase-lock with the 10 s renewal marks (residues drift 30 ms per mark),
/// and the ~1 s gap keeps `Busy` retry-hint/backoff re-sends (0.4–1.5 s out)
/// landing *between* bursts instead of on top of the next one.
const INTERVAL: SimTime = 997;
/// Modeled registry ingress: 1 delivery/ms, 32 waiting slots. A storm burst
/// of ~200 queries per LAN overflows this ~6×, which is the whole point.
const CAPACITY: NodeCapacity = NodeCapacity { ops_per_tick: 1, queue_limit: 32 };
/// Software processing budget per 200 ms overload tick for the quick
/// shape. Chosen so calm utilization sits well under the 95 % busy band
/// while storm-tick processing (burst drain plus paced retries, ~36/tick)
/// crosses into it at burst peaks without pinning there — pinned `Busy`
/// would starve the very retries the hints schedule. The full shape doubles
/// this (see `Shape::ops_budget`): a 229-peer full-mesh registry's
/// *ambient* control plane (one ping+pong per peer per 5 s, one sync digest
/// per peer per 10 s ≈ 118 msg/s ≈ 24/tick) would sit at 60% of this budget
/// — most of the way to shedding on its own heartbeat — so the metro budget
/// is provisioned for mesh size and admission meters demand headroom, not
/// federation chatter.
const OPS_BUDGET: u32 = 40;
/// World/workload seed (also the flash-crowd schedule seed).
const SEED: u64 = 0x01AD;

struct Shape {
    lans: usize,
    services_per_lan: usize,
    clients_per_lan: usize,
    /// Absolute warmup: attach, publish, gossip-driven federation mesh
    /// closure, and anti-entropy replication all run unmetered, then
    /// capacity is installed and the plan starts. The full shape's value
    /// was measured: every replica holds the complete advert population
    /// (coverage mean = min = 1.0) by t≈100 s.
    warmup: SimTime,
    /// Plan-relative storm window and demand horizon.
    storm_start: SimTime,
    storm_end: SimTime,
    horizon: SimTime,
    /// Metro lease economics: 300 s leases renewed every 60 s (F1 runs
    /// 120 s/40 s at 8 LANs; a 230-registry mesh provisions further). A
    /// replica's lease is refreshed only by anti-entropy deltas, and those
    /// flow through the same capacity-bounded ingress queue the storm
    /// saturates — synchronized 229-digest rounds overflow it even when
    /// calm, so any lease shorter than the run would make replica survival
    /// a per-round coin flip (default 30 s leases lose whole peer blocks to
    /// a 20 s storm plus its retry tail). Five-minute leases make every
    /// replica adopted during warmup outlive the horizon deterministically
    /// while keeping the paper's purge semantics on a WAN-honest timescale.
    /// The quick shape keeps the 30 s/10 s defaults — its shorter storm
    /// fits inside them, and they exercise renewal traffic under shedding
    /// on CI cadence.
    metro_leases: bool,
    /// Per-tick software budget, provisioned for the shape's federation
    /// size (see [`OPS_BUDGET`]).
    ops_budget: u32,
}

impl Shape {
    fn nodes(&self) -> usize {
        self.lans * (1 + self.services_per_lan + self.clients_per_lan)
    }
}

fn build(shape: &Shape, layered: bool) -> Scenario {
    let mut registry = RegistryConfig::default();
    if layered {
        registry.overload = OverloadPolicy::standard(shape.ops_budget);
    }
    let mut cfg = ScenarioConfig {
        lans: shape.lans,
        clients_per_lan: shape.clients_per_lan,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: shape.lans * shape.services_per_lan,
            queries: 96,
            generalization_rate: 0.3,
            seed: SEED,
        },
        seed: SEED,
        registry,
        partition: PartitionPlan::PerLan,
        workers: sds_bench::parallel::workers(),
        // Standard backoff but with jitter widened to the same end: backoff
        // re-sends of physically dropped queries spread across the gap.
        retry: if layered {
            Some(RetryPolicy { jitter: 400, ..RetryPolicy::standard() })
        } else {
            None
        },
        ..Default::default()
    };
    // Hundreds of clients per LAN pinging in sync would fill the bounded
    // ingress queue with liveness chatter every 5 s; registry beacons cover
    // home liveness, so pinging stays off in both worlds.
    cfg.client.attach.ping_interval = 0;
    cfg.service.attach.ping_interval = 0;
    if shape.metro_leases {
        cfg.service.lease_ms = 300_000;
        cfg.service.renew_interval = secs(60);
    }
    if layered {
        cfg.client.hedge_after_busy = 2;
    }
    Scenario::build(cfg)
}

/// Storm/baseline demand: local-only answers (replication has already run),
/// bounded response sets, a 4 s client budget for backoff to work inside.
fn demand_options() -> QueryOptions {
    QueryOptions {
        max_responses: Some(8),
        ttl: 0,
        timeout: secs(4),
        mode: QueryMode::Unicast,
    }
}

#[derive(Default)]
struct RunReport {
    calm: OverloadLedger,
    storm: OverloadLedger,
    post: OverloadLedger,
    busy_nacks: u64,
    renewal_busy_nacks: u64,
    retries_deduped: u64,
    service_busy: u64,
    adverts_purged: u64,
    dropped_total: u64,
    dropped_renewal_class: u64,
    dropped_by_kind: Vec<(&'static str, u64)>,
    recall_min: f64,
}

fn run(shape: &Shape, layered: bool, plan: &OverloadPlan, bound: SimTime) -> RunReport {
    let mut s = build(shape, layered);
    s.sim.run_until(shape.warmup);
    let registries = s.registries.clone();
    for &r in &registries {
        s.sim.set_node_capacity(r, Some(CAPACITY));
    }

    let opts = demand_options();
    let total_clients = s.clients.len();
    // Interleave consecutive issues across LANs so every event's burst
    // spreads over the whole metro instead of slamming one registry.
    let mut cursor = 0usize;
    let mut qi = 0usize;
    for i in 0..plan.events.len() {
        let ev = plan.events[i];
        s.sim.run_until(shape.warmup + ev.at);
        for _ in 0..ev.queries {
            let ci = match ev.lan {
                Some(l) => l * shape.clients_per_lan + cursor % shape.clients_per_lan,
                None => {
                    (cursor % shape.lans) * shape.clients_per_lan
                        + (cursor / shape.lans) % shape.clients_per_lan
                }
            };
            s.issue(ci % total_clients, qi, opts.clone());
            cursor += 1;
            qi += 1;
        }
    }

    // Quiesce until one recovery bound past the storm, then probe recall:
    // one ttl-0 unicast query per probe against the probing client's home
    // registry, with an *unbounded* response budget. The anti-entropy plane
    // replicates every advert to every registry, so a single home's local
    // store must hold the full metro view — scoring it against the global
    // oracle is exactly the recovery claim (the replicated view survived
    // the storm, no lease expired anywhere, and the registry serves
    // full-fidelity answers again). Federated ttl-4 floods are the wrong
    // instrument here: over a 230-registry full mesh, loop-avoided
    // forwarding delivers ~229 duplicate copies of each probe to every
    // registry, so the measurement itself becomes a fresh flash crowd and
    // admission control rightly engages against it. Probes are still
    // staggered so their (cheap) response traffic never stacks into a burst.
    let probe_at = shape.warmup + plan.storm_end + bound;
    let probe_spacing: SimTime = 250;
    let probe_opts = QueryOptions {
        max_responses: None,
        ttl: 0,
        timeout: secs(4),
        mode: QueryMode::Unicast,
    };
    let probes = 64.min(s.queries.len()).min(total_clients);
    let mut expected = Vec::new();
    for p in 0..probes {
        s.sim.run_until(probe_at + p as SimTime * probe_spacing);
        let q = s.queries[p].clone();
        expected.push(s.expected_now(&q));
        let ci = (p % shape.lans) * shape.clients_per_lan + p / shape.lans;
        s.issue(ci % total_clients, p, probe_opts.clone());
    }
    s.sim.run_until(probe_at + probes as SimTime * probe_spacing + secs(4));

    let mut rep = RunReport { recall_min: 1.0, ..RunReport::default() };
    let storm_abs = (shape.warmup + plan.storm_start, shape.warmup + plan.storm_end);
    for ci in 0..total_clients {
        for cq in s.completed(ci) {
            if cq.sent_at >= probe_at {
                continue; // recall probes are scored separately below
            }
            let window = if cq.sent_at < storm_abs.0 {
                &mut rep.calm
            } else if cq.sent_at < storm_abs.1 {
                &mut rep.storm
            } else {
                &mut rep.post
            };
            window.record(
                cq.first_response_at.is_some(),
                cq.first_response_at.map(|t| t - cq.sent_at),
                cq.busy_nacks,
                cq.retries,
            );
        }
    }
    for p in 0..probes {
        let ci = (p % shape.lans) * shape.clients_per_lan + p / shape.lans;
        let probe = s
            .completed(ci % total_clients)
            .iter()
            .find(|cq| cq.sent_at >= probe_at)
            .expect("recall probe completed");
        let got: Vec<_> = probe.hits.iter().map(|h| h.advert.provider).collect();
        let r = recall(&expected[p], &got);
        if r < 1.0 {
            // Leave a usable trail when the recovery assertion is about to
            // fail: which probe, what it expected, and how its wire exchange
            // actually went.
            let home = s
                .sim
                .handler::<ClientNode>(s.clients[ci % total_clients])
                .and_then(|c| c.home_registry());
            println!(
                "probe {p} (client {ci}, home {home:?}): recall {r:.4} — expected {} got {} \
                 (matched {}), dispatched={} answered={} responses={} busy={} retries={}",
                expected[p].len(),
                got.len(),
                got.iter().filter(|pr| expected[p].contains(pr)).count(),
                probe.dispatched,
                probe.first_response_at.is_some(),
                probe.responses_received,
                probe.busy_nacks,
                probe.retries,
            );
        }
        if r < rep.recall_min {
            rep.recall_min = r;
        }
    }

    for &r in &registries {
        let st = s.sim.handler::<RegistryNode>(r).expect("registry handler").stats;
        rep.busy_nacks += st.busy_nacks;
        rep.renewal_busy_nacks += st.renewal_busy_nacks;
        rep.retries_deduped += st.retries_deduped;
        rep.adverts_purged += st.adverts_purged;
    }
    for &(n, _) in &s.services {
        rep.service_busy += s.sim.handler::<ServiceNode>(n).expect("service handler").stats.busy_nacks;
    }
    let net = s.sim.stats();
    rep.dropped_total = net.capacity_dropped_messages;
    rep.dropped_renewal_class = ["renew", "publish"]
        .iter()
        .map(|k| net.capacity_dropped(k))
        .sum();
    rep.dropped_by_kind = net.capacity_drops_by_kind().collect();
    rep
}

fn main() {
    let quick = std::env::var_os("SDS_BENCH_QUICK").is_some();
    let shape = if quick {
        Shape {
            lans: 12,
            services_per_lan: 10,
            clients_per_lan: 40,
            warmup: 15_250,
            storm_start: 10_000,
            storm_end: 20_000,
            horizon: 30_000,
            metro_leases: false,
            ops_budget: OPS_BUDGET,
        }
    } else {
        Shape {
            lans: 230,
            services_per_lan: 20,
            clients_per_lan: 415,
            warmup: 105_250,
            storm_start: 15_000,
            storm_end: 35_000,
            horizon: 55_000,
            metro_leases: true,
            ops_budget: 2 * OPS_BUDGET,
        }
    };
    let bound: SimTime = std::env::var("SDS_RECOVERY_BOUND")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30_000);
    let plan = OverloadPlan::flash_crowd(
        BASE_PER_LAN * shape.lans as u32,
        SURGE,
        INTERVAL,
        shape.storm_start,
        shape.storm_end,
        shape.horizon,
        SEED,
    );
    println!(
        "O1: {} nodes ({} LANs), {} offered queries ({} in the 10x storm), \
         capacity {}op/ms q{}, recovery bound {}ms\n",
        shape.nodes(),
        shape.lans,
        plan.total_queries(),
        plan.offered_between(shape.storm_start, shape.storm_end),
        CAPACITY.ops_per_tick,
        CAPACITY.queue_limit,
        bound,
    );

    let baseline = run(&shape, false, &plan, bound);
    let layered = run(&shape, true, &plan, bound);

    let mut table = Table::new(&[
        "world", "window", "offered", "answered", "goodput", "busy q", "retried", "p50 ms",
        "p95 ms",
    ]);
    for (world, rep) in [("baseline", &baseline), ("layered", &layered)] {
        for (window, l) in
            [("calm", &rep.calm), ("storm", &rep.storm), ("post", &rep.post)]
        {
            table.row(&[
                world.into(),
                window.into(),
                l.offered.to_string(),
                l.answered.to_string(),
                f2(l.goodput()),
                l.busy_nacked.to_string(),
                l.retried.to_string(),
                l.latency_percentile(50).to_string(),
                l.latency_percentile(95).to_string(),
            ]);
        }
    }
    table.print("O1: goodput vs offered load, overload layer off/on");
    println!(
        "baseline: {} capacity drops, recall {:.2} | layered: {} capacity drops, \
         {} busy nacks, {} retries deduped, recall {:.2}",
        baseline.dropped_total,
        baseline.recall_min,
        layered.dropped_total,
        layered.busy_nacks,
        layered.retries_deduped,
        layered.recall_min,
    );
    println!(
        "layered drops by kind: {:?} | purged: baseline {} layered {}",
        layered.dropped_by_kind, baseline.adverts_purged, layered.adverts_purged
    );

    let (g_off, g_on) = (baseline.storm.goodput(), layered.storm.goodput());
    assert!(
        g_off < 0.6,
        "the storm must actually overwhelm the unprotected world (goodput {g_off:.2})"
    );
    assert!(
        g_on >= 2.0 * g_off,
        "layered storm goodput {g_on:.2} must be >=2x baseline {g_off:.2}"
    );
    assert!(layered.busy_nacks > 0, "the busy band must have engaged");
    assert_eq!(
        layered.renewal_busy_nacks, 0,
        "renewals are never shed while query shedding suffices"
    );
    assert_eq!(layered.service_busy, 0, "no provider saw a renewal-class nack");
    // The ingress queue is FIFO — a saturated storm tick can physically drop
    // a renewal — but the layer's end-to-end guarantee holds: ack-retries
    // re-send every dropped renewal and no lease ever expires.
    assert_eq!(
        layered.adverts_purged, 0,
        "no lease expires under the storm ({} renewal-class frames were \
         physically dropped and healed by ack-retries)",
        layered.dropped_renewal_class
    );
    assert_eq!(
        layered.recall_min, 1.0,
        "full recall within one recovery bound of the storm ending"
    );
    println!(
        "\nstorm goodput {g_on:.2} vs {g_off:.2} unprotected ({:.1}x), renewal classes \
         untouched, recall {:.2} within {bound}ms of storm end.",
        if g_off > 0.0 { g_on / g_off } else { f64::INFINITY },
        layered.recall_min,
    );
}
