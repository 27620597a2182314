//! The three whole-system workloads, all on the paper's federated
//! architecture (one autonomous registry per LAN, anti-entropy replication
//! over the WAN). All are open loop in simulated time: clients issue on a
//! schedule whatever the registries do, and since the schedule is part of
//! the simulation the generator's lateness is 0 by construction.

use std::fmt::Write as _;
use std::time::Instant;

use sds_core::{OverloadPolicy, QueryMode, QueryOptions, RetryPolicy};
use sds_protocol::ModelId;
use sds_rand::Seed;
use sds_semantic::SubsumptionIndex;
use sds_simnet::{secs, NodeCapacity, NodeId, PartitionPlan, SimTime};
use sds_workload::churn::ChurnEvent;
use sds_workload::{
    corrupting_hook, ChurnPlan, Deployment, FaultPlan, FaultSeverity, OverloadPlan, PopulationSpec,
    Scenario, ScenarioConfig,
};

use crate::beacons::bare_ns_per_event;
use crate::catalog::Outcome;
use crate::harness::{run_reps, span, timed, Rep, RunOpts};
use crate::sim::{time_sync_digests, Accum, Driver, Guarantee, Healing, Timeline, SLICE};
use crate::trace::{SpanName, Tracer};

/// At least three timed repetitions of at least 40 slices each: p90 always
/// has its ten samples beyond.
const TAIL_PCT: f64 = 90.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Steady,
    Chaos,
    FlashCrowd,
}

pub fn run(kind: Kind, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let seed = opts.seed;
    // The engine's own cost per event, for the estimate of what the
    // handlers add; only the traced run reports it.
    let bare = opts.trace.then(|| bare_ns_per_event(seed));
    run_reps(opts, tracer, TAIL_PCT, |index, tracer| match kind {
        Kind::Steady => steady(seed, index, tracer, bare),
        Kind::Chaos => chaos(seed, index, tracer, bare),
        Kind::FlashCrowd => flash_crowd(seed, index, tracer, bare),
    })
}

/// The worlds of one repetition, folded as each finishes. `federated_steady`
/// runs one; the workloads whose cost depends on a seed's luck with its plans
/// run several, each from its own derived seed, so that the luck averages out.
struct Worlds<'t> {
    acc: Accum,
    setup_s: f64,
    wall_s: f64,
    steps: Vec<f64>,
    /// What the repetition did, for the transcript.
    header: String,
    last: Option<Scenario>,
    tracer: Option<&'t mut Tracer>,
    request: u64,
}

impl<'t> Worlds<'t> {
    fn new(tracer: Option<&'t mut Tracer>, request: u64, header: String) -> Self {
        Self {
            acc: Accum::default(),
            setup_s: 0.0,
            wall_s: 0.0,
            steps: Vec::new(),
            header,
            last: None,
            tracer,
            request,
        }
    }

    /// Builds the next world, lets `prepare` schedule what the workload
    /// needs on it, warms it up (all inside the set-up spans, all counted as
    /// set-up time) and starts its measured phase.
    fn start<T>(
        &mut self,
        cfg: ScenarioConfig,
        warmup: SimTime,
        prepare: impl FnOnce(&mut Scenario) -> T,
    ) -> (Driver<'t>, T) {
        drop(self.last.take()); // one world resident at a time
        let (tracer, request) = (&mut self.tracer, self.request);
        let (setup_s, (s, prepared)) = timed(|| {
            let mut s = span(tracer, SpanName::Build, request, || Scenario::build(cfg));
            let prepared = prepare(&mut s);
            span(tracer, SpanName::Warmup, request, || {
                s.sim.run_until(warmup)
            });
            (s, prepared)
        });
        self.setup_s += setup_s;
        (Driver::start(s, self.tracer.take(), request), prepared)
    }

    /// Verifies a finished world and folds what its clients and nodes saw.
    fn absorb(&mut self, mut d: Driver<'t>, healing: Option<&Healing>, timeline: &Timeline) {
        self.tracer = d.tracer.take();
        self.wall_s += d.wall_s;
        self.steps.append(&mut d.steps);
        let acc = &mut self.acc;
        span(&mut self.tracer, SpanName::Verify, self.request, || {
            acc.absorb(&d, healing, timeline)
        });
        self.last = Some(d.s);
    }

    /// Finishes the repetition: transcript, metrics, and the layer numbers
    /// only a traced run takes (on the last world).
    fn finish(mut self, bare: Option<f64>) -> Rep {
        let fold_start = Instant::now();
        let mut transcript = self.header;
        transcript.push_str(&self.acc.transcript());
        let mut layers = self.acc.metrics(bare);
        if let (Some(s), Some(tracer)) = (&self.last, self.tracer) {
            let digest_ns = time_sync_digests(s, tracer, self.request, 16);
            layers.set("registry.sync.digest_ns", digest_ns);
            let (closure_s, _) = timed(|| {
                tracer.span(SpanName::ClosureBuild, self.request, || {
                    SubsumptionIndex::build(&s.ontology)
                })
            });
            layers.set("semantic.reasoner.closure_build_ms", closure_s * 1e3);
        }
        layers.set("metrics.fold_ms", fold_start.elapsed().as_secs_f64() * 1e3);
        Rep {
            setup_s: self.setup_s,
            wall_s: self.wall_s,
            steps: self.steps,
            transcript,
            work: self.acc.discoveries() as f64,
            attempted: self.acc.discoveries(),
            failed: self.acc.failed,
            violations: std::mem::take(&mut self.acc.violations),
            layers,
        }
    }
}

// ---------------------------------------------------------------- steady ---

mod steady_shape {
    use super::*;
    pub const LANS: usize = 16;
    pub const SERVICES_PER_LAN: usize = 20;
    pub const CLIENTS_PER_LAN: usize = 4;
    /// Many distinct payloads, each used a few times: the mean result size,
    /// which sets the cost of a discovery, then varies little with the seed.
    pub const QUERIES: usize = 192;
    /// Attach, publish, federation mesh closure, first anti-entropy rounds.
    pub const WARMUP: SimTime = secs(30);
    /// Every client issues one discovery per simulated second for this long.
    pub const ISSUING: SimTime = secs(20);
}

/// `federated_steady`: no faults; handlers, forwarding and response
/// aggregation dominate. Every discovery must come back with full recall.
fn steady(
    seed: u64,
    request: u64,
    tracer: Option<&mut Tracer>,
    bare: Option<f64>,
) -> Result<Rep, String> {
    use steady_shape::*;
    let cfg = ScenarioConfig {
        lans: LANS,
        clients_per_lan: CLIENTS_PER_LAN,
        deployment: Deployment::Federated {
            registries_per_lan: 1,
        },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: LANS * SERVICES_PER_LAN,
            queries: QUERIES,
            generalization_rate: 0.5,
            seed,
        },
        seed,
        partition: PartitionPlan::Single,
        workers: 1,
        ..Default::default()
    };
    let header = format!(
        "  open loop: {} clients x 1 discovery/sim-s for {} sim-s on {LANS} LANs x \
         (1 registry + {SERVICES_PER_LAN} services + {CLIENTS_PER_LAN} clients), lateness 0 by construction\n",
        LANS * CLIENTS_PER_LAN,
        ISSUING / 1_000
    );
    let mut worlds = Worlds::new(tracer, request, header);
    let (mut d, ()) = worlds.start(cfg, WARMUP, |_| ());
    // Nothing churns: ground truth per workload query is fixed.
    let expected: Vec<Vec<NodeId>> = (0..QUERIES).map(|qi| d.expected_now(qi)).collect();

    let options = QueryOptions::default();
    let clients = d.s.clients.len();
    let rounds = ISSUING / SLICE;
    for round in 0..rounds {
        // Half the clients per slice, so each issues once per second.
        for ci in (0..clients).filter(|ci| (*ci as u64 + round).is_multiple_of(2)) {
            let qi = (ci + 7 * (round as usize / 2)) % QUERIES;
            d.issue(
                ci,
                qi,
                options.clone(),
                expected[qi].clone(),
                Guarantee::FullRecall,
            );
        }
        d.advance(WARMUP + (round + 1) * SLICE);
    }
    // Every discovery completes at its deadline; drain the last ones.
    d.advance(WARMUP + ISSUING + options.timeout + SLICE);

    worlds.absorb(d, None, &Timeline::new());
    Ok(worlds.finish(bare))
}

// ----------------------------------------------------------------- chaos ---

mod chaos_shape {
    use super::*;
    pub const LANS: usize = 8;
    pub const SERVICES_PER_LAN: usize = 20;
    pub const CLIENTS_PER_LAN: usize = 4;
    pub const QUERIES: usize = 96;
    /// Independent worlds per repetition, each from its own derived seed, so
    /// that one seed's luck with its plans averages out.
    pub const SUB_SEEDS: u64 = 4;
    pub const WARMUP: SimTime = secs(15);
    /// Churn and fault windows open inside `[WARMUP, WARMUP + CHAOS)`.
    pub const CHAOS: SimTime = secs(30);
    /// Longer than lease expiry (30 s) + purge cadence + republish.
    pub const SETTLE: SimTime = secs(45);
    /// Discoveries issued this late in the settle must all be answered, and
    /// their mean recall is the plateau the world healed to.
    pub const TAIL: SimTime = secs(15);
    /// The plateau a healed world must reach. Not 1.0: the corrupting hook
    /// delivers mutated frames that still decode, and the program has no
    /// frame integrity check, so a mutated `Publish` can overwrite a stored
    /// advert (same id and version, other content) or draw a `PublishNack`
    /// that stops its provider republishing. Either loses a live service
    /// until it restarts; seeds lose 0 to 8 of 160 that way, the plateau
    /// stays above 0.95, and a broken replication or purge plane falls far
    /// below this floor.
    pub const RECALL_FLOOR: f64 = 0.9;
    /// The soak's fault severity, except frame corruption, capped at 0.1
    /// where the soak allows 0.3. A forwarded query whose mutated copy still
    /// decodes carries a fresh random id (and any ttl), so loop avoidance
    /// misses it and every registry floods it on to all its peers. With 7
    /// peers that branching process is near critical at 0.3: about one world
    /// in eighty blew up into ~10^6 query messages within a few simulated
    /// seconds and tripped the storm watchdog (the same storm the issue saw
    /// at 14 LANs and more). At 0.1 it dies out.
    pub const MAX_CORRUPT: f64 = 0.1;
}

/// Schedules the chaos soak's churn and fault plans on a fresh world, both
/// confined to `[WARMUP, WARMUP + CHAOS]`: nothing churns during warm-up, and
/// everything ends the window up, because the settle measures healing, not
/// permanent loss.
fn schedule_chaos(s: &mut Scenario, sub: u64) -> (ChurnPlan, FaultPlan) {
    use chaos_shape::*;
    s.sim.set_corruptor_factory(|| Box::new(corrupting_hook()));
    // Services and non-seed registries come and go; the seed registry is the
    // federation rendezvous.
    let mut targets: Vec<NodeId> = s.services.iter().map(|&(n, _)| n).collect();
    targets.extend(s.registries.iter().skip(1).copied());
    let mut churn = ChurnPlan::exponential(&targets, 25_000.0, 8_000.0, CHAOS, sub);
    churn.events.iter_mut().for_each(|e| e.at += WARMUP);
    for &n in &targets {
        if !churn.is_up_at(n, WARMUP + CHAOS) {
            churn.events.push(ChurnEvent {
                at: WARMUP + CHAOS,
                node: n,
                up: true,
            });
        }
    }
    churn.events.sort_by_key(|e| (e.at, e.node));
    churn.apply(&mut s.sim);
    let mut faults = FaultPlan::exponential(
        &s.lans,
        true,
        9_000.0,
        3_500.0,
        FaultSeverity {
            max_corrupt: MAX_CORRUPT,
            ..FaultSeverity::default()
        },
        CHAOS,
        sub,
    );
    faults.events.iter_mut().for_each(|e| e.at += WARMUP);
    faults.apply(&mut s.sim);
    (churn, faults)
}

/// `federated_chaos`: the chaos soak's churn and fault plans with frame
/// corruption through the real codec and self-healing retries on, then a
/// settle. Discoveries issued during chaos and healing are best effort;
/// those issued in the last seconds of the settle must all be answered, and
/// their mean recall must reach the floor.
fn chaos(
    seed: u64,
    request: u64,
    tracer: Option<&mut Tracer>,
    bare: Option<f64>,
) -> Result<Rep, String> {
    use chaos_shape::*;
    let header = format!(
        "  open loop: {} clients x 1 discovery/sim-s through {} sim-s of chaos and {} sim-s of settle, \
         {SUB_SEEDS} sub-seeds on {LANS} LANs x (1 + {SERVICES_PER_LAN} + {CLIENTS_PER_LAN}), lateness 0 by construction\n",
        LANS * CLIENTS_PER_LAN,
        CHAOS / 1_000,
        SETTLE / 1_000
    );
    let mut worlds = Worlds::new(tracer, request, header);
    for k in 0..SUB_SEEDS {
        let sub = Seed(seed).derive_idx("bench.chaos", k).0;
        let mut cfg = ScenarioConfig {
            lans: LANS,
            clients_per_lan: CLIENTS_PER_LAN,
            deployment: Deployment::Federated {
                registries_per_lan: 1,
            },
            population: PopulationSpec {
                model: ModelId::Semantic,
                services: LANS * SERVICES_PER_LAN,
                queries: QUERIES,
                generalization_rate: 0.5,
                seed: sub,
            },
            seed: sub,
            partition: PartitionPlan::Single,
            workers: 1,
            retry: Some(RetryPolicy::standard()),
            ..Default::default()
        };
        cfg.registry.probation = RetryPolicy::standard();
        // One legitimate responder per unicast query, as in the soak.
        cfg.client.fallback_query = false;

        let (mut d, (churn, faults)) = worlds.start(cfg, WARMUP, |s| schedule_chaos(s, sub));
        let healed_at = faults
            .healed_by()
            .max(churn.events.last().map_or(0, |e| e.at))
            .max(WARMUP);
        let mut timeline = Timeline::new();
        for e in &churn.events {
            timeline.entry(e.node).or_default().push((e.at, e.up));
        }

        let options = QueryOptions::default();
        let clients = d.s.clients.len();
        let end_issuing = healed_at + SETTLE;
        let mut round = 0u64;
        while d.now() < end_issuing && d.aborted_at.is_none() {
            let now = d.now();
            let guarantee = if now + TAIL >= end_issuing {
                Guarantee::Answered
            } else {
                Guarantee::BestEffort
            };
            for ci in (0..clients).filter(|ci| (*ci as u64 + round).is_multiple_of(2)) {
                let qi = (ci + 5 * (round as usize / 2)) % QUERIES;
                let expected = d.expected_now(qi);
                d.issue(ci, qi, options.clone(), expected, guarantee);
            }
            round += 1;
            d.advance(now + SLICE);
        }
        d.advance(end_issuing + options.timeout + SLICE);

        let net = d.s.sim.stats();
        if net.fault_injections() == 0 || net.corrupted_messages == 0 {
            worlds.acc.violations.push(format!(
                "sub-seed {k}: the plans injected nothing ({} injections, {} corrupted frames)",
                net.fault_injections(),
                net.corrupted_messages
            ));
        }
        let _ = writeln!(
            worlds.header,
            "  sub-seed {k}: churn_events={} fault_events={} healed_at={healed_at}",
            churn.len(),
            faults.len()
        );
        let healing = Healing {
            healed_at,
            settled_from: end_issuing - TAIL,
            recall_floor: RECALL_FLOOR,
        };
        worlds.absorb(d, Some(&healing), &timeline);
    }
    Ok(worlds.finish(bare))
}

// ----------------------------------------------------------- flash crowd ---

mod flash_shape {
    use super::*;
    pub const LANS: usize = 12;
    pub const SERVICES_PER_LAN: usize = 10;
    pub const CLIENTS_PER_LAN: usize = 40;
    pub const QUERIES: usize = 96;
    /// Attach, publish, mesh closure and replication run unmetered; then
    /// capacity is installed and the demand plan starts.
    pub const WARMUP: SimTime = 15_250;
    /// Plan-relative storm window and demand horizon.
    pub const STORM: (SimTime, SimTime) = (10_000, 20_000);
    pub const HORIZON: SimTime = 30_000;
    /// Baseline discoveries per LAN per demand event; the storm is 10x.
    pub const BASE_PER_LAN: u32 = 20;
    pub const SURGE: u32 = 10;
    /// Coprime-ish to the renewal cadence, so bursts drift across renewal
    /// marks instead of phase-locking with them (as in O1).
    pub const INTERVAL: SimTime = 997;
    pub const CAPACITY: NodeCapacity = NodeCapacity {
        ops_per_tick: 1,
        queue_limit: 32,
    };
    pub const OPS_BUDGET: u32 = 40;
    pub const CLIENT_TIMEOUT: SimTime = secs(4);
    /// Independent worlds per repetition. Under overload the retry dynamics
    /// amplify small differences: two seeds' worlds differ by half in events
    /// and host time for much the same offered load; three average that out.
    pub const SUB_SEEDS: u64 = 3;
    /// Leases a repetition may lose to physically dropped renewals: 2 % of
    /// its 360 adverts.
    pub const LEASES_LOST_CEILING: u64 = 7;
}

/// `flash_crowd`: O1's quick shape, layered world only. Discoveries issued
/// before the storm must be answered; those issued into the storm and its
/// retry tail are best effort (shedding them is the design). The run also
/// asserts the layer's own guarantees: no renewal is ever shed by the ladder
/// and next to no lease expires.
fn flash_crowd(
    seed: u64,
    request: u64,
    tracer: Option<&mut Tracer>,
    bare: Option<f64>,
) -> Result<Rep, String> {
    use flash_shape::*;
    let header = format!(
        "  open loop: {SUB_SEEDS} sub-seeds of a {SURGE}x storm for {} of {} sim-s by {} clients on {LANS} \
         LANs, registries capped at {} op/ms with {} queue slots, lateness 0 by construction\n",
        (STORM.1 - STORM.0) / 1_000,
        HORIZON / 1_000,
        LANS * CLIENTS_PER_LAN,
        CAPACITY.ops_per_tick,
        CAPACITY.queue_limit
    );
    let mut worlds = Worlds::new(tracer, request, header);
    for k in 0..SUB_SEEDS {
        let sub = Seed(seed).derive_idx("bench.flash", k).0;
        let mut cfg = ScenarioConfig {
            lans: LANS,
            clients_per_lan: CLIENTS_PER_LAN,
            deployment: Deployment::Federated {
                registries_per_lan: 1,
            },
            population: PopulationSpec {
                model: ModelId::Semantic,
                services: LANS * SERVICES_PER_LAN,
                queries: QUERIES,
                generalization_rate: 0.3,
                seed: sub,
            },
            seed: sub,
            partition: PartitionPlan::PerLan,
            workers: 1,
            retry: Some(RetryPolicy {
                jitter: 400,
                ..RetryPolicy::standard()
            }),
            ..Default::default()
        };
        cfg.registry.overload = OverloadPolicy {
            // An open-loop storm parks the utilization EWMA far above 100 %;
            // the renewal threshold must sit above that plateau.
            busy_renewal_pct: 1_000,
            retry_jitter: 380,
            ..OverloadPolicy::standard(OPS_BUDGET)
        };
        // Hundreds of clients pinging in step would fill the bounded ingress
        // queue with liveness chatter; registry beacons cover home liveness.
        cfg.client.attach.ping_interval = 0;
        cfg.service.attach.ping_interval = 0;
        cfg.client.hedge_after_busy = 2;

        let (mut d, ()) = worlds.start(cfg, WARMUP, |_| ());
        for r in d.s.registries.clone() {
            d.s.sim.set_node_capacity(r, Some(CAPACITY));
        }
        let plan = OverloadPlan::flash_crowd(
            BASE_PER_LAN * LANS as u32,
            SURGE,
            INTERVAL,
            STORM.0,
            STORM.1,
            HORIZON,
            sub,
        );
        let options = QueryOptions {
            max_responses: Some(8),
            ttl: 0,
            timeout: CLIENT_TIMEOUT,
            mode: QueryMode::Unicast,
        };
        let expected: Vec<Vec<NodeId>> = (0..QUERIES).map(|qi| d.expected_now(qi)).collect();
        let mut cursor = 0usize;
        for ev in &plan.events {
            d.advance(WARMUP + ev.at);
            // A discovery issued within one client timeout of the storm can
            // have its answer or its retries land inside it.
            let calm = ev.at + CLIENT_TIMEOUT < STORM.0;
            let guarantee = if calm {
                Guarantee::Answered
            } else {
                Guarantee::BestEffort
            };
            for _ in 0..ev.queries {
                // Interleave across LANs so each burst loads every registry.
                let ci = (cursor % LANS) * CLIENTS_PER_LAN + (cursor / LANS) % CLIENTS_PER_LAN;
                let qi = cursor % QUERIES;
                d.issue(ci, qi, options.clone(), expected[qi].clone(), guarantee);
                cursor += 1;
            }
        }
        d.advance(WARMUP + HORIZON + CLIENT_TIMEOUT + secs(2));
        let _ = writeln!(
            worlds.header,
            "  sub-seed {k}: offered={} in_storm={}",
            plan.total_queries(),
            plan.offered_between(STORM.0, STORM.1)
        );
        worlds.absorb(d, None, &Timeline::new());
    }

    // The overload layer's own guarantees.
    let acc = &mut worlds.acc;
    let renewal_nacks = acc.registry_count("renewal_busy_nacks") + acc.service_busy_nacks();
    if renewal_nacks != 0 {
        acc.violations.push(format!(
            "{renewal_nacks} renewal-class Busy nacks: renewals were shed"
        ));
    }
    // The ingress queue is FIFO, so a saturated storm tick can physically
    // drop a renewal; provider ack-retries re-send it, and almost always in
    // time. Not always: about one world in thirty loses a lease or two. That
    // is reported (`core.registry_node.adverts_purged`); what fails the run
    // is losing more than a few, as a broken renewal priority would.
    let purged = acc.registry_count("adverts_purged");
    if purged > LEASES_LOST_CEILING {
        acc.violations.push(format!(
            "{purged} adverts purged: leases expired under shedding (ceiling {LEASES_LOST_CEILING})"
        ));
    }
    if acc.registry_count("busy_nacks") == 0 {
        acc.violations
            .push("the storm never drove the busy band; nothing was measured".into());
    }
    Ok(worlds.finish(bare))
}
