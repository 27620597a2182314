//! What the three whole-system workloads share: driving a `Scenario` in
//! timed slices under the storm watchdog, issuing discoveries open loop in
//! simulated time, and folding what clients, nodes and the network saw into
//! metrics and a transcript.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use sds_core::{ClientNode, QueryOptions, RegistryNode, ServiceNode};
use sds_simnet::{NetStats, NodeId, SimTime};
use sds_workload::Scenario;

use crate::catalog::{Metrics, WIRE_KINDS};
use crate::harness::span;
use crate::stats::percentile;
use crate::trace::{SpanName, Tracer};

/// One step of simulated time: a discovery round is issued, then the
/// simulator runs this far.
pub const SLICE: SimTime = 500;
/// Storm watchdog: a healthy world of these sizes queues a few thousand
/// events; past this the run is an event storm, not a measurement.
const STORM_QUEUED_EVENTS: usize = 200_000;
/// Storm watchdog: host seconds one slice may take.
const STORM_SLICE_HOST_S: f64 = 10.0;

/// What a discovery must achieve for the run to count it as correct.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Guarantee {
    /// Answered with every provider the oracle expects.
    FullRecall,
    /// Answered at all (the response cap or stale service may trim it).
    Answered,
    /// Issued while faults or a storm were active: reported, not gated.
    BestEffort,
}

pub struct Issued {
    client: usize,
    seq: u64,
    at: SimTime,
    expected: Vec<NodeId>,
    guarantee: Guarantee,
}

/// Drives one scenario through a repetition's measured phase.
pub struct Driver<'t> {
    pub s: Scenario,
    pub tracer: Option<&'t mut Tracer>,
    pub request: u64,
    pub steps: Vec<f64>,
    pub wall_s: f64,
    pub oracle_s: f64,
    pub issued: Vec<Issued>,
    /// Host time of issues since the last slice; charged to the next step.
    pending_s: f64,
    queued_max: usize,
    timers_max: usize,
    slowest_step_s: f64,
    events_at_start: u64,
    started_at: SimTime,
    /// Node counters at the start of the measured phase, subtracted at its
    /// end. (A registry that crashes and restarts keeps its counters: they
    /// live in the handler, which survives.)
    counts_at_start: Vec<(&'static str, u64)>,
    /// Simulated time at which the watchdog gave up, if it did.
    pub aborted_at: Option<SimTime>,
}

impl<'t> Driver<'t> {
    /// Starts the measured phase on a warmed-up scenario: traffic counters
    /// reset, event count and clock noted.
    pub fn start(mut s: Scenario, tracer: Option<&'t mut Tracer>, request: u64) -> Self {
        s.sim.reset_stats();
        Self {
            events_at_start: s.sim.events_processed(),
            started_at: s.sim.now(),
            counts_at_start: node_counts(&s),
            s,
            tracer,
            request,
            steps: Vec::new(),
            wall_s: 0.0,
            oracle_s: 0.0,
            issued: Vec::new(),
            pending_s: 0.0,
            queued_max: 0,
            timers_max: 0,
            slowest_step_s: 0.0,
            aborted_at: None,
        }
    }

    /// Ground truth for workload query `qi` right now (host time charged to
    /// the benchmark's oracle, not to the run).
    pub fn expected_now(&mut self, qi: usize) -> Vec<NodeId> {
        let t = Instant::now();
        let payload = self.s.queries[qi % self.s.queries.len()].clone();
        let expected = span(&mut self.tracer, SpanName::Oracle, self.request, || {
            self.s.expected_now(&payload)
        });
        self.oracle_s += t.elapsed().as_secs_f64();
        expected
    }

    /// Issues workload query `qi` from client `ci` now.
    pub fn issue(
        &mut self,
        ci: usize,
        qi: usize,
        options: QueryOptions,
        expected: Vec<NodeId>,
        guarantee: Guarantee,
    ) {
        if self.aborted_at.is_some() {
            return;
        }
        let client = self.s.clients[ci % self.s.clients.len()];
        let payload = self.s.queries[qi % self.s.queries.len()].clone();
        let at = self.s.sim.now();
        let t = Instant::now();
        let mut seq = 0;
        span(&mut self.tracer, SpanName::IssueQuery, self.request, || {
            self.s.sim.with_node::<ClientNode>(client, |c, ctx| {
                seq = c.issue_query(ctx, payload, options);
            })
        });
        self.pending_s += t.elapsed().as_secs_f64();
        self.issued.push(Issued {
            client: ci % self.s.clients.len(),
            seq,
            at,
            expected,
            guarantee,
        });
    }

    /// Runs the simulator to `until` in slices of at most [`SLICE`], timing
    /// each as one step and checking the storm watchdog after it.
    pub fn advance(&mut self, until: SimTime) {
        while self.aborted_at.is_none() && self.s.sim.now() < until {
            let next = until.min(self.s.sim.now() + SLICE);
            let t = Instant::now();
            span(&mut self.tracer, SpanName::RunUntil, self.request, || {
                self.s.sim.run_until(next)
            });
            let step = t.elapsed().as_secs_f64() + std::mem::take(&mut self.pending_s);
            self.steps.push(step);
            self.wall_s += step;
            self.slowest_step_s = self.slowest_step_s.max(step);
            let queued = self.s.sim.queued_event_count();
            self.queued_max = self.queued_max.max(queued);
            self.timers_max = self.timers_max.max(self.s.sim.pending_timer_count());
            if queued > STORM_QUEUED_EVENTS || step > STORM_SLICE_HOST_S {
                self.aborted_at = Some(next);
            }
        }
    }

    pub fn now(&self) -> SimTime {
        self.s.sim.now()
    }
}

/// Additive counters of the registry, service and cache layers, summed over
/// every node of a scenario.
fn node_counts(s: &Scenario) -> Vec<(&'static str, u64)> {
    let reg = |f: fn(&RegistryNode) -> u64| -> u64 {
        s.registries
            .iter()
            .map(|&n| {
                f(s.sim
                    .handler::<RegistryNode>(n)
                    .expect("registries are RegistryNodes"))
            })
            .sum()
    };
    let svc = |f: fn(&ServiceNode) -> u64| -> u64 {
        s.services
            .iter()
            .map(|&(n, _)| {
                f(s.sim
                    .handler::<ServiceNode>(n)
                    .expect("services are ServiceNodes"))
            })
            .sum()
    };
    vec![
        (
            "core.registry_node.queries_received",
            reg(|r| r.stats.queries_received),
        ),
        (
            "core.registry_node.queries_adopted",
            reg(|r| r.stats.queries_adopted),
        ),
        (
            "core.registry_node.forwards_sent",
            reg(|r| r.stats.forwards_sent),
        ),
        (
            "core.registry_node.federation_responses",
            reg(|r| r.stats.federation_responses),
        ),
        (
            "core.registry_node.responses_to_clients",
            reg(|r| r.stats.responses_to_clients),
        ),
        (
            "core.registry_node.duplicate_queries_dropped",
            reg(|r| r.stats.duplicate_queries_dropped),
        ),
        (
            "core.registry_node.adverts_purged",
            reg(|r| r.stats.adverts_purged),
        ),
        (
            "core.registry_node.peers_suspected",
            reg(|r| r.stats.peers_suspected),
        ),
        (
            "core.registry_node.peers_evicted",
            reg(|r| r.stats.peers_evicted),
        ),
        ("core.registry_node.busy_nacks", reg(|r| r.stats.busy_nacks)),
        (
            "core.registry_node.responses_capped",
            reg(|r| r.stats.responses_capped),
        ),
        (
            "core.registry_node.stale_served",
            reg(|r| r.stats.stale_served),
        ),
        (
            "core.registry_node.forwards_suppressed",
            reg(|r| r.stats.forwards_suppressed),
        ),
        (
            "core.registry_node.federation_shed",
            reg(|r| r.stats.federation_shed),
        ),
        (
            "core.registry_node.retries_deduped",
            reg(|r| r.stats.retries_deduped),
        ),
        (
            "core.registry_node.renewal_busy_nacks",
            reg(|r| r.stats.renewal_busy_nacks),
        ),
        ("registry.sync.rounds", reg(|r| r.stats.sync_rounds)),
        ("registry.sync.deltas_sent", reg(|r| r.stats.deltas_sent)),
        ("registry.sync.bytes_saved", reg(|r| r.stats.bytes_saved)),
        ("registry.cache.hits", reg(|r| r.cache_stats().hits)),
        (
            "registry.cache.lookups",
            reg(|r| r.cache_stats().hits + r.cache_stats().misses),
        ),
        (
            "registry.cache.invalidations",
            reg(|r| r.cache_stats().invalidated),
        ),
        ("core.service_node.publishes", svc(|n| n.stats.publishes)),
        ("core.service_node.renewals", svc(|n| n.stats.renewals)),
        (
            "core.service_node.retry_publishes",
            svc(|n| n.stats.retry_publishes),
        ),
        (
            "core.service_node.republishes_after_unknown",
            svc(|n| n.stats.republishes_after_unknown),
        ),
        ("core.service_node.busy_nacks", svc(|n| n.stats.busy_nacks)),
        (
            "core.service_node.publish_nacks",
            svc(|n| n.stats.publish_nacks),
        ),
    ]
}

/// Everything one or more worlds of a repetition observed, summed.
#[derive(Default)]
pub struct Accum {
    discoveries: u64,
    answered: u64,
    /// Discoveries that broke their guarantee.
    pub failed: u64,
    latencies_ms: Vec<f64>,
    recall_sum: f64,
    hits: u64,
    stale_hits: u64,
    responses: u64,
    retries: u64,
    busy_nacks: u64,
    /// Longest time after the heal a world took to reach its recall plateau.
    recovery_ms: u64,
    /// Recall sum and count over the settled tails.
    settled: (f64, u64),
    counts: Vec<(&'static str, u64)>,
    net: NetStats,
    events: u64,
    sim_ms: u64,
    queued_max: usize,
    timers_max: usize,
    adverts_live: u64,
    wall_s: f64,
    oracle_s: f64,
    pub violations: Vec<String>,
}

/// A world that had faults injected, and when they stopped.
pub struct Healing {
    /// No fault or churn event fires after this.
    pub healed_at: SimTime,
    /// Discoveries issued from here on form the settled tail: the recall
    /// plateau the world heals to is their mean recall.
    pub settled_from: SimTime,
    /// The plateau must reach this, or the world did not heal.
    pub recall_floor: f64,
}

/// Whether `node` was up at `t` under a crash/revive schedule (nodes start
/// up; `timeline` holds each node's flips in time order).
pub type Timeline = HashMap<NodeId, Vec<(SimTime, bool)>>;

fn up_at(timeline: &Timeline, node: NodeId, t: SimTime) -> bool {
    timeline
        .get(&node)
        .and_then(|flips| flips.iter().rev().find(|&&(at, _)| at <= t))
        .is_none_or(|&(_, up)| up)
}

impl Accum {
    /// Folds a finished world in. `healing` describes a world that had
    /// faults injected; `timeline` tells which providers were dead when a
    /// response arrived.
    pub fn absorb(&mut self, d: &Driver<'_>, healing: Option<&Healing>, timeline: &Timeline) {
        let s = &d.s;
        // Per second since the heal: (recall sum, discoveries); and the same
        // over the settled tail.
        let mut after_heal: Vec<(f64, u64)> = Vec::new();
        let mut settled = (0.0, 0u64);
        let completed: Vec<HashMap<u64, &sds_core::CompletedQuery>> = (0..s.clients.len())
            .map(|ci| s.completed(ci).iter().map(|c| (c.seq, c)).collect())
            .collect();
        for q in &d.issued {
            self.discoveries += 1;
            let done = completed[q.client].get(&q.seq);
            let answered_at = done.and_then(|c| c.first_response_at);
            let recall = match done {
                Some(c) => {
                    let got: Vec<NodeId> = c.hits.iter().map(|h| h.advert.provider).collect();
                    self.responses += u64::from(c.responses_received);
                    self.retries += u64::from(c.retries);
                    self.busy_nacks += u64::from(c.busy_nacks);
                    self.hits += got.len() as u64;
                    if let Some(t) = answered_at {
                        self.stale_hits +=
                            got.iter().filter(|&&p| !up_at(timeline, p, t)).count() as u64;
                    }
                    sds_metrics::recall(&q.expected, &got)
                }
                None => 0.0,
            };
            self.recall_sum += recall;
            if let Some(t) = answered_at {
                self.answered += 1;
                self.latencies_ms.push((t - q.at) as f64);
            }
            let ok = match q.guarantee {
                Guarantee::FullRecall => answered_at.is_some() && recall == 1.0,
                Guarantee::Answered => answered_at.is_some(),
                Guarantee::BestEffort => true,
            };
            if !ok {
                self.failed += 1;
                if self.violations.len() < 8 {
                    self.violations.push(format!(
                        "discovery client {} seq {} issued at {} ms: answered {:?}, recall {recall:.3} \
                         of {} expected ({:?})",
                        q.client,
                        q.seq,
                        q.at,
                        answered_at,
                        q.expected.len(),
                        q.guarantee
                    ));
                }
            }
            if let Some(h) = healing.filter(|h| q.at >= h.healed_at) {
                let second = ((q.at - h.healed_at) / 1_000) as usize;
                if after_heal.len() <= second {
                    after_heal.resize(second + 1, (0.0, 0u64));
                }
                after_heal[second].0 += recall;
                after_heal[second].1 += 1;
                if q.at >= h.settled_from {
                    settled.0 += recall;
                    settled.1 += 1;
                }
            }
        }
        if let Some(h) = healing {
            let plateau = settled.0 / settled.1.max(1) as f64;
            // Recovered = the first second after which no second's mean recall
            // falls more than a hundredth short of the plateau.
            let last_short = after_heal
                .iter()
                .rposition(|&(sum, n)| n > 0 && sum / (n as f64) < plateau - 0.01);
            self.recovery_ms = self
                .recovery_ms
                .max(last_short.map_or(0, |i| (i as u64 + 1) * 1_000));
            self.settled.0 += settled.0;
            self.settled.1 += settled.1;
            if plateau < h.recall_floor {
                self.violations.push(format!(
                    "mean recall of the {} discoveries issued after {} ms is {plateau:.4}, below \
                     the floor of {}: the world did not heal",
                    settled.1, h.settled_from, h.recall_floor
                ));
            }
        }
        if let Some(at) = d.aborted_at {
            self.violations.push(format!(
                "storm watchdog: aborted at sim time {at} ms ({} events queued at most, slowest \
                 slice {:.2} s); discoveries outstanding then count as failed",
                d.queued_max, d.slowest_step_s
            ));
        }

        for ((name, now), (_, before)) in node_counts(s).into_iter().zip(&d.counts_at_start) {
            match self.counts.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 += now - before,
                None => self.counts.push((name, now - before)),
            }
        }
        self.net.merge(s.sim.stats());
        self.events += s.sim.events_processed() - d.events_at_start;
        self.sim_ms += s.sim.now() - d.started_at;
        self.queued_max = self.queued_max.max(d.queued_max);
        self.timers_max = self.timers_max.max(d.timers_max);
        self.adverts_live += s
            .registries
            .iter()
            .filter_map(|&r| s.sim.handler::<RegistryNode>(r))
            .map(|r| r.engine().store().len() as u64)
            .sum::<u64>();
        self.wall_s += d.wall_s;
        self.oracle_s += d.oracle_s;
    }

    pub fn discoveries(&self) -> u64 {
        self.discoveries
    }

    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Lines for the determinism transcript: everything observed in
    /// simulated time, nothing in host time.
    pub fn transcript(&mut self) -> String {
        self.latencies_ms.sort_unstable_by(f64::total_cmp);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  discoveries={} answered={} failed={} recall_sum={:.6} latency_p50_ms={} \
             latency_p95_ms={} hits={} stale_hits={} recovery_ms={} settled_recall_sum={:.6} settled={}",
            self.discoveries,
            self.answered,
            self.failed,
            self.recall_sum,
            self.latency(50.0),
            self.latency(95.0),
            self.hits,
            self.stale_hits,
            self.recovery_ms,
            self.settled.0,
            self.settled.1
        );
        let _ = writeln!(
            out,
            "  events={} sim_ms={} wan_bytes={} lan_bytes={} delivered={} dropped={} \
             corrupt_dropped={} cap_deferred={} cap_dropped={} queued_max={} timers_max={}",
            self.events,
            self.sim_ms,
            self.net.wan_bytes,
            self.net.lan_bytes,
            self.net.delivered_messages,
            self.net.dropped_messages,
            self.net.corrupt_dropped_messages,
            self.net.capacity_deferred_messages,
            self.net.capacity_dropped_messages,
            self.queued_max,
            self.timers_max
        );
        for chunk in self.counts.chunks(4) {
            let line: Vec<String> = chunk.iter().map(|(n, v)| format!("{n}={v}")).collect();
            let _ = writeln!(out, "  {}", line.join(" "));
        }
        out
    }

    fn latency(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            percentile(&self.latencies_ms, p)
        }
    }

    /// The per-layer metrics. `bare_ns_per_event` is the engine's own cost
    /// per event when known (traced runs calibrate it), for the estimate of
    /// what the handlers add.
    pub fn metrics(&mut self, bare_ns_per_event: Option<f64>) -> Metrics {
        self.latencies_ms.sort_unstable_by(f64::total_cmp);
        let mut m = Metrics::default();
        let n = self.discoveries.max(1) as f64;
        m.set("client.discoveries", self.discoveries as f64);
        m.set("client.discovery_p50_ms", self.latency(50.0));
        m.set("client.discovery_p95_ms", self.latency(95.0));
        m.set("client.recall", self.recall_sum / n);
        m.set(
            "client.failed_share",
            (self.discoveries - self.answered) as f64 / n,
        );
        m.set(
            "client.stale_hit_share",
            self.stale_hits as f64 / self.hits.max(1) as f64,
        );
        m.set("client.recovery_s", self.recovery_ms as f64 / 1e3);
        if self.settled.1 > 0 {
            m.set(
                "client.settled_recall",
                self.settled.0 / self.settled.1 as f64,
            );
        }
        m.set(
            "core.client_node.responses_per_query",
            self.responses as f64 / n,
        );
        m.set("core.client_node.retries", self.retries as f64);
        m.set("core.client_node.busy_nacks", self.busy_nacks as f64);

        let sim_s = self.sim_ms as f64 / 1e3;
        m.set("simnet.events", self.events as f64);
        m.set("simnet.delivered_msgs", self.net.delivered_messages as f64);
        m.set("simnet.dropped_msgs", self.net.dropped_messages as f64);
        m.set(
            "simnet.multicast_tx",
            self.net.multicast_transmissions as f64,
        );
        m.set("simnet.queued_events_max", self.queued_max as f64);
        m.set("simnet.pending_timers_max", self.timers_max as f64);
        m.set(
            "simnet.capacity_deferred_msgs",
            self.net.capacity_deferred_messages as f64,
        );
        m.set(
            "simnet.capacity_dropped_msgs",
            self.net.capacity_dropped_messages as f64,
        );
        m.set(
            "simnet.wan_bytes_per_sim_s",
            self.net.wan_bytes as f64 / sim_s,
        );
        m.set(
            "simnet.lan_bytes_per_sim_s",
            self.net.lan_bytes as f64 / sim_s,
        );
        m.set(
            "protocol.codec.decode_failures",
            self.net.corrupt_dropped_messages as f64,
        );
        for (kind, msgs, bytes) in WIRE_KINDS {
            let k = self.net.kind(kind);
            m.set(msgs, k.messages as f64);
            m.set(bytes, k.bytes as f64);
        }

        for &(name, v) in &self.counts {
            m.set(name, v as f64);
        }
        let lookups = self.count("registry.cache.lookups");
        if lookups > 0 {
            m.set(
                "registry.cache.hit_ratio",
                self.count("registry.cache.hits") as f64 / lookups as f64,
            );
        }
        m.set("registry.store.adverts_live", self.adverts_live as f64);

        let ns_per_event = self.wall_s * 1e9 / self.events.max(1) as f64;
        m.set("core.host_us_per_discovery", self.wall_s * 1e6 / n);
        if let Some(bare) = bare_ns_per_event {
            m.set("simnet.ns_per_event", bare);
            m.set("core.ns_per_event", (ns_per_event - bare).max(0.0));
        }
        m.set("workload.oracle_ms", self.oracle_s * 1e3);
        m
    }

    pub fn service_busy_nacks(&self) -> u64 {
        self.count("core.service_node.busy_nacks")
    }

    pub fn registry_count(&self, field: &str) -> u64 {
        self.count(&format!("core.registry_node.{field}"))
    }
}

/// Times one anti-entropy digest fold per registry from outside (the sync
/// plane's per-round cost) and returns the mean in nanoseconds.
pub fn time_sync_digests(s: &Scenario, tracer: &mut Tracer, request: u64, buckets: u16) -> f64 {
    let now = s.sim.now();
    for &r in &s.registries {
        let node = s
            .sim
            .handler::<RegistryNode>(r)
            .expect("registries are RegistryNodes");
        tracer.span(SpanName::SyncDigest, request, || {
            std::hint::black_box(node.engine().store().sync_digests(now, buckets))
        });
    }
    tracer.mean_ns(SpanName::SyncDigest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_lookup_uses_the_last_flip_at_or_before_t() {
        let mut tl = Timeline::new();
        tl.insert(NodeId(3), vec![(100, false), (250, true), (900, false)]);
        assert!(up_at(&tl, NodeId(3), 99), "nodes start up");
        assert!(!up_at(&tl, NodeId(3), 100));
        assert!(!up_at(&tl, NodeId(3), 249));
        assert!(up_at(&tl, NodeId(3), 250));
        assert!(!up_at(&tl, NodeId(3), 5_000));
        assert!(
            up_at(&tl, NodeId(4), 5_000),
            "a node the plan never touches stays up"
        );
    }
}
