//! The names the benchmark reports: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` repeats this
//! list for the driver; a unit test holds the two together.

use crate::json::Value;
use Better::{Higher, Lower};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "registry_hot",
        why: "96 payloads drawn Zipf(1.0) over 114k adverts with publish/renew/purge beside: cache and invalidation do the work, the matcher little",
    },
    WorkloadDef {
        name: "registry_scan",
        why: "every query a distinct key, 30% generalised: cache hit ratio ~0, so candidate index, matchmaker, rank and response encode are the whole cost",
    },
    WorkloadDef {
        name: "lan_beacons",
        why: "1000 trivial nodes multicasting 220-byte beacons: the bare event core, no registry work, prices a tracing hook or an engine change undiluted",
    },
    WorkloadDef {
        name: "federated_steady",
        why: "the paper's federated architecture with no faults: handlers, forwarding and response aggregation dominate, the registry data plane is a small share",
    },
    WorkloadDef {
        name: "federated_chaos",
        why: "churn, fault windows and frame corruption, then a settle: republish, lease purge, probation and delta recovery, so a steady-state gain that costs recovery shows",
    },
    WorkloadDef {
        name: "flash_crowd",
        why: "10x storm against capacity-bounded registries on the partitioned engine: the only workload where admission, stale-serve and Busy backpressure do work",
    },
];

/// What a user of the system sees, in host time. Every workload reports
/// every one of these, and none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("step_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Single layers (crate/module names), client-visible simulated-time
/// results, and the benchmark's own cost. Counts and simulated-time values
/// repeat exactly for a seed; `*_ns`, `*_ms` and `*_us` values are host time
/// from the traced run. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // What clients inside the simulated network see (simulated time).
    layer("client.discoveries", "count", Higher),
    layer("client.discovery_p50_ms", "ms", Lower),
    layer("client.discovery_p95_ms", "ms", Lower),
    layer("client.recall", "ratio", Higher),
    layer("client.failed_share", "ratio", Lower),
    layer("client.stale_hit_share", "ratio", Lower),
    layer("client.recovery_s", "s", Lower),
    layer("client.settled_recall", "ratio", Higher),
    // sds-simnet
    layer("simnet.events", "count", Lower),
    layer("simnet.ns_per_event", "ns", Lower),
    layer("simnet.delivered_msgs", "count", Lower),
    layer("simnet.dropped_msgs", "count", Lower),
    layer("simnet.multicast_tx", "count", Lower),
    layer("simnet.queued_events_max", "count", Lower),
    layer("simnet.pending_timers_max", "count", Lower),
    layer("simnet.capacity_deferred_msgs", "count", Lower),
    layer("simnet.capacity_dropped_msgs", "count", Lower),
    layer("simnet.wan_bytes_per_sim_s", "bytes/sim_s", Lower),
    layer("simnet.lan_bytes_per_sim_s", "bytes/sim_s", Lower),
    // sds-core
    layer("core.ns_per_event", "ns", Lower),
    layer("core.host_us_per_discovery", "us", Lower),
    layer("core.registry_node.queries_received", "count", Lower),
    layer("core.registry_node.queries_adopted", "count", Lower),
    layer("core.registry_node.forwards_sent", "count", Lower),
    layer("core.registry_node.federation_responses", "count", Lower),
    layer("core.registry_node.responses_to_clients", "count", Higher),
    layer(
        "core.registry_node.duplicate_queries_dropped",
        "count",
        Lower,
    ),
    layer("core.registry_node.adverts_purged", "count", Lower),
    layer("core.registry_node.peers_suspected", "count", Lower),
    layer("core.registry_node.peers_evicted", "count", Lower),
    layer("core.registry_node.busy_nacks", "count", Lower),
    layer("core.registry_node.responses_capped", "count", Lower),
    layer("core.registry_node.stale_served", "count", Lower),
    layer("core.registry_node.forwards_suppressed", "count", Lower),
    layer("core.registry_node.federation_shed", "count", Lower),
    layer("core.registry_node.retries_deduped", "count", Lower),
    layer("core.registry_node.renewal_busy_nacks", "count", Lower),
    layer("core.client_node.responses_per_query", "ratio", Lower),
    layer("core.client_node.retries", "count", Lower),
    layer("core.client_node.busy_nacks", "count", Lower),
    layer("core.service_node.publishes", "count", Lower),
    layer("core.service_node.renewals", "count", Lower),
    layer("core.service_node.retry_publishes", "count", Lower),
    layer(
        "core.service_node.republishes_after_unknown",
        "count",
        Lower,
    ),
    layer("core.service_node.publish_nacks", "count", Lower),
    layer("core.service_node.busy_nacks", "count", Lower),
    // sds-registry
    layer("registry.cache.lookups", "count", Lower),
    layer("registry.cache.hits", "count", Higher),
    layer("registry.cache.hit_ratio", "ratio", Higher),
    layer("registry.cache.invalidations", "count", Lower),
    layer("registry.cache.get_ns", "ns", Lower),
    layer("registry.cache.insert_ns", "ns", Lower),
    layer("registry.shard.route_ns", "ns", Lower),
    layer("registry.sharded.evaluate_ns_per_query", "ns", Lower),
    layer("registry.store.candidates_ns_per_query", "ns", Lower),
    layer("registry.store.candidates_per_query", "ratio", Lower),
    layer("registry.store.candidates_per_hit", "ratio", Lower),
    layer("registry.store.publish_ns", "ns", Lower),
    layer("registry.store.renew_ns", "ns", Lower),
    layer("registry.store.purge_ns_per_advert", "ns", Lower),
    layer("registry.store.adverts_live", "count", Higher),
    layer("registry.engine.rank_ns_per_query", "ns", Lower),
    layer("registry.engine.hits_per_query", "ratio", Higher),
    layer("registry.sync.rounds", "count", Lower),
    layer("registry.sync.deltas_sent", "count", Lower),
    layer("registry.sync.bytes_saved", "bytes", Higher),
    layer("registry.sync.digest_ns", "ns", Lower),
    // sds-semantic
    layer("semantic.reasoner.closure_build_ms", "ms", Lower),
    layer("semantic.matchmaker.match_ns_per_pair", "ns", Lower),
    layer("semantic.matchmaker.pairs_confirmed", "count", Lower),
    layer("semantic.matchmaker.match_share", "ratio", Lower),
    // sds-protocol
    layer("protocol.codec.encode_ns_per_msg", "ns", Lower),
    layer("protocol.codec.decode_ns_per_msg", "ns", Lower),
    layer("protocol.codec.query_frame_bytes", "bytes", Lower),
    layer("protocol.codec.response_frame_bytes", "bytes", Lower),
    layer("protocol.codec.decode_failures", "count", Lower),
    layer("protocol.wire.msgs.query", "count", Lower),
    layer("protocol.wire.msgs.query-response", "count", Lower),
    layer("protocol.wire.msgs.publish", "count", Lower),
    layer("protocol.wire.msgs.renew", "count", Lower),
    layer("protocol.wire.msgs.sync-digest", "count", Lower),
    layer("protocol.wire.msgs.sync-delta", "count", Lower),
    layer("protocol.wire.bytes.query", "bytes", Lower),
    layer("protocol.wire.bytes.query-response", "bytes", Lower),
    layer("protocol.wire.bytes.publish", "bytes", Lower),
    layer("protocol.wire.bytes.renew", "bytes", Lower),
    layer("protocol.wire.bytes.sync-digest", "bytes", Lower),
    layer("protocol.wire.bytes.sync-delta", "bytes", Lower),
    // The benchmark's own cost, kept outside timed windows.
    layer("workload.generate_ms", "ms", Lower),
    layer("workload.oracle_ms", "ms", Lower),
    layer("metrics.fold_ms", "ms", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    // Host time that is too unsteady on a shared box to carry a bound.
    layer("host.step_tail_us", "us", Lower),
];

/// Message kinds whose traffic the `protocol.wire.*` metrics break out:
/// `(kind, messages metric, bytes metric)`.
pub const WIRE_KINDS: [(&str, &str, &str); 6] = [
    (
        "query",
        "protocol.wire.msgs.query",
        "protocol.wire.bytes.query",
    ),
    (
        "query-response",
        "protocol.wire.msgs.query-response",
        "protocol.wire.bytes.query-response",
    ),
    (
        "publish",
        "protocol.wire.msgs.publish",
        "protocol.wire.bytes.publish",
    ),
    (
        "renew",
        "protocol.wire.msgs.renew",
        "protocol.wire.bytes.renew",
    ),
    (
        "sync-digest",
        "protocol.wire.msgs.sync-digest",
        "protocol.wire.bytes.sync-digest",
    ),
    (
        "sync-delta",
        "protocol.wire.msgs.sync-delta",
        "protocol.wire.bytes.sync-delta",
    ),
];

/// Metric values of one run, by catalog name.
#[derive(Default, Debug)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "`{name}` is not in the catalog"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one workload run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: queries answered or discoveries issued (events
    /// dispatched on `lan_beacons`).
    pub attempted: u64,
    /// Operations that failed the run's correctness check.
    pub failed: u64,
    /// Violations of run-wide invariants (determinism across repetitions,
    /// decode errors, lease loss under shedding, ...), one line each.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result line: every metric of `defs`, in catalog order. A missing
    /// per-layer metric reads 0; a missing or zero end-to-end metric is a bug
    /// in the workload and fails the run.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match (self.metrics.get(d.name), d.bound) {
                (Some(v), _) if v.is_finite() && (v != 0.0 || d.bound.is_none()) => v,
                (None, None) => 0.0,
                (v, _) => return Err(format!("metric `{}` has no usable value ({v:?})", d.name)),
            };
            metrics.push((
                d.name,
                Value::obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(d.unit.into())),
                ]),
            ));
        }
        Ok(Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = Vec::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(!seen.contains(&d.name), "{} listed twice", d.name);
            seen.push(d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name) && !seen.contains(&w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            seen.push(w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        for (kind, msgs, bytes) in WIRE_KINDS {
            assert_eq!(msgs, format!("protocol.wire.msgs.{kind}"));
            assert_eq!(bytes, format!("protocol.wire.bytes.{kind}"));
            assert!(seen.contains(&msgs) && seen.contains(&bytes));
        }
    }

    #[test]
    fn benchmark_json_repeats_the_catalog() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads")
        };
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Value::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Value::as_str), Some(w.why));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(listed)) = doc.get(key) else {
                panic!("{key}")
            };
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Value::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Value::as_str),
                    Some(d.better.as_str())
                );
                assert_eq!(
                    j.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
                assert_eq!(j.entries().len(), if d.bound.is_some() { 4 } else { 3 });
            }
        }
    }

    #[test]
    fn result_line_fills_unset_layers_with_zero_but_refuses_a_zero_end_to_end() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            violations: vec![],
            metrics: Metrics::default(),
        };
        o.metrics.set("registry.cache.hits", 4.0);
        let line = o.result_line(PER_LAYER).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.entries().len(), PER_LAYER.len());
        assert_eq!(
            m.get("registry.cache.hits")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
        assert_eq!(
            m.get("simnet.events")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert!(
            o.result_line(END_TO_END).is_err(),
            "unset end-to-end metrics are refused"
        );
        for d in END_TO_END {
            o.metrics.set(d.name, 1.5);
        }
        assert!(o.result_line(END_TO_END).is_ok());
        o.metrics.set("wall_s", 0.0);
        assert!(
            o.result_line(END_TO_END).is_err(),
            "an end-to-end metric is never 0"
        );
        o.failed = 1;
        o.metrics.set("wall_s", 1.0);
        assert!(o
            .result_line(END_TO_END)
            .unwrap()
            .contains("\"correct\": false"));
    }
}
