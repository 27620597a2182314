//! F1 — Federation replication cost: what anti-entropy digest/delta sync
//! ships over the WAN, how stale replicas get, and how fast they converge.
//!
//! The paper's conceptual architecture leaves registry cooperation open
//! ("strategies for forwarding advertisements … are part of the subject
//! registry cooperation"). Registries here replicate by anti-entropy: they
//! exchange fixed-size per-bucket digests and ship only what the peer is
//! missing, delta-encoding renewals of adverts the peer has already
//! acknowledged. (The full-state push plane this replaced was measured
//! against it at rev `b1e8ca1`: ~6.8× more WAN bytes at 2–8 LANs; the table
//! is kept in EXPERIMENTS.md.)
//!
//! The same federated world (same seed, same service churn, same renewal
//! cadence) runs at growing federation sizes. Reported per size:
//!
//! * WAN replication bytes over the steady-state window (digest + delta +
//!   ack bytes), total and per registry per minute;
//! * worst replica staleness: the longest any registry's live view stayed
//!   divergent (missing or version-stale) from an origin's first-hand truth
//!   ([`sds_metrics::StalenessTracker`], sampled every 2.5 s);
//! * convergence: how long after churn stops every registry's live view
//!   agrees with every origin's first-hand set.
//!
//! At the largest size the run asserts the byte budget (at most a fifth of
//! what full-state push cost in the same world), staleness bounded near the
//! sync cadence, and convergence within three cadences — so a regression
//! fails the run.

use std::collections::BTreeMap;

use sds_bench::{f2, kib, Table};
use sds_core::RegistryNode;
use sds_metrics::StalenessTracker;
use sds_protocol::ModelId;
use sds_simnet::secs;
use sds_workload::{ChurnPlan, Deployment, PopulationSpec, Scenario, ScenarioConfig};

/// WAN bytes the full-state push plane shipped in this binary's largest
/// world (8 LANs, 180 s window, seed 71) at rev `b1e8ca1`, the last revision
/// that carried it: 8363.6 KiB. The budget below is a fifth of that.
const PUSH_PLANE_BYTES_AT_8_LANS: u64 = 8_564_326;

/// How long replicas get to catch up after churn stops.
const SETTLE_MS: u64 = 60_000;

struct Outcome {
    repl_bytes: u64,
    staleness_ms: u64,
    /// Time from the end of churn until no registry diverged from any
    /// origin, `None` if that never happened within the settle window.
    converged_after_ms: Option<u64>,
}

/// Divergence keys at one instant: `(registry index, advert id)` for every
/// live first-hand advert some *other* live registry is missing or holds at
/// an older version.
fn divergent_keys(s: &Scenario) -> Vec<(u32, u32, u128)> {
    let now = s.sim.now();
    let mut views: Vec<BTreeMap<u128, u32>> = Vec::new();
    let mut first_hand: Vec<Vec<(u128, u32)>> = Vec::new();
    for &r in &s.registries {
        let node = s.sim.handler::<RegistryNode>(r).unwrap();
        let store = node.engine().store();
        let mut view = BTreeMap::new();
        let mut fh = Vec::new();
        for st in store.live(now) {
            view.insert(st.advert.id.0, st.advert.version);
            if st.source == st.advert.provider {
                fh.push((st.advert.id.0, st.advert.version));
            }
        }
        views.push(view);
        first_hand.push(fh);
    }
    let mut keys = Vec::new();
    for (yi, fh) in first_hand.iter().enumerate() {
        for &(id, version) in fh {
            for (xi, view) in views.iter().enumerate() {
                if xi != yi && view.get(&id).is_none_or(|&v| v < version) {
                    keys.push((xi as u32, yi as u32, id));
                }
            }
        }
    }
    keys
}

fn run(lans: usize, seed: u64, measure_ms: u64) -> Outcome {
    let mut cfg = ScenarioConfig {
        lans,
        clients_per_lan: 1,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 8 * lans,
            queries: 2,
            generalization_rate: 0.5,
            seed,
        },
        seed,
        ..Default::default()
    };
    // A realistic renewal cadence: long leases, renewals well inside them,
    // so most sync rounds find nothing changed and ship digests only.
    cfg.service.lease_ms = 120_000;
    cfg.service.renew_interval = secs(40);
    let mut s = Scenario::build(cfg);

    // Service churn through the measurement window: adverts keep appearing,
    // renewing, and expiring, so replication has real work to do and
    // staleness is measured against a moving truth.
    let warmup = secs(30);
    let svc: Vec<_> = s.services.iter().map(|&(n, _)| n).collect();
    let churn = ChurnPlan::exponential(&svc, 150_000.0, 15_000.0, warmup + measure_ms, seed);
    churn.apply(&mut s.sim);

    s.sim.run_until(warmup);
    s.sim.reset_stats();

    let mut tracker = StalenessTracker::new();
    let end = warmup + measure_ms;
    while s.sim.now() < end {
        let next = (s.sim.now() + 2_500).min(end);
        s.sim.run_until(next);
        tracker.observe(s.sim.now(), divergent_keys(&s));
    }

    let st = s.sim.stats();
    let repl_bytes =
        st.kind("sync-digest").bytes + st.kind("sync-delta").bytes + st.kind("sync-ack").bytes;
    let staleness_ms = tracker.max_observed(s.sim.now());

    // The churn plan ends with the window; from here the truth stands still
    // and replicas must catch up with it.
    let mut converged_after_ms = None;
    while s.sim.now() < end + SETTLE_MS {
        if divergent_keys(&s).is_empty() {
            converged_after_ms = Some(s.sim.now() - end);
            break;
        }
        s.sim.run_until(s.sim.now() + 2_500);
    }
    Outcome { repl_bytes, staleness_ms, converged_after_ms }
}

fn main() {
    let quick = std::env::var_os("SDS_BENCH_QUICK").is_some();
    let sizes: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let measure_ms = if quick { secs(60) } else { secs(180) };
    let seed = 71;

    let mut table = Table::new(&[
        "lans",
        "services",
        "sync KiB",
        "KiB/registry/min",
        "stale (s)",
        "converged after (s)",
    ]);
    let mut last = None;
    for &lans in sizes {
        let o = run(lans, seed, measure_ms);
        assert!(o.repl_bytes > 0, "anti-entropy plane never exchanged a frame");
        let per_registry_min =
            o.repl_bytes as f64 / 1024.0 / lans as f64 / (measure_ms as f64 / 60_000.0);
        table.row(&[
            lans.to_string(),
            (8 * lans).to_string(),
            kib(o.repl_bytes),
            f2(per_registry_min),
            f2(o.staleness_ms as f64 / 1_000.0),
            o.converged_after_ms.map_or("never".into(), |ms| f2(ms as f64 / 1_000.0)),
        ]);
        last = Some((lans, o));
    }

    println!(
        "F1: federation replication by anti-entropy sync ({} ms window, seed {seed})",
        measure_ms
    );
    println!("{}", table.render());
    println!(
        "Expected shape: sync bytes grow with change rate x peers (digest rounds\n\
         are fixed-size, renewals travel as 56-byte deltas), staleness stays at\n\
         one 10 s sync cadence, and replicas converge within a cadence or two of\n\
         the last change."
    );

    let (lans, o) = last.expect("at least one size ran");
    // The acceptance claims, enforced at the largest (non-quick) size.
    if !quick {
        assert_eq!(lans, 8, "the push-plane figure was measured at 8 LANs");
        assert!(
            o.repl_bytes * 5 <= PUSH_PLANE_BYTES_AT_8_LANS,
            "anti-entropy must stay within a fifth of the full-state push bytes at \
             {lans} LANs, shipped {} KiB",
            kib(o.repl_bytes)
        );
        assert!(
            o.staleness_ms <= 30_000,
            "anti-entropy staleness unbounded: {} ms at {lans} LANs",
            o.staleness_ms
        );
        assert!(
            o.converged_after_ms.is_some_and(|ms| ms <= 30_000),
            "replicas must converge within three sync cadences of the last change, got {:?}",
            o.converged_after_ms
        );
    }
}
