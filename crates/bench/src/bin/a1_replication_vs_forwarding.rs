//! A1 — Ablation: replicate advertisements vs forward queries (paper §4.9).
//!
//! "There are lots of different design choices, e.g. to push or pull
//! advertisements between registries … Strategies for forwarding
//! advertisements or queries are part of the subject registry cooperation."
//!
//! The same federated world is run with (a) query forwarding only
//! (`sync_interval = 0`), (b) anti-entropy advert replication only
//! (`ForwardStrategy::None`), and (c) both (the default). Replication moves
//! cost from query time (WAN forwards, response latency) to publish time
//! (digest rounds plus deltas for whatever changed); which wins depends on
//! the query:service-churn ratio, so we sweep the query rate.

use sds_bench::{f2, kib, run_query_phase, Table};
use sds_core::{ForwardStrategy, QueryOptions};
use sds_protocol::ModelId;
use sds_simnet::secs;
use sds_workload::{Deployment, PopulationSpec, Scenario, ScenarioConfig};

struct Mode {
    name: &'static str,
    strategy: ForwardStrategy,
    sync_interval: u64,
}

fn run(mode: &Mode, queries: usize, seed: u64) -> (f64, f64, u64, u64, f64) {
    let mut cfg = ScenarioConfig {
        lans: 4,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 24,
            queries: 24,
            generalization_rate: 0.5,
            seed,
        },
        seed,
        ..Default::default()
    };
    cfg.registry.strategy = mode.strategy.clone();
    cfg.registry.sync_interval = mode.sync_interval;
    let mut s = Scenario::build(cfg);
    s.sim.run_until(secs(15)); // let at least one sync round happen
    s.sim.reset_stats();
    let report = run_query_phase(
        &mut s,
        queries,
        secs(3),
        QueryOptions { timeout: secs(2), ..Default::default() },
    );
    let stats = s.sim.stats();
    let query_bytes = stats.kind("query").bytes + stats.kind("query-response").bytes;
    let sync_bytes = stats.kind("sync-digest").bytes
        + stats.kind("sync-delta").bytes
        + stats.kind("sync-ack").bytes;
    (report.recall_mean, report.first_response_ms.mean, query_bytes, sync_bytes, {
        stats.wan_bytes as f64
    })
}

fn main() {
    let modes = [
        Mode { name: "forward queries", strategy: ForwardStrategy::Flood { ttl: 4 }, sync_interval: 0 },
        Mode { name: "replicate adverts", strategy: ForwardStrategy::None, sync_interval: secs(10) },
        Mode {
            name: "both (default)",
            strategy: ForwardStrategy::Flood { ttl: 4 },
            sync_interval: secs(10),
        },
    ];
    let mut table = Table::new(&[
        "cooperation",
        "queries",
        "recall",
        "1st-resp ms",
        "query KiB",
        "sync KiB",
        "WAN KiB",
    ]);
    for queries in [8usize, 64] {
        for mode in &modes {
            let (recall, latency, qb, sb, wan) = run(mode, queries, 51);
            table.row(&[
                mode.name.into(),
                queries.to_string(),
                f2(recall),
                f2(latency),
                kib(qb),
                kib(sb),
                f2(wan / 1024.0),
            ]);
        }
    }
    table.print("A1: registry cooperation — query forwarding vs advert replication");
    println!(
        "Expected shape: replication answers locally (lowest first-response latency,\n\
         least query traffic) and pays a sync stream that scales with elapsed time\n\
         and change rate, not with demand; forwarding pays per query, in bytes and\n\
         in the aggregation window. 'Both' pays both bills and still waits out the\n\
         window."
    );
}
