//! E12 — DHT keyword indexes cannot evaluate semantic queries (paper §3.3).
//!
//! Claim under test: "Such systems are based on storage of hashes in the
//! intermediate nodes, and therefore, semantic query evaluation cannot be
//! performed at the intermediate nodes in such systems." We run identical
//! semantic workloads (with a growing share of subsumption queries) against
//! a DHT keyword index and against the federated autonomous registries.

use std::sync::Arc;

use sds_baselines::DhtNode;
use sds_bench::{f2, run_query_phase, Table};
use sds_core::{ClientConfig, ClientNode, QueryOptions, ServiceConfig, ServiceNode};
use sds_metrics::recall;
use sds_protocol::{DiscoveryMessage, ModelId};
use sds_semantic::SubsumptionIndex;
use sds_simnet::{secs, NodeId, Sim, SimConfig, Topology};
use sds_workload::{
    battlefield, Deployment, Oracle, PopulationSpec, Scenario, ScenarioConfig, Workload,
};

const LANS: usize = 4;

fn federated_recall(generalization_rate: f64, seed: u64) -> f64 {
    let mut s = Scenario::build(ScenarioConfig {
        lans: LANS,
        deployment: Deployment::Federated { registries_per_lan: 1 },
        population: PopulationSpec {
            model: ModelId::Semantic,
            services: 24,
            queries: 24,
            generalization_rate,
            seed,
        },
        seed,
        ..Default::default()
    });
    s.sim.run_until(secs(4));
    run_query_phase(&mut s, 24, secs(3), QueryOptions { timeout: secs(2), ..Default::default() })
        .recall_mean
}

fn dht_recall(generalization_rate: f64, seed: u64) -> f64 {
    let (ont, classes) = battlefield();
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let oracle = Oracle::new(idx.clone());
    let w = Workload::generate(
        &ont,
        &classes,
        &PopulationSpec {
            model: ModelId::Semantic,
            services: 24,
            queries: 24,
            generalization_rate,
            seed,
        },
    );

    let mut topo = Topology::new();
    let lans: Vec<_> = (0..LANS).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<DiscoveryMessage> = Sim::new(SimConfig::default(), topo, seed);
    let members: Vec<NodeId> = (0..LANS as u32).map(NodeId).collect();
    for &lan in &lans {
        sim.add_node(lan, Box::new(DhtNode::new(members.clone())));
    }
    let mut services = Vec::new();
    for (i, d) in w.descriptions.iter().enumerate() {
        let node = sim.add_node(
            lans[i % LANS],
            Box::new(ServiceNode::new(
                ServiceConfig::default(),
                vec![d.clone()],
                Some(idx.clone()),
            )),
        );
        services.push((node, d.clone()));
    }
    let client = sim.add_node(lans[0], Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(4));

    let mut recalls = Vec::new();
    for (qi, payload) in w.queries.iter().enumerate() {
        let expected = oracle.expected_providers(payload, &services, |_| true);
        let p = payload.clone();
        sim.with_node::<ClientNode>(client, |c, ctx| {
            c.issue_query(ctx, p, QueryOptions { timeout: secs(2), ..Default::default() });
        });
        sim.run_until(secs(4) + (qi as u64 + 1) * secs(3));
        let done = &sim.handler::<ClientNode>(client).unwrap().completed;
        let got: Vec<NodeId> = done[qi].hits.iter().map(|h| h.advert.provider).collect();
        recalls.push(recall(&expected, &got));
    }
    recalls.iter().sum::<f64>() / recalls.len() as f64
}

fn main() {
    let mut table = Table::new(&["subsumption share", "DHT recall", "federated recall"]);
    for rate in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        table.row(&[
            f2(rate),
            f2(dht_recall(rate, 37)),
            f2(federated_recall(rate, 37)),
        ]);
    }
    table.print("E12: semantic workloads on a DHT keyword index vs federated registries");
    println!(
        "Paper expectation: the DHT answers exact-category queries (hash equality)\n\
         but its recall collapses linearly as subsumption queries enter the mix;\n\
         federated autonomous registries evaluate semantics at the registry and\n\
         stay at full recall."
    );
}
