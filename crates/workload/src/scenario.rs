//! Scenario assembly: a full simulated deployment in one call.
//!
//! Realizes the paper's three topologies (its Fig. 1) over a multi-LAN
//! world, deploying a generated service population and wiring clients, so
//! experiments differ only in the [`Deployment`] value and measurement code.

use std::sync::Arc;

use sds_core::{
    AttachConfig, Bootstrap, ClientConfig, ClientNode, QueryOptions, RegistryConfig, RegistryNode,
    RetryPolicy, ServiceConfig, ServiceNode,
};
use sds_protocol::{Description, DiscoveryMessage, QueryPayload};
use sds_semantic::{Ontology, SubsumptionIndex};
use sds_simnet::{LanId, NodeCapacity, NodeId, PartitionPlan, Sim, SimConfig, Topology};

use crate::oracle::Oracle;
use crate::population::{PopulationSpec, Workload};
use crate::taxonomy::{battlefield, BattlefieldClasses};

/// Which of the paper's topologies to deploy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// One registry on LAN 0; every node statically bound to it; no
    /// fallback. The registry is the single point of failure.
    Centralized,
    /// No registries at all; clients multicast, providers self-answer.
    Decentralized,
    /// The paper's architecture: `registries_per_lan` autonomous registries
    /// per LAN, federated over the WAN via seeding to the first registry.
    Federated { registries_per_lan: usize },
}

/// Everything needed to build a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    pub lans: usize,
    pub clients_per_lan: usize,
    pub deployment: Deployment,
    pub population: PopulationSpec,
    pub seed: u64,
    pub net: SimConfig,
    /// Template for registry nodes (seeds are filled in per deployment).
    pub registry: RegistryConfig,
    /// Template for service nodes (bootstrap overridden per deployment).
    pub service: ServiceConfig,
    /// Template for client nodes (bootstrap overridden per deployment).
    pub client: ClientConfig,
    /// How LANs are grouped into share-nothing execution domains. Every
    /// plan runs the same engine with the same per-LAN semantics; plans may
    /// differ only in how same-time events of different domains interleave,
    /// and a run is deterministic per plan and independent of `workers`.
    pub partition: PartitionPlan,
    /// Worker threads that run the domains' windows (a one-domain plan
    /// never uses more than the calling thread).
    pub workers: usize,
    /// Retry-policy selection as data: `Some(policy)` applies it to every
    /// client and service role (query retries, ack retries, and attachment
    /// probing alike); `None` — the default — leaves the role templates
    /// exactly as given, so passive deployments stay passive.
    pub retry: Option<RetryPolicy>,
    /// Modeled processing budget installed on every registry node
    /// ([`Sim::set_node_capacity`]). `None` — the default — keeps the
    /// historical unbounded model.
    pub registry_capacity: Option<NodeCapacity>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            lans: 4,
            clients_per_lan: 1,
            deployment: Deployment::Federated { registries_per_lan: 1 },
            population: PopulationSpec::default(),
            seed: 0,
            net: SimConfig::default(),
            registry: RegistryConfig::default(),
            service: ServiceConfig::default(),
            client: ClientConfig::default(),
            partition: PartitionPlan::Single,
            workers: 1,
            retry: None,
            registry_capacity: None,
        }
    }
}

/// A built, running world.
pub struct Scenario {
    pub sim: Sim<DiscoveryMessage>,
    pub ontology: Ontology,
    pub classes: BattlefieldClasses,
    pub idx: Arc<SubsumptionIndex>,
    pub oracle: Oracle,
    pub lans: Vec<LanId>,
    pub registries: Vec<NodeId>,
    pub clients: Vec<NodeId>,
    /// Deployed services with their descriptions (the ground-truth world).
    pub services: Vec<(NodeId, Description)>,
    /// The query payloads of the generated workload.
    pub queries: Vec<QueryPayload>,
}

impl Scenario {
    pub fn build(cfg: ScenarioConfig) -> Self {
        let (ontology, classes) = battlefield();
        let idx = Arc::new(SubsumptionIndex::build(&ontology));
        let oracle = Oracle::new(idx.clone());
        let workload = Workload::generate(&ontology, &classes, &cfg.population);

        let mut topo = Topology::new();
        let lans: Vec<LanId> = (0..cfg.lans).map(|_| topo.add_lan()).collect();
        let mut sim: Sim<DiscoveryMessage> =
            Sim::new_partitioned(cfg.net.clone(), topo, cfg.seed, cfg.partition);
        sim.set_workers(cfg.workers);

        // Registries first, so their ids exist for static bootstrap.
        let mut registries = Vec::new();
        match &cfg.deployment {
            Deployment::Centralized => {
                let mut rc = cfg.registry.clone();
                rc.strategy = sds_core::ForwardStrategy::None;
                rc.seeds = Vec::new();
                registries.push(
                    sim.add_node(lans[0], Box::new(RegistryNode::new(rc, Some(idx.clone())))),
                );
            }
            Deployment::Decentralized => {}
            Deployment::Federated { registries_per_lan } => {
                for (li, &lan) in lans.iter().enumerate() {
                    for ri in 0..*registries_per_lan {
                        let mut rc = cfg.registry.clone();
                        rc.seeds = if li == 0 && ri == 0 {
                            Vec::new()
                        } else {
                            vec![registries[0]]
                        };
                        registries.push(sim.add_node(
                            lan,
                            Box::new(RegistryNode::new(rc, Some(idx.clone()))),
                        ));
                    }
                }
            }
        }

        if let Some(cap) = cfg.registry_capacity {
            for &r in &registries {
                sim.set_node_capacity(r, Some(cap));
            }
        }

        let (service_cfg, client_cfg) = cfg.role_configs(registries.first().copied());

        // Services round-robin across LANs.
        let mut services = Vec::new();
        for (i, description) in workload.descriptions.iter().enumerate() {
            let lan = lans[i % lans.len()];
            let node = sim.add_node(
                lan,
                Box::new(ServiceNode::new(
                    service_cfg.clone(),
                    vec![description.clone()],
                    Some(idx.clone()),
                )),
            );
            services.push((node, description.clone()));
        }

        // Clients.
        let mut clients = Vec::new();
        for &lan in &lans {
            for _ in 0..cfg.clients_per_lan {
                clients.push(sim.add_node(lan, Box::new(ClientNode::new(client_cfg.clone()))));
            }
        }

        Self {
            sim,
            ontology,
            classes,
            idx,
            oracle,
            lans,
            registries,
            clients,
            services,
            queries: workload.queries,
        }
    }

    /// Issues workload query `qi` from client `ci` (indices wrap).
    pub fn issue(&mut self, ci: usize, qi: usize, options: QueryOptions) {
        let client = self.clients[ci % self.clients.len()];
        let payload = self.queries[qi % self.queries.len()].clone();
        self.sim.with_node::<ClientNode>(client, |c, ctx| {
            c.issue_query(ctx, payload, options);
        });
    }

    /// Ground truth at this instant: live providers that should match.
    pub fn expected_now(&self, payload: &QueryPayload) -> Vec<NodeId> {
        self.oracle
            .expected_providers(payload, &self.services, |n| self.sim.is_alive(n))
    }

    /// All completed queries of a client.
    pub fn completed(&self, ci: usize) -> &[sds_core::CompletedQuery] {
        &self.sim.handler::<ClientNode>(self.clients[ci % self.clients.len()]).unwrap().completed
    }
}

impl ScenarioConfig {
    fn role_configs(&self, first_registry: Option<NodeId>) -> (ServiceConfig, ClientConfig) {
        let mut service = self.service.clone();
        let mut client = self.client.clone();
        if let Some(policy) = self.retry {
            service.retry = policy;
            service.attach.retry = policy;
            client.retry = policy;
            client.attach.retry = policy;
        }
        match &self.deployment {
            Deployment::Centralized => {
                let r = first_registry.expect("centralized deployment has a registry");
                service.attach =
                    AttachConfig { bootstrap: Bootstrap::Static(r), ..service.attach.clone() };
                service.fallback_responder = false;
                client.attach =
                    AttachConfig { bootstrap: Bootstrap::Static(r), ..client.attach.clone() };
                client.fallback_query = false;
            }
            Deployment::Decentralized => {
                // Pure decentralized deployment: nobody looks for registries
                // (no probe retries, no liveness pings), queries go straight
                // to multicast and providers self-answer.
                service.fallback_responder = true;
                service.attach = AttachConfig {
                    bootstrap: Bootstrap::PassiveOnly,
                    ping_interval: 0,
                    ..service.attach.clone()
                };
                client.fallback_query = true;
                client.attach = AttachConfig {
                    bootstrap: Bootstrap::PassiveOnly,
                    ping_interval: 0,
                    ..client.attach.clone()
                };
            }
            Deployment::Federated { .. } => {}
        }
        (service, client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_protocol::ModelId;
    use sds_simnet::secs;

    fn cfg(deployment: Deployment) -> ScenarioConfig {
        ScenarioConfig {
            lans: 2,
            clients_per_lan: 1,
            deployment,
            population: PopulationSpec {
                model: ModelId::Semantic,
                services: 8,
                queries: 6,
                generalization_rate: 0.5,
                seed: 3,
            },
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn federated_scenario_discovers_across_lans() {
        let mut s = Scenario::build(cfg(Deployment::Federated { registries_per_lan: 1 }));
        assert_eq!(s.registries.len(), 2);
        assert_eq!(s.services.len(), 8);
        s.sim.run_until(secs(3));
        s.issue(0, 0, QueryOptions::default());
        s.sim.run_until(secs(9));
        let expected = s.expected_now(&s.queries[0].clone());
        let got: Vec<NodeId> =
            s.completed(0)[0].hits.iter().map(|h| h.advert.provider).collect();
        assert!(!expected.is_empty(), "workload produces matchable queries");
        assert_eq!(
            sds_metrics_recall(&expected, &got),
            1.0,
            "federated deployment finds all expected providers: expected {expected:?} got {got:?}"
        );
    }

    // Local copy to avoid a dev-dependency on sds-metrics.
    fn sds_metrics_recall(expected: &[NodeId], got: &[NodeId]) -> f64 {
        if expected.is_empty() {
            return 1.0;
        }
        expected.iter().filter(|e| got.contains(e)).count() as f64 / expected.len() as f64
    }

    #[test]
    fn centralized_scenario_works_until_registry_dies() {
        let mut s = Scenario::build(cfg(Deployment::Centralized));
        assert_eq!(s.registries.len(), 1);
        s.sim.run_until(secs(2));
        s.issue(0, 0, QueryOptions::default());
        s.sim.run_until(secs(8));
        assert!(!s.completed(0)[0].hits.is_empty());

        let r = s.registries[0];
        s.sim.crash_node(r);
        s.issue(0, 0, QueryOptions::default());
        s.sim.run_until(secs(16));
        assert!(
            s.completed(0)[1].hits.is_empty(),
            "single point of failure: no discovery after registry crash"
        );
    }

    #[test]
    fn retry_selection_defaults_to_passive_roles() {
        let c = ScenarioConfig::default();
        assert!(c.retry.is_none() && c.registry_capacity.is_none());
        let (service, client) = c.role_configs(None);
        assert!(!service.retry.enabled(), "default scenario keeps services passive");
        assert!(!client.retry.enabled(), "default scenario keeps clients passive");
        assert!(!service.attach.retry.enabled() && !client.attach.retry.enabled());

        let enabled = ScenarioConfig {
            retry: Some(RetryPolicy::standard()),
            ..ScenarioConfig::default()
        };
        let (s2, c2) = enabled.role_configs(None);
        assert!(s2.retry.enabled() && c2.retry.enabled());
        assert!(s2.attach.retry.enabled() && c2.attach.retry.enabled());
    }

    #[test]
    fn decentralized_scenario_has_no_registries_yet_discovers() {
        let mut s = Scenario::build(cfg(Deployment::Decentralized));
        assert!(s.registries.is_empty());
        s.sim.run_until(secs(2));
        // Decentralized reach is LAN-local: query something on LAN 0.
        // Find a workload query whose expected providers include LAN 0.
        let lan0 = s.lans[0];
        let qi = (0..s.queries.len())
            .find(|&qi| {
                s.expected_now(&s.queries[qi].clone())
                    .iter()
                    .any(|&p| s.sim.topology().lan_of(p) == lan0)
            })
            .expect("some query matches a LAN-0 provider");
        s.issue(0, qi, QueryOptions::default());
        s.sim.run_until(secs(8));
        assert!(!s.completed(0)[0].hits.is_empty(), "fallback multicast discovery works");
    }
}
