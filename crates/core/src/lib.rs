//! # sds-core — the conceptual service discovery architecture
//!
//! This crate is the reproduction of the paper's contribution: "a conceptual
//! multi-registry service discovery architecture that supports discovery of
//! Semantic Web Service descriptions in dynamic environments". It implements
//! the three roles of the SOA triangle as simulated node behaviours and all
//! of the architecture's mechanisms:
//!
//! * [`RegistryNode`] — an autonomous, federable super-peer registry: LAN
//!   beacons and probe replies, leases and purging, local evaluation plus
//!   federation forwarding (flood / expanding ring / random walk) with query
//!   response aggregation and control, registry signaling (peer lists,
//!   summaries, pings), seeded WAN bootstrap, gateway election among
//!   co-located registries;
//! * [`ServiceNode`] — publishes its descriptions, renews leases, republishes
//!   on updates and after registry restarts, fails over to alternative
//!   registries, and self-answers multicast queries when the LAN has no
//!   registry (decentralized fallback, paper Fig. 3);
//! * [`ClientNode`] — discovers registries actively (multicast probe) or
//!   passively (beacons), queries with per-query response control and TTL,
//!   deduplicates and ranks responses, falls back to LAN multicast, and
//!   fetches hosted artifacts (ontologies) in-band;
//! * [`RegistryAttachment`] — the shared client-side discovery/failover state
//!   machine.
//!
//! Everything is configuration-driven ([`RegistryConfig`], [`ServiceConfig`],
//! [`ClientConfig`], [`QueryOptions`]), which is how the experiments realize
//! the paper's centralized / decentralized / distributed topologies from one
//! codebase.

mod attach;
mod client_node;
mod config;
mod registry_node;
mod service_node;
mod util;

pub use attach::{AttachEvent, RegistryAttachment};
pub use client_node::{ClientNode, CompletedQuery, CompositionResult, FetchedArtifact, Notification};
pub use config::{
    AttachConfig, Bootstrap, ClientConfig, ForwardStrategy, OverloadPolicy, QueryMode,
    QueryOptions, RegistryConfig, RetryPolicy, ServiceConfig,
};
pub use registry_node::{RegistryNode, RegistryNodeStats};
pub use service_node::{ServiceNode, ServiceNodeStats};
