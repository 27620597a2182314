//! # sds-baselines — the DHT the paper argues against
//!
//! The paper's case for autonomous federated registries is comparative: it
//! names the shortcomings of the discovery technologies of its day. The
//! UDDI-like and WS-Discovery-like comparators need no code of their own:
//! they are `sds-core` deployments, a centralized registry under
//! `LeasePolicy::no_leasing` and the decentralized multicast deployment
//! (E1, E3, E4, E11, E13).
//!
//! What a deployment cannot express lives here: [`dht`], a **DHT keyword
//! index** over super-peers (consistent hashing). Publishes and lookups
//! route by key hash, so "query evaluation other than string matching
//! cannot be performed at the intermediate nodes": semantic subsumption
//! queries structurally cannot be answered (E12).

pub mod dht;

pub use dht::{dht_key_of_description, dht_key_of_payload, DhtNode};
