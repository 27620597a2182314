//! # sds-registry — registry node internals
//!
//! "A registry node … can operate autonomously since it stores advertisements
//! and is capable of evaluating queries. In addition, it is responsible for
//! cleaning up advertisements representing obsolete services."
//!
//! This crate is the *inside* of such a node, independent of any networking:
//!
//! * [`RegistryStore`]: the advertisement store — a registry information
//!   model record per advert (provider, version, publication time, lease) —
//!   with lease-based purging ("letting service advertisements have limited
//!   lifetime ensures removal of obsolete advertisements"), secondary
//!   indexes for sublinear candidate generation, a packed match column that
//!   confirms a semantic candidate from one cache line, and a lazy expiry
//!   heap;
//! * [`ModelEvaluator`] + the three shipped evaluators: pluggable per-model
//!   query evaluation behind the protocol's next-header, so "primitive
//!   devices using only a lightweight URI-matching service discovery can use
//!   the same service discovery infrastructure as the more heavyweight ones
//!   based on semantic service descriptions";
//! * [`ShardedEngine`]: the registry engine — evaluation + ranking + query
//!   response control + summaries + artifact hosting, glued together over
//!   per-partition worker shards ([`ShardRouter`] partitions the advert
//!   space by taxonomy component, plus exact-match hashing for URI/template
//!   models; one shard is the unsharded registry), with batched, coalesced
//!   query evaluation optionally fanned across scoped worker threads
//!   ([`sds_simnet::pool`], `set_workers`) under a deterministic merge —
//!   observably identical at every shard and worker count;
//! * [`QueryCache`]: memoizes ranked results at the registry edge with
//!   lease-driven invalidation;
//! * [`SeenQueries`]: the query-id cache used for loop avoidance when
//!   registries forward queries.
//!
//! The network-facing behaviour (timers, beacons, federation) lives in
//! `sds-core`; baselines reuse these internals with different policies.

mod cache;
mod column;
mod engine;
mod evaluate;
mod seen;
mod shard;
mod sharded;
mod store;
mod subscriptions;
pub mod sync;

pub use cache::{cache_key, CacheKey, CacheStats, QueryCache};
pub use engine::{rank_hits, RegistrySummary};
pub use evaluate::{ModelEvaluator, SemanticEvaluator, TemplateEvaluator, UriEvaluator};
pub use seen::SeenQueries;
pub use shard::{Route, SemanticPartitions, ShardRouter, MAX_SHARDS};
pub use sharded::{BatchResult, ShardedEngine, StoreView};
pub use store::{Candidates, LeasePolicy, PublishOutcome, RegistryStore, StoredAdvert};
pub use subscriptions::SubscriptionIndex;
