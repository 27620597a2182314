//! Configuration for the discovery architecture.
//!
//! "There are lots of different design choices, e.g. to push or pull
//! advertisements between registries, active or passive registry discovery,
//! how many registry nodes on each LAN and so on. Actually, these could even
//! be made configurable on an individual deployment basis. Other configurable
//! parameters could be the interval between registry beacons, the number of
//! registry nodes to traverse for a query, and the advertisement lease
//! period." — everything quoted there is a field below.

use sds_protocol::Codec;
use sds_simnet::{secs, NodeId, Rng, SimTime};

/// Seeded jittered exponential backoff, shared by the self-healing layer:
/// client query re-issue, provider publish/renew ack-retry, registry peer
/// probation, and (opt-in) attachment re-probing.
///
/// The default is **passive** (`max_retries == 0`): no role retries
/// anything, which preserves the pre-self-healing behaviour bit-for-bit.
/// [`RetryPolicy::standard`] is the recommended enabled setting. Jitter is
/// always drawn from a dedicated derived RNG stream
/// ([`sds_simnet::Ctx::derive_rng`]), and every retry trigger is a *missed*
/// response — so enabling a policy leaves fault-free runs byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the initial try. 0 disables the machinery.
    pub max_retries: u8,
    /// Delay before the first retry; doubles each further attempt.
    pub base_backoff: SimTime,
    /// Cap on the exponential delay (before jitter).
    pub max_backoff: SimTime,
    /// Uniform extra jitter in `[0, jitter]` added to every delay.
    pub jitter: SimTime,
}

impl RetryPolicy {
    /// No retries at all (the pre-self-healing behaviour).
    pub fn passive() -> Self {
        Self { max_retries: 0, base_backoff: 0, max_backoff: 0, jitter: 0 }
    }

    /// Recommended enabled policy: up to 4 retries, 500 ms doubling to an
    /// 8 s cap, ±250 ms jitter.
    pub fn standard() -> Self {
        Self { max_retries: 4, base_backoff: 500, max_backoff: secs(8), jitter: 250 }
    }

    /// Whether the policy retries at all.
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The delay before retry number `attempt` (0-based), jittered from the
    /// caller's dedicated stream. Doubling and jitter both saturate at
    /// `SimTime::MAX` instead of wrapping.
    pub fn backoff(&self, attempt: u8, rng: &mut Rng) -> SimTime {
        let exp = match self.base_backoff {
            0 => 0,
            // A shift loses no bits while it spans at most the leading zeros.
            b if u32::from(attempt) <= b.leading_zeros() => b << attempt,
            _ => SimTime::MAX,
        };
        let exp = exp.min(self.max_backoff.max(self.base_backoff));
        exp.saturating_add(if self.jitter > 0 { rng.gen_range(0..=self.jitter) } else { 0 })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::passive()
    }
}

/// Registry overload control: admission and backpressure. Both thresholds
/// compare against a **utilization EWMA** in integer percent: every
/// `OVERLOAD_TICK_INTERVAL` (200 ms), the registry folds the number of
/// operations it handled into the average relative to `ops_budget` (the
/// modeled number of operations one tick window can absorb). The registry
/// sheds; it never degrades an answer, so every hit it serves is within its
/// lease:
///
/// 1. `BUSY_PCT` — shed fresh queries with an explicit
///    [`sds_protocol::MaintenanceOp::Busy`] nack carrying a jittered
///    retry hint (never a silent drop); admitted queries get full answers;
/// 2. `busy_renewal_pct` — only above this (deliberately higher) watermark
///    are lease renewals and publishes nacked too: liveness traffic is the
///    last thing shed.
///
/// The default is **disabled** (`ops_budget == 0`): no timer runs, no
/// counters are consulted, and runs are byte-identical to the pre-overload
/// behaviour. Retry-after jitter comes from a dedicated derived RNG stream,
/// so enabling the policy never perturbs other streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Modeled operations one tick window can absorb at 100% utilization.
    /// 0 disables the whole machinery.
    pub ops_budget: u32,
    /// Utilization % at which even renewals/publishes are nacked. Keep this
    /// well above `BUSY_PCT` so liveness traffic survives ordinary storms.
    pub busy_renewal_pct: u16,
    /// Uniform extra jitter in `[0, retry_jitter]` added to every
    /// `RETRY_AFTER` hint, so a shed flash crowd does not re-arrive in
    /// phase.
    pub retry_jitter: SimTime,
}

impl OverloadPolicy {
    /// Overload control off: the pre-overload behaviour, byte-for-byte.
    pub fn disabled() -> Self {
        Self::standard(0)
    }

    /// Recommended enabled policy for a registry that can absorb
    /// `ops_budget` operations per 200 ms window.
    pub fn standard(ops_budget: u32) -> Self {
        Self {
            ops_budget,
            // An open-loop flash crowd parks the utilization EWMA far above
            // 100%; the renewal threshold must sit above that plateau or the
            // registry would shed liveness traffic it exists to protect.
            busy_renewal_pct: 1_000,
            // Wide retry jitter: nacked clients re-arrive smeared across the
            // gap between bursts instead of forming a secondary burst that
            // can land on a synchronized renewal wave.
            retry_jitter: 380,
        }
    }

    /// Whether the overload machinery runs at all.
    pub fn enabled(&self) -> bool {
        self.ops_budget > 0
    }
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// How queries travel between federated registries (paper §4.9: "increasing
/// the reach of a query gradually in several rounds, random walks, or
/// broadcasting in the registry network").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ForwardStrategy {
    /// Broadcast in the registry network with a hop budget.
    Flood { ttl: u8 },
    /// Gradually increase reach: issue one flood round per TTL entry, and
    /// stop as soon as a round produced hits.
    ExpandingRing { ttls: Vec<u8> },
    /// `walkers` independent random walks of `ttl` hops each.
    RandomWalk { walkers: u8, ttl: u8 },
    /// Never forward (an isolated/autonomous registry).
    None,
}

impl Default for ForwardStrategy {
    fn default() -> Self {
        ForwardStrategy::Flood { ttl: 4 }
    }
}

/// How a node finds its first registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bootstrap {
    /// Active discovery: multicast a registry probe, pick from replies; also
    /// listen for beacons (passive discovery happens implicitly).
    Multicast,
    /// Passive-only discovery: never probe, wait for a periodic beacon.
    PassiveOnly,
    /// Manual configuration of a registry endpoint (the paper's fallback
    /// for environments without multicast, and its strawman for the
    /// configuration burden).
    Static(NodeId),
}

/// Client/service-side parameters.
#[derive(Clone, Debug)]
pub struct AttachConfig {
    pub bootstrap: Bootstrap,
    /// Home-registry liveness checking interval (0 disables pinging).
    pub ping_interval: SimTime,
    /// Opt-in re-attach backoff. When enabled, a detached node re-probes
    /// under this policy instead of the fixed `PROBE_RETRY` cadence, and a
    /// `Bootstrap::Static` node keeps retrying its configured endpoint
    /// after a failover instead of staying detached forever. Off by
    /// default: backoff would change probe timing on registry-less LANs
    /// even in fault-free runs.
    pub retry: RetryPolicy,
}

impl Default for AttachConfig {
    fn default() -> Self {
        Self { bootstrap: Bootstrap::Multicast, ping_interval: secs(5), retry: RetryPolicy::passive() }
    }
}

/// Re-probe interval of an unattached client or service.
pub(crate) const PROBE_RETRY: SimTime = secs(2);
/// Missed pongs before a client or service declares its home registry dead
/// and fails over.
pub(crate) const HOME_PING_TOLERANCE: u8 = 2;
/// Without a registry signal for this long, a LAN is considered
/// registry-less (gates the decentralized fallback).
pub(crate) const BEACON_TIMEOUT: SimTime = secs(12);
/// After an active probe, wait this long collecting replies and attach to
/// the least-loaded registry ("by assigning clients to registries in an
/// even distribution, load balancing could be obtained").
pub(crate) const PROBE_DECISION_WINDOW: SimTime = 300;

/// How often a registry purges expired adverts and subscriptions.
pub(crate) const PURGE_INTERVAL: SimTime = secs(1);
/// Federation peer liveness ping period; a registry with no peers re-joins
/// its seeds every second period.
pub(crate) const PEER_PING_INTERVAL: SimTime = secs(5);
/// Missed pongs before a federation peer is dropped (or, with
/// [`RegistryConfig::probation`] enabled, suspected).
pub(crate) const PEER_PING_TOLERANCE: u8 = 2;
/// Cap on peer endpoints carried by `FederationJoin`/`FederationAck`
/// gossip, so peer-list payloads stay bounded on large federations.
pub(crate) const GOSSIP_PEER_CAP: usize = 64;
/// Retention for the query-id loop-avoidance cache.
pub(crate) const SEEN_RETENTION: SimTime = secs(30);
/// Digest buckets per anti-entropy round. More buckets mean finer mismatch
/// localization (smaller deltas) at a linear digest cost.
pub(crate) const SYNC_BUCKETS: u16 = 16;
/// Capacity of the registry-edge query result cache (entries). Repeated
/// identical queries are answered from the cache while every returned lease
/// is still running, with publish/renew/remove invalidation keeping served
/// bytes identical to a fresh evaluation.
pub(crate) const QUERY_CACHE_CAPACITY: usize = 128;
/// How often the query cache sweeps out entries whose validity lapsed.
pub(crate) const CACHE_SWEEP_INTERVAL: SimTime = secs(5);

/// Overload EWMA evaluation period (see [`OverloadPolicy`]).
pub(crate) const OVERLOAD_TICK_INTERVAL: SimTime = 200;
/// EWMA weight of the newest utilization sample, in percent (1..=100).
pub(crate) const EWMA_ALPHA_PCT: u8 = 30;
/// Utilization % at which fresh queries are nacked with `Busy`.
pub(crate) const BUSY_PCT: u16 = 95;
/// Base retry hint carried by `Busy` nacks.
pub(crate) const RETRY_AFTER: SimTime = 400;

/// Registry-node parameters.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Beacon period (passive registry discovery); 0 disables beacons.
    pub beacon_interval: SimTime,
    /// WAN federation seed registries ("manual configuration, or seeding, is
    /// necessary at some point in time").
    pub seeds: Vec<NodeId>,
    /// Peer probation policy. When enabled, a peer that exhausts
    /// [`PEER_PING_TOLERANCE`] is *suspected* rather than evicted: it leaves
    /// the forwarding set but is re-pinged under this backoff policy, and
    /// only evicted after `max_retries` further silent attempts. A
    /// probationer that answers is reinstated and gets the registry's state
    /// re-announced to it.
    pub probation: RetryPolicy,
    /// Periodic peer-list gossip period (registry signaling); 0 disables.
    pub signaling_interval: SimTime,
    /// Forwarding strategy for federated queries.
    pub strategy: ForwardStrategy,
    /// How long an adopting registry waits for federation responses before
    /// answering its client.
    pub response_window: SimTime,
    /// Coordinate with co-located registries so only one forwards to the
    /// WAN (paper §4.7).
    pub gateway_election: bool,
    /// Learn peers transitively from FederationAck peer lists and gossiped
    /// RegistryLists (default). Disabling pins the overlay to the explicit
    /// seeding graph — used to study forwarding strategies on chains/rings.
    pub transitive_peering: bool,
    /// Anti-entropy round period per peer; 0 disables replication. This is
    /// the paper's replication-style registry cooperation ("to push or pull
    /// advertisements between registries"): a periodic `SyncDigest` per
    /// peer pulls delta replies for mismatched buckets only, plus a single
    /// digest round on federation join and probation reinstatement, so
    /// queries hit locally at every registry at O(divergence) wire cost,
    /// converging through loss and partitions.
    pub sync_interval: SimTime,
    /// Overload control: admission, backpressure, and graceful degradation.
    /// Disabled by default; see [`OverloadPolicy`].
    pub overload: OverloadPolicy,
    /// Requested advertisement lease period granted to publishers is decided
    /// by the registry's [`sds_registry::LeasePolicy`]; this is it.
    pub lease_policy: sds_registry::LeasePolicy,
    /// Wire-size codec (compression on/off).
    pub codec: Codec,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            beacon_interval: secs(5),
            seeds: Vec::new(),
            probation: RetryPolicy::passive(),
            signaling_interval: secs(15),
            strategy: ForwardStrategy::default(),
            response_window: 500,
            gateway_election: true,
            transitive_peering: true,
            sync_interval: secs(10),
            overload: OverloadPolicy::disabled(),
            lease_policy: sds_registry::LeasePolicy::default(),
            codec: Codec::default(),
        }
    }
}

/// Service-node parameters.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    pub attach: AttachConfig,
    /// Lease duration requested on publish (0 = registry default).
    pub lease_ms: u64,
    /// Renewal period; should be well below the lease duration.
    pub renew_interval: SimTime,
    /// Answer multicast queries directly when the LAN has no registry
    /// (decentralized fallback, paper Fig. 3 right).
    pub fallback_responder: bool,
    /// Publish/renew ack-retry policy. When enabled, a publish or renewal
    /// whose ack never arrives is re-sent under this backoff until acked
    /// (or retries exhaust); fault-free acks always arrive, so this changes
    /// nothing in fault-free runs.
    pub retry: RetryPolicy,
    pub codec: Codec,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            attach: AttachConfig::default(),
            lease_ms: 30_000,
            renew_interval: secs(10),
            fallback_responder: true,
            retry: RetryPolicy::passive(),
            codec: Codec::default(),
        }
    }
}

/// How a client sends queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Unicast to the home registry (normal mode).
    Unicast,
    /// Multicast on the LAN — used as decentralized fallback and to study
    /// response implosion / redundant WAN forwarding.
    MulticastLan,
}

/// Per-query options.
#[derive(Clone, Debug)]
pub struct QueryOptions {
    /// Query response control: max hits wanted (None = all).
    pub max_responses: Option<u16>,
    /// Registry-network hop budget.
    pub ttl: u8,
    /// Client-side deadline after which the query completes with whatever
    /// arrived.
    pub timeout: SimTime,
    pub mode: QueryMode,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self { max_responses: None, ttl: 4, timeout: secs(3), mode: QueryMode::Unicast }
    }
}

/// Client-node parameters.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    pub attach: AttachConfig,
    /// Fall back to LAN multicast queries when no registry is reachable.
    pub fallback_query: bool,
    /// Query re-issue policy. When enabled, a query that has produced no
    /// response by its next backoff checkpoint is re-sent (with a fresh
    /// wire id, so registries don't dedup it) inside the unchanged total
    /// `QueryOptions::timeout` budget, and an outstanding unanswered query
    /// is re-dispatched to the new home registry after a failover re-attach
    /// instead of being abandoned.
    pub retry: RetryPolicy,
    /// After this many consecutive `Busy` nacks from the home registry, a
    /// retried query is *hedged*: dispatched to the best known alternate
    /// registry instead of the overloaded home. 0 disables hedging (the
    /// client keeps backing off against its home forever).
    pub hedge_after_busy: u8,
    pub codec: Codec,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            attach: AttachConfig::default(),
            fallback_query: true,
            retry: RetryPolicy::passive(),
            hedge_after_busy: 0,
            codec: Codec::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let r = RegistryConfig::default();
        assert!(r.gateway_election);
        assert!(r.response_window > 0);
        let s = ServiceConfig::default();
        assert!(
            s.renew_interval < s.lease_ms,
            "renewal must happen before lease expiry"
        );
        let q = QueryOptions::default();
        assert!(q.timeout > r.response_window, "client must outwait aggregation");
        // Anti-entropy on by default, with sane digest geometry.
        assert!(r.sync_interval > 0);
        const { assert!(GOSSIP_PEER_CAP > 0, "a zero cap would break federation joins") };
        // Self-healing defaults off: the pre-PR behaviour is the default.
        assert!(!ClientConfig::default().retry.enabled());
        assert!(!ServiceConfig::default().retry.enabled());
        assert!(!RegistryConfig::default().probation.enabled());
        assert!(!AttachConfig::default().retry.enabled());
        // Overload control defaults off, and renewals shed after queries.
        assert!(!RegistryConfig::default().overload.enabled());
        const { assert!(EWMA_ALPHA_PCT >= 1 && EWMA_ALPHA_PCT <= 100) };
        for budget in [1, 30, 500] {
            let std = OverloadPolicy::standard(budget);
            assert!(std.enabled());
            assert!(BUSY_PCT < std.busy_renewal_pct, "liveness traffic must shed last");
            // The benchmark's flash-crowd world spells out these two values;
            // they are exactly the preset.
            assert_eq!(OverloadPolicy { busy_renewal_pct: 1_000, retry_jitter: 380, ..std }, std);
        }
        assert_eq!(ClientConfig::default().hedge_after_busy, 0);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        use sds_simnet::Seed;
        let p = RetryPolicy { max_retries: 6, base_backoff: 500, max_backoff: secs(4), jitter: 0 };
        let mut rng = Seed(1).rng();
        assert_eq!(p.backoff(0, &mut rng), 500);
        assert_eq!(p.backoff(1, &mut rng), 1_000);
        assert_eq!(p.backoff(2, &mut rng), 2_000);
        assert_eq!(p.backoff(3, &mut rng), 4_000);
        assert_eq!(p.backoff(4, &mut rng), 4_000, "capped at max_backoff");
        assert_eq!(p.backoff(200, &mut rng), 4_000, "huge attempts saturate, no overflow");
        let j = RetryPolicy { jitter: 300, ..p };
        for attempt in 0..6 {
            let d = j.backoff(attempt, &mut rng);
            let base = p.backoff(attempt, &mut rng);
            assert!((base..=base + 300).contains(&d), "jitter out of range: {d} vs {base}");
        }
        // Bases whose doubling overflows 64 bits saturate instead of losing
        // their high bits, and so does the jitter added on top.
        let huge = RetryPolicy { base_backoff: 1 << 40, max_backoff: SimTime::MAX, ..p };
        assert_eq!(huge.backoff(23, &mut rng), 1 << 63);
        assert_eq!(huge.backoff(24, &mut rng), SimTime::MAX);
        assert_eq!(huge.backoff(30, &mut rng), SimTime::MAX);
        let wide = RetryPolicy { base_backoff: 1 << 32, max_backoff: SimTime::MAX, ..p };
        assert_eq!(wide.backoff(32, &mut rng), SimTime::MAX);
        assert_eq!(wide.backoff(255, &mut rng), SimTime::MAX);
        let jittered = RetryPolicy { jitter: 300, ..huge };
        for attempt in [24, 30, 255] {
            assert_eq!(jittered.backoff(attempt, &mut rng), SimTime::MAX);
        }
        let from_one = RetryPolicy { base_backoff: 1, max_backoff: SimTime::MAX, ..p };
        assert_eq!(from_one.backoff(63, &mut rng), 1 << 63);
        assert_eq!(from_one.backoff(64, &mut rng), SimTime::MAX);
    }
}
