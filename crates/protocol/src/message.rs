//! Protocol message types.
//!
//! Operations fall into the three categories the architecture defines:
//! *registry network maintenance*, *publishing*, and *querying*. The service
//! description payload sits behind a [`ModelId`] next-header so the same
//! distribution protocol carries every description model.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use sds_semantic::{ClassId, Degree, ServiceProfile, ServiceRequest};
use sds_simnet::{NodeId, SimTime};

use crate::uuid::Uuid;

/// Identifies a published advertisement across the whole system.
pub type AdvertId = Uuid;

/// The "next header" field: which description model a payload uses.
///
/// Nodes that do not implement a model "quickly filter and silently discard
/// messages they cannot understand anyway".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelId {
    /// Pre-agreed service-type URI — the WS-Discovery-class simple model.
    Uri,
    /// Partial template over (name, type, attributes) — the UDDI-class model.
    Template,
    /// Semantic profile over a shared ontology — the OWL-S-class model.
    Semantic,
}

impl ModelId {
    pub const ALL: [ModelId; 3] = [ModelId::Uri, ModelId::Template, ModelId::Semantic];

    /// The model's next-header tag, which is also its index in per-model
    /// arrays. The codec's `ModelId` row writes the same tag.
    pub fn wire_tag(self) -> u8 {
        self as u8
    }
}

/// A name/type/attribute template, used both as a full description and (with
/// unset fields as wildcards) as a query form — "filling out a partial
/// template for the service wanted".
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DescriptionTemplate {
    pub name: Option<String>,
    pub type_uri: Option<String>,
    pub attrs: Vec<(String, String)>,
}

impl DescriptionTemplate {
    /// Template query semantics: every bound field of `query` must equal the
    /// corresponding field here, and every query attribute must be present
    /// with the same value.
    pub fn matches(&self, query: &DescriptionTemplate) -> bool {
        if let Some(n) = &query.name {
            if self.name.as_ref() != Some(n) {
                return false;
            }
        }
        if let Some(t) = &query.type_uri {
            if self.type_uri.as_ref() != Some(t) {
                return false;
            }
        }
        query
            .attrs
            .iter()
            .all(|(k, v)| self.attrs.iter().any(|(ak, av)| ak == k && av == v))
    }
}

/// A service description in one of the pluggable models.
#[derive(Clone, PartialEq, Debug)]
pub enum Description {
    Uri(String),
    Template(DescriptionTemplate),
    Semantic(ServiceProfile),
}

impl Description {
    pub fn model(&self) -> ModelId {
        match self {
            Description::Uri(_) => ModelId::Uri,
            Description::Template(_) => ModelId::Template,
            Description::Semantic(_) => ModelId::Semantic,
        }
    }
}

/// A query payload in one of the pluggable models.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryPayload {
    Uri(String),
    Template(DescriptionTemplate),
    Semantic(ServiceRequest),
}

impl QueryPayload {
    pub fn model(&self) -> ModelId {
        match self {
            QueryPayload::Uri(_) => ModelId::Uri,
            QueryPayload::Template(_) => ModelId::Template,
            QueryPayload::Semantic(_) => ModelId::Semantic,
        }
    }
}

/// A published service advertisement, as a plain value. Messages and stores
/// carry it as a [`SharedAdvert`]; a clone of the value is a new advert that
/// shares nothing with the original.
#[derive(Clone, PartialEq, Debug)]
pub struct Advertisement {
    pub id: AdvertId,
    /// The node hosting the service (invocation happens directly against it).
    pub provider: NodeId,
    pub description: Description,
    /// Bumped on each republish/update so newer content wins.
    pub version: u32,
}

/// An advertisement as the process shares it: one immutable allocation per
/// advert, referenced from the store, every home shard, cached results and
/// every message that carries it. Cloning bumps a reference count; an update
/// builds a new `SharedAdvert` instead of mutating through this one.
///
/// Beside the advert sits its wire segment, the codec's encoding of its
/// fields, filled by the first [`crate::codec::encode`] that writes it and
/// copied by every later one. Immutability is what makes the memo sound: the
/// bytes can never describe anything but the advert next to them. The memo
/// is invisible otherwise: equality and `Debug` see the advert alone.
#[derive(Clone)]
pub struct SharedAdvert(Arc<AdvertCell>);

struct AdvertCell {
    advert: Advertisement,
    wire: OnceLock<Box<[u8]>>,
}

impl SharedAdvert {
    /// Whether both handles share one allocation (like [`Arc::ptr_eq`]).
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        Arc::ptr_eq(&this.0, &other.0)
    }

    /// How many handles share this allocation (like [`Arc::strong_count`]).
    pub fn strong_count(this: &Self) -> usize {
        Arc::strong_count(&this.0)
    }

    /// The advert's wire segment, written by `fill` on first use.
    pub(crate) fn wire_or_init(&self, fill: impl FnOnce(&Advertisement) -> Box<[u8]>) -> &[u8] {
        self.0.wire.get_or_init(|| fill(&self.0.advert))
    }
}

impl From<Advertisement> for SharedAdvert {
    fn from(advert: Advertisement) -> Self {
        Self(Arc::new(AdvertCell { advert, wire: OnceLock::new() }))
    }
}

impl Deref for SharedAdvert {
    type Target = Advertisement;

    fn deref(&self) -> &Advertisement {
        &self.0.advert
    }
}

/// Structural, like the advert's own: a retransmitted publish decodes into
/// an equal advert in a fresh allocation.
impl PartialEq for SharedAdvert {
    fn eq(&self, other: &Self) -> bool {
        self.0.advert == other.0.advert
    }
}

impl fmt::Debug for SharedAdvert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.advert.fmt(f)
    }
}

/// Per-origin unique query identifier; "giving queries their unique query ID
/// is a good approach to avoid query looping between registry nodes".
/// Ordered by `(origin, seq)` so id sets iterate deterministically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct QueryId {
    pub origin: NodeId,
    pub seq: u64,
}

/// A query travelling through the registry network (or multicast on a LAN in
/// decentralized fallback mode).
#[derive(Clone, PartialEq, Debug)]
pub struct QueryMessage {
    pub id: QueryId,
    pub payload: QueryPayload,
    /// Query response control: cap on hits returned to the client; `None`
    /// means unlimited.
    pub max_responses: Option<u16>,
    /// Remaining registry-network hops ("the number of registry nodes to
    /// traverse for a query").
    pub ttl: u8,
    /// The registry that should aggregate federation responses (the
    /// client's home registry). `None` until a registry adopts the query.
    pub reply_to: Option<NodeId>,
}

/// One scored hit inside a query response. The evaluating registry attaches
/// its match verdict so the aggregating registry can rank across the
/// federation without re-evaluating.
#[derive(Clone, PartialEq, Debug)]
pub struct ResponseHit {
    pub advert: SharedAdvert,
    pub degree: Degree,
    pub distance: u32,
}

/// Registry network maintenance operations.
#[derive(Clone, PartialEq, Debug)]
pub enum MaintenanceOp {
    /// Multicast "any registries on this LAN?" (active registry discovery).
    RegistryProbe,
    /// Unicast reply to a probe. `load` is the registry's attachment-load
    /// hint, letting joiners spread out ("assigning clients to registries
    /// in an even distribution").
    RegistryProbeReply { advert_count: u32, load: u32 },
    /// Periodic multicast beacon (passive registry discovery).
    RegistryBeacon { advert_count: u32 },
    /// Aliveness check.
    Ping,
    Pong,
    /// Ask a registry for other registries it knows (registry signaling).
    /// `from_registry` distinguishes overlay self-healing requests from
    /// client/service attachment refreshes (which count as load).
    RegistryListRequest { from_registry: bool },
    /// Registry signaling: alternative registry endpoints, usable by clients
    /// for failover and by registries for overlay maintenance.
    RegistryList { registries: Vec<NodeId> },
    /// Join the WAN federation via a seed/peer registry.
    FederationJoin { known_peers: Vec<NodeId> },
    /// Accept a federation join, sharing the current peer view.
    FederationAck { peers: Vec<NodeId> },
    /// Summary information about the advertisements present in a registry.
    SummaryAdvert { advert_count: u32, models: Vec<ModelId> },
    /// Fetch a hosted artifact (ontology, schema…) by name, latest version.
    ArtifactRequest { name: String },
    /// Artifact fetch result; `size` models the artifact body length.
    ArtifactResponse { name: String, found: bool, size: u32 },
    /// Anti-entropy round opener: the sender's belief of the receiver's
    /// first-hand advert set, folded into `count` per-bucket digests over
    /// `(advert id, version, lease)`. The receiver compares against its own
    /// live first-hand set and answers [`MaintenanceOp::SyncDelta`] for the
    /// buckets that differ (silence means the peers agree).
    SyncDigest { count: u32, buckets: Vec<u64> },
    /// Anti-entropy reply: the full first-hand contents of the mismatched
    /// `buckets`, each advert delta-encoded against the receiver's last-acked
    /// version where possible ([`SyncEntry::Delta`] is a few bytes;
    /// [`SyncEntry::Full`] ships the whole advert on first sight or desync).
    /// An empty `buckets` list marks a loss-recovery resend that must not
    /// prune anything at the receiver.
    SyncDelta { buckets: Vec<u16>, entries: Vec<SyncEntry> },
    /// Anti-entropy repair request: the receiver optimistically assumed
    /// these adverts were already known ([`SyncEntry::Delta`]) but the
    /// requester has never seen them — resend them in full.
    SyncAck { missing: Vec<AdvertId> },
    /// Overload backpressure: the registry is shedding this sender's
    /// request and asks it to retry after `retry_after_ms` (clients add
    /// their own jitter). An explicit nack instead of a silent drop, so the
    /// sender backs off deliberately rather than timing out and amplifying
    /// the load.
    Busy { retry_after_ms: u64 },
}

/// One advert inside a [`MaintenanceOp::SyncDelta`], either in full or
/// delta-encoded against the version the receiver last acknowledged.
#[derive(Clone, PartialEq, Debug)]
pub enum SyncEntry {
    /// First sight (or desync): the whole advertisement plus the origin's
    /// current lease deadline.
    Full { advert: SharedAdvert, lease_until: SimTime },
    /// The receiver already holds this advert at `version`: only the lease
    /// heartbeat (and the version echo that proves it still applies) travel.
    Delta { id: AdvertId, version: u32, lease_until: SimTime },
}

/// Publishing operations.
#[derive(Clone, PartialEq, Debug)]
pub enum PublishOp {
    /// Publish an advertisement, requesting a lease of `lease_ms`.
    Publish { advert: SharedAdvert, lease_ms: u64 },
    /// Lease grant.
    PublishAck { id: AdvertId, lease_until: SimTime },
    /// Periodic lease renewal from the service node.
    RenewLease { id: AdvertId },
    /// Renewal result; `known == false` tells the provider to republish
    /// (e.g. after the registry restarted and lost soft state).
    RenewAck { id: AdvertId, lease_until: SimTime, known: bool },
    /// Publish/update rejected: the advert references ontology concepts the
    /// registry does not know, so it could never be matched semantically.
    /// Makes the failure observable to the publisher (who should fix the
    /// description or fetch the ontology, not retry as-is) instead of the
    /// advert sitting silently unmatched.
    PublishNack { id: AdvertId, unknown: Vec<ClassId> },
    /// Explicit deregistration.
    Remove { id: AdvertId },
    /// Republish with updated content (e.g. changed coverage area).
    Update { advert: SharedAdvert, lease_ms: u64 },
    /// Push advertisements to a replica: the full-copy replication of the
    /// clustered-registry baseline. Federated registries replicate by
    /// `SyncDigest`/`SyncDelta` instead and ignore this op.
    ForwardAdverts { adverts: Vec<SharedAdvert> },
}

/// Querying operations.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryOp {
    /// A query: client → registry, registry → registry (forwarding), or
    /// client → LAN multicast in decentralized fallback mode.
    Query(QueryMessage),
    /// A timeout re-issue of an earlier query. Carries a fresh wire id in
    /// `query.id` (responses and loop suppression key off it as usual) plus
    /// the root attempt's sequence number, so a registry that already saw —
    /// and may still be answering — the original can dedup instead of
    /// evaluating the same query twice (retry amplification).
    QueryRetry { query: QueryMessage, root_seq: u64 },
    /// Hits travelling back: remote registry → aggregating registry, or
    /// registry/service node → client.
    QueryResponse { query_id: QueryId, hits: Vec<ResponseHit>, responder: NodeId },
    /// Standing query: notify the subscriber about future matching
    /// advertisements ("registration for notifications about service
    /// advertisements of interest"). Leased like advertisements.
    Subscribe { id: QueryId, payload: QueryPayload, lease_ms: u64 },
    /// Subscription accepted.
    SubscribeAck { id: QueryId, lease_until: SimTime },
    /// Cancel a standing query.
    Unsubscribe { id: QueryId },
    /// A freshly published advertisement matched a standing query.
    Notify { subscription: QueryId, hit: ResponseHit },
    /// Ask a registry to plan a service *chain* for a request no single
    /// service satisfies (paper §4.3: composition "support in registries …
    /// will need protocol support from the service discovery architecture").
    ComposeRequest { id: QueryId, request: sds_semantic::ServiceRequest, max_depth: u8 },
    /// The planned chain, in execution order (empty + found=false: no plan).
    ComposeResponse { id: QueryId, found: bool, chain: Vec<SharedAdvert> },
}

/// The three operation categories.
#[derive(Clone, PartialEq, Debug)]
pub enum Operation {
    Maintenance(MaintenanceOp),
    Publishing(PublishOp),
    Querying(QueryOp),
}

/// Protocol version carried by every message.
pub const PROTOCOL_VERSION: u8 = 1;

/// The envelope: what every simulated packet carries.
#[derive(Clone, PartialEq, Debug)]
pub struct DiscoveryMessage {
    pub version: u8,
    pub op: Operation,
}

impl DiscoveryMessage {
    pub fn new(op: Operation) -> Self {
        Self { version: PROTOCOL_VERSION, op }
    }

    pub fn maintenance(op: MaintenanceOp) -> Self {
        Self::new(Operation::Maintenance(op))
    }

    pub fn publishing(op: PublishOp) -> Self {
        Self::new(Operation::Publishing(op))
    }

    pub fn querying(op: QueryOp) -> Self {
        Self::new(Operation::Querying(op))
    }

    /// Short label for traffic accounting (the codec table's `as` column).
    pub fn kind(&self) -> &'static str {
        self.op.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_matching_semantics() {
        let desc = DescriptionTemplate {
            name: Some("blueforce-tracker".into()),
            type_uri: Some("urn:svc:tracking".into()),
            attrs: vec![("area".into(), "north".into()), ("rate".into(), "1hz".into())],
        };
        // Empty query matches everything.
        assert!(desc.matches(&DescriptionTemplate::default()));
        // Bound fields must agree.
        assert!(desc.matches(&DescriptionTemplate {
            type_uri: Some("urn:svc:tracking".into()),
            ..Default::default()
        }));
        assert!(!desc.matches(&DescriptionTemplate {
            type_uri: Some("urn:svc:chat".into()),
            ..Default::default()
        }));
        // Attribute subset with equal values.
        assert!(desc.matches(&DescriptionTemplate {
            attrs: vec![("area".into(), "north".into())],
            ..Default::default()
        }));
        assert!(!desc.matches(&DescriptionTemplate {
            attrs: vec![("area".into(), "south".into())],
            ..Default::default()
        }));
        assert!(!desc.matches(&DescriptionTemplate {
            attrs: vec![("missing".into(), "x".into())],
            ..Default::default()
        }));
    }

    #[test]
    fn description_reports_its_model() {
        assert_eq!(Description::Uri("urn:x".into()).model(), ModelId::Uri);
        assert_eq!(
            Description::Template(DescriptionTemplate::default()).model(),
            ModelId::Template
        );
        assert_eq!(QueryPayload::Uri("urn:x".into()).model(), ModelId::Uri);
    }

    #[test]
    fn kind_labels_are_distinct_for_core_ops() {
        let probe = DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbe);
        let ping = DiscoveryMessage::maintenance(MaintenanceOp::Ping);
        assert_ne!(probe.kind(), ping.kind());
        assert_eq!(probe.version, PROTOCOL_VERSION);
    }
}
