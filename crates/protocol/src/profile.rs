//! Protocol profiles.
//!
//! "Some kind of protocol profiling could be desirable, since registries
//! typically would have to support more such operations than service and
//! client nodes." A [`ProtocolProfile`] names the subset of operations a
//! node class implements; [`ProtocolProfile::handles`] is the conformance
//! check ("nodes quickly filter and silently discard messages they cannot
//! understand anyway") and [`minimum_profile`] classifies any message by
//! the smallest profile that must understand it.

use crate::message::{DiscoveryMessage, MaintenanceOp, Operation, PublishOp, QueryOp};

/// Conformance classes, ordered by capability.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ProtocolProfile {
    /// A pure consumer: queries, responses, subscriptions, artifact and
    /// composition requests, registry discovery.
    Client,
    /// A provider: everything a client handles plus the publishing surface
    /// (publish/renew/remove and their acks).
    Service,
    /// A registry super-peer: the full operation set, including federation
    /// maintenance and replication.
    Registry,
}

/// The least capable profile that must understand `msg`.
pub fn minimum_profile(msg: &DiscoveryMessage) -> ProtocolProfile {
    match &msg.op {
        Operation::Maintenance(m) => match m {
            // Registry discovery and aliveness concern everyone.
            MaintenanceOp::RegistryProbe
            | MaintenanceOp::RegistryProbeReply { .. }
            | MaintenanceOp::RegistryBeacon { .. }
            | MaintenanceOp::Ping
            | MaintenanceOp::Pong
            | MaintenanceOp::RegistryListRequest { .. }
            | MaintenanceOp::RegistryList { .. }
            | MaintenanceOp::ArtifactRequest { .. }
            | MaintenanceOp::ArtifactResponse { .. }
            // Overload backpressure lands on whoever sent the shed request —
            // clients and services included — so everyone must understand it.
            | MaintenanceOp::Busy { .. } => ProtocolProfile::Client,
            // Federation machinery is registry-only.
            MaintenanceOp::FederationJoin { .. }
            | MaintenanceOp::FederationAck { .. }
            | MaintenanceOp::SummaryAdvert { .. }
            | MaintenanceOp::SyncDigest { .. }
            | MaintenanceOp::SyncDelta { .. }
            | MaintenanceOp::SyncAck { .. } => ProtocolProfile::Registry,
        },
        Operation::Publishing(p) => match p {
            PublishOp::Publish { .. }
            | PublishOp::PublishAck { .. }
            | PublishOp::PublishNack { .. }
            | PublishOp::RenewLease { .. }
            | PublishOp::RenewAck { .. }
            | PublishOp::Remove { .. }
            | PublishOp::Update { .. } => ProtocolProfile::Service,
            PublishOp::ForwardAdverts { .. } => ProtocolProfile::Registry,
        },
        Operation::Querying(q) => match q {
            QueryOp::Query(_)
            | QueryOp::QueryRetry { .. }
            | QueryOp::QueryResponse { .. }
            | QueryOp::Subscribe { .. }
            | QueryOp::SubscribeAck { .. }
            | QueryOp::Unsubscribe { .. }
            | QueryOp::Notify { .. }
            | QueryOp::ComposeRequest { .. }
            | QueryOp::ComposeResponse { .. } => ProtocolProfile::Client,
        },
    }
}

impl ProtocolProfile {
    /// Whether a node of this profile is required to understand `msg`.
    /// Messages above the profile may be silently discarded.
    pub fn handles(self, msg: &DiscoveryMessage) -> bool {
        self >= minimum_profile(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{
        Advertisement, Description, QueryId, QueryMessage, QueryPayload, SharedAdvert,
    };
    use crate::uuid::Uuid;
    use sds_simnet::NodeId;

    fn advert() -> SharedAdvert {
        SharedAdvert::from(Advertisement {
            id: Uuid(1),
            provider: NodeId(0),
            description: Description::Uri("urn:x".into()),
            version: 1,
        })
    }

    #[test]
    fn ordering_is_client_service_registry() {
        assert!(ProtocolProfile::Client < ProtocolProfile::Service);
        assert!(ProtocolProfile::Service < ProtocolProfile::Registry);
    }

    #[test]
    fn clients_handle_queries_but_not_publishing() {
        let q = DiscoveryMessage::querying(QueryOp::Query(QueryMessage {
            id: QueryId { origin: NodeId(0), seq: 0 },
            payload: QueryPayload::Uri("urn:x".into()),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        }));
        assert!(ProtocolProfile::Client.handles(&q));
        let p = DiscoveryMessage::publishing(PublishOp::Publish { advert: advert(), lease_ms: 0 });
        assert!(!ProtocolProfile::Client.handles(&p));
        assert!(ProtocolProfile::Service.handles(&p));
    }

    #[test]
    fn only_registries_handle_federation_and_replication() {
        let join = DiscoveryMessage::maintenance(MaintenanceOp::FederationJoin {
            known_peers: vec![],
        });
        let fwd = DiscoveryMessage::publishing(PublishOp::ForwardAdverts { adverts: vec![] });
        for msg in [join, fwd] {
            assert!(!ProtocolProfile::Client.handles(&msg));
            assert!(!ProtocolProfile::Service.handles(&msg));
            assert!(ProtocolProfile::Registry.handles(&msg));
        }
    }

    #[test]
    fn discovery_signals_concern_everyone() {
        for op in [
            MaintenanceOp::RegistryProbe,
            MaintenanceOp::RegistryBeacon { advert_count: 0 },
            MaintenanceOp::Ping,
        ] {
            let msg = DiscoveryMessage::maintenance(op);
            assert!(ProtocolProfile::Client.handles(&msg));
        }
    }

    #[test]
    fn registry_handles_everything() {
        // Spot-check one message of each category.
        let msgs = [
            DiscoveryMessage::maintenance(MaintenanceOp::SyncAck { missing: vec![] }),
            DiscoveryMessage::publishing(PublishOp::RenewLease { id: Uuid(2) }),
            DiscoveryMessage::querying(QueryOp::Unsubscribe {
                id: QueryId { origin: NodeId(1), seq: 9 },
            }),
        ];
        for m in msgs {
            assert!(ProtocolProfile::Registry.handles(&m));
        }
    }
}
