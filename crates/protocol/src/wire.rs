//! The wire-size model.
//!
//! The paper worries repeatedly about description size: "semantic service
//! advertisements can become quite large, compared to for example URI
//! strings", and suggests "compression or binary XML versions to reduce the
//! burden on the network". Simulated packets therefore carry a *modeled*
//! XML/SOAP byte count, not the in-memory struct size. Constants approximate
//! observed sizes of SOAP 1.2 + WS-A headers, UDDI/WS-Discovery bodies, and
//! OWL-S profile fragments; what matters for the experiments is the *ratio*
//! between models, which is robust to the exact constants.

use crate::message::{
    Advertisement, Description, DescriptionTemplate, DiscoveryMessage, MaintenanceOp, Operation,
    PublishOp, QueryMessage, QueryOp, QueryPayload, ResponseHit, SyncEntry,
};
use sds_semantic::ServiceRequest;

/// SOAP envelope + WS-Addressing headers common to every message.
pub const SOAP_ENVELOPE_BYTES: u32 = 280;

/// Fixed XML framing of a URI-style description (`<TypeRef>…</TypeRef>`).
const URI_DESC_BASE: u32 = 30;
/// Fixed framing of a template description.
const TEMPLATE_BASE: u32 = 24;
/// Per-field XML framing inside a template (`<Name>…</Name>` etc.).
const TEMPLATE_FIELD: u32 = 24;
/// OWL-S-style profile framing: profile element, service reference,
/// ontology imports.
const PROFILE_BASE: u32 = 220;
/// One concept IRI reference inside a profile or request.
const CONCEPT_REF: u32 = 90;
/// One QoS attribute (property IRI + typed literal).
const QOS_ATTR: u32 = 110;
/// Request framing (smaller than a profile: no grounding/service refs).
const REQUEST_BASE: u32 = 150;
/// Advertisement framing: UUID key, provider endpoint reference, version.
const ADVERT_OVERHEAD: u32 = 96;
/// Per-hit framing in a response (match degree annotation).
const HIT_OVERHEAD: u32 = 30;
/// One registry endpoint reference in signaling lists.
const ENDPOINT_REF: u32 = 40;

/// Types that know their modeled on-the-wire body size (excluding the SOAP
/// envelope, which [`Codec::message_size`] adds once per message).
pub trait WireSize {
    fn body_size(&self) -> u32;
}

impl WireSize for DescriptionTemplate {
    fn body_size(&self) -> u32 {
        let mut n = TEMPLATE_BASE;
        if let Some(s) = &self.name {
            n += TEMPLATE_FIELD + s.len() as u32;
        }
        if let Some(s) = &self.type_uri {
            n += TEMPLATE_FIELD + s.len() as u32;
        }
        for (k, v) in &self.attrs {
            n += TEMPLATE_FIELD + (k.len() + v.len()) as u32;
        }
        n
    }
}

impl WireSize for Description {
    fn body_size(&self) -> u32 {
        match self {
            Description::Uri(u) => URI_DESC_BASE + u.len() as u32,
            Description::Template(t) => t.body_size(),
            Description::Semantic(p) => {
                PROFILE_BASE
                    + (p.name.len() as u32)
                    + CONCEPT_REF * (1 + p.inputs.len() + p.outputs.len()) as u32
                    + QOS_ATTR * p.qos.len() as u32
            }
        }
    }
}

impl WireSize for QueryPayload {
    fn body_size(&self) -> u32 {
        match self {
            QueryPayload::Uri(u) => URI_DESC_BASE + u.len() as u32,
            QueryPayload::Template(t) => t.body_size(),
            QueryPayload::Semantic(r) => request_body_size(r),
        }
    }
}

/// Modeled size of a semantic request, whether it travels as a query
/// payload or inside a `ComposeRequest`.
fn request_body_size(r: &ServiceRequest) -> u32 {
    REQUEST_BASE
        + CONCEPT_REF
            * (usize::from(r.category.is_some()) + r.outputs.len() + r.provided_inputs.len())
                as u32
        + QOS_ATTR * r.qos.len() as u32
}

impl WireSize for Advertisement {
    fn body_size(&self) -> u32 {
        ADVERT_OVERHEAD + self.description.body_size()
    }
}

impl WireSize for ResponseHit {
    fn body_size(&self) -> u32 {
        HIT_OVERHEAD + self.advert.body_size()
    }
}

impl WireSize for QueryMessage {
    fn body_size(&self) -> u32 {
        // Query id, ttl, response-control and reply-to headers.
        60 + self.payload.body_size()
    }
}

impl WireSize for MaintenanceOp {
    fn body_size(&self) -> u32 {
        match self {
            MaintenanceOp::RegistryProbe => 40,
            MaintenanceOp::RegistryProbeReply { .. } => 52,
            MaintenanceOp::RegistryBeacon { .. } => 48,
            MaintenanceOp::Ping | MaintenanceOp::Pong => 24,
            MaintenanceOp::RegistryListRequest { .. } => 32,
            MaintenanceOp::RegistryList { registries } => {
                24 + ENDPOINT_REF * registries.len() as u32
            }
            MaintenanceOp::FederationJoin { known_peers } => {
                40 + ENDPOINT_REF * known_peers.len() as u32
            }
            MaintenanceOp::FederationAck { peers } => 40 + ENDPOINT_REF * peers.len() as u32,
            MaintenanceOp::SummaryAdvert { models, .. } => 48 + 8 * models.len() as u32,
            MaintenanceOp::ArtifactRequest { name } => 40 + name.len() as u32,
            MaintenanceOp::ArtifactResponse { name, found, size } => {
                48 + name.len() as u32 + if *found { *size } else { 0 }
            }
            // Digest framing plus one 64-bit hash (hex-encoded, element
            // framing) per bucket — a fixed, state-independent cost.
            MaintenanceOp::SyncDigest { buckets, .. } => 40 + 12 * buckets.len() as u32,
            MaintenanceOp::SyncDelta { buckets, entries } => {
                32 + 4 * buckets.len() as u32
                    + entries.iter().map(WireSize::body_size).sum::<u32>()
            }
            MaintenanceOp::SyncAck { missing } => 32 + 40 * missing.len() as u32,
            // A deliberately tiny nack: envelope plus one retry-after hint.
            MaintenanceOp::Busy { .. } => 32,
        }
    }
}

impl WireSize for SyncEntry {
    fn body_size(&self) -> u32 {
        match self {
            // Entry framing plus the whole advert body; pays the full
            // semantic-description cost the delta path exists to avoid.
            SyncEntry::Full { advert, .. } => 16 + advert.body_size(),
            // UUID key, version echo, lease deadline: a lease renewal on
            // the wire, independent of how large the description is.
            SyncEntry::Delta { .. } => 56,
        }
    }
}

impl WireSize for PublishOp {
    fn body_size(&self) -> u32 {
        match self {
            PublishOp::Publish { advert, .. } => 32 + advert.body_size(),
            PublishOp::PublishAck { .. } => 56,
            // Nack framing plus one concept IRI per offending reference.
            PublishOp::PublishNack { unknown, .. } => 56 + CONCEPT_REF * unknown.len() as u32,
            PublishOp::RenewLease { .. } => 48,
            PublishOp::RenewAck { .. } => 60,
            PublishOp::Remove { .. } => 48,
            PublishOp::Update { advert, .. } => 32 + advert.body_size(),
            PublishOp::ForwardAdverts { adverts } => {
                24 + adverts.iter().map(|a| a.body_size()).sum::<u32>()
            }
        }
    }
}

impl WireSize for QueryOp {
    fn body_size(&self) -> u32 {
        match self {
            QueryOp::Query(q) => q.body_size(),
            // The original query body plus the root-attempt correlation id.
            QueryOp::QueryRetry { query, .. } => 12 + query.body_size(),
            QueryOp::QueryResponse { hits, .. } => {
                40 + hits.iter().map(WireSize::body_size).sum::<u32>()
            }
            QueryOp::Subscribe { payload, .. } => 72 + payload.body_size(),
            QueryOp::SubscribeAck { .. } => 56,
            QueryOp::Unsubscribe { .. } => 48,
            QueryOp::Notify { hit, .. } => 48 + hit.body_size(),
            QueryOp::ComposeRequest { request, .. } => 72 + request_body_size(request),
            QueryOp::ComposeResponse { chain, .. } => {
                56 + chain.iter().map(|a| a.body_size()).sum::<u32>()
            }
        }
    }
}

impl WireSize for Operation {
    fn body_size(&self) -> u32 {
        match self {
            Operation::Maintenance(m) => m.body_size(),
            Operation::Publishing(p) => p.body_size(),
            Operation::Querying(q) => q.body_size(),
        }
    }
}

impl WireSize for DiscoveryMessage {
    fn body_size(&self) -> u32 {
        self.op.body_size()
    }
}

/// How message bytes are reduced before hitting the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Compression {
    /// Plain XML over SOAP.
    #[default]
    None,
    /// An EXI/binary-XML-class encoding: fixed dictionary overhead plus a
    /// 4:1 reduction of the XML stream. Real EXI on WS payloads measures
    /// 70–90% reduction; 75% is the conservative middle.
    BinaryXml,
}

impl Compression {
    /// Final on-the-wire size of `xml_bytes` of uncompressed message.
    pub fn apply(self, xml_bytes: u32) -> u32 {
        match self {
            Compression::None => xml_bytes,
            Compression::BinaryXml => 60 + xml_bytes / 4,
        }
    }
}

/// Computes the modeled transmission size of whole messages; the single
/// place where envelope overhead and compression are applied.
#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    pub compression: Compression,
}

impl Codec {
    pub fn new(compression: Compression) -> Self {
        Self { compression }
    }

    /// On-the-wire size of one message.
    pub fn message_size(&self, msg: &DiscoveryMessage) -> u32 {
        self.compression.apply(SOAP_ENVELOPE_BYTES + msg.body_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{QueryId, SharedAdvert};
    use crate::uuid::Uuid;
    use sds_semantic::{ClassId, QosKey, ServiceProfile};
    use sds_simnet::NodeId;

    fn semantic_advert(n_outputs: usize) -> SharedAdvert {
        let mut p = ServiceProfile::new("svc", ClassId(0));
        p.outputs = (0..n_outputs as u32).map(ClassId).collect();
        SharedAdvert::from(Advertisement {
            id: Uuid(1),
            provider: NodeId(0),
            description: Description::Semantic(p),
            version: 1,
        })
    }

    #[test]
    fn semantic_descriptions_dwarf_uri_strings() {
        let uri = Description::Uri("urn:svc:tracking".into());
        let sem = semantic_advert(3).description.body_size();
        assert!(
            sem > 5 * uri.body_size(),
            "paper: semantic adverts are much larger than URI strings ({sem} vs {})",
            uri.body_size()
        );
    }

    #[test]
    fn size_grows_with_profile_complexity() {
        assert!(semantic_advert(5).body_size() > semantic_advert(1).body_size());
    }

    #[test]
    fn template_size_counts_fields() {
        let empty = DescriptionTemplate::default();
        let full = DescriptionTemplate {
            name: Some("n".into()),
            type_uri: Some("t".into()),
            attrs: vec![("a".into(), "b".into())],
        };
        assert!(full.body_size() > empty.body_size());
    }

    #[test]
    fn compression_shrinks_large_messages() {
        let advert = semantic_advert(4);
        let msg = DiscoveryMessage::publishing(PublishOp::Publish { advert, lease_ms: 10_000 });
        let plain = Codec::new(Compression::None).message_size(&msg);
        let packed = Codec::new(Compression::BinaryXml).message_size(&msg);
        assert!(packed < plain / 2, "binary XML should at least halve ({packed} vs {plain})");
    }

    #[test]
    fn envelope_applied_once() {
        let msg = DiscoveryMessage::maintenance(MaintenanceOp::Ping);
        assert_eq!(
            Codec::default().message_size(&msg),
            SOAP_ENVELOPE_BYTES + MaintenanceOp::Ping.body_size()
        );
    }

    #[test]
    fn artifact_response_carries_body_only_when_found() {
        let found = MaintenanceOp::ArtifactResponse { name: "ont".into(), found: true, size: 5_000 };
        let missing = MaintenanceOp::ArtifactResponse { name: "ont".into(), found: false, size: 5_000 };
        assert_eq!(found.body_size() - missing.body_size(), 5_000);
    }

    #[test]
    fn compose_request_is_sized_like_the_semantic_query_payload() {
        let request = ServiceRequest::for_category(ClassId(3))
            .with_outputs(&[ClassId(1), ClassId(2)])
            .with_provided_inputs(&[ClassId(4)])
            .with_qos(QosKey::LatencyMs, 100.0);
        let op = QueryOp::ComposeRequest {
            id: QueryId { origin: NodeId(0), seq: 1 },
            request: request.clone(),
            max_depth: 3,
        };
        // The formula before the borrow-based helper: wrap a clone, size it.
        assert_eq!(op.body_size(), 72 + QueryPayload::Semantic(request).body_size());
        assert_eq!(op.body_size(), 72 + 150 + 90 * 4 + 110);
    }

    #[test]
    fn query_response_size_scales_with_hits() {
        let hit = ResponseHit {
            advert: semantic_advert(2),
            degree: sds_semantic::Degree::Exact,
            distance: 0,
        };
        let one = QueryOp::QueryResponse {
            query_id: QueryId { origin: NodeId(0), seq: 1 },
            hits: vec![hit.clone()],
            responder: NodeId(1),
        };
        let three = QueryOp::QueryResponse {
            query_id: QueryId { origin: NodeId(0), seq: 1 },
            hits: vec![hit.clone(), hit.clone(), hit],
            responder: NodeId(1),
        };
        assert!(three.body_size() > 2 * one.body_size());
    }
}
