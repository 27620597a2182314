//! # sds-protocol — the generic service discovery protocol
//!
//! The paper's central protocol argument (its Fig. 3 / Fig. 5) is a *layered,
//! coherent stack*: one generic advertisement/query distribution protocol
//! whose payload — the service description — is pluggable behind a
//! "next header" field, "allowing nodes to choose the right handling of the
//! service description payload … \[and\] quickly filter and silently discard
//! messages they cannot understand".
//!
//! This crate defines that stack:
//!
//! * [`DiscoveryMessage`]: the envelope, with operations in the paper's three
//!   categories — registry network **maintenance**, **publishing**, and
//!   **querying**;
//! * [`ModelId`] + [`Description`]/[`QueryPayload`]: the next-header field
//!   and the three description models shipped (URI, template, semantic);
//! * [`SharedAdvert`]: the one immutable allocation of an advert that stores
//!   and messages share, with its wire encoding memoized beside it;
//! * [`Uuid`]-based [`AdvertId`]s ("a unique identification convention, e.g.
//!   based on UUIDs like in UDDI 3.0") and per-origin [`QueryId`]s ("giving
//!   queries their unique query ID … to avoid query looping");
//! * a wire-**size model** ([`WireSize`], [`Codec`]) charging XML/SOAP-like
//!   byte counts — the quantity the paper's bandwidth concerns are stated
//!   in — with an optional compression hook ("binary XML versions to reduce
//!   the burden on the network");
//! * a binary [`codec`] with full encode/decode round-tripping, standing in
//!   for the SOAP serialization layer.

pub mod codec;
mod message;
mod profile;
mod uuid;
mod wire;

pub use message::{
    AdvertId, Advertisement, Description, DescriptionTemplate, DiscoveryMessage, MaintenanceOp,
    ModelId, Operation, PublishOp, QueryId, QueryMessage, QueryOp, QueryPayload, ResponseHit,
    SharedAdvert, SyncEntry,
};
pub use profile::{minimum_profile, ProtocolProfile};
pub use uuid::Uuid;
pub use wire::{Codec, Compression, WireSize, SOAP_ENVELOPE_BYTES};
