//! Binary serialization of [`DiscoveryMessage`].
//!
//! The simulator moves Rust values, but a real deployment needs bytes; this
//! codec is the SOAP-serialization stand-in and proves the message set is
//! fully serializable (every field reachable, every enum tagged). Encoding is
//! a simple tagged little-endian format; [`decode`] validates tags, UTF-8,
//! version, and trailing bytes.
//!
//! Every message is declared once, in the two tables at the end of this
//! file. `wire_structs!` lists each struct's fields in wire order;
//! `wire_enums!` lists each enum's `tag => Variant { fields }` rows in wire
//! order, under the `what` an unknown tag is reported with and, for the
//! operations, with the name [`DiscoveryMessage::kind`] returns. Each row
//! derives a `Wire` impl whose `wire_len` is exactly what `put` writes, so
//! [`encode`] sizes every frame before writing it, in one allocation.
//! Maintenance tag 12 (the retired advert-pull request) is reserved: it has
//! no row, is rejected like any unknown tag, and must not be reused.
//!
//! An advert is encoded once per process: the `Advertisement` row writes it
//! into the segment its [`SharedAdvert`] keeps the first time a frame
//! carries it, and every frame copies that segment. [`decode`] leaves the
//! segment empty; a received advert is written when it is first re-sent, by
//! the same row, so a memoized frame cannot differ from a fresh one.

use std::fmt;

use sds_semantic::{
    ClassId, Degree, QosConstraint, QosKey, QosValue, ServiceProfile, ServiceRequest,
};
use sds_simnet::NodeId;

use crate::message::{
    Advertisement, Description, DescriptionTemplate, DiscoveryMessage, MaintenanceOp, ModelId,
    Operation, PublishOp, QueryId, QueryMessage, QueryOp, QueryPayload, ResponseHit, SharedAdvert,
    SyncEntry, PROTOCOL_VERSION,
};
use crate::uuid::Uuid;

/// Decoding failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    UnexpectedEof,
    InvalidTag { what: &'static str, tag: u8 },
    BadUtf8,
    TrailingBytes,
    BadVersion(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of input"),
            Self::InvalidTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            Self::BadUtf8 => write!(f, "string is not valid UTF-8"),
            Self::TrailingBytes => write!(f, "trailing bytes after message"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

type R<T> = Result<T, DecodeError>;

/// A value with a wire form. `get` reads what `put` wrote, advancing the
/// input past it, and `wire_len` is exactly the number of bytes `put`
/// writes. The methods are `#[inline]` throughout: a frame is one nest of
/// these calls, and out of line the query decode and response encode
/// microbenchmarks ran 13–45 % slower (EXPERIMENTS.md B6).
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut &[u8]) -> R<Self>;
    fn wire_len(&self) -> usize;
}

impl Wire for u8 {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        let (&b, rest) = r.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *r = rest;
        Ok(b)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        1
    }
}

macro_rules! wire_ints {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut &[u8]) -> R<Self> {
                let (bytes, rest) = r.split_first_chunk().ok_or(DecodeError::UnexpectedEof)?;
                *r = rest;
                Ok(Self::from_le_bytes(*bytes))
            }
            #[inline]
            fn wire_len(&self) -> usize {
                size_of::<$t>()
            }
        }
    )*};
}

wire_ints!(u16, u32, u64, u128);

/// Types that travel as another: the newtypes as the value they wrap, and
/// `f64` as its bits.
macro_rules! wire_via {
    ($($t:ty: $inner:ty = $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                ($to)(*self).put(buf);
            }
            #[inline]
            fn get(r: &mut &[u8]) -> R<Self> {
                <$inner>::get(r).map($from)
            }
            #[inline]
            fn wire_len(&self) -> usize {
                ($to)(*self).wire_len()
            }
        }
    )*};
}

wire_via! {
    NodeId: u32 = |n: NodeId| n.0, NodeId;
    ClassId: u32 = |c: ClassId| c.0, ClassId;
    Uuid: u128 = |u: Uuid| u.0, Uuid;
    f64: u64 = f64::to_bits, f64::from_bits;
}

impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag { what: "bool", tag }),
        }
    }
    #[inline]
    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        let len = u32::get(r)? as usize;
        let bytes = r.get(..len).ok_or(DecodeError::UnexpectedEof)?;
        *r = &r[len..];
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        self.iter().for_each(|v| v.put(buf));
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
    #[inline]
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, T::wire_len)
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for v in self {
            v.put(buf);
        }
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        let n = u32::get(r)? as usize;
        // The count comes from the peer: reserve no more than a sane frame.
        let mut out = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        4 + self.iter().map(T::wire_len).sum::<usize>()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
    #[inline]
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

/// An advert travels as its segment: the `Advertisement` row's bytes,
/// written the first time a frame carries it and copied by every later one.
/// A decoded advert is the one allocation everything downstream shares; its
/// segment stays empty until it is encoded again.
impl Wire for SharedAdvert {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(segment(self));
    }
    #[inline]
    fn get(r: &mut &[u8]) -> R<Self> {
        Advertisement::get(r).map(SharedAdvert::from)
    }
    #[inline]
    fn wire_len(&self) -> usize {
        segment(self).len()
    }
}

fn segment(a: &SharedAdvert) -> &[u8] {
    a.wire_or_init(|a| {
        let mut buf = Vec::with_capacity(a.wire_len());
        a.put(&mut buf);
        buf.into_boxed_slice()
    })
}

/// Serializes one query payload on its own, using the exact wire encoding.
/// The encoding is injective (floats go through their bit patterns, strings
/// are length-prefixed), so equal byte strings ⇔ equal payloads — which is
/// what lets registries key result caches on payloads that cannot derive
/// `Eq`/`Hash` themselves (QoS fields are `f64`).
pub fn encode_payload(p: &QueryPayload) -> Vec<u8> {
    let mut buf = Vec::with_capacity(p.wire_len());
    p.put(&mut buf);
    buf
}

/// Serializes a message into one allocation of its exact length.
pub fn encode(msg: &DiscoveryMessage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + msg.op.wire_len());
    buf.push(msg.version);
    msg.op.put(&mut buf);
    buf
}

/// Deserializes a message, validating version, tags, and message framing.
pub fn decode(bytes: &[u8]) -> R<DiscoveryMessage> {
    let mut r = bytes;
    let version = u8::get(&mut r)?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let op = Operation::get(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(DiscoveryMessage { version, op })
}

/// Number of leading bytes that form the frame envelope (version, operation
/// category, operation tag). [`mutate_frame`]'s field-aware arm leaves these
/// intact so the mutant exercises field decoders — and, when it decodes, the
/// role handlers — instead of dying at the envelope checks.
pub const ENVELOPE_LEN: usize = 3;

/// Applies a small random mutation to an encoded frame: byte flips, an
/// insertion, a deletion, truncation, or a field-aware payload fuzz that
/// preserves the envelope. This is the canonical frame corruption used both
/// by the chaos fault-injection hook (encode → `mutate_frame` → [`decode`])
/// and the fuzz property asserting [`decode`] is total over its image.
pub fn mutate_frame(rng: &mut sds_rand::Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.gen_range(0..5u32) {
        // Flip 1–4 random bytes in place.
        0 => {
            if !out.is_empty() {
                for _ in 0..rng.gen_range(1..=4u32) {
                    let i = rng.gen_range(0..out.len());
                    out[i] ^= rng.gen_range(1..=255u32) as u8;
                }
            }
        }
        // Insert a random byte.
        1 => {
            let i = rng.gen_range(0..=out.len());
            out.insert(i, rng.gen_range(0..=255u32) as u8);
        }
        // Delete a random byte.
        2 => {
            if !out.is_empty() {
                let i = rng.gen_range(0..out.len());
                out.remove(i);
            }
        }
        // Truncate.
        3 => {
            let keep = rng.gen_range(0..=out.len());
            out.truncate(keep);
        }
        // Field-aware fuzz (see `fuzz_payload`).
        _ => return fuzz_payload(rng, &out),
    }
    out
}

/// Field-aware frame fuzz: keeps the envelope (version + category + op tag)
/// valid and flips only payload bytes, yielding frames that survive the
/// outer checks and stress the per-field decoders — and, via the chaos
/// hook, the role handlers behind them.
pub fn fuzz_payload(rng: &mut sds_rand::Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if out.len() > ENVELOPE_LEN {
        for _ in 0..rng.gen_range(1..=4u32) {
            let i = rng.gen_range(ENVELOPE_LEN..out.len());
            out[i] ^= rng.gen_range(1..=255u32) as u8;
        }
    }
    out
}

/// Declares structs by their fields, in wire order.
macro_rules! wire_structs {
    ($($ty:ident { $($f:ident),* })*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$f.put(buf);)*
            }
            #[inline]
            fn get(r: &mut &[u8]) -> R<Self> {
                $(let $f = Wire::get(r)?;)*
                Ok(Self { $($f),* })
            }
            #[inline]
            fn wire_len(&self) -> usize {
                0 $(+ self.$f.wire_len())*
            }
        }
    )*};
}

/// Declares enums by their `tag => Variant` rows: a one-byte tag, then the
/// variant's fields in wire order. `what` names the enum in
/// [`DecodeError::InvalidTag`]. An enum with an `as` column on every row
/// also gets a `kind()` from it.
macro_rules! wire_enums {
    ($($ty:ident($what:literal) {
        $($tag:literal => $v:ident $(($t:ident))? $({ $($f:ident),* })? $(as $kind:expr)?,)*
    })*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$v $(($t))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($t.put(buf);)?
                        $($($f.put(buf);)*)?
                    })*
                }
            }
            #[inline]
            fn get(r: &mut &[u8]) -> R<Self> {
                match u8::get(r)? {
                    $($tag => {
                        $(let $t = Wire::get(r)?;)?
                        $($(let $f = Wire::get(r)?;)*)?
                        Ok(Self::$v $(($t))? $({ $($f),* })?)
                    })*
                    tag => Err(DecodeError::InvalidTag { what: $what, tag }),
                }
            }
            #[inline]
            fn wire_len(&self) -> usize {
                match self {
                    $(Self::$v $(($t))? $({ $($f),* })? =>
                        1 $(+ $t.wire_len())? $($(+ $f.wire_len())*)?,)*
                }
            }
        }
        wire_kinds!($ty { $($v $(($t))? $({ $($f),* })? $(as $kind)?,)* });
    )*};
}

/// The `as` column, when every row of an enum has one.
macro_rules! wire_kinds {
    ($ty:ident { $($v:ident $(($t:ident))? $({ $($f:ident),* })? as $kind:expr,)* }) => {
        impl $ty {
            #[allow(unused_variables)]
            pub(crate) fn kind(&self) -> &'static str {
                match self {
                    $(Self::$v $(($t))? $({ $($f: _),* })? => $kind,)*
                }
            }
        }
    };
    ($($no_kind_column:tt)*) => {};
}

wire_structs! {
    QueryId { origin, seq }
    QueryMessage { id, max_responses, ttl, reply_to, payload }
    ResponseHit { degree, distance, advert }
    Advertisement { id, provider, version, description }
    DescriptionTemplate { name, type_uri, attrs }
    ServiceProfile { name, category, inputs, outputs, qos }
    ServiceRequest { category, outputs, provided_inputs, qos }
    QosValue { key, value }
    QosConstraint { key, bound }
}

wire_enums! {
    Operation("operation") {
        0 => Maintenance(op) as op.kind(),
        1 => Publishing(op) as op.kind(),
        2 => Querying(op) as op.kind(),
    }
    MaintenanceOp("maintenance op") {
        0 => RegistryProbe as "probe",
        1 => RegistryProbeReply { advert_count, load } as "probe-reply",
        2 => RegistryBeacon { advert_count } as "beacon",
        3 => Ping as "ping",
        4 => Pong as "pong",
        5 => RegistryListRequest { from_registry } as "reglist-req",
        6 => RegistryList { registries } as "reglist",
        7 => FederationJoin { known_peers } as "fed-join",
        8 => FederationAck { peers } as "fed-ack",
        9 => SummaryAdvert { advert_count, models } as "summary",
        10 => ArtifactRequest { name } as "artifact-req",
        11 => ArtifactResponse { name, found, size } as "artifact-resp",
        // 12 is reserved: the retired advert-pull request.
        13 => SyncDigest { count, buckets } as "sync-digest",
        14 => SyncDelta { buckets, entries } as "sync-delta",
        15 => SyncAck { missing } as "sync-ack",
        16 => Busy { retry_after_ms } as "busy",
    }
    PublishOp("publish op") {
        0 => Publish { lease_ms, advert } as "publish",
        1 => PublishAck { id, lease_until } as "publish-ack",
        2 => RenewLease { id } as "renew",
        3 => RenewAck { id, lease_until, known } as "renew-ack",
        4 => Remove { id } as "remove",
        5 => Update { lease_ms, advert } as "update",
        6 => ForwardAdverts { adverts } as "fwd-adverts",
        7 => PublishNack { id, unknown } as "publish-nack",
    }
    QueryOp("query op") {
        0 => Query(query) as "query",
        1 => QueryResponse { query_id, responder, hits } as "query-response",
        2 => Subscribe { id, lease_ms, payload } as "subscribe",
        3 => SubscribeAck { id, lease_until } as "subscribe-ack",
        4 => Unsubscribe { id } as "unsubscribe",
        5 => Notify { subscription, hit } as "notify",
        6 => ComposeRequest { id, max_depth, request } as "compose-req",
        7 => ComposeResponse { id, found, chain } as "compose-resp",
        8 => QueryRetry { root_seq, query } as "query-retry",
    }
    SyncEntry("sync entry") {
        0 => Full { lease_until, advert },
        1 => Delta { id, version, lease_until },
    }
    // The next header: a description and a query payload are tagged by
    // their model, with the model's own tags.
    ModelId("model") {
        0 => Uri,
        1 => Template,
        2 => Semantic,
    }
    Description("model") {
        0 => Uri(uri),
        1 => Template(template),
        2 => Semantic(profile),
    }
    QueryPayload("model") {
        0 => Uri(uri),
        1 => Template(template),
        2 => Semantic(request),
    }
    Degree("degree") {
        0 => Fail,
        1 => Subsumes,
        2 => PlugIn,
        3 => Exact,
    }
    QosKey("qos key") {
        0 => LatencyMs,
        1 => UpdatePeriodS,
        2 => CoverageM,
        3 => Accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(msg: DiscoveryMessage) {
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn round_trip_maintenance_ops() {
        rt(DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbe));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbeReply {
            advert_count: 9,
            load: 3,
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::RegistryBeacon { advert_count: 2 }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::Ping));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::Pong));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::RegistryListRequest {
            from_registry: false,
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::RegistryList {
            registries: vec![NodeId(1), NodeId(4)],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::FederationJoin {
            known_peers: vec![NodeId(7)],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::FederationAck { peers: vec![] }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SummaryAdvert {
            advert_count: 12,
            models: vec![ModelId::Uri, ModelId::Semantic],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::ArtifactRequest { name: "nato".into() }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::ArtifactResponse {
            name: "nato".into(),
            found: true,
            size: 4096,
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SyncDigest {
            count: 16,
            buckets: vec![0, u64::MAX, 0xDEAD_BEEF],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SyncDelta {
            buckets: vec![0, 3, 15],
            entries: vec![
                SyncEntry::Delta { id: Uuid(7), version: 2, lease_until: 30_000 },
                SyncEntry::Full {
                    advert: SharedAdvert::from(Advertisement {
                        id: Uuid(8),
                        provider: NodeId(3),
                        description: Description::Uri("urn:svc:chat".into()),
                        version: 1,
                    }),
                    lease_until: 45_000,
                },
            ],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SyncDelta {
            buckets: vec![],
            entries: vec![],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SyncAck {
            missing: vec![Uuid(1), Uuid(u128::MAX)],
        }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::Busy { retry_after_ms: 0 }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::Busy { retry_after_ms: 1_500 }));
        rt(DiscoveryMessage::maintenance(MaintenanceOp::Busy { retry_after_ms: u64::MAX }));
    }

    #[test]
    fn truncated_busy_retry_after_is_rejected_not_misread() {
        // Busy is envelope + one u64; every strict prefix must fail cleanly
        // (a truncated retry_after_ms must never decode as a shorter value).
        let bytes = encode(&DiscoveryMessage::maintenance(MaintenanceOp::Busy {
            retry_after_ms: 0x0102_0304_0506_0708,
        }));
        assert_eq!(bytes.len(), ENVELOPE_LEN + 8);
        for keep in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..keep]),
                Err(DecodeError::UnexpectedEof),
                "prefix of {keep} bytes must not decode"
            );
        }
        // And corrupting any single payload byte still decodes as Busy (the
        // field is a plain u64 — no interior structure to invalidate), with
        // a different retry_after value, never a panic or a wrong op.
        for i in ENVELOPE_LEN..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0xFF;
            match decode(&m) {
                Ok(msg) => assert_eq!(msg.kind(), "busy"),
                Err(e) => panic!("byte {i} corruption must still frame-decode, got {e}"),
            }
        }
    }

    #[test]
    fn round_trip_publish_ops() {
        let advert = SharedAdvert::from(Advertisement {
            id: Uuid(42),
            provider: NodeId(3),
            description: Description::Semantic(
                sds_semantic::ServiceProfile::new("svc", ClassId(2))
                    .with_inputs(&[ClassId(1)])
                    .with_outputs(&[ClassId(4), ClassId(5)])
                    .with_qos(QosKey::Accuracy, 0.75),
            ),
            version: 3,
        });
        rt(DiscoveryMessage::publishing(PublishOp::Publish {
            advert: advert.clone(),
            lease_ms: 15_000,
        }));
        rt(DiscoveryMessage::publishing(PublishOp::PublishAck { id: Uuid(42), lease_until: 99 }));
        rt(DiscoveryMessage::publishing(PublishOp::RenewLease { id: Uuid(42) }));
        rt(DiscoveryMessage::publishing(PublishOp::RenewAck {
            id: Uuid(42),
            lease_until: 123,
            known: false,
        }));
        rt(DiscoveryMessage::publishing(PublishOp::PublishNack {
            id: Uuid(42),
            unknown: vec![ClassId(900), ClassId(901)],
        }));
        rt(DiscoveryMessage::publishing(PublishOp::Remove { id: Uuid(42) }));
        rt(DiscoveryMessage::publishing(PublishOp::Update { advert: advert.clone(), lease_ms: 1 }));
        rt(DiscoveryMessage::publishing(PublishOp::ForwardAdverts { adverts: vec![advert] }));
    }

    #[test]
    fn round_trip_query_ops() {
        let q = QueryMessage {
            id: QueryId { origin: NodeId(5), seq: 77 },
            payload: QueryPayload::Semantic(
                ServiceRequest::for_category(ClassId(1))
                    .with_outputs(&[ClassId(2)])
                    .with_provided_inputs(&[ClassId(3)])
                    .with_qos(QosKey::LatencyMs, 100.0),
            ),
            max_responses: Some(5),
            ttl: 3,
            reply_to: Some(NodeId(9)),
        };
        rt(DiscoveryMessage::querying(QueryOp::Query(q)));
        rt(DiscoveryMessage::querying(QueryOp::Query(QueryMessage {
            id: QueryId { origin: NodeId(0), seq: 0 },
            payload: QueryPayload::Uri("urn:svc:chat".into()),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        })));
        rt(DiscoveryMessage::querying(QueryOp::QueryRetry {
            query: QueryMessage {
                id: QueryId { origin: NodeId(5), seq: 78 },
                payload: QueryPayload::Uri("urn:svc:chat".into()),
                max_responses: Some(3),
                ttl: 2,
                reply_to: None,
            },
            root_seq: 77,
        }));
        rt(DiscoveryMessage::querying(QueryOp::QueryResponse {
            query_id: QueryId { origin: NodeId(5), seq: 77 },
            hits: vec![ResponseHit {
                advert: SharedAdvert::from(Advertisement {
                    id: Uuid(1),
                    provider: NodeId(2),
                    description: Description::Template(DescriptionTemplate {
                        name: Some("n".into()),
                        type_uri: None,
                        attrs: vec![("k".into(), "v".into())],
                    }),
                    version: 1,
                }),
                degree: Degree::PlugIn,
                distance: 2,
            }],
            responder: NodeId(8),
        }));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&DiscoveryMessage::maintenance(MaintenanceOp::Ping));
        bytes[0] = 99;
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn rejects_trailing_bytes_and_truncation() {
        let mut bytes = encode(&DiscoveryMessage::maintenance(MaintenanceOp::Ping));
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
        let advert_msg = encode(&DiscoveryMessage::maintenance(MaintenanceOp::RegistryList {
            registries: vec![NodeId(1), NodeId(2)],
        }));
        assert_eq!(decode(&advert_msg[..advert_msg.len() - 2]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn rejects_unknown_tags() {
        const V: u8 = PROTOCOL_VERSION;
        // Each tagged level: the frame up to its tag, its `what`, its listed
        // tags. Maintenance tag 12 (the retired advert-pull request) is
        // reserved and must be rejected like a tag never assigned.
        let query_head = [V, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0];
        let semantic_qos = [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
        let levels: [(Vec<u8>, &str, &[u8]); 10] = [
            (vec![V], "operation", &[0, 1, 2]),
            (vec![V, 0], "maintenance op", &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16]),
            (vec![V, 1], "publish op", &[0, 1, 2, 3, 4, 5, 6, 7]),
            (vec![V, 2], "query op", &[0, 1, 2, 3, 4, 5, 6, 7, 8]),
            (vec![V, 0, 14, 0, 0, 0, 0, 1, 0, 0, 0], "sync entry", &[0, 1]),
            (vec![V, 0, 9, 0, 0, 0, 0, 1, 0, 0, 0], "model", &[0, 1, 2]),
            (query_head.to_vec(), "model", &[0, 1, 2]),
            (vec![V, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "degree", &[0, 1, 2, 3]),
            ([&query_head[..], &semantic_qos].concat(), "qos key", &[0, 1, 2, 3]),
            (vec![V, 0, 5], "bool", &[0, 1]),
        ];
        for (head, what, listed) in levels {
            for tag in 0..=255u8 {
                let frame = [&head[..], &[tag]].concat();
                let got = decode(&frame);
                if listed.contains(&tag) {
                    // A listed tag is read past: the frame ends or is whole.
                    assert!(matches!(got, Ok(_) | Err(DecodeError::UnexpectedEof)), "{what} {tag}");
                } else {
                    assert_eq!(got, Err(DecodeError::InvalidTag { what, tag }), "{what} {tag}");
                }
            }
        }
    }

    #[test]
    fn model_rows_write_the_model_wire_tags() {
        // Stores index per-model arrays by `wire_tag`; the frame carries the
        // `ModelId` row's tag. They must be one number.
        for m in ModelId::ALL {
            let mut buf = Vec::new();
            m.put(&mut buf);
            assert_eq!(buf, [m.wire_tag()]);
            assert_eq!(ModelId::get(&mut &buf[..]), Ok(m));
        }
    }
}
