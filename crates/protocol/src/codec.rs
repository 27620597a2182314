//! Binary serialization of [`DiscoveryMessage`].
//!
//! The simulator moves Rust values, but a real deployment needs bytes; this
//! codec is the SOAP-serialization stand-in and proves the message set is
//! fully serializable (every field reachable, every enum tagged). Encoding is
//! a simple tagged little-endian format; [`decode`] validates tags, UTF-8,
//! version, and trailing bytes.
//!
//! An advert is encoded once per process, not once per frame: its fields go
//! through the field writer the first time a frame carries it, into the wire
//! segment its [`SharedAdvert`] keeps, and every frame copies that segment
//! with one `extend_from_slice`. A frame that carries adverts is sized from
//! their segments before anything is written, so a response of any number
//! of hits is one allocation: its header plus one copy per hit. [`decode`]
//! leaves the segment empty; a received advert is written the first time it
//! is re-sent, by the same writer, so a memoized frame cannot differ from a
//! fresh one.

use std::fmt;

use sds_semantic::{ClassId, Degree, QosConstraint, QosValue, ServiceProfile, ServiceRequest};
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

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self::with_capacity(128)
    }
    fn with_capacity(n: usize) -> Self {
        Self { buf: Vec::with_capacity(n) }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
            None => self.bool(false),
        }
    }
    fn node(&mut self, n: NodeId) {
        self.u32(n.0);
    }
    fn nodes(&mut self, ns: &[NodeId]) {
        self.u32(ns.len() as u32);
        for n in ns {
            self.node(*n);
        }
    }
    fn class(&mut self, c: ClassId) {
        self.u32(c.0);
    }
    fn classes(&mut self, cs: &[ClassId]) {
        self.u32(cs.len() as u32);
        for c in cs {
            self.class(*c);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type R<T> = Result<T, DecodeError>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::InvalidTag { what: "bool", tag: t }),
        }
    }
    fn u16(&mut self) -> R<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }
    fn u32(&mut self) -> R<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }
    fn u64(&mut self) -> R<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }
    fn u128(&mut self) -> R<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("len")))
    }
    fn f64(&mut self) -> R<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> R<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
    fn opt_str(&mut self) -> R<Option<String>> {
        Ok(if self.bool()? { Some(self.str()?) } else { None })
    }
    fn node(&mut self) -> R<NodeId> {
        Ok(NodeId(self.u32()?))
    }
    fn nodes(&mut self) -> R<Vec<NodeId>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.node()).collect()
    }
    fn class(&mut self) -> R<ClassId> {
        Ok(ClassId(self.u32()?))
    }
    fn classes(&mut self) -> R<Vec<ClassId>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.class()).collect()
    }
}

fn qos_key_tag(k: sds_semantic::QosValue) -> u8 {
    key_tag(k.key)
}

fn key_tag(k: sds_semantic::QosKey) -> u8 {
    use sds_semantic::QosKey::*;
    match k {
        LatencyMs => 0,
        UpdatePeriodS => 1,
        CoverageM => 2,
        Accuracy => 3,
    }
}

fn key_from_tag(tag: u8) -> R<sds_semantic::QosKey> {
    use sds_semantic::QosKey::*;
    Ok(match tag {
        0 => LatencyMs,
        1 => UpdatePeriodS,
        2 => CoverageM,
        3 => Accuracy,
        t => return Err(DecodeError::InvalidTag { what: "qos key", tag: t }),
    })
}

fn degree_tag(d: Degree) -> u8 {
    match d {
        Degree::Fail => 0,
        Degree::Subsumes => 1,
        Degree::PlugIn => 2,
        Degree::Exact => 3,
    }
}

fn degree_from_tag(tag: u8) -> R<Degree> {
    Ok(match tag {
        0 => Degree::Fail,
        1 => Degree::Subsumes,
        2 => Degree::PlugIn,
        3 => Degree::Exact,
        t => return Err(DecodeError::InvalidTag { what: "degree", tag: t }),
    })
}

fn write_profile(w: &mut Writer, p: &ServiceProfile) {
    w.str(&p.name);
    w.class(p.category);
    w.classes(&p.inputs);
    w.classes(&p.outputs);
    w.u32(p.qos.len() as u32);
    for q in &p.qos {
        w.u8(qos_key_tag(*q));
        w.f64(q.value);
    }
}

fn read_profile(r: &mut Reader<'_>) -> R<ServiceProfile> {
    let name = r.str()?;
    let category = r.class()?;
    let inputs = r.classes()?;
    let outputs = r.classes()?;
    let n = r.u32()? as usize;
    let mut qos = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let key = key_from_tag(r.u8()?)?;
        qos.push(QosValue { key, value: r.f64()? });
    }
    Ok(ServiceProfile { name, category, inputs, outputs, qos })
}

fn write_request(w: &mut Writer, req: &ServiceRequest) {
    match req.category {
        Some(c) => {
            w.bool(true);
            w.class(c);
        }
        None => w.bool(false),
    }
    w.classes(&req.outputs);
    w.classes(&req.provided_inputs);
    w.u32(req.qos.len() as u32);
    for q in &req.qos {
        w.u8(key_tag(q.key));
        w.f64(q.bound);
    }
}

fn read_request(r: &mut Reader<'_>) -> R<ServiceRequest> {
    let category = if r.bool()? { Some(r.class()?) } else { None };
    let outputs = r.classes()?;
    let provided_inputs = r.classes()?;
    let n = r.u32()? as usize;
    let mut qos = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let key = key_from_tag(r.u8()?)?;
        qos.push(QosConstraint { key, bound: r.f64()? });
    }
    Ok(ServiceRequest { category, outputs, provided_inputs, qos })
}

fn write_template(w: &mut Writer, t: &DescriptionTemplate) {
    w.opt_str(&t.name);
    w.opt_str(&t.type_uri);
    w.u32(t.attrs.len() as u32);
    for (k, v) in &t.attrs {
        w.str(k);
        w.str(v);
    }
}

fn read_template(r: &mut Reader<'_>) -> R<DescriptionTemplate> {
    let name = r.opt_str()?;
    let type_uri = r.opt_str()?;
    let n = r.u32()? as usize;
    let mut attrs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        attrs.push((r.str()?, r.str()?));
    }
    Ok(DescriptionTemplate { name, type_uri, attrs })
}

fn write_description(w: &mut Writer, d: &Description) {
    w.u8(d.model().wire_tag());
    match d {
        Description::Uri(u) => w.str(u),
        Description::Template(t) => write_template(w, t),
        Description::Semantic(p) => write_profile(w, p),
    }
}

fn read_description(r: &mut Reader<'_>) -> R<Description> {
    let tag = r.u8()?;
    match ModelId::from_wire_tag(tag).ok_or(DecodeError::InvalidTag { what: "model", tag })? {
        ModelId::Uri => Ok(Description::Uri(r.str()?)),
        ModelId::Template => Ok(Description::Template(read_template(r)?)),
        ModelId::Semantic => Ok(Description::Semantic(read_profile(r)?)),
    }
}

fn write_payload(w: &mut Writer, p: &QueryPayload) {
    w.u8(p.model().wire_tag());
    match p {
        QueryPayload::Uri(u) => w.str(u),
        QueryPayload::Template(t) => write_template(w, t),
        QueryPayload::Semantic(req) => write_request(w, req),
    }
}

fn read_payload(r: &mut Reader<'_>) -> R<QueryPayload> {
    let tag = r.u8()?;
    match ModelId::from_wire_tag(tag).ok_or(DecodeError::InvalidTag { what: "model", tag })? {
        ModelId::Uri => Ok(QueryPayload::Uri(r.str()?)),
        ModelId::Template => Ok(QueryPayload::Template(read_template(r)?)),
        ModelId::Semantic => Ok(QueryPayload::Semantic(read_request(r)?)),
    }
}

/// The field writer of an advert: the one place its encoding is decided.
fn advert_segment(a: &Advertisement) -> Box<[u8]> {
    let mut w = Writer::new();
    w.u128(a.id.0);
    w.node(a.provider);
    w.u32(a.version);
    write_description(&mut w, &a.description);
    w.buf.into_boxed_slice()
}

/// The advert's encoding, written on first use and kept beside it.
fn segment(a: &SharedAdvert) -> &[u8] {
    a.wire_or_init(advert_segment)
}

fn write_advert(w: &mut Writer, a: &SharedAdvert) {
    w.buf.extend_from_slice(segment(a));
}

/// The one allocation of a received advert: everything downstream of
/// `decode` shares this `SharedAdvert`. Its segment stays empty until the
/// advert is encoded again.
fn read_advert(r: &mut Reader<'_>) -> R<SharedAdvert> {
    let id = Uuid(r.u128()?);
    let provider = r.node()?;
    let version = r.u32()?;
    let description = read_description(r)?;
    Ok(SharedAdvert::from(Advertisement { id, provider, description, version }))
}

fn write_query(w: &mut Writer, q: &QueryMessage) {
    w.node(q.id.origin);
    w.u64(q.id.seq);
    match q.max_responses {
        Some(m) => {
            w.bool(true);
            w.u16(m);
        }
        None => w.bool(false),
    }
    w.u8(q.ttl);
    match q.reply_to {
        Some(n) => {
            w.bool(true);
            w.node(n);
        }
        None => w.bool(false),
    }
    write_payload(w, &q.payload);
}

fn read_query(r: &mut Reader<'_>) -> R<QueryMessage> {
    let origin = r.node()?;
    let seq = r.u64()?;
    let max_responses = if r.bool()? { Some(r.u16()?) } else { None };
    let ttl = r.u8()?;
    let reply_to = if r.bool()? { Some(r.node()?) } else { None };
    let payload = read_payload(r)?;
    Ok(QueryMessage { id: QueryId { origin, seq }, payload, max_responses, ttl, reply_to })
}

fn write_maintenance(w: &mut Writer, m: &MaintenanceOp) {
    match m {
        MaintenanceOp::RegistryProbe => w.u8(0),
        MaintenanceOp::RegistryProbeReply { advert_count, load } => {
            w.u8(1);
            w.u32(*advert_count);
            w.u32(*load);
        }
        MaintenanceOp::RegistryBeacon { advert_count } => {
            w.u8(2);
            w.u32(*advert_count);
        }
        MaintenanceOp::Ping => w.u8(3),
        MaintenanceOp::Pong => w.u8(4),
        MaintenanceOp::RegistryListRequest { from_registry } => {
            w.u8(5);
            w.bool(*from_registry);
        }
        MaintenanceOp::RegistryList { registries } => {
            w.u8(6);
            w.nodes(registries);
        }
        MaintenanceOp::FederationJoin { known_peers } => {
            w.u8(7);
            w.nodes(known_peers);
        }
        MaintenanceOp::FederationAck { peers } => {
            w.u8(8);
            w.nodes(peers);
        }
        MaintenanceOp::SummaryAdvert { advert_count, models } => {
            w.u8(9);
            w.u32(*advert_count);
            w.u32(models.len() as u32);
            for m in models {
                w.u8(m.wire_tag());
            }
        }
        MaintenanceOp::ArtifactRequest { name } => {
            w.u8(10);
            w.str(name);
        }
        MaintenanceOp::ArtifactResponse { name, found, size } => {
            w.u8(11);
            w.str(name);
            w.bool(*found);
            w.u32(*size);
        }
        MaintenanceOp::SyncDigest { count, buckets } => {
            w.u8(13);
            w.u32(*count);
            w.u32(buckets.len() as u32);
            for b in buckets {
                w.u64(*b);
            }
        }
        MaintenanceOp::SyncDelta { buckets, entries } => {
            w.u8(14);
            w.u32(buckets.len() as u32);
            for b in buckets {
                w.u16(*b);
            }
            w.u32(entries.len() as u32);
            for e in entries {
                write_sync_entry(w, e);
            }
        }
        MaintenanceOp::SyncAck { missing } => {
            w.u8(15);
            w.u32(missing.len() as u32);
            for id in missing {
                w.u128(id.0);
            }
        }
        MaintenanceOp::Busy { retry_after_ms } => {
            w.u8(16);
            w.u64(*retry_after_ms);
        }
    }
}

fn write_sync_entry(w: &mut Writer, e: &SyncEntry) {
    match e {
        SyncEntry::Full { advert, lease_until } => {
            w.u8(0);
            w.u64(*lease_until);
            write_advert(w, advert);
        }
        SyncEntry::Delta { id, version, lease_until } => {
            w.u8(1);
            w.u128(id.0);
            w.u32(*version);
            w.u64(*lease_until);
        }
    }
}

fn read_sync_entry(r: &mut Reader<'_>) -> R<SyncEntry> {
    Ok(match r.u8()? {
        0 => {
            let lease_until = r.u64()?;
            SyncEntry::Full { advert: read_advert(r)?, lease_until }
        }
        1 => SyncEntry::Delta { id: Uuid(r.u128()?), version: r.u32()?, lease_until: r.u64()? },
        t => return Err(DecodeError::InvalidTag { what: "sync entry", tag: t }),
    })
}

fn read_maintenance(r: &mut Reader<'_>) -> R<MaintenanceOp> {
    Ok(match r.u8()? {
        0 => MaintenanceOp::RegistryProbe,
        1 => MaintenanceOp::RegistryProbeReply { advert_count: r.u32()?, load: r.u32()? },
        2 => MaintenanceOp::RegistryBeacon { advert_count: r.u32()? },
        3 => MaintenanceOp::Ping,
        4 => MaintenanceOp::Pong,
        5 => MaintenanceOp::RegistryListRequest { from_registry: r.bool()? },
        6 => MaintenanceOp::RegistryList { registries: r.nodes()? },
        7 => MaintenanceOp::FederationJoin { known_peers: r.nodes()? },
        8 => MaintenanceOp::FederationAck { peers: r.nodes()? },
        9 => {
            let advert_count = r.u32()?;
            let n = r.u32()? as usize;
            let mut models = Vec::with_capacity(n.min(8));
            for _ in 0..n {
                let tag = r.u8()?;
                models.push(
                    ModelId::from_wire_tag(tag)
                        .ok_or(DecodeError::InvalidTag { what: "model", tag })?,
                );
            }
            MaintenanceOp::SummaryAdvert { advert_count, models }
        }
        10 => MaintenanceOp::ArtifactRequest { name: r.str()? },
        11 => MaintenanceOp::ArtifactResponse { name: r.str()?, found: r.bool()?, size: r.u32()? },
        13 => {
            let count = r.u32()?;
            let n = r.u32()? as usize;
            let mut buckets = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                buckets.push(r.u64()?);
            }
            MaintenanceOp::SyncDigest { count, buckets }
        }
        14 => {
            let n = r.u32()? as usize;
            let mut buckets = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                buckets.push(r.u16()?);
            }
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                entries.push(read_sync_entry(r)?);
            }
            MaintenanceOp::SyncDelta { buckets, entries }
        }
        15 => {
            let n = r.u32()? as usize;
            let mut missing = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                missing.push(Uuid(r.u128()?));
            }
            MaintenanceOp::SyncAck { missing }
        }
        16 => MaintenanceOp::Busy { retry_after_ms: r.u64()? },
        // Tag 12 (the retired advert-pull request) stays reserved: it is
        // rejected here like any unknown tag and must not be reassigned.
        t => return Err(DecodeError::InvalidTag { what: "maintenance op", tag: t }),
    })
}

fn write_publish(w: &mut Writer, p: &PublishOp) {
    match p {
        PublishOp::Publish { advert, lease_ms } => {
            w.u8(0);
            w.u64(*lease_ms);
            write_advert(w, advert);
        }
        PublishOp::PublishAck { id, lease_until } => {
            w.u8(1);
            w.u128(id.0);
            w.u64(*lease_until);
        }
        PublishOp::RenewLease { id } => {
            w.u8(2);
            w.u128(id.0);
        }
        PublishOp::RenewAck { id, lease_until, known } => {
            w.u8(3);
            w.u128(id.0);
            w.u64(*lease_until);
            w.bool(*known);
        }
        PublishOp::Remove { id } => {
            w.u8(4);
            w.u128(id.0);
        }
        PublishOp::Update { advert, lease_ms } => {
            w.u8(5);
            w.u64(*lease_ms);
            write_advert(w, advert);
        }
        PublishOp::ForwardAdverts { adverts } => {
            w.u8(6);
            w.u32(adverts.len() as u32);
            for a in adverts {
                write_advert(w, a);
            }
        }
        PublishOp::PublishNack { id, unknown } => {
            w.u8(7);
            w.u128(id.0);
            w.classes(unknown);
        }
    }
}

fn read_publish(r: &mut Reader<'_>) -> R<PublishOp> {
    Ok(match r.u8()? {
        0 => {
            let lease_ms = r.u64()?;
            PublishOp::Publish { advert: read_advert(r)?, lease_ms }
        }
        1 => PublishOp::PublishAck { id: Uuid(r.u128()?), lease_until: r.u64()? },
        2 => PublishOp::RenewLease { id: Uuid(r.u128()?) },
        3 => PublishOp::RenewAck { id: Uuid(r.u128()?), lease_until: r.u64()?, known: r.bool()? },
        4 => PublishOp::Remove { id: Uuid(r.u128()?) },
        5 => {
            let lease_ms = r.u64()?;
            PublishOp::Update { advert: read_advert(r)?, lease_ms }
        }
        6 => {
            let n = r.u32()? as usize;
            let mut adverts = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                adverts.push(read_advert(r)?);
            }
            PublishOp::ForwardAdverts { adverts }
        }
        7 => PublishOp::PublishNack { id: Uuid(r.u128()?), unknown: r.classes()? },
        t => return Err(DecodeError::InvalidTag { what: "publish op", tag: t }),
    })
}

fn write_queryop(w: &mut Writer, q: &QueryOp) {
    match q {
        QueryOp::Query(qm) => {
            w.u8(0);
            write_query(w, qm);
        }
        QueryOp::QueryRetry { query, root_seq } => {
            w.u8(8);
            w.u64(*root_seq);
            write_query(w, query);
        }
        QueryOp::Subscribe { id, payload, lease_ms } => {
            w.u8(2);
            w.node(id.origin);
            w.u64(id.seq);
            w.u64(*lease_ms);
            write_payload(w, payload);
        }
        QueryOp::SubscribeAck { id, lease_until } => {
            w.u8(3);
            w.node(id.origin);
            w.u64(id.seq);
            w.u64(*lease_until);
        }
        QueryOp::Unsubscribe { id } => {
            w.u8(4);
            w.node(id.origin);
            w.u64(id.seq);
        }
        QueryOp::Notify { subscription, hit } => {
            w.u8(5);
            w.node(subscription.origin);
            w.u64(subscription.seq);
            w.u8(degree_tag(hit.degree));
            w.u32(hit.distance);
            write_advert(w, &hit.advert);
        }
        QueryOp::ComposeRequest { id, request, max_depth } => {
            w.u8(6);
            w.node(id.origin);
            w.u64(id.seq);
            w.u8(*max_depth);
            write_request(w, request);
        }
        QueryOp::ComposeResponse { id, found, chain } => {
            w.u8(7);
            w.node(id.origin);
            w.u64(id.seq);
            w.bool(*found);
            w.u32(chain.len() as u32);
            for a in chain {
                write_advert(w, a);
            }
        }
        QueryOp::QueryResponse { query_id, hits, responder } => {
            w.u8(1);
            w.node(query_id.origin);
            w.u64(query_id.seq);
            w.node(*responder);
            w.u32(hits.len() as u32);
            for h in hits {
                w.u8(degree_tag(h.degree));
                w.u32(h.distance);
                write_advert(w, &h.advert);
            }
        }
    }
}

fn read_queryop(r: &mut Reader<'_>) -> R<QueryOp> {
    Ok(match r.u8()? {
        0 => QueryOp::Query(read_query(r)?),
        1 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let responder = r.node()?;
            let n = r.u32()? as usize;
            let mut hits = Vec::with_capacity(n.min(256));
            for _ in 0..n {
                let degree = degree_from_tag(r.u8()?)?;
                let distance = r.u32()?;
                hits.push(ResponseHit { advert: read_advert(r)?, degree, distance });
            }
            QueryOp::QueryResponse { query_id: QueryId { origin, seq }, hits, responder }
        }
        2 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let lease_ms = r.u64()?;
            let payload = read_payload(r)?;
            QueryOp::Subscribe { id: QueryId { origin, seq }, payload, lease_ms }
        }
        3 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let lease_until = r.u64()?;
            QueryOp::SubscribeAck { id: QueryId { origin, seq }, lease_until }
        }
        4 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            QueryOp::Unsubscribe { id: QueryId { origin, seq } }
        }
        5 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let degree = degree_from_tag(r.u8()?)?;
            let distance = r.u32()?;
            let advert = read_advert(r)?;
            QueryOp::Notify {
                subscription: QueryId { origin, seq },
                hit: ResponseHit { advert, degree, distance },
            }
        }
        6 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let max_depth = r.u8()?;
            let request = read_request(r)?;
            QueryOp::ComposeRequest { id: QueryId { origin, seq }, request, max_depth }
        }
        7 => {
            let origin = r.node()?;
            let seq = r.u64()?;
            let found = r.bool()?;
            let n = r.u32()? as usize;
            let mut chain = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                chain.push(read_advert(r)?);
            }
            QueryOp::ComposeResponse { id: QueryId { origin, seq }, found, chain }
        }
        8 => {
            let root_seq = r.u64()?;
            QueryOp::QueryRetry { query: read_query(r)?, root_seq }
        }
        t => return Err(DecodeError::InvalidTag { what: "query op", tag: t }),
    })
}

/// Serializes one query payload on its own, using the exact wire encoding.
/// The encoding is injective (floats go through their bit patterns, strings
/// are length-prefixed), so equal byte strings ⇔ equal payloads — which is
/// what lets registries key result caches on payloads that cannot derive
/// `Eq`/`Hash` themselves (QoS fields are `f64`).
pub fn encode_payload(p: &QueryPayload) -> Vec<u8> {
    let mut w = Writer::new();
    write_payload(&mut w, p);
    w.buf
}

/// The exact length of a frame that carries adverts, from their segments
/// (filling any not yet written); `None` for every other frame. Each term
/// is the width of the field its writer emits, in writing order.
fn advert_frame_len(op: &Operation) -> Option<usize> {
    let segments = |list: &[SharedAdvert]| -> usize { list.iter().map(|a| segment(a).len()).sum() };
    const QUERY_ID: usize = 4 + 8;
    let body = match op {
        Operation::Publishing(
            PublishOp::Publish { advert, .. } | PublishOp::Update { advert, .. },
        ) => 8 + segment(advert).len(),
        Operation::Publishing(PublishOp::ForwardAdverts { adverts }) => 4 + segments(adverts),
        Operation::Maintenance(MaintenanceOp::SyncDelta { buckets, entries }) => {
            let entries: usize = entries
                .iter()
                .map(|e| match e {
                    SyncEntry::Full { advert, .. } => 1 + 8 + segment(advert).len(),
                    SyncEntry::Delta { .. } => 1 + 16 + 4 + 8,
                })
                .sum();
            4 + 2 * buckets.len() + 4 + entries
        }
        Operation::Querying(QueryOp::QueryResponse { hits, .. }) => {
            let hits: usize = hits.iter().map(|h| 1 + 4 + segment(&h.advert).len()).sum();
            QUERY_ID + 4 + 4 + hits
        }
        Operation::Querying(QueryOp::Notify { hit, .. }) => {
            QUERY_ID + 1 + 4 + segment(&hit.advert).len()
        }
        Operation::Querying(QueryOp::ComposeResponse { chain, .. }) => {
            QUERY_ID + 1 + 4 + segments(chain)
        }
        _ => return None,
    };
    Some(ENVELOPE_LEN + body)
}

/// Serializes a message. A frame that carries adverts is allocated once, at
/// its exact length.
pub fn encode(msg: &DiscoveryMessage) -> Vec<u8> {
    let exact = advert_frame_len(&msg.op);
    let mut w = exact.map_or_else(Writer::new, Writer::with_capacity);
    w.u8(msg.version);
    match &msg.op {
        Operation::Maintenance(m) => {
            w.u8(0);
            write_maintenance(&mut w, m);
        }
        Operation::Publishing(p) => {
            w.u8(1);
            write_publish(&mut w, p);
        }
        Operation::Querying(q) => {
            w.u8(2);
            write_queryop(&mut w, q);
        }
    }
    debug_assert!(exact.is_none() || exact == Some(w.buf.len()), "advert_frame_len drifted");
    w.buf
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

/// Deserializes a message, validating version, tags, and message framing.
pub fn decode(bytes: &[u8]) -> R<DiscoveryMessage> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let op = match r.u8()? {
        0 => Operation::Maintenance(read_maintenance(&mut r)?),
        1 => Operation::Publishing(read_publish(&mut r)?),
        2 => Operation::Querying(read_queryop(&mut r)?),
        t => return Err(DecodeError::InvalidTag { what: "operation", tag: t }),
    };
    if r.pos != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(DiscoveryMessage { version, op })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_semantic::QosKey;

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
        rt(DiscoveryMessage::maintenance(MaintenanceOp::SyncDelta { buckets: vec![], entries: vec![] }));
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
        rt(DiscoveryMessage::publishing(PublishOp::Publish { advert: advert.clone(), lease_ms: 15_000 }));
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
        let bytes = vec![PROTOCOL_VERSION, 9];
        assert!(matches!(decode(&bytes), Err(DecodeError::InvalidTag { what: "operation", .. })));
        // 200 was never assigned; 12 is the retired advert-pull request,
        // reserved and rejected the same way.
        for tag in [200, 12] {
            let bytes = vec![PROTOCOL_VERSION, 0, tag];
            assert!(matches!(
                decode(&bytes),
                Err(DecodeError::InvalidTag { what: "maintenance op", tag: t }) if t == tag
            ));
        }
    }
}
