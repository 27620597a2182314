//! Shared helpers: timer tags and message sending.

use sds_protocol::{Codec, DiscoveryMessage};
use sds_simnet::{Ctx, Destination, NodeId};

/// Timer tag namespace. Fixed tags identify periodic duties; `*_BASE` tags
/// carry a per-entity sequence number in the low bits.
///
/// Every sequenced family owns an explicit `WINDOW`-wide range, so tag
/// families can never collide: `tagged` debug-asserts the sequence fits the
/// window, and `seq_of` only recognises tags inside it. A long-lived client
/// would previously have walked `QUERY_TIMEOUT_BASE + seq` into the next
/// family once `seq` crossed the (implicit) window size.
pub(crate) mod tags {
    /// Attachment: re-probe while unattached.
    pub const PROBE: u64 = 1;
    /// Attachment: home-registry liveness ping.
    pub const PING: u64 = 2;
    /// Registry: periodic beacon.
    pub const BEACON: u64 = 3;
    /// Registry: periodic expired-advert purge.
    pub const PURGE: u64 = 4;
    /// Registry: federation peer liveness ping round.
    pub const PEER_PING: u64 = 5;
    /// Registry: periodic registry signaling (peer-list gossip).
    pub const SIGNALING: u64 = 6;
    /// Service: lease renewal round.
    pub const RENEW: u64 = 7;
    /// Registry: retry federation seeds while peerless.
    pub const SEED_RETRY: u64 = 8;
    /// Attachment: probe decision window elapsed — pick the best reply.
    pub const PROBE_DECIDE: u64 = 11;
    /// Registry: periodic query-cache sweep — drop entries whose validity
    /// lapsed, so dead results do not linger until their next lookup.
    pub const CACHE_SWEEP: u64 = 12;
    /// Registry: anti-entropy round — exchange sync digests with peers.
    pub const SYNC: u64 = 13;
    /// Registry: overload-control tick — fold the ops counter into the
    /// utilization EWMA that the admission thresholds compare against.
    pub const OVERLOAD_TICK: u64 = 14;

    /// Width of every sequenced tag family's range. Wide enough that no
    /// in-simulation counter (query seq, service index, node id) can
    /// plausibly overflow it, and checked by `tagged` in debug builds.
    pub const WINDOW: u64 = 1 << 40;
    /// Registry: response-aggregation deadline; low bits = pending seq.
    pub const AGG_BASE: u64 = WINDOW;
    /// Client: query deadline / retry checkpoint; low bits = root query seq.
    pub const QUERY_TIMEOUT_BASE: u64 = 2 * WINDOW;
    /// Service: publish/renew ack-retry backoff; low bits = service index.
    pub const PUBLISH_RETRY_BASE: u64 = 3 * WINDOW;
    /// Registry: probation re-ping backoff; low bits = suspect's node id.
    pub const PROBATION_BASE: u64 = 4 * WINDOW;

    /// Composes a family tag from its base and a sequence number, asserting
    /// (in debug builds) that the sequence stays inside the family window.
    pub fn tagged(base: u64, seq: u64) -> u64 {
        debug_assert!(base >= WINDOW && base % WINDOW == 0, "not a family base: {base}");
        debug_assert!(seq < WINDOW, "tag seq {seq} overflows the family window");
        base + seq
    }

    /// Extracts the sequence from a based tag, if the tag is in `base`'s
    /// window.
    pub fn seq_of(tag: u64, base: u64) -> Option<u64> {
        (tag >= base && tag < base + WINDOW).then(|| tag - base)
    }
}

/// Sends a protocol message, charging its modeled wire size.
pub(crate) fn send_msg(
    ctx: &mut Ctx<'_, DiscoveryMessage>,
    codec: Codec,
    dest: Destination,
    msg: DiscoveryMessage,
) {
    let bytes = codec.message_size(&msg);
    let kind = msg.kind();
    ctx.send(dest, msg, bytes, kind);
}

/// [`send_msg`] to every node of `to`, in order: the message is sized once
/// and every receiver gets the same shared payload.
pub(crate) fn send_fanout_msg(
    ctx: &mut Ctx<'_, DiscoveryMessage>,
    codec: Codec,
    to: impl IntoIterator<Item = NodeId>,
    msg: DiscoveryMessage,
) {
    let bytes = codec.message_size(&msg);
    let kind = msg.kind();
    ctx.send_fanout(to, msg, bytes, kind);
}

#[cfg(test)]
mod tests {
    use super::tags;

    #[test]
    fn tag_windows_do_not_overlap() {
        assert_eq!(tags::seq_of(tags::AGG_BASE + 5, tags::AGG_BASE), Some(5));
        assert_eq!(tags::seq_of(tags::QUERY_TIMEOUT_BASE, tags::AGG_BASE), None);
        assert_eq!(tags::seq_of(tags::PING, tags::AGG_BASE), None);
        assert_eq!(
            tags::seq_of(tags::QUERY_TIMEOUT_BASE + 7, tags::QUERY_TIMEOUT_BASE),
            Some(7)
        );
    }

    #[test]
    fn every_family_window_is_disjoint() {
        let bases = [
            tags::AGG_BASE,
            tags::QUERY_TIMEOUT_BASE,
            tags::PUBLISH_RETRY_BASE,
            tags::PROBATION_BASE,
        ];
        for (i, &a) in bases.iter().enumerate() {
            // Fixed tags sit below every family window (OVERLOAD_TICK is the
            // highest).
            assert!(tags::OVERLOAD_TICK < a);
            // The largest in-window tag of one family never reaches the next.
            let top = tags::tagged(a, tags::WINDOW - 1);
            for &b in bases.iter().skip(i + 1) {
                assert!(top < b, "window of {a} bleeds into {b}");
                assert_eq!(tags::seq_of(top, b), None);
            }
            assert_eq!(tags::seq_of(top, a), Some(tags::WINDOW - 1));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows the family window")]
    fn overflowing_seq_is_caught_in_debug_builds() {
        let _ = tags::tagged(tags::QUERY_TIMEOUT_BASE, tags::WINDOW);
    }
}
