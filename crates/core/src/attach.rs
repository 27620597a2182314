//! Registry discovery and failover from the client/service side.
//!
//! Implements the paper's registry-discovery machinery: active probing over
//! LAN multicast, passive beacon listening, manual endpoint configuration,
//! candidate collection through registry signaling ("once connected to a
//! registry node … it is possible to use registry signalling to provide the
//! client node with alternative registry nodes' addresses. These addresses
//! may be used in the event of failure"), and liveness-based failover.
//!
//! [`RegistryAttachment`] is embedded in both client and service node
//! handlers; the host forwards maintenance messages and the `PROBE`/`PING`
//! timers to it and reacts to the returned [`AttachEvent`]s.

use std::collections::BTreeMap;

use sds_protocol::{Codec, DiscoveryMessage, MaintenanceOp};
use sds_simnet::{Ctx, Destination, NodeId, Rng, SimTime};

use crate::config::{
    AttachConfig, Bootstrap, BEACON_TIMEOUT, HOME_PING_TOLERANCE, PROBE_DECISION_WINDOW, PROBE_RETRY,
};
use crate::util::{send_msg, tags};

/// State change the host must react to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttachEvent {
    /// A home registry was selected (first attach or failover target);
    /// services should (re)publish to it.
    Attached(NodeId),
    /// The home registry stopped answering and no candidate is available;
    /// the node is registry-less until discovery succeeds again.
    Detached,
}

/// Client-side registry discovery, candidate tracking, and failover.
#[derive(Debug)]
pub struct RegistryAttachment {
    cfg: AttachConfig,
    codec: Codec,
    home: Option<NodeId>,
    /// Known registries with the time they were last heard from.
    candidates: BTreeMap<NodeId, SimTime>,
    /// Last time any registry signal was heard on this LAN (gates the
    /// decentralized fallback).
    last_lan_registry_signal: Option<SimTime>,
    /// Pings sent to the home registry without a pong.
    unanswered_pings: u8,
    /// Ping rounds since the failover candidate list was last refreshed.
    pings_since_list_refresh: u8,
    /// Probe replies collected during the current decision window:
    /// (registry, advertised load).
    probe_replies: Vec<(NodeId, u32)>,
    /// Whether a probe-decision timer is outstanding.
    deciding: bool,
    /// Consecutive discovery rounds without hearing a registry; drives the
    /// opt-in re-attach backoff (`AttachConfig::retry`).
    probe_failures: u8,
    /// Lazily derived jitter stream for the re-attach backoff; never
    /// created (and hence never drawn from) while the policy is passive.
    retry_rng: Option<Rng>,
}

impl RegistryAttachment {
    pub fn new(cfg: AttachConfig, codec: Codec) -> Self {
        Self {
            cfg,
            codec,
            home: None,
            candidates: BTreeMap::new(),
            last_lan_registry_signal: None,
            unanswered_pings: 0,
            // Start near the refresh threshold: the list fetched at attach
            // time often predates federation formation, so refresh early.
            pings_since_list_refresh: 2,
            probe_replies: Vec::new(),
            deciding: false,
            probe_failures: 0,
            retry_rng: None,
        }
    }

    /// Delay until the next discovery attempt. Fixed `PROBE_RETRY` cadence
    /// by default; capped exponential backoff with jitter when the opt-in
    /// retry policy is enabled.
    fn next_probe_delay(&mut self, ctx: &Ctx<'_, DiscoveryMessage>) -> SimTime {
        if self.cfg.retry.enabled() {
            let rng = self.retry_rng.get_or_insert_with(|| ctx.derive_rng("core.attach.retry"));
            let d = self.cfg.retry.backoff(self.probe_failures, rng);
            self.probe_failures = self.probe_failures.saturating_add(1);
            d
        } else {
            PROBE_RETRY
        }
    }

    /// The currently attached registry, if any.
    pub fn home(&self) -> Option<NodeId> {
        self.home
    }

    /// Known alternative registries (for diagnostics/tests).
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// True when some registry was recently heard on the local LAN — used to
    /// decide whether the decentralized fallback should kick in.
    pub fn lan_has_registry(&self, now: SimTime) -> bool {
        self.home.is_some()
            || self
                .last_lan_registry_signal
                .is_some_and(|t| now.saturating_sub(t) < BEACON_TIMEOUT)
    }

    /// Starts (or restarts, after a crash) discovery. Returns an event when
    /// a static endpoint attaches immediately.
    pub fn start(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) -> Option<AttachEvent> {
        self.home = None;
        self.candidates.clear();
        self.last_lan_registry_signal = None;
        self.unanswered_pings = 0;
        self.probe_replies.clear();
        self.deciding = false;
        self.probe_failures = 0;
        if self.cfg.ping_interval > 0 {
            ctx.set_timer(self.cfg.ping_interval, tags::PING);
        }
        match self.cfg.bootstrap {
            Bootstrap::Multicast => {
                self.send_probe(ctx);
                ctx.set_timer(PROBE_RETRY, tags::PROBE);
                None
            }
            Bootstrap::PassiveOnly => None,
            Bootstrap::Static(r) => Some(self.attach(ctx, r)),
        }
    }

    fn send_probe(&self, ctx: &mut Ctx<'_, DiscoveryMessage>) {
        let lan = ctx.lan();
        send_msg(
            ctx,
            self.codec,
            Destination::Multicast(lan),
            DiscoveryMessage::maintenance(MaintenanceOp::RegistryProbe),
        );
    }

    fn attach(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>, registry: NodeId) -> AttachEvent {
        self.home = Some(registry);
        self.unanswered_pings = 0;
        self.pings_since_list_refresh = 2;
        // Gather failover candidates through registry signaling.
        send_msg(
            ctx,
            self.codec,
            Destination::Unicast(registry),
            DiscoveryMessage::maintenance(MaintenanceOp::RegistryListRequest { from_registry: false }),
        );
        AttachEvent::Attached(registry)
    }

    /// Feeds a maintenance message through the attachment logic. Returns an
    /// event when attachment state changed.
    pub fn on_maintenance(
        &mut self,
        ctx: &mut Ctx<'_, DiscoveryMessage>,
        from: NodeId,
        op: &MaintenanceOp,
    ) -> Option<AttachEvent> {
        match op {
            MaintenanceOp::RegistryProbeReply { load, .. } => {
                self.candidates.insert(from, ctx.now());
                self.last_lan_registry_signal = Some(ctx.now());
                self.probe_failures = 0;
                if self.home.is_none() {
                    // Load-balanced selection: collect replies for a short
                    // window, then pick the least-loaded registry. One entry
                    // per registry: duplicated deliveries must not inflate
                    // the candidate set.
                    if !self.probe_replies.iter().any(|&(id, _)| id == from) {
                        self.probe_replies.push((from, *load));
                    }
                    if !self.deciding {
                        self.deciding = true;
                        ctx.set_timer(PROBE_DECISION_WINDOW, tags::PROBE_DECIDE);
                    }
                }
                None
            }
            MaintenanceOp::RegistryBeacon { .. } => {
                self.candidates.insert(from, ctx.now());
                self.last_lan_registry_signal = Some(ctx.now());
                self.probe_failures = 0;
                // Passive discovery attaches directly (beacons arrive one at
                // a time anyway), but never preempts an open probe window.
                if self.home.is_none() && !self.deciding {
                    return Some(self.attach(ctx, from));
                }
                None
            }
            MaintenanceOp::RegistryList { registries } => {
                for &r in registries {
                    if r != ctx.node() {
                        self.candidates.entry(r).or_insert(ctx.now());
                    }
                }
                None
            }
            MaintenanceOp::Pong => {
                if Some(from) == self.home {
                    self.unanswered_pings = 0;
                    self.probe_failures = 0;
                    self.candidates.insert(from, ctx.now());
                }
                None
            }
            _ => None,
        }
    }

    /// `PROBE_DECIDE` timer: the reply-collection window closed; attach to
    /// the least-loaded replying registry (ties by lowest id).
    pub fn on_probe_decide(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) -> Option<AttachEvent> {
        self.deciding = false;
        if self.home.is_some() {
            self.probe_replies.clear();
            return None;
        }
        let best = self
            .probe_replies
            .iter()
            .min_by_key(|&&(id, load)| (load, id))
            .map(|&(id, _)| id);
        self.probe_replies.clear();
        best.map(|r| self.attach(ctx, r))
    }

    /// `PROBE` timer: retry discovery while unattached. With the opt-in
    /// retry policy, a `Bootstrap::Static` node re-attaches to its
    /// configured endpoint here (optimistically — the next ping round
    /// detaches again if the endpoint is still silent, with growing
    /// backoff, so a dead endpoint costs a bounded trickle of traffic and
    /// a revived one is re-adopted without operator help).
    pub fn on_probe_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) -> Option<AttachEvent> {
        if self.home.is_some() {
            return None;
        }
        match self.cfg.bootstrap {
            Bootstrap::Multicast => {
                self.send_probe(ctx);
                let delay = self.next_probe_delay(ctx);
                ctx.set_timer(delay, tags::PROBE);
                None
            }
            Bootstrap::Static(r) if self.cfg.retry.enabled() => Some(self.attach(ctx, r)),
            _ => None,
        }
    }

    /// `PING` timer: check home-registry liveness; fail over when it stops
    /// answering. Always reschedules itself.
    pub fn on_ping_timer(&mut self, ctx: &mut Ctx<'_, DiscoveryMessage>) -> Option<AttachEvent> {
        if self.cfg.ping_interval == 0 {
            return None;
        }
        ctx.set_timer(self.cfg.ping_interval, tags::PING);
        let home = self.home?;
        if self.unanswered_pings >= HOME_PING_TOLERANCE {
            // Home registry presumed dead: drop it and fail over.
            self.candidates.remove(&home);
            self.home = None;
            self.unanswered_pings = 0;
            return match self.best_candidate() {
                Some(next) => Some(self.attach(ctx, next)),
                None => {
                    // Resume active discovery.
                    match self.cfg.bootstrap {
                        Bootstrap::Multicast => {
                            self.send_probe(ctx);
                            let delay = self.next_probe_delay(ctx);
                            ctx.set_timer(delay, tags::PROBE);
                        }
                        Bootstrap::Static(_) if self.cfg.retry.enabled() => {
                            // Schedule a backed-off re-attach attempt
                            // instead of staying detached forever.
                            let delay = self.next_probe_delay(ctx);
                            ctx.set_timer(delay, tags::PROBE);
                        }
                        _ => {}
                    }
                    Some(AttachEvent::Detached)
                }
            };
        }
        self.unanswered_pings += 1;
        send_msg(
            ctx,
            self.codec,
            Destination::Unicast(home),
            DiscoveryMessage::maintenance(MaintenanceOp::Ping),
        );
        // Registry signaling keeps the failover candidates fresh: "forward
        // information about other registries to its clients in case of
        // failure". Refresh every few ping rounds.
        self.pings_since_list_refresh += 1;
        if self.pings_since_list_refresh >= 3 {
            self.pings_since_list_refresh = 0;
            send_msg(
                ctx,
                self.codec,
                Destination::Unicast(home),
                DiscoveryMessage::maintenance(MaintenanceOp::RegistryListRequest { from_registry: false }),
            );
        }
        None
    }

    /// Most recently heard-from candidate.
    fn best_candidate(&self) -> Option<NodeId> {
        self.candidates
            .iter()
            .max_by_key(|&(id, &t)| (t, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id)
    }

    /// Most recently heard-from candidate other than `excluded` — the hedge
    /// target under sustained home-registry overload (the overloaded home
    /// must not be its own alternate).
    pub fn best_candidate_excluding(&self, excluded: NodeId) -> Option<NodeId> {
        self.candidates
            .iter()
            .filter(|&(&id, _)| id != excluded)
            .max_by_key(|&(id, &t)| (t, std::cmp::Reverse(*id)))
            .map(|(&id, _)| id)
    }
}
