//! The simulation coordinator.
//!
//! Performance model (DESIGN §11, §14): the engine is allocation-lean on its
//! hot paths and partitionable. All event dispatch lives in
//! [`crate::domain::Domain`] — a share-nothing partition holding a calendar
//! timing wheel, struct-of-arrays node state, and its LANs' RNG/fault/busy
//! state. [`Sim`] owns the domains plus the shared world (config, topology,
//! global→local maps, WAN fault profiles, scheduled controls) and runs them
//! in windows:
//!
//! * Controls mutate the shared world, so they apply only at barriers, in
//!   schedule order, before any event of the same time.
//! * With two or more domains ([`Sim::new_partitioned`]) a window is also
//!   bounded by the lookahead, the WAN latency floor: within `[T, T+L)`
//!   every cross-domain message generated at `τ ≥ T` arrives at
//!   `τ + L ≥ T + L`, i.e. beyond the window — so domains cannot affect
//!   each other inside a window and each window is safe to run in
//!   parallel. Cross messages are exchanged at barriers in fixed (source,
//!   destination, push) order, so the result is a pure function of the
//!   seed and the plan: worker count has zero observable effect.
//! * A lone domain ([`Sim::new`], the default) has no one to look ahead
//!   of: its window runs to the next control or the limit.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use sds_rand::{Rng, Seed};

use crate::domain::{CapCell, Domain, Queued, World};
use crate::handler::{Ctx, NodeHandler};
use crate::ids::{LanId, NodeId};
use crate::par::{run_domains, PartitionPlan};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topology::Topology;

/// A modeled per-node processing budget: how many deliveries the node can
/// absorb per simulated tick, and how many may wait in its bounded ingress
/// queue before further arrivals are dropped at the door. Attached per node
/// (see [`Sim::set_node_capacity`]) or as a world default
/// ([`SimConfig::node_capacity`]); `None` — the default everywhere — is the
/// historical unbounded model. Admission is pure arithmetic off the arrival
/// schedule (no RNG draws), so capped runs are exactly as deterministic as
/// uncapped ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCapacity {
    /// Deliveries the node processes per simulated tick (≥ 1 is assumed;
    /// 0 is treated as 1).
    pub ops_per_tick: u32,
    /// Bound on deliveries waiting for a processing slot (queued work,
    /// including the current tick's in-progress ops). Arrivals beyond it
    /// are counted in [`crate::NetStats::capacity_dropped_messages`].
    pub queue_limit: u32,
}

/// Link-layer parameters. Defaults model a fast wired LAN and a slow WAN;
/// experiments override them to model wireless/tactical links.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Base one-way LAN latency.
    pub lan_latency: SimTime,
    /// Uniform extra LAN jitter in `[0, lan_jitter]`.
    pub lan_jitter: SimTime,
    /// Base one-way WAN latency. Also the lookahead horizon between
    /// domains: a sim with two or more domains requires it to be ≥ 1.
    pub wan_latency: SimTime,
    /// Uniform extra WAN jitter in `[0, wan_jitter]`.
    pub wan_jitter: SimTime,
    /// Probability a LAN transmission is lost (per receiver for multicast).
    pub lan_loss: f64,
    /// Probability a WAN transmission is lost.
    pub wan_loss: f64,
    /// Shared LAN medium capacity in kilobits per second (0 = unlimited).
    /// Each LAN is one half-duplex broadcast channel: transmissions
    /// serialize, so big semantic advertisements delay everything behind
    /// them — the paper's "wireless connections with low network capacity".
    pub lan_rate_kbps: u32,
    /// WAN uplink capacity in kilobits per second (0 = unlimited). Each LAN
    /// has its own uplink of this rate (a tactical reach-back link per
    /// site): a LAN's WAN sends serialize behind each other, never behind
    /// another LAN's.
    pub wan_rate_kbps: u32,
    /// Default processing budget applied to every node added after
    /// construction (`None` = unbounded, the historical model — the golden
    /// digests pin this default). Override per node with
    /// [`Sim::set_node_capacity`].
    pub node_capacity: Option<NodeCapacity>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            lan_latency: 1,
            lan_jitter: 1,
            wan_latency: 20,
            wan_jitter: 5,
            lan_loss: 0.0,
            wan_loss: 0.0,
            lan_rate_kbps: 0,
            wan_rate_kbps: 0,
            node_capacity: None,
        }
    }
}

/// Per-scope fault-injection knobs, layered on top of the base link model.
///
/// A profile applies to every delivery crossing its scope (one LAN medium,
/// or the WAN). All knobs default to zero — a default profile injects
/// nothing and draws nothing from the fault RNG stream, so fault-free runs
/// are bit-identical with pre-fault-layer builds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultProfile {
    /// Extra loss probability, on top of the `SimConfig` loss.
    pub loss: f64,
    /// Probability a delivery is duplicated (a second copy is scheduled
    /// with independently sampled latency, so it may arrive first).
    pub duplicate: f64,
    /// Probability a delivery is corrupted: the payload is routed through
    /// the corruption hook (see [`Sim::set_corruptor_factory`]); without a
    /// hook the frame is destroyed outright.
    pub corrupt: f64,
    /// Bound on extra, uniformly sampled delivery delay. This models
    /// reordering: any two messages whose delivery windows overlap can
    /// arrive in either order.
    pub reorder_jitter: SimTime,
}

impl FaultProfile {
    /// True when the profile injects nothing.
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

/// A scheduled change to the world, for scripting scenarios
/// ("at t=60s LAN 2 loses its registry", "at t=120s the WAN partitions",
/// "LAN 2 lossy from 30 s to 60 s").
#[derive(Clone, Debug)]
pub enum ControlAction {
    /// Take a node down: it stops receiving messages and all its pending
    /// timers are discarded.
    Crash(NodeId),
    /// Bring a crashed node back; `on_start` runs again.
    Revive(NodeId),
    /// Partition the WAN into the given LAN groups (see
    /// [`Topology::partition`]).
    Partition(Vec<Vec<LanId>>),
    /// Heal all WAN partitions.
    HealPartition,
    /// Replace one LAN's fault profile (in effect until overwritten).
    SetLanFaults(LanId, FaultProfile),
    /// Replace the WAN fault profile (in effect until overwritten).
    SetWanFaults(FaultProfile),
    /// Replace the fault profile for one WAN *direction* `from → to`,
    /// overriding the symmetric WAN profile for deliveries that way only.
    /// Models asymmetric links: a request can arrive while its reply is
    /// lost.
    SetWanPairFaults(LanId, LanId, FaultProfile),
    /// Cut the WAN between one pair of LANs (both directions), leaving
    /// every other WAN route up (see [`Topology::cut_wan_pair`]).
    CutWanPair(LanId, LanId),
    /// Heal one previously cut WAN pair.
    HealWanPair(LanId, LanId),
    /// Reset every fault profile (per-LAN, WAN, per-direction overrides) to
    /// the fault-free default. Does not heal partitions or pair cuts.
    ClearFaults,
}

/// The payload corruption hook: given the fault RNG and the in-flight
/// payload, returns the corrupted payload to deliver, or `None` when the
/// corruption rendered the frame undecodable (it is then dropped and
/// counted). The discovery stack installs encode → byte-mutation → decode.
/// `Send` because the hook lives inside a domain, and domains migrate
/// across worker threads between lookahead windows.
pub type Corruptor<P> = Box<dyn FnMut(&mut Rng, &P) -> Option<P> + Send>;

/// A scheduled control action, held coordinator-side (controls mutate the
/// shared world, so they can only apply at barriers).
/// Ordered by `(at, seq)` — schedule order breaks same-time ties.
struct CtlEvent {
    at: SimTime,
    seq: u64,
    action: ControlAction,
}

impl PartialEq for CtlEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for CtlEvent {}
impl PartialOrd for CtlEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CtlEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Borrows the coordinator's shared, read-only world for a domain run.
/// A macro (not a method) so the borrow is split per field: the domains
/// stay mutably borrowable alongside it.
macro_rules! world {
    ($s:expr) => {
        World {
            cfg: &$s.cfg,
            topo: &$s.topo,
            node_local: &$s.node_local,
            lan_domain: &$s.lan_domain,
            lan_local: &$s.lan_local,
            wan_faults: $s.wan_faults,
            wan_pair_faults: &$s.wan_pair_faults,
        }
    };
}

/// The simulator: topology + node handlers + event queue + accounting.
///
/// `P` is the payload type carried by every message (the discovery stack
/// instantiates it with its wire message type). In-flight payloads are
/// shared (`Rc<P>`) *within a domain*; `P: Clone` is needed only to
/// materialize owned copies for handlers that take delivery by value, for
/// corruptor mutations, and for duplicated cross-domain copies. `P: Send`
/// because payloads (inside their domain) migrate across worker threads
/// between lookahead windows.
pub struct Sim<P> {
    cfg: SimConfig,
    topo: Topology,
    seed: u64,
    /// Worker-thread budget for windows (1 = run inline).
    workers: usize,
    pub(crate) domains: Vec<Domain<P>>,
    /// Global node id → owning domain / slot within it.
    node_domain: Vec<u16>,
    node_local: Vec<u32>,
    /// Global LAN id → owning domain / slot within it.
    lan_domain: Vec<u16>,
    lan_local: Vec<u32>,
    /// WAN fault profile (part of the shared world: every domain reads it).
    wan_faults: FaultProfile,
    /// Per-direction WAN overrides, keyed by `(from_lan, to_lan)`. A
    /// present entry replaces `wan_faults` for deliveries in that direction.
    wan_pair_faults: BTreeMap<(LanId, LanId), FaultProfile>,
    /// Scheduled controls, applied at window barriers.
    controls: BinaryHeap<Reverse<CtlEvent>>,
    control_seq: u64,
    ctl_processed: u64,
    /// Run-wide traffic counters, merged from the per-domain books after
    /// every mutating call (see [`Sim::refresh_stats`]).
    stats_cache: NetStats,
}

impl<P: Clone + Send + 'static> Sim<P> {
    /// Creates a simulator over `topo`. `seed` fixes every random choice in
    /// the run (link loss, jitter, each node's private RNG). All LANs share
    /// one domain ([`PartitionPlan::Single`]).
    pub fn new(cfg: SimConfig, topo: Topology, seed: u64) -> Self {
        Self::new_partitioned(cfg, topo, seed, PartitionPlan::Single)
    }

    /// Creates a simulator whose LANs are grouped into share-nothing
    /// domains per `plan`. Every plan has the same semantics (per-sender-LAN
    /// RNG streams, node-scoped timer ids, per-LAN WAN uplinks; see DESIGN
    /// §14); with two or more domains [`Sim::set_workers`] controls how
    /// many threads run the windows.
    pub fn new_partitioned(cfg: SimConfig, topo: Topology, seed: u64, plan: PartitionPlan) -> Self {
        let lan_count = topo.lan_count();
        // Outbox storage is D² vectors and every barrier scans them, so
        // more domains than worker threads could ever use is pure overhead.
        let max_domains = lan_count.max(1).min(1024);
        let n = match plan {
            PartitionPlan::Single => 1,
            PartitionPlan::PerLan => max_domains,
            PartitionPlan::Domains(n) => n.clamp(1, max_domains),
        };
        if n > 1 {
            assert!(
                cfg.wan_latency >= 1,
                "partitioned execution needs a nonzero WAN latency floor: it is the lookahead horizon"
            );
        }
        let mut lan_domain = Vec::with_capacity(lan_count);
        let mut lan_local = Vec::with_capacity(lan_count);
        let mut domain_lans: Vec<Vec<LanId>> = (0..n).map(|_| Vec::new()).collect();
        for l in 0..lan_count {
            let di = l % n;
            lan_domain.push(di as u16);
            lan_local.push(domain_lans[di].len() as u32);
            domain_lans[di].push(LanId(l as u16));
        }
        let domains = domain_lans
            .into_iter()
            .enumerate()
            .map(|(i, lans)| Domain::new(i as u16, seed, lans, n))
            .collect();
        Self {
            cfg,
            topo,
            seed,
            workers: 1,
            domains,
            node_domain: Vec::new(),
            node_local: Vec::new(),
            lan_domain,
            lan_local,
            wan_faults: FaultProfile::default(),
            wan_pair_faults: BTreeMap::new(),
            controls: BinaryHeap::new(),
            control_seq: 0,
            ctl_processed: 0,
            stats_cache: NetStats::default(),
        }
    }

    /// Sets the worker-thread budget for multi-domain windows (clamped to at
    /// least 1; capped at the domain count when running). No observable
    /// effect on simulation results — only on wall-clock time.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Adds a node on `lan` with the given behaviour; `on_start` runs at the
    /// current simulated time (time 0 for setup-phase adds).
    pub fn add_node(&mut self, lan: LanId, handler: Box<dyn NodeHandler<P>>) -> NodeId {
        let id = NodeId(self.node_domain.len() as u32);
        self.topo.attach_node(id, lan);
        let di = self.lan_domain[lan.index()];
        let node_seed = Seed(self.seed).derive_idx("simnet.node", u64::from(id.0));
        let li = self.domains[di as usize].nodes.push(id, handler, node_seed);
        self.node_domain.push(di);
        self.node_local.push(li);
        if let Some(cap) = self.cfg.node_capacity {
            self.domains[di as usize].nodes.caps[li as usize] =
                Some(Box::new(CapCell { cap, next_tick: 0, used: 0 }));
        }
        self.invoke_node(id, |h, ctx| h.on_start(ctx));
        self.flush_outboxes();
        self.refresh_stats();
        id
    }

    /// Replaces one node's processing budget (see [`NodeCapacity`]);
    /// `None` restores the unbounded model. Takes effect for deliveries
    /// dispatched after the call; already-admitted (deferred) deliveries
    /// keep their slots.
    pub fn set_node_capacity(&mut self, node: NodeId, cap: Option<NodeCapacity>) {
        let di = self.node_domain[node.index()] as usize;
        let li = self.node_local[node.index()] as usize;
        self.domains[di].nodes.caps[li] =
            cap.map(|cap| Box::new(CapCell { cap, next_tick: 0, used: 0 }));
    }

    /// Current simulated time. Domains share a clock at every public entry
    /// point (runs uniformize before returning), so the max is *the* time.
    pub fn now(&self) -> SimTime {
        self.domains.iter().map(|d| d.core.now).max().unwrap_or(0)
    }

    /// Read access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Traffic counters accumulated so far (run-wide: merged across
    /// domains).
    pub fn stats(&self) -> &NetStats {
        &self.stats_cache
    }

    /// Resets the traffic counters (useful to measure only the steady state
    /// after a warm-up phase).
    pub fn reset_stats(&mut self) {
        for d in &mut self.domains {
            d.stats = NetStats::default();
        }
        self.stats_cache = NetStats::default();
    }

    /// Deliveries handed to one node's handler so far (the per-node column
    /// of the struct-of-arrays stats).
    pub fn node_deliveries(&self, node: NodeId) -> u64 {
        let di = self.node_domain[node.index()] as usize;
        self.domains[di].nodes.delivered[self.node_local[node.index()] as usize]
    }

    /// Events dispatched so far (deliveries, timer fires, control actions;
    /// cancelled timers are reclaimed without dispatching and do not
    /// count). The engine-throughput denominator for scaling benches.
    pub fn events_processed(&self) -> u64 {
        self.domains.iter().map(|d| d.events_processed).sum::<u64>() + self.ctl_processed
    }

    /// Timers set but not yet fired or cancelled. Bounded by construction:
    /// entries leave the pending map on fire and on cancel (the old
    /// tombstone design grew without bound when timers were cancelled after
    /// firing).
    pub fn pending_timer_count(&self) -> usize {
        self.domains.iter().map(|d| d.timer_slots.len()).sum()
    }

    /// Events currently queued (deliveries in flight, pending timers,
    /// scheduled controls). Cancelled timers leave the count immediately,
    /// so this tracks live events only.
    pub fn queued_event_count(&self) -> usize {
        self.domains.iter().map(|d| d.core.live_events).sum::<usize>() + self.controls.len()
    }

    /// Whether a node is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        let di = self.node_domain[node.index()] as usize;
        self.domains[di].nodes.alive[self.node_local[node.index()] as usize]
    }

    /// Immediately crashes a node (see [`ControlAction::Crash`]).
    pub fn crash_node(&mut self, node: NodeId) {
        let di = self.node_domain[node.index()] as usize;
        let li = self.node_local[node.index()] as usize;
        let d = &mut self.domains[di];
        if d.nodes.alive[li] {
            d.nodes.alive[li] = false;
            d.nodes.epoch[li] += 1;
        }
    }

    /// Immediately revives a crashed node and reruns its `on_start`.
    pub fn revive_node(&mut self, node: NodeId) {
        let di = self.node_domain[node.index()] as usize;
        let li = self.node_local[node.index()] as usize;
        if !self.domains[di].nodes.alive[li] {
            self.domains[di].nodes.alive[li] = true;
            self.domains[di].nodes.epoch[li] += 1;
            self.invoke_node(node, |h, ctx| h.on_start(ctx));
            self.flush_outboxes();
            self.refresh_stats();
        }
    }

    /// Schedules a control action at an absolute simulated time. It is held
    /// coordinator-side and applied at a window barrier, *before* same-time
    /// events; same-time controls apply in schedule order.
    pub fn schedule(&mut self, at: SimTime, action: ControlAction) {
        assert!(at >= self.now(), "cannot schedule in the past");
        let seq = self.control_seq;
        self.control_seq += 1;
        self.controls.push(Reverse(CtlEvent { at, seq, action }));
    }

    /// Replaces one LAN's fault profile, effective immediately.
    pub fn set_lan_faults(&mut self, lan: LanId, faults: FaultProfile) {
        assert!(lan.index() < self.lan_domain.len(), "unknown LAN {lan:?}");
        let di = self.lan_domain[lan.index()] as usize;
        let ll = self.lan_local[lan.index()] as usize;
        self.domains[di].lan_faults[ll] = faults;
    }

    /// Replaces the WAN fault profile, effective immediately.
    pub fn set_wan_faults(&mut self, faults: FaultProfile) {
        self.wan_faults = faults;
    }

    /// Replaces the fault profile for the WAN direction `from → to`,
    /// effective immediately. A quiet profile still overrides the symmetric
    /// WAN profile for that direction (use [`Sim::clear_faults`] or re-set
    /// the override to drop it).
    pub fn set_wan_pair_faults(&mut self, from: LanId, to: LanId, faults: FaultProfile) {
        assert!(from.index() < self.lan_domain.len(), "unknown LAN {from:?}");
        assert!(to.index() < self.lan_domain.len(), "unknown LAN {to:?}");
        self.wan_pair_faults.insert((from, to), faults);
    }

    /// The per-direction override for `from → to`, if one is set.
    pub fn wan_pair_faults(&self, from: LanId, to: LanId) -> Option<FaultProfile> {
        self.wan_pair_faults.get(&(from, to)).copied()
    }

    /// Cuts the WAN between one pair of LANs (see
    /// [`Topology::cut_wan_pair`]).
    pub fn cut_wan_pair(&mut self, a: LanId, b: LanId) {
        self.topo.cut_wan_pair(a, b);
    }

    /// Heals one previously cut WAN pair.
    pub fn heal_wan_pair(&mut self, a: LanId, b: LanId) {
        self.topo.heal_wan_pair(a, b);
    }

    /// Resets every fault profile (including per-direction overrides) to
    /// the fault-free default. Partitions and pair cuts are left alone.
    pub fn clear_faults(&mut self) {
        for d in &mut self.domains {
            d.lan_faults.fill(FaultProfile::default());
        }
        self.wan_faults = FaultProfile::default();
        self.wan_pair_faults.clear();
    }

    /// The fault profile currently applied to a LAN.
    pub fn lan_faults(&self, lan: LanId) -> FaultProfile {
        let di = self.lan_domain[lan.index()] as usize;
        self.domains[di].lan_faults[self.lan_local[lan.index()] as usize]
    }

    /// The fault profile currently applied to the WAN.
    pub fn wan_faults(&self) -> FaultProfile {
        self.wan_faults
    }

    /// Installs the payload corruption hook used when a
    /// [`FaultProfile::corrupt`] roll fires: one instance *per domain*,
    /// built by `factory` (domains run concurrently, so a hook cannot be
    /// shared). The discovery stack installs encode → seeded byte-mutation
    /// → decode here, so corruption exercises the real wire decoder; `None`
    /// means the frame no longer decodes and is dropped (counted in
    /// [`NetStats::corrupt_dropped_messages`]).
    pub fn set_corruptor_factory(&mut self, factory: impl Fn() -> Corruptor<P>) {
        for d in &mut self.domains {
            d.corruptor = Some(factory());
        }
    }

    /// Borrows a handler downcast to its concrete type, for inspection.
    /// Returns `None` for a wrong type or unknown node.
    pub fn handler<T: 'static>(&self, node: NodeId) -> Option<&T> {
        let di = *self.node_domain.get(node.index())? as usize;
        let li = *self.node_local.get(node.index())? as usize;
        self.domains[di].nodes.handlers[li]
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`Sim::handler`], for test instrumentation.
    pub fn handler_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        let di = *self.node_domain.get(node.index())? as usize;
        let li = *self.node_local.get(node.index())? as usize;
        self.domains[di].nodes.handlers[li]
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Runs the handler callback `f` on a live node right now, applying its
    /// queued actions. This is how experiments inject work ("client 3 issues
    /// a query at t=10s") without going through the network.
    pub fn with_node<T: 'static>(&mut self, node: NodeId, f: impl FnOnce(&mut T, &mut Ctx<'_, P>)) {
        if !self.is_alive(node) {
            return;
        }
        self.invoke_node(node, move |h, ctx| {
            if let Some(t) = h.as_any_mut().downcast_mut::<T>() {
                f(t, ctx);
            } else {
                panic!("with_node: node {:?} is not the requested handler type", ctx.node());
            }
        });
        self.flush_outboxes();
        self.refresh_stats();
    }

    /// Processes all events up to and including `until`, then advances the
    /// clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_windows(until);
        for d in &mut self.domains {
            d.core.advance_to(until);
        }
        self.refresh_stats();
    }

    /// Runs until the event queue drains or `max` is reached; returns the
    /// final simulated time.
    pub fn run_to_quiescence(&mut self, max: SimTime) -> SimTime {
        self.run_windows(max);
        // Domains can drain at different times; uniformize so the next
        // injection (add_node, with_node) sees one clock.
        let end = self.now();
        for d in &mut self.domains {
            d.core.advance_to(end);
        }
        self.refresh_stats();
        end
    }

    /// Runs conservative-lookahead windows up to `limit`. Each iteration
    /// either applies due controls at a barrier (all domains advanced to
    /// the control time first) or runs one window `[T, end)` where
    /// `end = min(T + wan_latency, next control, limit + 1)` across all
    /// domains — concurrently when workers and domains allow. Safety: every
    /// cross-domain message generated in the window arrives at
    /// `≥ T + wan_latency ≥ end`, so no domain can observe another's
    /// window-work mid-window; outboxes are exchanged at the barrier in
    /// fixed (source, destination, push) order. A lone domain receives no
    /// cross-domain messages, so the lookahead term drops out (and
    /// `wan_latency = 0` stays legal): its window runs to the next control
    /// or the limit.
    fn run_windows(&mut self, limit: SimTime) {
        loop {
            let te = self.domains.iter().filter_map(|d| d.core.next_pending_time()).min();
            let tc = self.controls.peek().map(|Reverse(c)| c.at);
            let next = match (te, tc) {
                (None, None) => return,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            if next > limit {
                return;
            }
            if tc == Some(next) {
                // Control barrier: advance every domain to the control
                // time (legal: no event is pending earlier) and apply all
                // controls due at it, in schedule order, before any
                // same-time event runs.
                for d in &mut self.domains {
                    d.core.advance_to(next);
                }
                while self.controls.peek().is_some_and(|Reverse(c)| c.at == next) {
                    let Reverse(ctl) = self.controls.pop().expect("peeked");
                    self.apply_control(ctl.action);
                    self.ctl_processed += 1;
                }
                // A revive's on_start may have queued cross-domain sends.
                self.flush_outboxes();
                continue;
            }
            // The window's last time unit, inclusive (`end - 1`).
            let mut window_limit = limit;
            if let Some(tc) = tc {
                window_limit = window_limit.min(tc - 1);
            }
            if self.domains.len() > 1 {
                window_limit = window_limit.min(next.saturating_add(self.cfg.wan_latency) - 1);
            }
            let workers = self.workers.min(self.domains.len());
            {
                let world = world!(self);
                run_domains(&mut self.domains, &world, window_limit, workers);
            }
            self.flush_outboxes();
        }
    }

    /// Applies one control action against the shared world (and, for
    /// crash/revive/faults, the owning domain).
    fn apply_control(&mut self, action: ControlAction) {
        match action {
            ControlAction::Crash(n) => self.crash_node(n),
            ControlAction::Revive(n) => self.revive_node(n),
            ControlAction::Partition(groups) => {
                let refs: Vec<&[LanId]> = groups.iter().map(|g| g.as_slice()).collect();
                self.topo.partition(&refs);
            }
            ControlAction::HealPartition => self.topo.heal_partition(),
            ControlAction::SetLanFaults(lan, f) => self.set_lan_faults(lan, f),
            ControlAction::SetWanFaults(f) => self.set_wan_faults(f),
            ControlAction::SetWanPairFaults(from, to, f) => self.set_wan_pair_faults(from, to, f),
            ControlAction::CutWanPair(a, b) => self.cut_wan_pair(a, b),
            ControlAction::HealWanPair(a, b) => self.heal_wan_pair(a, b),
            ControlAction::ClearFaults => self.clear_faults(),
        }
    }

    /// Runs a handler callback through the node's owning domain.
    fn invoke_node(&mut self, node: NodeId, f: impl FnOnce(&mut dyn NodeHandler<P>, &mut Ctx<'_, P>)) {
        let di = self.node_domain[node.index()] as usize;
        let world = world!(self);
        self.domains[di].invoke(node, &world, f);
    }

    /// Drains every domain's cross-domain outbox into the destination
    /// domains' wheels, in fixed (source, destination, push) order — the
    /// total order that makes partitioned results independent of worker
    /// scheduling. Payload ownership converts to a fresh `Rc` here, so `Rc`
    /// clones never span domains.
    fn flush_outboxes(&mut self) {
        let nd = self.domains.len();
        for s in 0..nd {
            for t in 0..nd {
                if self.domains[s].outboxes[t].is_empty() {
                    continue;
                }
                let mut msgs = std::mem::take(&mut self.domains[s].outboxes[t]);
                for m in msgs.drain(..) {
                    self.domains[t].core.push_event(
                        m.at,
                        Queued::Deliver {
                            to: m.to,
                            from: m.from,
                            payload: Rc::new(m.payload),
                            kind: m.kind,
                            admitted: false,
                        },
                    );
                }
                // Hand the emptied buffer back, keeping its capacity.
                let slot = &mut self.domains[s].outboxes[t];
                if msgs.capacity() > slot.capacity() {
                    *slot = msgs;
                }
            }
        }
    }

    /// Rebuilds the run-wide counter view from the per-domain books.
    fn refresh_stats(&mut self) {
        let mut s = NetStats::default();
        for d in &self.domains {
            s.merge(&d.stats);
        }
        self.stats_cache = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::WHEEL_SPAN;
    use crate::message::Destination;
    use crate::ids::TimerId;

    #[derive(Default)]
    struct Recorder {
        messages: Vec<(NodeId, String)>,
        timers: Vec<u64>,
        starts: u32,
    }

    impl NodeHandler<String> for Recorder {
        fn on_start(&mut self, _ctx: &mut Ctx<'_, String>) {
            self.starts += 1;
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
            self.messages.push((from, msg));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, String>, _t: TimerId, tag: u64) {
            self.timers.push(tag);
        }
    }

    fn two_lan_sim() -> (Sim<String>, LanId, LanId) {
        let mut topo = Topology::new();
        let l0 = topo.add_lan();
        let l1 = topo.add_lan();
        (Sim::new(SimConfig::default(), topo, 7), l0, l1)
    }

    #[test]
    fn unicast_lan_delivery_and_accounting() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(NodeId(1)), "hi".into(), 10, "test");
        });
        sim.run_until(100);
        let rec = sim.handler::<Recorder>(b).unwrap();
        assert_eq!(rec.messages, vec![(a, "hi".to_string())]);
        assert_eq!(sim.stats().lan_bytes, 10);
        assert_eq!(sim.stats().wan_bytes, 0);
        assert_eq!(sim.stats().delivered_messages, 1);
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.node_deliveries(b), 1);
        assert_eq!(sim.node_deliveries(a), 0);
    }

    #[test]
    fn unicast_wan_crosses_lans() {
        let (mut sim, l0, l1) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l1, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "wan".into(), 64, "test");
        });
        sim.run_until(100);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
        assert_eq!(sim.stats().wan_bytes, 64);
        assert_eq!(sim.stats().lan_bytes, 0);
    }

    #[test]
    fn multicast_reaches_lan_only_charged_once() {
        let (mut sim, l0, l1) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        let c = sim.add_node(l0, Box::<Recorder>::default());
        let d = sim.add_node(l1, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            let lan = ctx.lan();
            ctx.send(Destination::Multicast(lan), "probe".into(), 40, "probe");
        });
        sim.run_until(100);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
        assert_eq!(sim.handler::<Recorder>(c).unwrap().messages.len(), 1);
        assert_eq!(sim.handler::<Recorder>(d).unwrap().messages.len(), 0);
        assert_eq!(sim.handler::<Recorder>(a).unwrap().messages.len(), 0, "sender excluded");
        assert_eq!(sim.stats().lan_bytes, 40, "broadcast medium charges once");
        assert_eq!(sim.stats().multicast_transmissions, 1);
    }

    #[test]
    fn crashed_node_receives_nothing_and_timers_die() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(b, |_, ctx| {
            ctx.set_timer(50, 1);
        });
        sim.crash_node(b);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "lost".into(), 8, "test");
        });
        sim.run_until(200);
        let rec = sim.handler::<Recorder>(b).unwrap();
        assert!(rec.messages.is_empty());
        assert!(rec.timers.is_empty());
        assert_eq!(sim.stats().dropped_messages, 1);
        // Bytes still charged: the sender transmitted.
        assert_eq!(sim.stats().lan_bytes, 8);
    }

    #[test]
    fn revive_reruns_on_start_and_discards_stale_timers() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.set_timer(50, 9);
        });
        sim.crash_node(a);
        sim.revive_node(a);
        sim.run_until(200);
        let rec = sim.handler::<Recorder>(a).unwrap();
        assert_eq!(rec.starts, 2);
        assert!(rec.timers.is_empty(), "pre-crash timer must not fire after revive");
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            let t = ctx.set_timer(50, 1);
            ctx.set_timer(60, 2);
            ctx.cancel_timer(t);
        });
        sim.run_until(200);
        assert_eq!(sim.handler::<Recorder>(a).unwrap().timers, vec![2]);
    }

    #[test]
    fn cancelling_reclaims_the_event_immediately() {
        // A cancelled timer must vacate its queue slot at cancel time, not
        // at its would-have-fired time (the old design tombstoned it).
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            let t = ctx.set_timer(1_000_000, 1);
            ctx.cancel_timer(t);
        });
        assert_eq!(sim.pending_timer_count(), 0, "cancelled timer is not pending");
        assert_eq!(sim.queued_event_count(), 0, "its event slot was reclaimed");
        sim.run_until(2_000_000);
        assert!(sim.handler::<Recorder>(a).unwrap().timers.is_empty());
    }

    #[test]
    fn timer_bookkeeping_stays_bounded_over_long_soaks() {
        // Regression for the unbounded tombstone set: cancelling timers
        // that already fired used to insert entries nothing ever removed.
        // Now every pattern — cancel-before-fire, cancel-after-fire,
        // double-cancel, fire-without-cancel — leaves the pending map and
        // the slot table empty once the queue drains.
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let mut stale: Vec<TimerId> = Vec::new();
        for round in 0..1_000u64 {
            let ids = {
                let mut ids = (TimerId(0), TimerId(0));
                sim.with_node::<Recorder>(a, |_, ctx| {
                    ids.0 = ctx.set_timer(5, round);
                    ids.1 = ctx.set_timer(7, round);
                });
                ids
            };
            // Cancel one before it fires; let the other fire, then cancel
            // it (and re-cancel an older fired one) — the leak pattern.
            sim.with_node::<Recorder>(a, |_, ctx| ctx.cancel_timer(ids.0));
            sim.run_until(sim.now() + 20);
            sim.with_node::<Recorder>(a, |_, ctx| {
                ctx.cancel_timer(ids.1);
                if let Some(&old) = stale.first() {
                    ctx.cancel_timer(old);
                }
            });
            stale.push(ids.1);
            assert!(
                sim.pending_timer_count() <= 2,
                "round {round}: pending map grew to {}",
                sim.pending_timer_count()
            );
        }
        sim.run_until(sim.now() + 1_000);
        assert_eq!(sim.pending_timer_count(), 0, "all timers fired or cancelled");
        assert_eq!(sim.queued_event_count(), 0, "no events left queued");
        assert_eq!(sim.handler::<Recorder>(a).unwrap().timers.len(), 1_000);
    }

    #[test]
    fn partition_blocks_wan_until_heal() {
        let (mut sim, l0, l1) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l1, Box::<Recorder>::default());
        sim.schedule(10, ControlAction::Partition(vec![vec![l0], vec![l1]]));
        sim.schedule(100, ControlAction::HealPartition);
        sim.run_until(20);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "blocked".into(), 8, "test");
        });
        sim.run_until(90);
        assert!(sim.handler::<Recorder>(b).unwrap().messages.is_empty());
        sim.run_until(110);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "open".into(), 8, "test");
        });
        sim.run_until(200);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, l0, l1) = two_lan_sim();
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let b = sim.add_node(l1, Box::<Recorder>::default());
            for i in 0..50 {
                sim.with_node::<Recorder>(a, |_, ctx| {
                    ctx.send(Destination::Unicast(b), format!("m{i}"), 16, "test");
                });
                sim.run_until(sim.now() + 10);
            }
            sim.run_until(10_000);
            (
                sim.stats().total_bytes(),
                sim.handler::<Recorder>(b).unwrap().messages.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unicast_to_unknown_node_is_dropped_not_a_panic() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            // A corrupted frame could name a node that was never added.
            ctx.send(Destination::Unicast(NodeId(999)), "void".into(), 8, "test");
        });
        sim.run_until(100);
        assert_eq!(sim.stats().dropped_messages, 1);
    }

    #[test]
    fn duplication_delivers_twice_and_counts() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.set_lan_faults(l0, FaultProfile { duplicate: 1.0, ..Default::default() });
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "dup".into(), 8, "test");
        });
        sim.run_until(100);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 2);
        assert_eq!(sim.stats().duplicated_messages, 1);
        // One logical transmission on the wire.
        assert_eq!(sim.stats().lan_messages, 1);
    }

    #[test]
    fn corruption_without_hook_destroys_frames() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.set_lan_faults(l0, FaultProfile { corrupt: 1.0, ..Default::default() });
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "gone".into(), 8, "test");
        });
        sim.run_until(100);
        assert!(sim.handler::<Recorder>(b).unwrap().messages.is_empty());
        assert_eq!(sim.stats().corrupted_messages, 1);
        assert_eq!(sim.stats().corrupt_dropped_messages, 1);
    }

    #[test]
    fn corruption_hook_rewrites_payloads() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.set_corruptor_factory(|| Box::new(|_rng, p: &String| Some(format!("{p}?"))));
        sim.set_lan_faults(l0, FaultProfile { corrupt: 1.0, ..Default::default() });
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "msg".into(), 8, "test");
        });
        sim.run_until(100);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages, vec![(a, "msg?".to_string())]);
        assert_eq!(sim.stats().corrupted_messages, 1);
        assert_eq!(sim.stats().corrupt_dropped_messages, 0);
    }

    #[test]
    fn corruptor_mutation_is_copy_on_write() {
        // A corrupted copy must materialize its own payload: every receiver
        // whose copy was NOT corrupted sees the original bytes, however the
        // copies share the underlying allocation.
        let mut saw_mixed_multicast = false;
        for seed in 0..50 {
            let mut topo = Topology::new();
            let l0 = topo.add_lan();
            let mut sim: Sim<String> = Sim::new(SimConfig::default(), topo, seed);
            let sender = sim.add_node(l0, Box::<Recorder>::default());
            let receivers: Vec<NodeId> =
                (0..6).map(|_| sim.add_node(l0, Box::<Recorder>::default())).collect();
            sim.set_corruptor_factory(|| Box::new(|_rng, p: &String| Some(format!("{p}!"))));
            sim.set_lan_faults(l0, FaultProfile { corrupt: 0.5, ..Default::default() });
            sim.with_node::<Recorder>(sender, |_, ctx| {
                let lan = ctx.lan();
                ctx.send(Destination::Multicast(lan), "original".into(), 16, "test");
            });
            sim.run_until(1_000);
            let mut got_original = 0;
            let mut got_mutated = 0;
            for &r in &receivers {
                for (_, m) in &sim.handler::<Recorder>(r).unwrap().messages {
                    match m.as_str() {
                        "original" => got_original += 1,
                        "original!" => got_mutated += 1,
                        other => panic!("seed {seed}: unexpected payload {other:?}"),
                    }
                }
            }
            if got_original > 0 && got_mutated > 0 {
                saw_mixed_multicast = true;
                break;
            }
        }
        assert!(
            saw_mixed_multicast,
            "no seed in 0..50 corrupted some copies of one multicast but not others"
        );
    }

    #[test]
    fn duplicated_copies_are_independently_corruptible() {
        // Duplicate + corrupt: the two copies of one delivery share the
        // payload until the corruptor forks one; the other copy must arrive
        // intact.
        let mut saw_split = false;
        for seed in 0..50 {
            let mut topo = Topology::new();
            let l0 = topo.add_lan();
            let mut sim: Sim<String> = Sim::new(SimConfig::default(), topo, seed);
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let b = sim.add_node(l0, Box::<Recorder>::default());
            sim.set_corruptor_factory(|| Box::new(|_rng, p: &String| Some(format!("{p}!"))));
            sim.set_lan_faults(
                l0,
                FaultProfile { duplicate: 1.0, corrupt: 0.5, ..Default::default() },
            );
            sim.with_node::<Recorder>(a, |_, ctx| {
                ctx.send(Destination::Unicast(b), "frame".into(), 8, "test");
            });
            sim.run_until(1_000);
            let msgs: Vec<&str> = sim
                .handler::<Recorder>(b)
                .unwrap()
                .messages
                .iter()
                .map(|(_, m)| m.as_str())
                .collect();
            assert_eq!(msgs.len(), 2, "seed {seed}: duplicate delivers two copies");
            if msgs.contains(&"frame") && msgs.contains(&"frame!") {
                saw_split = true;
                break;
            }
        }
        assert!(saw_split, "no seed in 0..50 corrupted exactly one duplicate copy");
    }

    #[test]
    fn scheduled_fault_window_opens_and_clears() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        let lossy = FaultProfile { loss: 1.0, ..Default::default() };
        sim.schedule(10, ControlAction::SetLanFaults(l0, lossy));
        sim.schedule(100, ControlAction::ClearFaults);
        sim.run_until(20);
        assert_eq!(sim.lan_faults(l0), lossy, "window open");
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "in-window".into(), 8, "test");
        });
        sim.run_until(110);
        assert!(sim.lan_faults(l0).is_quiet(), "window cleared");
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "after".into(), 8, "test");
        });
        sim.run_until(200);
        let rec = sim.handler::<Recorder>(b).unwrap();
        assert_eq!(rec.messages.len(), 1, "only the post-window message arrives");
        assert_eq!(rec.messages[0].1, "after");
    }

    #[test]
    fn reorder_jitter_can_swap_deliveries() {
        // With a large reorder bound and zero base jitter, two back-to-back
        // messages eventually arrive swapped for some seed.
        let mut swapped = false;
        for seed in 0..20 {
            let mut topo = Topology::new();
            let l0 = topo.add_lan();
            let cfg = SimConfig { lan_jitter: 0, ..Default::default() };
            let mut sim: Sim<String> = Sim::new(cfg, topo, seed);
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let b = sim.add_node(l0, Box::<Recorder>::default());
            sim.set_lan_faults(l0, FaultProfile { reorder_jitter: 50, ..Default::default() });
            sim.with_node::<Recorder>(a, |_, ctx| {
                ctx.send(Destination::Unicast(b), "first".into(), 8, "test");
                ctx.send(Destination::Unicast(b), "second".into(), 8, "test");
            });
            sim.run_until(1_000);
            let rec = sim.handler::<Recorder>(b).unwrap();
            assert_eq!(rec.messages.len(), 2, "reordering never loses messages");
            if rec.messages[0].1 == "second" {
                swapped = true;
                break;
            }
        }
        assert!(swapped, "no seed in 0..20 produced a swap");
    }

    #[test]
    fn fault_free_runs_unchanged_by_fault_layer_presence() {
        // A quiet profile must not consume fault RNG draws: a run with the
        // default profiles is byte-identical to one where a window opened
        // and closed before any traffic.
        let run = |pre_window: bool| {
            let (mut sim, l0, l1) = two_lan_sim();
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let b = sim.add_node(l1, Box::<Recorder>::default());
            if pre_window {
                sim.set_wan_faults(FaultProfile { duplicate: 0.9, ..Default::default() });
                sim.clear_faults();
            }
            for i in 0..50 {
                sim.with_node::<Recorder>(a, |_, ctx| {
                    ctx.send(Destination::Unicast(b), format!("m{i}"), 16, "test");
                });
                sim.run_until(sim.now() + 10);
            }
            sim.run_until(10_000);
            sim.handler::<Recorder>(b).unwrap().messages.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn asymmetric_pair_faults_hit_one_direction_only() {
        let (mut sim, l0, l1) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l1, Box::<Recorder>::default());
        // Lose everything l1 → l0; the l0 → l1 direction stays clean.
        sim.set_wan_pair_faults(l1, l0, FaultProfile { loss: 1.0, ..Default::default() });
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "request".into(), 8, "test");
        });
        sim.run_until(100);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1, "forward direction clean");
        sim.with_node::<Recorder>(b, |_, ctx| {
            ctx.send(Destination::Unicast(a), "reply".into(), 8, "test");
        });
        sim.run_until(200);
        assert!(sim.handler::<Recorder>(a).unwrap().messages.is_empty(), "reply direction lossy");
        assert_eq!(sim.stats().dropped_messages, 1);
        sim.clear_faults();
        assert!(sim.wan_pair_faults(l1, l0).is_none(), "clear_faults drops overrides");
        sim.with_node::<Recorder>(b, |_, ctx| {
            ctx.send(Destination::Unicast(a), "reply2".into(), 8, "test");
        });
        sim.run_until(300);
        assert_eq!(sim.handler::<Recorder>(a).unwrap().messages.len(), 1);
    }

    #[test]
    fn wan_pair_cut_blocks_only_that_pair() {
        let mut topo = Topology::new();
        let l0 = topo.add_lan();
        let l1 = topo.add_lan();
        let l2 = topo.add_lan();
        let mut sim: Sim<String> = Sim::new(SimConfig::default(), topo, 7);
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l1, Box::<Recorder>::default());
        let c = sim.add_node(l2, Box::<Recorder>::default());
        sim.schedule(10, ControlAction::CutWanPair(l0, l1));
        sim.run_until(20);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "cut".into(), 8, "test");
            ctx.send(Destination::Unicast(c), "open".into(), 8, "test");
        });
        sim.run_until(100);
        assert!(sim.handler::<Recorder>(b).unwrap().messages.is_empty());
        assert_eq!(sim.handler::<Recorder>(c).unwrap().messages.len(), 1);
        assert_eq!(sim.stats().wan_cut_drops, 1);
        assert_eq!(sim.stats().dropped_messages, 1);
        sim.schedule(110, ControlAction::HealWanPair(l0, l1));
        sim.run_until(120);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "healed".into(), 8, "test");
        });
        sim.run_until(200);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
    }

    #[test]
    fn derived_ctx_streams_do_not_perturb_the_node_stream() {
        // Deriving (and draining) a labelled sub-stream must leave the
        // node's main RNG draws untouched, and the sub-stream must be
        // stable across runs.
        let run = |derive: bool| {
            let (mut sim, l0, _) = two_lan_sim();
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let mut side = Vec::new();
            let mut main = Vec::new();
            sim.with_node::<Recorder>(a, |_, ctx| {
                if derive {
                    let mut r = ctx.derive_rng("test.side");
                    side = (0..8).map(|_| r.next_u64()).collect();
                }
                main = (0..8).map(|_| ctx.rng().next_u64()).collect();
            });
            (main, side)
        };
        let (main_plain, _) = run(false);
        let (main_derived, side1) = run(true);
        let (_, side2) = run(true);
        assert_eq!(main_plain, main_derived, "derive_rng must not consume node draws");
        assert_eq!(side1, side2, "derived stream is deterministic");
        assert_ne!(main_plain, side1, "derived stream is a different stream");
    }

    #[test]
    fn lazy_node_rng_matches_eager_seeding_and_stays_unmaterialized() {
        // The lazily created stream must be exactly the stream eager
        // creation produced (it is a pure function of the derived seed) —
        // and a node that never draws must never materialize one.
        let (mut sim, l0, _) = two_lan_sim();
        let drawer = sim.add_node(l0, Box::<Recorder>::default());
        let idle = sim.add_node(l0, Box::<Recorder>::default());
        let mut drawn = Vec::new();
        sim.with_node::<Recorder>(drawer, |_, ctx| {
            drawn = (0..4).map(|_| ctx.rng().next_u64()).collect();
        });
        let expected: Vec<u64> = {
            let mut r = Seed(7).derive_idx("simnet.node", u64::from(drawer.0)).rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(drawn, expected, "lazy stream == eagerly seeded stream");
        // Single-domain sim: local slot == global index.
        assert!(sim.domains[0].nodes.rngs[drawer.index()].is_some(), "drawing node materialized");
        assert!(sim.domains[0].nodes.rngs[idle.index()].is_none(), "idle node never materialized");
    }

    #[test]
    fn timers_across_the_wheel_horizon_fire_in_schedule_order() {
        // Delays straddling WHEEL_SPAN: near ones go straight to buckets,
        // far ones park in the heap and migrate as the clock approaches.
        // Same-delay pairs must fire in set order (FIFO within a time).
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let delays: &[u64] =
            &[10, WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1, 3 * WHEEL_SPAN, 10 * WHEEL_SPAN, 10 * WHEEL_SPAN];
        sim.with_node::<Recorder>(a, |_, ctx| {
            // Tag = schedule index; set in shuffled order so fire order is
            // decided by (time, set-order), not by tag.
            for &(i, d) in &[(4u64, delays[4]), (0, delays[0]), (5, delays[5]), (2, delays[2]), (1, delays[1]), (6, delays[6]), (3, delays[3])] {
                ctx.set_timer(d, i);
            }
        });
        sim.run_until(20 * WHEEL_SPAN);
        // Sort schedule entries by (delay, set order): set order above was
        // 4,0,5,2,1,6,3 → expected fire order by time then set order.
        assert_eq!(sim.handler::<Recorder>(a).unwrap().timers, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(sim.pending_timer_count(), 0);
        assert_eq!(sim.queued_event_count(), 0);
    }

    #[test]
    fn cancelling_a_far_timer_reclaims_it_immediately() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            let t = ctx.set_timer(100 * WHEEL_SPAN, 1);
            ctx.cancel_timer(t);
            ctx.set_timer(2 * WHEEL_SPAN, 2);
        });
        assert_eq!(sim.pending_timer_count(), 1);
        assert_eq!(sim.queued_event_count(), 1);
        let end = sim.run_to_quiescence(SimTime::MAX);
        assert_eq!(sim.handler::<Recorder>(a).unwrap().timers, vec![2]);
        // The cancelled far timer still advances the clock when its ghost
        // entry surfaces (same semantics as the old dead heap keys).
        assert_eq!(end, 100 * WHEEL_SPAN);
    }

    #[test]
    fn with_node_on_dead_node_is_noop() {
        let (mut sim, l0, _) = two_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        sim.crash_node(a);
        let mut called = false;
        sim.with_node::<Recorder>(a, |_, _| called = true);
        assert!(!called);
    }

    /// A handler that reads deliveries through the shared reference without
    /// ever cloning the payload (the zero-copy fast path).
    #[derive(Default)]
    struct SharedReader {
        seen: Vec<String>,
    }

    impl NodeHandler<String> for SharedReader {
        fn on_shared_message(
            &mut self,
            _ctx: &mut Ctx<'_, String>,
            _from: NodeId,
            msg: Rc<String>,
        ) {
            self.seen.push((*msg).clone());
        }
    }

    #[test]
    fn shared_and_owning_handlers_observe_identical_payloads() {
        let (mut sim, l0, _) = two_lan_sim();
        let sender = sim.add_node(l0, Box::<Recorder>::default());
        let owning = sim.add_node(l0, Box::<Recorder>::default());
        let shared = sim.add_node(l0, Box::<SharedReader>::default());
        sim.with_node::<Recorder>(sender, |_, ctx| {
            let lan = ctx.lan();
            ctx.send(Destination::Multicast(lan), "announce".into(), 24, "test");
        });
        sim.run_until(100);
        let o = &sim.handler::<Recorder>(owning).unwrap().messages;
        let s = &sim.handler::<SharedReader>(shared).unwrap().seen;
        assert_eq!(o, &vec![(sender, "announce".to_string())]);
        assert_eq!(s, &vec!["announce".to_string()]);
    }

    // ------------------------------------------------------------------
    // Partition plans. Every plan has the same deterministic semantics
    // (per-sender-LAN RNG streams, per-LAN WAN uplinks, node-scoped timer
    // ids); these tests pin behaviour and the worker-count-invariance
    // contract at the unit level — integration digests live in
    // tests/tests/engine_equivalence.rs.
    // ------------------------------------------------------------------

    fn partitioned_sim(lans: usize, plan: PartitionPlan, seed: u64) -> (Sim<String>, Vec<LanId>) {
        let mut topo = Topology::new();
        let ids: Vec<LanId> = (0..lans).map(|_| topo.add_lan()).collect();
        (Sim::new_partitioned(SimConfig::default(), topo, seed, plan), ids)
    }

    #[test]
    fn one_domain_plans_are_worker_count_invariant() {
        // PartitionPlan::Single and any plan collapsing to one domain build
        // the same sim, and a lone domain never uses a worker thread.
        let run = |plan: PartitionPlan, workers: usize| {
            let (mut sim, lans) = partitioned_sim(2, plan, 11);
            sim.set_workers(workers);
            let a = sim.add_node(lans[0], Box::<Recorder>::default());
            let b = sim.add_node(lans[1], Box::<Recorder>::default());
            for i in 0..30 {
                sim.with_node::<Recorder>(a, |_, ctx| {
                    ctx.send(Destination::Unicast(b), format!("m{i}"), 16, "test");
                });
                sim.run_until(sim.now() + 7);
            }
            sim.run_until(5_000);
            sim.handler::<Recorder>(b).unwrap().messages.clone()
        };
        let base = run(PartitionPlan::Single, 1);
        assert_eq!(run(PartitionPlan::Single, 8), base);
        assert_eq!(run(PartitionPlan::Domains(1), 4), base);
    }

    #[test]
    fn zero_wan_latency_is_legal_only_for_one_domain() {
        // The WAN latency is the lookahead between domains; a lone domain
        // has none to keep, so a zero-latency WAN still runs to quiescence.
        let cfg = SimConfig { wan_latency: 0, wan_jitter: 0, ..Default::default() };
        let topo = || {
            let mut topo = Topology::new();
            let lans = [topo.add_lan(), topo.add_lan()];
            (topo, lans)
        };
        let (t, lans) = topo();
        let mut sim: Sim<String> = Sim::new(cfg.clone(), t, 3);
        let a = sim.add_node(lans[0], Box::<Recorder>::default());
        let b = sim.add_node(lans[1], Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "instant".into(), 8, "test");
            ctx.set_timer(5, 1);
        });
        assert_eq!(sim.run_to_quiescence(1_000), 5);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages, vec![(a, "instant".to_string())]);
        assert_eq!(sim.handler::<Recorder>(a).unwrap().timers, vec![1]);
        assert_eq!(sim.queued_event_count(), 0);

        let (t, _) = topo();
        let two = std::panic::catch_unwind(move || {
            Sim::<String>::new_partitioned(cfg, t, 3, PartitionPlan::Domains(2))
        });
        let err = two.err().expect("two domains need a lookahead");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("lookahead horizon"), "{msg}");
    }

    #[test]
    fn partitioned_cross_lan_delivery_and_merged_stats() {
        let (mut sim, lans) = partitioned_sim(3, PartitionPlan::PerLan, 13);
        let a = sim.add_node(lans[0], Box::<Recorder>::default());
        let b = sim.add_node(lans[1], Box::<Recorder>::default());
        let c = sim.add_node(lans[2], Box::<Recorder>::default());
        let peer = sim.add_node(lans[0], Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "one".into(), 10, "test");
            ctx.send(Destination::Unicast(c), "two".into(), 10, "test");
            ctx.send(Destination::Unicast(peer), "local".into(), 5, "test");
        });
        sim.run_until(1_000);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages, vec![(a, "one".to_string())]);
        assert_eq!(sim.handler::<Recorder>(c).unwrap().messages, vec![(a, "two".to_string())]);
        assert_eq!(sim.handler::<Recorder>(peer).unwrap().messages.len(), 1);
        assert_eq!(sim.stats().wan_bytes, 20, "stats merged across domains");
        assert_eq!(sim.stats().lan_bytes, 5);
        assert_eq!(sim.stats().delivered_messages, 3);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn partitioned_worker_count_has_zero_observable_effect() {
        // Ping-pong traffic + faults + a scheduled partition across 4 LANs:
        // every observable (messages with arrival order, stats, clock) must
        // be identical at 1, 2, and 5 workers.
        let run = |workers: usize| {
            let (mut sim, lans) = partitioned_sim(4, PartitionPlan::PerLan, 17);
            sim.set_workers(workers);
            let nodes: Vec<NodeId> =
                lans.iter().map(|&l| sim.add_node(l, Box::<Recorder>::default())).collect();
            sim.set_wan_faults(FaultProfile {
                loss: 0.1,
                duplicate: 0.2,
                reorder_jitter: 9,
                ..Default::default()
            });
            sim.schedule(200, ControlAction::Partition(vec![vec![lans[0], lans[1]], vec![lans[2], lans[3]]]));
            sim.schedule(400, ControlAction::HealPartition);
            for round in 0..20u64 {
                for (i, &n) in nodes.iter().enumerate() {
                    let to = nodes[(i + 1) % nodes.len()];
                    sim.with_node::<Recorder>(n, |_, ctx| {
                        ctx.send(Destination::Unicast(to), format!("r{round}"), 32, "test");
                    });
                }
                sim.run_until(sim.now() + 30);
            }
            sim.run_until(3_000);
            let transcripts: Vec<Vec<(NodeId, String)>> = nodes
                .iter()
                .map(|&n| sim.handler::<Recorder>(n).unwrap().messages.clone())
                .collect();
            (
                transcripts,
                sim.stats().total_bytes(),
                sim.stats().delivered_messages,
                sim.stats().dropped_messages,
                sim.stats().fault_injections(),
                sim.events_processed(),
                sim.now(),
            )
        };
        let base = run(1);
        assert!(base.4 > 0, "faults must actually fire for this to prove anything");
        assert_eq!(run(2), base, "workers=2 diverged");
        assert_eq!(run(5), base, "workers=5 diverged");
    }

    #[test]
    fn partitioned_controls_apply_at_barriers_before_same_time_events() {
        // A loss window scheduled at t must affect a message whose send is
        // injected at t via a control (controls apply before events).
        let (mut sim, lans) = partitioned_sim(2, PartitionPlan::PerLan, 19);
        let a = sim.add_node(lans[0], Box::<Recorder>::default());
        let b = sim.add_node(lans[1], Box::<Recorder>::default());
        sim.schedule(50, ControlAction::SetWanFaults(FaultProfile { loss: 1.0, ..Default::default() }));
        sim.run_until(50);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "lost".into(), 8, "test");
        });
        sim.run_until(500);
        assert!(sim.handler::<Recorder>(b).unwrap().messages.is_empty());
        assert_eq!(sim.stats().dropped_messages, 1);
        sim.schedule(600, ControlAction::ClearFaults);
        sim.run_until(700);
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "through".into(), 8, "test");
        });
        sim.run_until(1_000);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
    }

    #[test]
    fn partitioned_crash_revive_and_timers_work_across_domains() {
        let (mut sim, lans) = partitioned_sim(2, PartitionPlan::PerLan, 23);
        let a = sim.add_node(lans[0], Box::<Recorder>::default());
        let b = sim.add_node(lans[1], Box::<Recorder>::default());
        sim.with_node::<Recorder>(b, |_, ctx| {
            ctx.set_timer(40, 7);
        });
        sim.schedule(10, ControlAction::Crash(b));
        sim.schedule(100, ControlAction::Revive(b));
        sim.with_node::<Recorder>(a, |_, ctx| {
            ctx.send(Destination::Unicast(b), "while-down".into(), 8, "test");
        });
        sim.run_until(1_000);
        let rec = sim.handler::<Recorder>(b).unwrap();
        assert_eq!(rec.starts, 2, "revive reran on_start");
        assert!(rec.timers.is_empty(), "pre-crash timer discarded");
        assert!(rec.messages.is_empty(), "delivery while down dropped");
        assert_eq!(sim.stats().dropped_messages, 1);
        assert_eq!(sim.pending_timer_count(), 0);
    }

    // ------------------------------------------------------------------
    // NodeCapacity: the modeled per-node processing budget.
    // ------------------------------------------------------------------

    fn quiet_lan_sim() -> (Sim<String>, LanId) {
        let mut topo = Topology::new();
        let l0 = topo.add_lan();
        let cfg = SimConfig { lan_jitter: 0, ..Default::default() };
        (Sim::new(cfg, topo, 7), l0)
    }

    #[test]
    fn capacity_defers_deliveries_past_the_per_tick_budget() {
        let (mut sim, l0) = quiet_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.set_node_capacity(b, Some(NodeCapacity { ops_per_tick: 1, queue_limit: 100 }));
        sim.with_node::<Recorder>(a, |_, ctx| {
            for i in 0..3 {
                ctx.send(Destination::Unicast(b), format!("m{i}"), 8, "test");
            }
        });
        sim.run_until(1_000);
        // All three arrive at the same tick; the budget admits one per tick,
        // so two are deferred but nothing is lost.
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 3);
        assert_eq!(sim.stats().capacity_deferred_messages, 2);
        assert_eq!(sim.stats().capacity_dropped_messages, 0);
        assert_eq!(sim.stats().delivered_messages, 3);
    }

    #[test]
    fn capacity_queue_limit_drops_overflow_and_counts_by_kind() {
        let (mut sim, l0) = quiet_lan_sim();
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.set_node_capacity(b, Some(NodeCapacity { ops_per_tick: 1, queue_limit: 2 }));
        sim.with_node::<Recorder>(a, |_, ctx| {
            for i in 0..5 {
                ctx.send(Destination::Unicast(b), format!("m{i}"), 8, "query");
            }
        });
        sim.run_until(1_000);
        // Budget 1/tick with 2 queueable ops: of 5 simultaneous arrivals,
        // two make it through and three bounce off the full ingress queue.
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 2);
        assert_eq!(sim.stats().capacity_dropped_messages, 3);
        assert_eq!(sim.stats().capacity_dropped("query"), 3);
        assert_eq!(sim.stats().capacity_dropped("renew"), 0);
        // Capacity drops are a separate ledger from link-level losses.
        assert_eq!(sim.stats().dropped_messages, 0);
    }

    #[test]
    fn capacity_with_headroom_matches_the_uncapped_run() {
        let run = |cap: Option<NodeCapacity>| {
            let (mut sim, l0) = quiet_lan_sim();
            let a = sim.add_node(l0, Box::<Recorder>::default());
            let b = sim.add_node(l0, Box::<Recorder>::default());
            sim.set_node_capacity(b, cap);
            for i in 0..20 {
                sim.with_node::<Recorder>(a, |_, ctx| {
                    ctx.send(Destination::Unicast(b), format!("m{i}"), 8, "test");
                });
                sim.run_until(sim.now() + 5);
            }
            sim.run_until(5_000);
            (
                sim.handler::<Recorder>(b).unwrap().messages.clone(),
                sim.stats().delivered_messages,
                sim.stats().capacity_deferred_messages,
            )
        };
        let uncapped = run(None);
        let roomy = run(Some(NodeCapacity { ops_per_tick: 1_000, queue_limit: 1_000_000 }));
        assert_eq!(roomy, uncapped, "an unsaturated budget must be invisible");
        assert_eq!(uncapped.2, 0);
    }

    #[test]
    fn capacity_config_default_applies_to_every_node() {
        let mut topo = Topology::new();
        let l0 = topo.add_lan();
        let cfg = SimConfig {
            lan_jitter: 0,
            node_capacity: Some(NodeCapacity { ops_per_tick: 1, queue_limit: 1 }),
            ..Default::default()
        };
        let mut sim: Sim<String> = Sim::new(cfg, topo, 7);
        let a = sim.add_node(l0, Box::<Recorder>::default());
        let b = sim.add_node(l0, Box::<Recorder>::default());
        sim.with_node::<Recorder>(a, |_, ctx| {
            for i in 0..4 {
                ctx.send(Destination::Unicast(b), format!("m{i}"), 8, "test");
            }
        });
        sim.run_until(1_000);
        assert_eq!(sim.handler::<Recorder>(b).unwrap().messages.len(), 1);
        assert_eq!(sim.stats().capacity_dropped_messages, 3);
    }

    #[test]
    fn capacity_is_worker_count_invariant_in_partitioned_mode() {
        let run = |workers: usize| {
            let (mut sim, lans) = partitioned_sim(4, PartitionPlan::PerLan, 31);
            sim.set_workers(workers);
            let nodes: Vec<NodeId> =
                lans.iter().map(|&l| sim.add_node(l, Box::<Recorder>::default())).collect();
            // Every node capacity-limited; cross-domain storms must defer
            // and drop identically at any worker count.
            for &n in &nodes {
                sim.set_node_capacity(n, Some(NodeCapacity { ops_per_tick: 1, queue_limit: 3 }));
            }
            for round in 0..15u64 {
                for (i, &n) in nodes.iter().enumerate() {
                    sim.with_node::<Recorder>(n, |_, ctx| {
                        for o in 1..nodes.len() {
                            let to = NodeId(((i + o) % 4) as u32);
                            for c in 0..4 {
                                ctx.send(Destination::Unicast(to), format!("r{round}c{c}"), 16, "test");
                            }
                        }
                    });
                }
                sim.run_until(sim.now() + 25);
            }
            sim.run_until(3_000);
            let transcripts: Vec<Vec<(NodeId, String)>> = nodes
                .iter()
                .map(|&n| sim.handler::<Recorder>(n).unwrap().messages.clone())
                .collect();
            (
                transcripts,
                sim.stats().capacity_deferred_messages,
                sim.stats().capacity_dropped_messages,
                sim.stats().delivered_messages,
                sim.events_processed(),
            )
        };
        let base = run(1);
        assert!(base.1 > 0, "storm must actually defer for this to prove anything");
        assert!(base.2 > 0, "storm must actually drop for this to prove anything");
        assert_eq!(run(2), base, "workers=2 diverged");
        assert_eq!(run(4), base, "workers=4 diverged");
    }

    #[test]
    fn partitioned_determinism_across_runs() {
        let run = || {
            let (mut sim, lans) = partitioned_sim(5, PartitionPlan::Domains(3), 29);
            sim.set_workers(3);
            let nodes: Vec<NodeId> =
                lans.iter().map(|&l| sim.add_node(l, Box::<Recorder>::default())).collect();
            sim.set_wan_faults(FaultProfile { duplicate: 0.3, reorder_jitter: 5, ..Default::default() });
            for i in 0..15u64 {
                let from = nodes[(i % 5) as usize];
                let to = nodes[((i + 2) % 5) as usize];
                sim.with_node::<Recorder>(from, |_, ctx| {
                    ctx.send(Destination::Unicast(to), format!("x{i}"), 24, "test");
                });
                sim.run_until(sim.now() + 11);
            }
            sim.run_until(2_000);
            let t: Vec<_> = nodes.iter().map(|&n| sim.handler::<Recorder>(n).unwrap().messages.clone()).collect();
            (t, sim.stats().total_bytes(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }
}
