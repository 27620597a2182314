//! The share-nothing execution partition: one timing-wheel event core plus
//! the struct-of-arrays node state it drives.
//!
//! A [`Domain`] owns everything needed to dispatch its nodes' events without
//! touching any other domain: the calendar wheel and far heap, the node
//! table (handlers, liveness, epochs, lazily boxed RNG slots, per-node timer
//! counters and delivery counters — parallel `Vec`s indexed by the node's
//! *local* slot), its LANs' link/fault RNG streams, fault profiles, medium
//! and WAN-uplink busy-until clocks, timer cells, and traffic counters. The
//! coordinator ([`crate::Sim`]) owns the read-only world (config, topology,
//! global→local maps, WAN fault profiles) and hands it in by reference for
//! each run.
//!
//! Every transmit-time draw is attributable to the *sender's LAN* (per-LAN
//! `simnet.lan.link` / `simnet.lan.fault` streams), every LAN serializes
//! its WAN sends on its own uplink, timer ids are node-scoped, and
//! cross-domain deliveries are fully sampled sender-side and handed off
//! through per-destination outboxes — which is what makes a domain's
//! execution a pure function of its inputs, independent of worker
//! scheduling and of how many other domains exist. A one-domain sim is the
//! same code with no cross-domain traffic.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use sds_rand::{IdMap, Rng, Seed};

use crate::engine::{Corruptor, FaultProfile, NodeCapacity, SimConfig};
use crate::handler::{take_payload, Action, Ctx, NodeHandler};
use crate::ids::{LanId, NodeId, TimerId};
use crate::message::{Destination, MsgKind};
use crate::stats::{NetStats, Scope};
use crate::time::SimTime;
use crate::topology::Topology;

/// Wheel span in time units (must be a power of two). Events scheduled
/// within `WHEEL_SPAN` of `now` — every delivery under realistic latencies,
/// and every short protocol timer — go straight into their time's bucket:
/// O(1) push, no comparisons. Only beyond-horizon events (long leases,
/// scripted scenario controls) pay for the far heap.
pub(crate) const WHEEL_SPAN: u64 = 1 << 12;
pub(crate) const WHEEL_MASK: usize = (WHEEL_SPAN - 1) as usize;

/// One queued event, stored inline in its time bucket. Within a bucket,
/// dispatch order is vector order, which by construction is push order —
/// exactly the `(at, seq)` order the old comparison-based heap produced.
pub(crate) enum Queued<P> {
    /// Payloads are queued behind `Rc`: every receiver of a multicast (and
    /// every duplicated copy) shares one allocation. Copy-on-write: only a
    /// corruptor mutation materializes a divergent payload. `kind` rides
    /// along for capacity accounting; `admitted` marks a delivery that
    /// already consumed a slot of the receiver's processing budget (a
    /// deferred delivery must not be re-billed when it surfaces again).
    Deliver { to: NodeId, from: NodeId, payload: Rc<P>, kind: MsgKind, admitted: bool },
    /// Timers are the only cancellable events, so only they pay for an
    /// out-of-line, generation-stamped cell: cancelling bumps the cell's
    /// stamp, and a mismatched stamp here means "already cancelled — skip".
    /// No tombstone set, no memory held until the dead timer's fire time.
    Timer { slot: u32, gen: u64 },
    /// Placeholder left behind while a bucket entry is being dispatched
    /// (buckets drain by index because a handler may append same-time
    /// events to the bucket currently draining).
    Consumed,
}

/// A beyond-horizon event, parked in the far heap until `now` comes within
/// `WHEEL_SPAN` of it; ordered by `(at, seq)` so same-time far events
/// migrate into their bucket in push order.
pub(crate) struct FarEvent<P> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) ev: Queued<P>,
}

impl<P> PartialEq for FarEvent<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P> Eq for FarEvent<P> {}
impl<P> PartialOrd for FarEvent<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for FarEvent<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The out-of-line cell for one pending timer. `gen` stamps the current
/// occupancy: firing and cancelling both bump it, so a queued
/// `Queued::Timer` referencing an old stamp is dead. The payload fields are
/// simply left behind on vacate (no `Option` dance).
pub(crate) struct TimerSlot {
    pub(crate) gen: u64,
    pub(crate) node: NodeId,
    pub(crate) epoch: u32,
    pub(crate) id: TimerId,
    pub(crate) tag: u64,
}

/// The timing-wheel event queue: clock, calendar buckets, occupancy bitmap,
/// and the far heap. Split out of [`Domain`] so hot-path code can hold a
/// mutable borrow of an RNG stream (a sibling field) while pushing events.
pub(crate) struct EventCore<P> {
    pub(crate) now: SimTime,
    /// The calendar queue: one bucket per time unit, indexed `at mod
    /// WHEEL_SPAN`. Invariant: every bucketed event satisfies
    /// `at - now < WHEEL_SPAN`, so a bucket never mixes two times.
    pub(crate) buckets: Vec<Vec<Queued<P>>>,
    /// One bit per bucket, so finding the next occupied time skips empty
    /// stretches a word (64 buckets) at a stride.
    pub(crate) occupied: Vec<u64>,
    /// How far into `now`'s bucket dispatch has progressed (buckets drain
    /// by index so same-time appends during dispatch are picked up).
    pub(crate) drain_pos: usize,
    /// Beyond-horizon events, ordered `(at, seq)`; they migrate into
    /// buckets as `now` approaches (see [`EventCore::migrate_until`]).
    pub(crate) far: BinaryHeap<Reverse<FarEvent<P>>>,
    pub(crate) far_seq: u64,
    /// Live queued events (deliveries + pending timers):
    /// incremented on push, decremented on dispatch and on cancel.
    pub(crate) live_events: usize,
}

impl<P> EventCore<P> {
    pub(crate) fn new() -> Self {
        Self {
            now: 0,
            buckets: (0..WHEEL_SPAN).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; WHEEL_SPAN as usize / 64],
            drain_pos: 0,
            far: BinaryHeap::new(),
            far_seq: 0,
            live_events: 0,
        }
    }

    /// Queues an event at `at` (≥ `now`): O(1) into its wheel bucket when
    /// within the horizon, else into the far heap with a sequence stamp
    /// that preserves push order among same-time far events.
    pub(crate) fn push_event(&mut self, at: SimTime, ev: Queued<P>) {
        debug_assert!(at >= self.now, "events are never scheduled in the past");
        self.live_events += 1;
        if at - self.now < WHEEL_SPAN {
            self.bucket_insert(at, ev);
        } else {
            let seq = self.far_seq;
            self.far_seq += 1;
            self.far.push(Reverse(FarEvent { at, seq, ev }));
        }
    }

    pub(crate) fn bucket_insert(&mut self, at: SimTime, ev: Queued<P>) {
        let bi = (at as usize) & WHEEL_MASK;
        self.buckets[bi].push(ev);
        self.occupied[bi >> 6] |= 1u64 << (bi & 63);
    }

    /// The earliest queued event time after `now`, if any. Bucketed events
    /// always precede far ones (the far heap holds only beyond-horizon
    /// times), so the wheel is scanned first.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        let span = WHEEL_SPAN as usize;
        let start = ((self.now + 1) as usize) & WHEEL_MASK;
        let mut o = 0usize;
        while o < span - 1 {
            let idx = (start + o) & WHEEL_MASK;
            if idx & 63 == 0 && span - 1 - o >= 64 && self.occupied[idx >> 6] == 0 {
                o += 64;
                continue;
            }
            if self.occupied[idx >> 6] & (1u64 << (idx & 63)) != 0 {
                return Some(self.now + 1 + o as u64);
            }
            o += 1;
        }
        self.far.peek().map(|Reverse(f)| f.at)
    }

    /// The earliest time at which this core still has work: `now` itself
    /// while the current bucket has undrained entries (same-time pushes,
    /// resumed drains), else the next occupied time. The window coordinator
    /// plans lookahead horizons off this, so it must see *pending* events at
    /// `now`, which [`EventCore::next_event_time`] (a strict "after `now`"
    /// scan) would miss.
    pub(crate) fn next_pending_time(&self) -> Option<SimTime> {
        let bi = (self.now as usize) & WHEEL_MASK;
        if self.drain_pos < self.buckets[bi].len() {
            return Some(self.now);
        }
        self.next_event_time()
    }

    /// Pulls every far event that `new_now`'s horizon now covers into its
    /// bucket. Far events migrate in `(at, seq)` heap order, and always
    /// before any same-time near push can happen (near pushes at time `t`
    /// only occur once `now > t - WHEEL_SPAN`, and every advance of `now`
    /// migrates first) — so bucket order remains global push order.
    pub(crate) fn migrate_until(&mut self, new_now: SimTime) {
        while let Some(Reverse(top)) = self.far.peek() {
            if top.at - new_now >= WHEEL_SPAN {
                break;
            }
            let Reverse(fe) = self.far.pop().expect("peeked");
            self.bucket_insert(fe.at, fe.ev);
        }
    }

    /// Advances the clock to `t` without dispatching anything. Only legal
    /// when no event earlier than `t` is queued (the coordinator advances
    /// idle domains to a barrier time); events *at* `t` stay in their bucket
    /// and are picked up by the next run.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.migrate_until(t);
            self.now = t;
        }
    }
}

/// Per-node state, flattened struct-of-arrays style: parallel `Vec`s indexed
/// by the node's local slot in its domain. One cache-friendly table instead
/// of a struct-per-node heap graph — at 10⁶ nodes the fixed cost is a few
/// words per node, and the lazily *boxed* RNG slot keeps the never-drawing
/// common case at 8 bytes instead of an inline 40-byte generator state.
/// Per-node processing-budget state for one capacity-limited node: the
/// configured budget plus the rolling admission clock. `next_tick` is the
/// earliest tick with spare budget and `used` how many of its
/// `ops_per_tick` slots are already claimed — together they encode the
/// whole ingress queue in two words, with no per-message queue storage.
pub(crate) struct CapCell {
    pub(crate) cap: NodeCapacity,
    pub(crate) next_tick: SimTime,
    pub(crate) used: u32,
}

pub(crate) struct NodeTable<P> {
    pub(crate) handlers: Vec<Option<Box<dyn NodeHandler<P>>>>,
    pub(crate) alive: Vec<bool>,
    pub(crate) epoch: Vec<u32>,
    /// Lazily materialized per-node RNG streams: `None` until the node's
    /// first draw. The stream state is a pure function of the node's derived
    /// seed, so laziness is invisible to handlers — but a million-node sim
    /// whose nodes never draw seeds nothing (and pays one pointer, not an
    /// inline generator, per idle slot).
    pub(crate) rngs: Vec<Option<Box<Rng>>>,
    /// Per-node derived seeds, handed to handlers through `Ctx` so they can
    /// derive private labelled sub-streams (retry jitter etc.) that never
    /// perturb the main per-node stream.
    pub(crate) seeds: Vec<Seed>,
    /// Node-scoped timer-id counters: ids are `(node << 32) | ctr`, so
    /// allocation is domain-local yet globally unique.
    pub(crate) timer_ctrs: Vec<u32>,
    /// Deliveries handed to each node's handler — the per-node stats column
    /// of the SoA table (cheap enough to keep always-on at 10⁶ nodes).
    pub(crate) delivered: Vec<u64>,
    /// Lazily boxed capacity cells: `None` (the default) means unbounded
    /// processing — the historical model, zero cost per idle slot. Boxed so
    /// a million uncapped nodes pay one pointer each, like the RNG slots.
    pub(crate) caps: Vec<Option<Box<CapCell>>>,
    /// Local slot → global node id.
    pub(crate) global: Vec<NodeId>,
}

impl<P> NodeTable<P> {
    pub(crate) fn new() -> Self {
        Self {
            handlers: Vec::new(),
            alive: Vec::new(),
            epoch: Vec::new(),
            rngs: Vec::new(),
            seeds: Vec::new(),
            timer_ctrs: Vec::new(),
            delivered: Vec::new(),
            caps: Vec::new(),
            global: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, id: NodeId, handler: Box<dyn NodeHandler<P>>, seed: Seed) -> u32 {
        let li = self.handlers.len() as u32;
        self.handlers.push(Some(handler));
        self.alive.push(true);
        self.epoch.push(0);
        self.rngs.push(None);
        self.seeds.push(seed);
        self.timer_ctrs.push(0);
        self.delivered.push(0);
        self.caps.push(None);
        self.global.push(id);
        li
    }
}

/// One cross-domain delivery, fully sampled sender-side (loss, serialization,
/// latency, duplication fan-out, reordering, corruption all already applied)
/// and carrying an owned payload — `Rc` clones never cross a domain
/// boundary, which is what makes moving a whole domain across worker
/// threads sound.
pub(crate) struct CrossMsg<P> {
    pub(crate) at: SimTime,
    pub(crate) to: NodeId,
    pub(crate) from: NodeId,
    pub(crate) payload: P,
    pub(crate) kind: MsgKind,
}

/// The read-only world a domain runs against: simulation config, topology,
/// global→local id maps, and the WAN fault profiles. Controls mutate these
/// only at window barriers, so sharing them immutably across worker
/// threads is safe.
pub(crate) struct World<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) topo: &'a Topology,
    pub(crate) node_local: &'a [u32],
    pub(crate) lan_domain: &'a [u16],
    pub(crate) lan_local: &'a [u32],
    pub(crate) wan_faults: FaultProfile,
    pub(crate) wan_pair_faults: &'a BTreeMap<(LanId, LanId), FaultProfile>,
}

/// A payload on its way to one unicast destination: a plain send's owned
/// value, or one reference to a fan-out's shared box.
trait Leg<P> {
    /// The payload as queued in this domain.
    fn shared(self) -> Rc<P>;
    /// The payload as carried into another domain's outbox: a move when
    /// this is the last reference, a clone otherwise.
    fn owned(self) -> P;
}

impl<P> Leg<P> for P {
    fn shared(self) -> Rc<P> {
        Rc::new(self)
    }
    fn owned(self) -> P {
        self
    }
}

impl<P: Clone> Leg<P> for Rc<P> {
    fn shared(self) -> Rc<P> {
        self
    }
    fn owned(self) -> P {
        take_payload(self)
    }
}

/// One share-nothing execution partition. See the module docs.
pub(crate) struct Domain<P> {
    pub(crate) index: u16,
    pub(crate) core: EventCore<P>,
    pub(crate) nodes: NodeTable<P>,
    /// Transmit-time RNG streams (loss and latency jitter; duplication,
    /// reordering and corruption), one per *sender LAN*, indexed by the
    /// domain-local LAN slot. Every draw is attributable to the sending
    /// LAN, hence partition-local — the property that lets domains run
    /// concurrently without serializing a global stream.
    pub(crate) link: Vec<Rng>,
    pub(crate) fault: Vec<Rng>,
    /// The timer cells (see [`TimerSlot`]) plus their free list.
    pub(crate) timer_table: Vec<TimerSlot>,
    pub(crate) timer_free: Vec<u32>,
    /// Pending (not yet fired, not cancelled) timers → the cell+generation
    /// of their queued event. Entries leave on fire *and* on cancel, so the
    /// map is bounded by the number of outstanding timers — cancelling an
    /// already-fired timer is a map miss, never a leak.
    pub(crate) timer_slots: IdMap<TimerId, (u32, u64)>,
    pub(crate) stats: NetStats,
    pub(crate) events_processed: u64,
    /// Per-local-LAN medium busy-until time (bandwidth model).
    pub(crate) lan_busy_until: Vec<SimTime>,
    /// Per-local-LAN WAN uplink busy-until time: each LAN serializes its
    /// own WAN sends (a pipe shared across LANs would couple the domains).
    pub(crate) wan_busy_until: Vec<SimTime>,
    /// Per-local-LAN fault profiles.
    pub(crate) lan_faults: Vec<FaultProfile>,
    pub(crate) corruptor: Option<Corruptor<P>>,
    /// Reused membership buffer for multicast dispatch — no per-multicast
    /// `Vec` allocation.
    pub(crate) multicast_scratch: Vec<NodeId>,
    /// Reused action buffer handed to `Ctx` — no per-invoke allocation.
    pub(crate) actions_scratch: Vec<Action<P>>,
    /// Reused fan-out destination list lent to `Ctx` — a fan-out allocates
    /// its payload box and nothing else.
    pub(crate) fanout_scratch: Vec<NodeId>,
    /// Per-destination-domain outboxes, drained by the coordinator at every
    /// barrier in fixed (source, destination) order.
    pub(crate) outboxes: Vec<Vec<CrossMsg<P>>>,
}

// SAFETY: `Domain<P>` is not auto-`Send` only because `core` queues
// deliveries as `Rc<P>`; every other field is owned data that is `Send` when
// `P` is, and handlers (in `nodes`) and `corruptor` are `Send` by bound — so
// a handler cannot keep the `Rc` it is shown. Moving a *whole* domain to
// another thread — all `par::run_domains` does: one `&mut Domain` per
// worker, never two to the same domain — is sound when `P: Send` because no
// `Rc` crosses a domain: payloads enter as owned `P` (local sends, fan-outs
// and outbox handoffs all `Rc::new` domain-side, `outboxes` carry owned `P`,
// and a fan-out's cross-domain legs clone out of its box), so every
// clone of an `Rc<P>` lives in the domain that created it and no reference
// count is ever touched by two threads.
unsafe impl<P: Send> Send for Domain<P> {}

impl<P: Clone + Send + 'static> Domain<P> {
    pub(crate) fn new(index: u16, seed: u64, lans: Vec<LanId>, n_domains: usize) -> Self {
        let nl = lans.len();
        let streams = |label: &str| -> Vec<Rng> {
            lans.iter().map(|l| Seed(seed).derive_idx(label, u64::from(l.0)).rng()).collect()
        };
        Self {
            index,
            core: EventCore::new(),
            nodes: NodeTable::new(),
            link: streams("simnet.lan.link"),
            fault: streams("simnet.lan.fault"),
            timer_table: Vec::new(),
            timer_free: Vec::new(),
            timer_slots: IdMap::default(),
            stats: NetStats::default(),
            events_processed: 0,
            lan_busy_until: vec![0; nl],
            wan_busy_until: vec![0; nl],
            lan_faults: vec![FaultProfile::default(); nl],
            corruptor: None,
            multicast_scratch: Vec::new(),
            actions_scratch: Vec::new(),
            fanout_scratch: Vec::new(),
            outboxes: (0..n_domains).map(|_| Vec::new()).collect(),
        }
    }

    /// Dispatches every event with `at <= limit`, in `(at, push-order)`
    /// order. Buckets drain front-to-back by index so a handler appending a
    /// same-time event (zero-delay timer, zero-latency link) sees it
    /// dispatched within the same time step, after everything already
    /// queued — exactly the old comparison-heap order. A bucket whose only
    /// entries were cancelled timers still advances the clock to its time,
    /// matching the old engine's handling of dead heap keys.
    pub(crate) fn run_events(&mut self, limit: SimTime, world: &World<'_>) {
        loop {
            let bi = (self.core.now as usize) & WHEEL_MASK;
            if self.core.drain_pos < self.core.buckets[bi].len() {
                let pos = self.core.drain_pos;
                self.core.drain_pos += 1;
                let ev = std::mem::replace(&mut self.core.buckets[bi][pos], Queued::Consumed);
                if self.dispatch(ev, world) {
                    self.events_processed += 1;
                    self.core.live_events -= 1;
                }
                continue;
            }
            self.core.buckets[bi].clear();
            self.core.occupied[bi >> 6] &= !(1u64 << (bi & 63));
            self.core.drain_pos = 0;
            let Some(next) = self.core.next_event_time() else { return };
            if next > limit {
                return;
            }
            self.core.migrate_until(next);
            self.core.now = next;
        }
    }

    /// Dispatches one queued event; returns `false` for stale entries
    /// (cancelled timers) that dispatch nothing.
    fn dispatch(&mut self, ev: Queued<P>, world: &World<'_>) -> bool {
        match ev {
            Queued::Deliver { to, from, payload, kind, admitted } => {
                let li = world.node_local[to.index()] as usize;
                if !self.nodes.alive[li] {
                    self.stats.record_drop();
                    return true;
                }
                // Modeled processing budget: a capacity-limited node admits
                // at most `ops_per_tick` deliveries per tick; excess arrivals
                // queue (are re-scheduled to the first tick with spare
                // budget) up to `queue_limit` pending ops, beyond which they
                // are dropped at the door. Purely arithmetic — no RNG draws —
                // so capped runs stay deterministic, and a deferral only ever
                // *delays* a delivery, which keeps the conservative-lookahead
                // barrier sound. `None` (the default) skips all of this.
                if !admitted {
                    if let Some(cell) = self.nodes.caps[li].as_deref_mut() {
                        let t = self.core.now;
                        if cell.next_tick < t {
                            cell.next_tick = t;
                            cell.used = 0;
                        }
                        let ops = u64::from(cell.cap.ops_per_tick.max(1));
                        let backlog = (cell.next_tick - t)
                            .saturating_mul(ops)
                            .saturating_add(u64::from(cell.used));
                        if backlog >= u64::from(cell.cap.queue_limit) {
                            self.stats.record_capacity_drop(kind);
                            return true;
                        }
                        let slot = cell.next_tick;
                        cell.used += 1;
                        if u64::from(cell.used) >= ops {
                            cell.next_tick += 1;
                            cell.used = 0;
                        }
                        if slot > t {
                            self.stats.record_capacity_deferral();
                            self.core.push_event(
                                slot,
                                Queued::Deliver { to, from, payload, kind, admitted: true },
                            );
                            return true;
                        }
                    }
                }
                self.stats.record_delivery();
                self.nodes.delivered[li] += 1;
                self.invoke(to, world, move |h, ctx| h.on_shared_message(ctx, from, payload));
                true
            }
            Queued::Timer { slot, gen } => {
                let cell = &mut self.timer_table[slot as usize];
                if cell.gen != gen {
                    // Cancelled: its cell was vacated (and possibly reused)
                    // at cancel time.
                    return false;
                }
                cell.gen += 1;
                let (node, epoch, id, tag) = (cell.node, cell.epoch, cell.id, cell.tag);
                self.timer_free.push(slot);
                self.timer_slots.remove(&id);
                let li = world.node_local[node.index()] as usize;
                if self.nodes.alive[li] && self.nodes.epoch[li] == epoch {
                    self.invoke(node, world, move |h, ctx| h.on_timer(ctx, id, tag));
                }
                true
            }
            Queued::Consumed => unreachable!("consumed entries are never revisited"),
        }
    }

    pub(crate) fn invoke(
        &mut self,
        node: NodeId,
        world: &World<'_>,
        f: impl FnOnce(&mut dyn NodeHandler<P>, &mut Ctx<'_, P>),
    ) {
        let li = world.node_local[node.index()] as usize;
        let mut handler = self.nodes.handlers[li].take().expect("handler present");
        let mut actions = std::mem::take(&mut self.actions_scratch);
        actions.clear();
        let mut ctx = Ctx {
            now: self.core.now,
            node,
            lan: world.topo.lan_of(node),
            seed: self.nodes.seeds[li],
            rng: &mut self.nodes.rngs[li],
            timer_ctr: &mut self.nodes.timer_ctrs[li],
            actions,
            fanout: &mut self.fanout_scratch,
        };
        f(handler.as_mut(), &mut ctx);
        let actions = std::mem::take(&mut ctx.actions);
        self.nodes.handlers[li] = Some(handler);
        self.apply_actions(node, li, actions, world);
    }

    fn apply_actions(&mut self, node: NodeId, li: usize, mut actions: Vec<Action<P>>, world: &World<'_>) {
        // How many fan-out destinations earlier actions consumed.
        let mut fanned = 0usize;
        for action in actions.drain(..) {
            match action {
                Action::Send { dest, payload, bytes, kind } => {
                    self.transmit(node, dest, payload, bytes, kind, world)
                }
                Action::FanOut { payload, dests, bytes, kind } => {
                    let list = std::mem::take(&mut self.fanout_scratch);
                    let end = fanned + dests as usize;
                    // The last leg takes the box itself, so a cross-domain
                    // last leg whose siblings are all gone moves the payload.
                    if let Some((&last, rest)) = list[fanned..end].split_last() {
                        let payload = Rc::new(payload);
                        for &to in rest {
                            self.unicast(node, to, Rc::clone(&payload), bytes, kind, world);
                        }
                        self.unicast(node, last, payload, bytes, kind, world);
                    }
                    fanned = end;
                    self.fanout_scratch = list;
                }
                Action::SetTimer { id, fire_at, tag } => {
                    let epoch = self.nodes.epoch[li];
                    let slot = match self.timer_free.pop() {
                        Some(s) => {
                            let cell = &mut self.timer_table[s as usize];
                            cell.node = node;
                            cell.epoch = epoch;
                            cell.id = id;
                            cell.tag = tag;
                            s
                        }
                        None => {
                            self.timer_table.push(TimerSlot { gen: 0, node, epoch, id, tag });
                            (self.timer_table.len() - 1) as u32
                        }
                    };
                    let gen = self.timer_table[slot as usize].gen;
                    self.timer_slots.insert(id, (slot, gen));
                    self.core.push_event(fire_at, Queued::Timer { slot, gen });
                }
                Action::CancelTimer(id) => {
                    if let Some((slot, gen)) = self.timer_slots.remove(&id) {
                        // The map only holds timers whose event is still
                        // queued, so the stamp always matches; the check
                        // guards the invariant rather than trusting it.
                        let cell = &mut self.timer_table[slot as usize];
                        if cell.gen == gen {
                            cell.gen += 1;
                            self.timer_free.push(slot);
                            self.core.live_events -= 1;
                        }
                    }
                }
            }
        }
        if fanned > 0 {
            self.fanout_scratch.clear();
        }
        // Hand the (now empty) buffer back for the next invoke, keeping its
        // capacity. A nested invoke (none today) would merely allocate anew.
        if actions.capacity() > self.actions_scratch.capacity() {
            self.actions_scratch = actions;
        }
    }

    fn transmit(
        &mut self,
        from: NodeId,
        dest: Destination,
        payload: P,
        bytes: u32,
        kind: MsgKind,
        world: &World<'_>,
    ) {
        match dest {
            Destination::Unicast(to) => self.unicast(from, to, payload, bytes, kind, world),
            Destination::Multicast(lan) => {
                assert_eq!(
                    lan,
                    world.topo.lan_of(from),
                    "multicast is link-local: sender must be on the LAN"
                );
                // One transmission on the broadcast medium.
                self.stats.record(Scope::Lan, kind, u64::from(bytes));
                self.stats.record_multicast();
                let fl = world.lan_local[lan.index()] as usize;
                let serialization = self.reserve_medium(Scope::Lan, fl, bytes, world);
                let faults = self.lan_faults[fl];
                // One shared payload for the whole fan-out; one reused
                // membership buffer instead of a fresh Vec per multicast.
                let payload = Rc::new(payload);
                let mut members = std::mem::take(&mut self.multicast_scratch);
                members.clear();
                members.extend(world.topo.members(lan).iter().copied().filter(|&m| m != from));
                for &to in &members {
                    if self.sample_loss(Scope::Lan, fl, world) || self.sample_fault_loss(fl, faults) {
                        self.stats.record_drop();
                        continue;
                    }
                    self.deliver_faulty(faults, Scope::Lan, serialization, to, from, Rc::clone(&payload), kind, fl, world);
                }
                members.clear();
                self.multicast_scratch = members;
            }
        }
    }

    /// The one unicast body, for a plain send (an owned payload) and for each
    /// destination of a fan-out (a reference to its shared box), so both
    /// take the same steps in the same order: byte charge, reachability,
    /// loss and fault-loss draws, medium reservation, then
    /// [`Domain::deliver_faulty`]'s latency and fault draws. A leg into
    /// another domain carries an owned payload, as every cross-domain
    /// delivery does.
    #[inline]
    fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Leg<P>,
        bytes: u32,
        kind: MsgKind,
        world: &World<'_>,
    ) {
        if to.index() >= world.node_local.len() {
            // Corrupted frames can carry node ids that name nobody
            // (e.g. a mutated RegistryList). Address a black hole
            // instead of indexing the topology out of bounds.
            self.stats.record_drop();
            return;
        }
        if to == from {
            // Loopback: free and instantaneous-ish.
            let at = self.core.now + 1;
            self.core.push_event(
                at,
                Queued::Deliver { to, from, payload: payload.shared(), kind, admitted: false },
            );
            return;
        }
        let from_lan = world.topo.lan_of(from);
        let to_lan = world.topo.lan_of(to);
        let scope = if from_lan == to_lan { Scope::Lan } else { Scope::Wan };
        // The sender transmits regardless of the receiver's fate, so
        // the bytes are always charged.
        self.stats.record(scope, kind, u64::from(bytes));
        if scope == Scope::Wan && !world.topo.wan_reachable(from_lan, to_lan) {
            if world.topo.wan_pair_cut(from_lan, to_lan) {
                self.stats.record_wan_cut_drop();
            }
            self.stats.record_drop();
            return;
        }
        // The sender's LAN is always one of this domain's LANs.
        let fl = world.lan_local[from_lan.index()] as usize;
        let faults = self.faults_for(scope, fl, from_lan, to_lan, world);
        if self.sample_loss(scope, fl, world) || self.sample_fault_loss(fl, faults) {
            self.stats.record_drop();
            return;
        }
        let serialization = self.reserve_medium(scope, fl, bytes, world);
        if world.lan_domain[to_lan.index()] != self.index {
            let dst = world.lan_domain[to_lan.index()] as usize;
            self.deliver_faulty_cross(faults, serialization, to, from, payload.owned(), kind, fl, dst, world);
        } else {
            self.deliver_faulty(faults, scope, serialization, to, from, payload.shared(), kind, fl, world);
        }
    }

    /// Schedules one logical delivery, applying duplication, reordering and
    /// corruption from `faults`. A quiet profile draws nothing from the
    /// fault RNG, keeping fault-free runs bit-identical. The shared payload
    /// is copy-on-write: every scheduled copy holds a reference to the same
    /// allocation unless a corruptor mutation materializes a divergent one —
    /// receivers of the other copies still see the original bytes.
    #[allow(clippy::too_many_arguments)]
    fn deliver_faulty(
        &mut self,
        faults: FaultProfile,
        scope: Scope,
        serialization: SimTime,
        to: NodeId,
        from: NodeId,
        payload: Rc<P>,
        kind: MsgKind,
        fl: usize,
        world: &World<'_>,
    ) {
        let copies = if faults.duplicate > 0.0 && self.fault[fl].gen_bool(faults.duplicate)
        {
            self.stats.record_duplicate();
            2
        } else {
            1
        };
        for _copy in 0..copies {
            // Each copy samples its own latency and reorder delay, so a
            // duplicate can overtake the original.
            let reorder = if faults.reorder_jitter > 0 {
                let extra = self.fault[fl].gen_range(0..=faults.reorder_jitter);
                if extra > 0 {
                    self.stats.record_reorder_delay();
                }
                extra
            } else {
                0
            };
            let p = if faults.corrupt > 0.0 && self.fault[fl].gen_bool(faults.corrupt) {
                self.stats.record_corrupted();
                let mutated = match self.corruptor.as_mut() {
                    Some(hook) => hook(&mut self.fault[fl],&payload),
                    None => None,
                };
                match mutated {
                    Some(m) => Rc::new(m),
                    None => {
                        // The mutation destroyed the frame: the receiver's
                        // decoder would reject it, so it never reaches the
                        // handler.
                        self.stats.record_corrupt_drop();
                        continue;
                    }
                }
            } else {
                Rc::clone(&payload)
            };
            let at = self.core.now + serialization + self.sample_latency(scope, fl, world) + reorder;
            self.core.push_event(at, Queued::Deliver { to, from, payload: p, kind, admitted: false });
        }
    }

    /// The cross-domain variant of [`Domain::deliver_faulty`]: identical
    /// draw sequence on the sender LAN's streams, but the scheduled copies
    /// carry *owned* payloads into the destination domain's outbox. Every
    /// arrival time is at least `wan_latency` past `now`, which is the
    /// conservative-lookahead safety bound the window coordinator relies on.
    #[allow(clippy::too_many_arguments)]
    fn deliver_faulty_cross(
        &mut self,
        faults: FaultProfile,
        serialization: SimTime,
        to: NodeId,
        from: NodeId,
        payload: P,
        kind: MsgKind,
        fl: usize,
        dst: usize,
        world: &World<'_>,
    ) {
        let copies = if faults.duplicate > 0.0 && self.fault[fl].gen_bool(faults.duplicate)
        {
            self.stats.record_duplicate();
            2
        } else {
            1
        };
        let mut remaining = Some(payload);
        for copy in 0..copies {
            let reorder = if faults.reorder_jitter > 0 {
                let extra = self.fault[fl].gen_range(0..=faults.reorder_jitter);
                if extra > 0 {
                    self.stats.record_reorder_delay();
                }
                extra
            } else {
                0
            };
            let original = remaining.as_ref().expect("payload present until last copy");
            let p = if faults.corrupt > 0.0 && self.fault[fl].gen_bool(faults.corrupt) {
                self.stats.record_corrupted();
                let mutated = match self.corruptor.as_mut() {
                    Some(hook) => hook(&mut self.fault[fl],original),
                    None => None,
                };
                match mutated {
                    Some(m) => m,
                    None => {
                        self.stats.record_corrupt_drop();
                        continue;
                    }
                }
            } else if copy + 1 == copies {
                remaining.take().expect("last copy moves the payload")
            } else {
                original.clone()
            };
            let at = self.core.now + serialization + self.sample_latency(Scope::Wan, fl, world) + reorder;
            debug_assert!(
                at >= self.core.now + world.cfg.wan_latency,
                "cross-domain arrival inside the lookahead horizon"
            );
            self.outboxes[dst].push(CrossMsg { at, to, from, payload: p, kind });
        }
    }

    fn faults_for(
        &self,
        scope: Scope,
        fl: usize,
        from_lan: LanId,
        to_lan: LanId,
        world: &World<'_>,
    ) -> FaultProfile {
        match scope {
            Scope::Lan => self.lan_faults[fl],
            Scope::Wan => world
                .wan_pair_faults
                .get(&(from_lan, to_lan))
                .copied()
                .unwrap_or(world.wan_faults),
        }
    }

    fn sample_fault_loss(&mut self, fl: usize, faults: FaultProfile) -> bool {
        faults.loss > 0.0 && self.fault[fl].gen_bool(faults.loss)
    }

    /// Reserves the shared medium for `bytes` and returns the serialization
    /// delay from `now` until the transmission has fully left the sender
    /// (queueing behind earlier transmissions included). Zero-rate = ideal.
    fn reserve_medium(&mut self, scope: Scope, fl: usize, bytes: u32, world: &World<'_>) -> SimTime {
        let rate_kbps = match scope {
            Scope::Lan => world.cfg.lan_rate_kbps,
            Scope::Wan => world.cfg.wan_rate_kbps,
        };
        if rate_kbps == 0 {
            return 0;
        }
        // ms = bits / (kbits/s) = bytes*8 / rate_kbps
        let tx_ms = (u64::from(bytes) * 8).div_ceil(u64::from(rate_kbps)).max(1);
        let busy = match scope {
            Scope::Lan => &mut self.lan_busy_until[fl],
            Scope::Wan => &mut self.wan_busy_until[fl],
        };
        let start = (*busy).max(self.core.now);
        *busy = start + tx_ms;
        *busy - self.core.now
    }

    fn sample_loss(&mut self, scope: Scope, fl: usize, world: &World<'_>) -> bool {
        let p = match scope {
            Scope::Lan => world.cfg.lan_loss,
            Scope::Wan => world.cfg.wan_loss,
        };
        p > 0.0 && self.link[fl].gen_bool(p)
    }

    fn sample_latency(&mut self, scope: Scope, fl: usize, world: &World<'_>) -> SimTime {
        let (base, jitter) = match scope {
            Scope::Lan => (world.cfg.lan_latency, world.cfg.lan_jitter),
            Scope::Wan => (world.cfg.wan_latency, world.cfg.wan_jitter),
        };
        base + if jitter > 0 { self.link[fl].gen_range(0..=jitter) } else { 0 }
    }
}
