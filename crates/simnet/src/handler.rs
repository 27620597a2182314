//! The node-side API: the [`NodeHandler`] trait protocol roles implement and
//! the [`Ctx`] through which they act on the network. Everything a `Ctx`
//! hands out is scoped to its node (RNG stream, timer ids), so the draws
//! and ids a handler sees never depend on how LANs are grouped into domains.

use std::any::Any;
use std::rc::Rc;

use sds_rand::{Rng, Seed};

use crate::ids::{LanId, NodeId, TimerId};
use crate::message::{Destination, MsgKind};
use crate::time::SimTime;

/// Blanket upcast to [`Any`] so tests and metric collectors can downcast a
/// boxed handler back to its concrete role type.
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Materializes an owned payload from a shared in-flight delivery: free
/// (a move) when this was the last queued copy, one clone otherwise.
pub fn take_payload<P: Clone>(msg: Rc<P>) -> P {
    Rc::try_unwrap(msg).unwrap_or_else(|rc| (*rc).clone())
}

/// Behaviour of one node. A node may play any of the paper's three roles
/// (client, service, registry) — or several at once, in which case the
/// handler composes them.
///
/// Handlers are driven entirely by the engine: `on_start` when the node
/// (re)boots, `on_shared_message` for each delivered payload, `on_timer` for
/// each timer that fires. All side effects go through the [`Ctx`]; they are
/// applied by the engine after the callback returns.
///
/// Payloads travel the network reference-counted: one multicast, and one
/// unicast fan-out ([`Ctx::send_fanout`]), enqueues a single shared payload
/// for every receiver. Handlers that only *read* a delivery override
/// [`NodeHandler::on_shared_message`] and never pay a clone; handlers that
/// want ownership implement the plain
/// [`NodeHandler::on_message`], which the default `on_shared_message`
/// forwards to after materializing an owned copy (free when this was the
/// last in-flight copy).
///
/// Handlers must be `Send`: the engine moves whole LAN domains —
/// handlers included — across worker threads between lookahead windows.
/// (Within a window a handler is only ever touched by the one thread
/// running its domain, so `Sync` is not required.)
pub trait NodeHandler<P>: AsAny + Send + 'static {
    /// Called once when the node is added, and again each time it is revived
    /// after a crash. A revived node keeps its Rust state; handlers that
    /// should lose soft state on crash must reset themselves here.
    fn on_start(&mut self, ctx: &mut Ctx<'_, P>) {
        let _ = ctx;
    }

    /// A message addressed to (or multicast past) this node arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, P>, from: NodeId, msg: P) {
        let _ = (ctx, from, msg);
    }

    /// The delivery entry point the engine calls: the payload arrives behind
    /// a shared `Rc` (other receivers of the same multicast or fan-out, or
    /// duplicated copies, may still hold references). The default
    /// materializes an owned copy via [`take_payload`] and forwards to
    /// [`NodeHandler::on_message`]; override this to read the payload
    /// without cloning it.
    fn on_shared_message(&mut self, ctx: &mut Ctx<'_, P>, from: NodeId, msg: Rc<P>)
    where
        P: Clone,
    {
        self.on_message(ctx, from, take_payload(msg));
    }

    /// A timer set through [`Ctx::set_timer`] fired. `tag` is the caller's
    /// discriminator.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }
}

/// Action queued by a handler, applied by the engine afterwards.
pub(crate) enum Action<P> {
    Send {
        dest: Destination,
        payload: P,
        bytes: u32,
        kind: MsgKind,
    },
    /// One payload unicast to the next `dests` entries of the `Ctx`'s
    /// fan-out list, in order. The list lives outside the action, so this
    /// variant is no wider than `Send`.
    FanOut {
        payload: P,
        dests: u32,
        bytes: u32,
        kind: MsgKind,
    },
    SetTimer {
        id: TimerId,
        fire_at: SimTime,
        tag: u64,
    },
    CancelTimer(TimerId),
}

/// Execution context handed to a handler callback. Collects the handler's
/// outgoing messages ([`Ctx::send`] for one destination,
/// [`Ctx::send_fanout`] for one payload to many unicast destinations) and
/// timer operations, and exposes the node's identity, the simulated clock,
/// and the node's private deterministic RNG.
pub struct Ctx<'a, P> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) lan: LanId,
    pub(crate) seed: Seed,
    /// Lazily materialized *and boxed*: a node that never draws never seeds
    /// a stream, and its slot in the struct-of-arrays node table costs one
    /// pointer instead of an inline generator state (see [`Ctx::rng`]).
    pub(crate) rng: &'a mut Option<Box<Rng>>,
    /// This node's timer-id counter. Ids are `(node << 32) | ctr`, so
    /// allocation is domain-local (no shared counter to serialize on) yet
    /// ids stay globally unique.
    pub(crate) timer_ctr: &'a mut u32,
    pub(crate) actions: Vec<Action<P>>,
    /// Destinations of this callback's fan-outs, in send order; a buffer
    /// the domain reuses, so a fan-out allocates only its payload box.
    pub(crate) fanout: &'a mut Vec<NodeId>,
}

impl<P> Ctx<'_, P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The LAN this node is attached to. (A node knows its own link — it does
    /// not get topology-wide knowledge.)
    pub fn lan(&self) -> LanId {
        self.lan
    }

    /// This node's deterministic private RNG. Each node's stream is derived
    /// independently from the simulation seed, so one handler drawing more
    /// (or fewer) values never perturbs another node's behaviour. The stream
    /// is materialized on first draw — the stream state is a pure function
    /// of the derived seed, so lazy creation yields exactly the values eager
    /// creation did, and nodes that never draw cost nothing.
    pub fn rng(&mut self) -> &mut Rng {
        let seed = self.seed;
        &mut *self.rng.get_or_insert_with(|| Box::new(seed.rng()))
    }

    /// Derives a fresh deterministic RNG stream for this node, keyed by
    /// `label`. Streams are independent of the node's main [`Ctx::rng`]
    /// stream and of each other, so optional machinery (retry jitter,
    /// probation backoff) can draw freely without perturbing the draws —
    /// and hence the behaviour — of code that does not use it.
    pub fn derive_rng(&self, label: &str) -> Rng {
        self.seed.derive(label).rng()
    }

    /// Queues a message. `bytes` is the on-the-wire size used for bandwidth
    /// accounting; `kind` is a diagnostic label.
    pub fn send(&mut self, dest: Destination, payload: P, bytes: u32, kind: MsgKind) {
        self.actions.push(Action::Send { dest, payload, bytes, kind });
    }

    /// Queues one payload for unicast to every node of `to`, in order: the
    /// same deliveries, draws, byte charges and stats as one
    /// [`Ctx::send`] of a clone per destination, but the engine boxes the
    /// payload once and every in-domain receiver shares that box (a leg into
    /// another domain carries its own copy). An empty `to` sends nothing.
    pub fn send_fanout(
        &mut self,
        to: impl IntoIterator<Item = NodeId>,
        payload: P,
        bytes: u32,
        kind: MsgKind,
    ) {
        let start = self.fanout.len();
        self.fanout.extend(to);
        let dests = (self.fanout.len() - start) as u32;
        if dests > 0 {
            self.actions.push(Action::FanOut { payload, dests, bytes, kind });
        }
    }

    /// Schedules `on_timer` to fire after `delay` with the given tag and
    /// returns a handle that can cancel it.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) -> TimerId {
        let id = TimerId((u64::from(self.node.0) << 32) | u64::from(*self.timer_ctr));
        *self.timer_ctr += 1;
        self.actions.push(Action::SetTimer { id, fire_at: self.now.saturating_add(delay), tag });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }
}
