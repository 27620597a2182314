//! Allocation audit for the engine's hot loop.
//!
//! A million-node run is memory-bound, so the steady-state event loop must
//! not allocate: wheel buckets, timer tables, and action scratch all reach
//! their high-water capacity during warmup and are reused forever after.
//! This binary installs a counting global allocator and pins that contract:
//!
//! * a timer-only steady state (the idle heartbeat of a big simulation)
//!   performs **zero** allocations per event once warm;
//! * a unicast ping-pong storm allocates at most the one `Rc` payload box
//!   per send (plus a small per-`run_until` constant for the stats
//!   refresh) — delivery, dispatch, and timer bookkeeping add nothing;
//! * a k-destination fan-out allocates exactly one payload box, whatever k
//!   is, while the same traffic sent as k plain unicasts still allocates at
//!   most one box per send.
//!
//! All phases live in one `#[test]` because the counter is process-global
//! and the libtest harness runs separate tests on concurrent threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sds_simnet::{
    Ctx, Destination, LanId, NodeHandler, NodeId, Sim, SimConfig, TimerId, Topology,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Re-arms a fixed-period timer forever; never touches its RNG or sends.
/// The first arming is staggered so the tickers spread across wheel slots.
struct Ticker {
    offset: u64,
    period: u64,
    fired: u64,
}

impl NodeHandler<u64> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(self.offset + 1, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _t: TimerId, _tag: u64) {
        self.fired += 1;
        ctx.set_timer(self.period, 0);
    }
}

/// Returns every received message to its sender, forever.
struct Echo {
    bounces: u64,
}

impl NodeHandler<u64> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.bounces += 1;
        ctx.send(Destination::Unicast(from), msg + 1, 64, "pong");
    }
}

/// Kicks off one ping; thereafter traffic is self-sustaining Echo↔Echo.
struct Kick {
    peer: NodeId,
}

impl NodeHandler<u64> for Kick {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(Destination::Unicast(self.peer), 0, 64, "ping");
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(Destination::Unicast(from), msg + 1, 64, "ping");
    }
}

/// Every tick, sends one payload to each of `sinks`: as one fan-out, or as
/// one plain unicast per sink.
struct Fan {
    sinks: Vec<NodeId>,
    fanout: bool,
    rounds: u64,
}

impl NodeHandler<u64> for Fan {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(1, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _t: TimerId, _tag: u64) {
        self.rounds += 1;
        if self.fanout {
            ctx.send_fanout(self.sinks.iter().copied(), self.rounds, 64, "fan");
        } else {
            for &to in &self.sinks {
                ctx.send(Destination::Unicast(to), self.rounds, 64, "fan");
            }
        }
        ctx.set_timer(1, 0);
    }
}

/// Receives and drops everything (the default handler).
struct Sink;

impl NodeHandler<u64> for Sink {}

/// A warm fan-out world of `k` sinks: returns the allocations, rounds and
/// sends of 10 000 measured ticks.
fn fan_storm(k: usize, fanout: bool) -> (u64, u64, u64) {
    let mut topo = Topology::new();
    let lan: LanId = topo.add_lan();
    let mut sim: Sim<u64> = Sim::new(quiet_net(), topo, 44);
    let sinks: Vec<NodeId> = (0..k).map(|_| sim.add_node(lan, Box::new(Sink))).collect();
    let fan = sim.add_node(lan, Box::new(Fan { sinks, fanout, rounds: 0 }));
    // Two full wheel wraps: every bucket the one-tick period visits is warm.
    sim.run_until(10_000);
    let rounds_before = sim.handler::<Fan>(fan).unwrap().rounds;
    let sent_before = sim.stats().total_messages();
    let before = allocations();
    sim.run_until(20_000);
    let allocs = allocations() - before;
    let rounds = sim.handler::<Fan>(fan).unwrap().rounds - rounds_before;
    (allocs, rounds, sim.stats().total_messages() - sent_before)
}

fn quiet_net() -> SimConfig {
    // Deterministic, lossless, unthrottled: every event is pure bookkeeping.
    SimConfig {
        lan_latency: 1,
        lan_jitter: 0,
        wan_latency: 1,
        wan_jitter: 0,
        lan_loss: 0.0,
        wan_loss: 0.0,
        lan_rate_kbps: 0,
        wan_rate_kbps: 0,
        node_capacity: None,
    }
}

#[test]
fn steady_state_hot_loop_does_not_allocate() {
    // ---- Phase 1: timer-only steady state must be allocation-free. ----
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u64> = Sim::new(quiet_net(), topo, 42);
    const TICKERS: u64 = 64;
    let ids: Vec<NodeId> = (0..TICKERS)
        // A power-of-two period divides the 4096-slot wheel span evenly, so
        // each timer revisits the same bucket set forever: after one wrap
        // every bucket the steady state will ever touch is warm. (A period
        // that does not divide the span keeps drifting into cold buckets,
        // whose first push allocates — that is warmup, not steady state.)
        .map(|i| sim.add_node(lan, Box::new(Ticker { offset: i, period: 64, fired: 0 })))
        .collect();

    // Warmup: several full wheel wraps (span 4096) so bucket vectors, the
    // timer-slot table, and scratch buffers all hit steady capacity.
    sim.run_until(40_000);
    let fired_before: u64 = ids.iter().map(|&id| sim.handler::<Ticker>(id).unwrap().fired).sum();
    let before = allocations();
    sim.run_until(60_000);
    let timer_allocs = allocations() - before;
    let fired_during: u64 =
        ids.iter().map(|&id| sim.handler::<Ticker>(id).unwrap().fired).sum::<u64>() - fired_before;
    assert!(fired_during > 15_000, "workload is real: {fired_during} timer events measured");
    assert_eq!(
        timer_allocs, 0,
        "timer steady state allocated {timer_allocs} times over {fired_during} events"
    );

    // ---- Phase 2: unicast storm allocates ≤ 1 Rc box per send. ----
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u64> = Sim::new(quiet_net(), topo, 43);
    const PAIRS: u64 = 16;
    let mut echoes = Vec::new();
    for _ in 0..PAIRS {
        let echo = sim.add_node(lan, Box::new(Echo { bounces: 0 }));
        sim.add_node(lan, Box::new(Kick { peer: echo }));
        echoes.push(echo);
    }
    sim.run_until(20_000);
    let sent_before = sim.stats().total_messages();
    let before = allocations();
    sim.run_until(30_000);
    let storm_allocs = allocations() - before;
    let sent = sim.stats().total_messages() - sent_before;
    assert!(sent > 10_000, "workload is real: {sent} sends measured");
    // One allocation per send (the shared-payload Rc box) plus a small
    // constant for the per-call stats refresh (one by_kind entry per kind).
    assert!(
        storm_allocs <= sent + 16,
        "storm allocated {storm_allocs} times over {sent} sends (> 1/send + slack)"
    );

    // ---- Phase 3: one payload box per fan-out, whatever its width. ----
    let (one, rounds, sent) = fan_storm(1, true);
    assert_eq!((rounds, sent), (10_000, 10_000), "workload is real");
    // One box per fan-out plus the per-call stats-refresh constant.
    assert!(
        (rounds..=rounds + 16).contains(&one),
        "a 1-destination fan-out allocated {one} times over {rounds} fan-outs"
    );
    for k in [4, 32] {
        let (allocs, rounds, sent) = fan_storm(k, true);
        assert_eq!(sent, rounds * k as u64, "every destination is sent to");
        assert_eq!(
            allocs, one,
            "{k}-destination fan-outs allocated {allocs} times, 1-destination ones {one}"
        );
        // The same traffic as plain unicasts: at most one box per send.
        let (allocs, _, sent) = fan_storm(k, false);
        assert!(
            allocs <= sent + 16,
            "{k} unicasts per tick allocated {allocs} times over {sent} sends"
        );
    }
}
