//! Property tests for partition plans and worker threads, under the
//! in-workspace seeded harness (`sds_rand::check`).
//!
//! Three guarantees are pinned over *randomized* topologies and traffic
//! (the third, `plans_differ_only_in_same_time_order`, is documented at
//! the test):
//!
//! * **Worker-count invariance** — the full observable world (every node's
//!   receive log with timestamps, the merged stats, final clock, event
//!   count) is a pure function of the seed and the partition plan; thread
//!   count and scheduling must not leak in. This is exercised with faults,
//!   jitter, churn, and rate limits on, because those are the paths where a
//!   stray shared RNG or racing counter would show up.
//! * **Cross-LAN handoff order** — with deterministic latency (no jitter,
//!   no faults), two messages from one sender to one receiver can never
//!   overtake each other, even when the delivery crosses a domain boundary
//!   through the outbox/mailbox handoff: the merged dispatch order is the
//!   `(at, seq)` order the sends were stamped with. Receive logs must also
//!   be globally time-nondecreasing per node.

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;
use sds_simnet::{
    ControlAction, Ctx, Destination, FaultProfile, LanId, NodeHandler, NodeId, PartitionPlan,
    Sim, SimConfig, TimerId, Topology,
};

/// Records every delivery with its arrival time; replies to `Ping` markers
/// so traffic keeps crossing LAN boundaries without external driving.
#[derive(Default)]
struct Probe {
    received: Vec<(u64, NodeId, u64)>,
    timers: Vec<(u64, u64)>,
}

/// Payload: high 32 bits sender-chosen marker, low 32 bits a per-sender
/// sequence number (the observable stand-in for the engine's `(at, seq)`
/// stamp).
impl NodeHandler<u64> for Probe {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.received.push((ctx.now(), from, msg));
        // Echo every 4th message back, so runs contain handler-originated
        // cross-domain traffic, not just externally scripted sends.
        if msg % 4 == 0 {
            ctx.send(Destination::Unicast(from), msg | 1, 48, "echo");
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _t: TimerId, tag: u64) {
        self.timers.push((ctx.now(), tag));
    }
}

struct ArbWorld {
    cfg: SimConfig,
    lans: usize,
    nodes_per_lan: usize,
    plan: PartitionPlan,
}

fn arb_world(rng: &mut Rng, faulty: bool) -> ArbWorld {
    let lans = rng.gen_range(2..6usize);
    ArbWorld {
        cfg: SimConfig {
            lan_latency: rng.gen_range(1..4u64),
            lan_jitter: if faulty { rng.gen_range(0..3u64) } else { 0 },
            wan_latency: rng.gen_range(1..30u64),
            wan_jitter: if faulty { rng.gen_range(0..10u64) } else { 0 },
            lan_loss: if faulty { 0.05 } else { 0.0 },
            wan_loss: if faulty { 0.05 } else { 0.0 },
            lan_rate_kbps: if faulty { 256 } else { 0 },
            wan_rate_kbps: if faulty { 64 } else { 0 },
            node_capacity: None,
        },
        lans,
        nodes_per_lan: rng.gen_range(1..4usize),
        plan: if rng.gen_bool(0.5) {
            PartitionPlan::PerLan
        } else {
            PartitionPlan::Domains(rng.gen_range(1..=lans))
        },
    }
}

struct Built {
    sim: Sim<u64>,
    ids: Vec<NodeId>,
    lans: Vec<LanId>,
}

fn build(w: &ArbWorld, seed: u64, workers: usize) -> Built {
    let mut topo = Topology::new();
    let lans: Vec<LanId> = (0..w.lans).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<u64> = Sim::new_partitioned(w.cfg.clone(), topo, seed, w.plan);
    sim.set_workers(workers);
    let ids: Vec<NodeId> = (0..w.lans * w.nodes_per_lan)
        .map(|i| sim.add_node(lans[i % w.lans], Box::<Probe>::default()))
        .collect();
    Built { sim, ids, lans }
}

/// One scripted burst: `from` unicasts `count` consecutively numbered
/// messages to `to` at time `at`.
#[derive(Clone)]
struct Burst {
    at: u64,
    from: usize,
    to: usize,
    count: u32,
    marker: u32,
}

fn arb_burst(rng: &mut Rng, nodes: usize) -> Burst {
    Burst {
        at: rng.gen_range(0..2_000u64),
        from: rng.gen_range(0..nodes),
        to: rng.gen_range(0..nodes),
        count: rng.gen_range(1..6u32),
        marker: rng.gen_range(0..1_000u32),
    }
}

/// Everything observable about a finished run.
type WorldState = (u64, u64, Vec<Vec<(u64, NodeId, u64)>>, Vec<Vec<(u64, u64)>>, Vec<u64>);

fn run_world(w: &ArbWorld, bursts: &[Burst], faulty: bool, seed: u64, workers: usize) -> WorldState {
    let mut b = build(w, seed, workers);
    if faulty {
        // Fault windows on two LANs plus a mid-run crash/revive of node 0,
        // scheduled through the control plane (applied at barriers).
        let prof = FaultProfile { loss: 0.1, duplicate: 0.15, corrupt: 0.0, reorder_jitter: 7 };
        b.sim.schedule(100, ControlAction::SetLanFaults(b.lans[0], prof));
        b.sim.schedule(150, ControlAction::SetWanFaults(prof));
        b.sim.schedule(900, ControlAction::Crash(b.ids[0]));
        b.sim.schedule(1_400, ControlAction::Revive(b.ids[0]));
        b.sim.schedule(1_700, ControlAction::SetLanFaults(b.lans[0], FaultProfile::default()));
    }
    let mut sorted: Vec<Burst> = bursts.to_vec();
    sorted.sort_by_key(|x| x.at);
    for burst in &sorted {
        if b.sim.now() < burst.at {
            b.sim.run_until(burst.at);
        }
        let target = b.ids[burst.to];
        b.sim.with_node::<Probe>(b.ids[burst.from], |_, ctx| {
            for i in 0..burst.count {
                let payload = (u64::from(burst.marker) << 32) | u64::from(i << 2);
                ctx.send(Destination::Unicast(target), payload, 64, "burst");
            }
            ctx.set_timer(u64::from(burst.count) * 3 + 1, u64::from(burst.marker));
        });
    }
    let end = b.sim.run_to_quiescence(1_000_000);
    let received =
        b.ids.iter().map(|&id| b.sim.handler::<Probe>(id).unwrap().received.clone()).collect();
    let timers =
        b.ids.iter().map(|&id| b.sim.handler::<Probe>(id).unwrap().timers.clone()).collect();
    let st = b.sim.stats();
    (
        end,
        b.sim.events_processed(),
        received,
        timers,
        vec![
            st.total_messages(),
            st.total_bytes(),
            st.delivered_messages,
            st.dropped_messages,
            st.duplicated_messages,
            st.reorder_delayed_messages,
        ],
    )
}

/// Worker-count invariance over randomized faulty worlds: 1, 2, and 5
/// workers must produce byte-identical observable state.
#[test]
fn randomized_worlds_are_worker_count_invariant() {
    Checker::new("randomized_worlds_are_worker_count_invariant").cases(24).run(|rng| {
        let w = arb_world(rng, true);
        let nodes = w.lans * w.nodes_per_lan;
        let bursts = gen::vec_of(rng, 1, 20, |r| arb_burst(r, nodes));
        let seed = rng.next_u64();
        let base = run_world(&w, &bursts, true, seed, 1);
        for workers in [2, 5] {
            let got = run_world(&w, &bursts, true, seed, workers);
            assert_eq!(got, base, "workers={workers} diverged from workers=1");
        }
    });
}

/// With deterministic latency, the cross-LAN mailbox handoff preserves
/// `(at, seq)` dispatch order: per (sender → receiver) pair the bursts'
/// sequence numbers arrive in send order, and each node's receive log is
/// time-nondecreasing.
#[test]
fn cross_lan_handoff_preserves_send_order() {
    Checker::new("cross_lan_handoff_preserves_send_order").cases(32).run(|rng| {
        let w = arb_world(rng, false);
        let nodes = w.lans * w.nodes_per_lan;
        let bursts = gen::vec_of(rng, 1, 16, |r| arb_burst(r, nodes));
        let (_, _, received, _, stats) = run_world(&w, &bursts, false, rng.next_u64(), 3);
        assert_eq!(stats[3], 0, "no loss configured: nothing may drop");
        for (node, log) in received.iter().enumerate() {
            // Global per-node dispatch order is time-nondecreasing.
            for pair in log.windows(2) {
                assert!(
                    pair[0].0 <= pair[1].0,
                    "node {node}: dispatch went backwards: {pair:?}"
                );
            }
            // Per sender and marker, burst sequence numbers appear in send
            // order (fixed latency ⇒ FIFO per pair, even across domains).
            for &(_, from, _) in log {
                let mut last: Option<(u64, u64)> = None;
                for &(_, f, payload) in log.iter().filter(|&&(_, f, _)| f == from) {
                    let (marker, seq) = (payload >> 32, (payload & 0xFFFF_FFFF) >> 2);
                    if payload & 1 == 0 {
                        if let Some((lm, ls)) = last {
                            if lm == marker {
                                assert!(
                                    ls <= seq,
                                    "sender {f} marker {marker}: seq {seq} overtook {ls}"
                                );
                            }
                        }
                        last = Some((marker, seq));
                    }
                }
            }
        }
    });
}

/// Every plan runs the same engine with the same per-LAN streams, uplinks
/// and timer ids, so plans may differ only in how same-time events of
/// different domains interleave. With no jitter, no faults and no rate
/// limit nothing draws or queues, so `Single`, `Domains(k)` and `PerLan`
/// must agree on every node's receive and timer log once each is sorted,
/// and on stats, event count and final clock.
#[test]
fn plans_differ_only_in_same_time_order() {
    Checker::new("plans_differ_only_in_same_time_order").cases(24).run(|rng| {
        let mut w = arb_world(rng, false);
        let nodes = w.lans * w.nodes_per_lan;
        let bursts = gen::vec_of(rng, 1, 16, |r| arb_burst(r, nodes));
        let seed = rng.next_u64();
        let k = rng.gen_range(2..=w.lans);
        let sorted = |mut s: WorldState| {
            s.2.iter_mut().for_each(|log| log.sort_unstable());
            s.3.iter_mut().for_each(|log| log.sort_unstable());
            s
        };
        w.plan = PartitionPlan::Single;
        let single = sorted(run_world(&w, &bursts, false, seed, 1));
        for plan in [PartitionPlan::Domains(k), PartitionPlan::PerLan] {
            w.plan = plan;
            assert_eq!(sorted(run_world(&w, &bursts, false, seed, 2)), single, "{plan:?}");
        }
    });
}
