//! A unicast fan-out is N sends that share one payload box.
//!
//! [`Ctx::send_fanout`] must be observably identical to one [`Ctx::send`]
//! of a clone per destination, in order: the same deliveries (time,
//! receiver, sender, payload) in the same order, the same `NetStats`, the
//! same event count and final clock. This is checked over randomized worlds
//! under base loss, jitter and rate limits plus fault-injected loss,
//! duplication, reordering and corruption, with a cut WAN pair, loopback
//! and black-hole destinations, in one domain and with one domain per LAN
//! (where every WAN leg of a fan-out crosses into another domain). In fan-out
//! mode every uncorrupted copy delivered inside the sender's domain must be
//! the sender's one allocation.

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;
use sds_simnet::{
    Ctx, Destination, FaultProfile, LanId, NodeHandler, NodeId, PartitionPlan, Sim, SimConfig,
    Topology,
};

/// Records every delivery, and the address of the payload box it came in.
#[derive(Default)]
struct Probe {
    log: Vec<(u64, NodeId, u64)>,
    boxes: Vec<(u64, usize)>,
}

impl NodeHandler<u64> for Probe {
    fn on_shared_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: Rc<u64>) {
        self.log.push((ctx.now(), from, *msg));
        // The address, not the `Rc`: handlers are `Send` and keep no `Rc`.
        // Every copy of one fan-out is queued before the first is
        // dispatched, so its box is alive, and its address unique, until
        // the last in-domain copy arrives.
        self.boxes.push((*msg, Rc::as_ptr(&msg) as usize));
    }
}

/// Fan-out payloads are `i << 16`; the corruptor sets low bits, so a
/// corrupted copy never equals any original.
const LOW: u64 = 0xFFFF;

struct World {
    cfg: SimConfig,
    lans: usize,
    nodes_per_lan: usize,
    lan_faults: FaultProfile,
    wan_faults: FaultProfile,
    cut: bool,
    /// `(at, sender, destinations)`, destinations as node indices; an index
    /// past the last node is a black hole.
    fanouts: Vec<(u64, usize, Vec<usize>)>,
}

fn arb_faults(rng: &mut Rng) -> FaultProfile {
    FaultProfile {
        loss: rng.gen_range(0..20u64) as f64 / 100.0,
        duplicate: rng.gen_range(0..40u64) as f64 / 100.0,
        corrupt: rng.gen_range(0..40u64) as f64 / 100.0,
        reorder_jitter: rng.gen_range(0..8u64),
    }
}

fn arb_world(rng: &mut Rng) -> World {
    let lans = rng.gen_range(2..5usize);
    let nodes_per_lan = rng.gen_range(2..5usize);
    let nodes = lans * nodes_per_lan;
    World {
        cfg: SimConfig {
            lan_latency: rng.gen_range(1..4u64),
            lan_jitter: rng.gen_range(0..3u64),
            wan_latency: rng.gen_range(5..30u64),
            wan_jitter: rng.gen_range(0..10u64),
            lan_loss: 0.05,
            wan_loss: 0.05,
            lan_rate_kbps: if rng.gen_bool(0.5) { 256 } else { 0 },
            wan_rate_kbps: if rng.gen_bool(0.5) { 64 } else { 0 },
            node_capacity: None,
        },
        lans,
        nodes_per_lan,
        lan_faults: arb_faults(rng),
        wan_faults: arb_faults(rng),
        cut: rng.gen_bool(0.5),
        fanouts: gen::vec_of(rng, 1, 12, |r| {
            let at = r.gen_range(0..500u64);
            let sender = r.gen_range(0..nodes);
            let dests = gen::vec_of(r, 0, 2 * nodes, |r| r.gen_range(0..=nodes));
            (at, sender, dests)
        }),
    }
}

/// What a run shows: every node's delivery log, the stats, the event count
/// and the final clock.
type Observed = (Vec<Vec<(u64, NodeId, u64)>>, String, u64, u64);

/// Runs `w` under `plan`, sending each scripted fan-out with one
/// `send_fanout` (`fanout`) or one `send` per destination. Returns what was
/// observed and, per node, the boxes its deliveries came in.
fn run(
    w: &World,
    plan: PartitionPlan,
    seed: u64,
    fanout: bool,
) -> (Observed, Vec<Vec<(u64, usize)>>) {
    let mut topo = Topology::new();
    let lans: Vec<LanId> = (0..w.lans).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<u64> = Sim::new_partitioned(w.cfg.clone(), topo, seed, plan);
    let ids: Vec<NodeId> = (0..w.lans * w.nodes_per_lan)
        .map(|i| sim.add_node(lans[i % w.lans], Box::<Probe>::default()))
        .collect();
    for &lan in &lans {
        sim.set_lan_faults(lan, w.lan_faults);
    }
    sim.set_wan_faults(w.wan_faults);
    if w.cut {
        sim.cut_wan_pair(lans[0], lans[1]);
    }
    sim.set_corruptor_factory(|| {
        Box::new(|rng: &mut Rng, &p: &u64| {
            // Destroys a quarter of the corrupted frames, like an
            // undecodable mutation.
            (!rng.gen_bool(0.25)).then(|| p | rng.gen_range(1..=LOW))
        })
    });
    let mut script = w.fanouts.clone();
    script.sort_by_key(|f| f.0);
    for (i, (at, sender, dests)) in script.into_iter().enumerate() {
        if sim.now() < at {
            sim.run_until(at);
        }
        let payload = (i as u64 + 1) << 16;
        let to: Vec<NodeId> = dests
            .iter()
            .map(|&d| ids.get(d).copied().unwrap_or(NodeId(9_999)))
            .collect();
        sim.with_node::<Probe>(ids[sender], |_, ctx| {
            if fanout {
                ctx.send_fanout(to.iter().copied(), payload, 100, "fan");
            } else {
                for &d in &to {
                    ctx.send(Destination::Unicast(d), payload, 100, "fan");
                }
            }
        });
    }
    let end = sim.run_to_quiescence(1_000_000);
    let probe = |id: NodeId| sim.handler::<Probe>(id).expect("probe");
    let logs = ids.iter().map(|&id| probe(id).log.clone()).collect();
    let boxes = ids.iter().map(|&id| probe(id).boxes.clone()).collect();
    (
        (
            logs,
            format!("{:?}", sim.stats()),
            sim.events_processed(),
            end,
        ),
        boxes,
    )
}

#[test]
fn fanout_equals_one_send_per_destination() {
    Checker::new("fanout_equals_one_send_per_destination")
        .cases(48)
        .run(|rng| {
            let w = arb_world(rng);
            let seed = rng.next_u64();
            for plan in [PartitionPlan::Single, PartitionPlan::PerLan] {
                let (sent, _) = run(&w, plan, seed, false);
                let (fanned, boxes) = run(&w, plan, seed, true);
                assert_eq!(
                    fanned, sent,
                    "{plan:?}: fan-out diverged from per-destination sends"
                );

                // Box sharing: group in-domain, uncorrupted deliveries by
                // payload; each group must be one address.
                let mut shared: Vec<(u64, usize)> = Vec::new();
                for (to, (log, boxes)) in fanned.0.iter().zip(&boxes).enumerate() {
                    for (&(_, from, value), &(_, addr)) in log.iter().zip(boxes) {
                        let same_domain =
                            plan == PartitionPlan::Single || from.index() % w.lans == to % w.lans;
                        if same_domain && value & LOW == 0 {
                            match shared.iter().find(|&&(v, _)| v == value) {
                                Some(&(_, first)) => {
                                    assert_eq!(addr, first, "{plan:?}: payload {value:#x} copied")
                                }
                                None => shared.push((value, addr)),
                            }
                        }
                    }
                }
            }
        });
}

/// The randomized property above must exercise what it claims: on a fixed
/// world, fan-outs with more in-domain receivers than one are delivered
/// shared, and duplication, corruption, loss and cross-domain legs all
/// occur.
#[test]
fn fanout_property_exercises_every_fault() {
    let w = World {
        cfg: SimConfig {
            lan_latency: 2,
            lan_jitter: 1,
            wan_latency: 10,
            wan_jitter: 4,
            lan_loss: 0.05,
            wan_loss: 0.05,
            lan_rate_kbps: 256,
            wan_rate_kbps: 64,
            node_capacity: None,
        },
        lans: 3,
        nodes_per_lan: 4,
        lan_faults: FaultProfile {
            loss: 0.1,
            duplicate: 0.3,
            corrupt: 0.3,
            reorder_jitter: 5,
        },
        wan_faults: FaultProfile {
            loss: 0.1,
            duplicate: 0.3,
            corrupt: 0.3,
            reorder_jitter: 5,
        },
        cut: true,
        fanouts: (0..20)
            .map(|i| (i * 25, i as usize % 12, (0..=12).collect()))
            .collect(),
    };
    let ((logs, stats, _, _), boxes) = run(&w, PartitionPlan::PerLan, 7, true);
    assert_eq!(logs, run(&w, PartitionPlan::PerLan, 7, false).0 .0);
    for needle in [
        " duplicated_messages: 0,",
        " corrupted_messages: 0,",
        " dropped_messages: 0,",
    ] {
        assert!(!stats.contains(needle), "{needle} in {stats}");
    }
    let mut in_domain = Vec::new();
    let mut cross = 0;
    for (to, log) in logs.iter().enumerate() {
        for (&(_, from, value), &(_, addr)) in log.iter().zip(&boxes[to]) {
            if from.index() % 3 != to % 3 {
                cross += 1;
            } else if value & LOW == 0 {
                in_domain.push((value, addr));
            }
        }
    }
    let shared_copies = in_domain
        .iter()
        .filter(|&c| in_domain.iter().filter(|&d| d == c).count() > 1)
        .count();
    assert!(
        shared_copies > 50,
        "only {shared_copies} in-domain copies shared a box"
    );
    assert!(cross > 50, "only {cross} cross-domain deliveries");
}

/// Counts its clones, so a test can see how many owned copies the engine
/// made.
struct Counted(u64);

static CLONES: AtomicUsize = AtomicUsize::new(0);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

/// Reads each delivery in place, so receiving makes no copy.
#[derive(Default)]
struct Sink(Vec<u64>);

impl NodeHandler<Counted> for Sink {
    fn on_shared_message(&mut self, _: &mut Ctx<'_, Counted>, _: NodeId, msg: Rc<Counted>) {
        self.0.push(msg.0);
    }
}

/// A leg into another domain takes an owned copy, and the fan-out's last
/// leg takes the box itself: when every other leg has crossed out too, it
/// moves the payload instead of cloning it. An in-domain leg keeps the box
/// shared, so then every cross-domain leg clones.
#[test]
fn a_cross_domain_last_leg_moves_the_payload() {
    let mut topo = Topology::new();
    let lans: Vec<LanId> = (0..3).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<Counted> =
        Sim::new_partitioned(SimConfig::default(), topo, 1, PartitionPlan::PerLan);
    let ids: Vec<NodeId> = [0, 0, 1, 1, 2]
        .iter()
        .map(|&l| sim.add_node(lans[l], Box::<Sink>::default()))
        .collect();
    let (sender, local, cross) = (ids[0], ids[1], [ids[2], ids[3], ids[4]]);
    for (payload, to, clones) in [
        (1, vec![cross[0], cross[1], cross[2]], 2),
        (2, vec![cross[0], cross[2], local], 2),
    ] {
        CLONES.store(0, Ordering::Relaxed);
        sim.with_node::<Sink>(sender, |_, ctx| {
            ctx.send_fanout(to.iter().copied(), Counted(payload), 100, "fan")
        });
        sim.run_to_quiescence(1_000);
        assert_eq!(CLONES.load(Ordering::Relaxed), clones, "payload {payload}");
        for &d in &to {
            assert_eq!(
                sim.handler::<Sink>(d).expect("sink").0.last(),
                Some(&payload)
            );
        }
    }
}
