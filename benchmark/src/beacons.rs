//! `lan_beacons`: the bare event core. 20 LANs of 50 trivial nodes, each
//! multicasting one 220-byte beacon per simulated second and answering every
//! 64th delivery with a small unicast. No registry, no codec, no matcher:
//! whatever a tracing hook or an engine change costs per event shows here
//! undiluted. Open loop in simulated time (the schedule is the nodes' own
//! timers), lateness 0 by construction.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use sds_simnet::{
    secs, Ctx, Destination, NodeHandler, NodeId, Sim, SimConfig, SimTime, TimerId, Topology,
};

use crate::catalog::{Metrics, Outcome};
use crate::harness::{run_reps, span, timed, Rep, RunOpts};
use crate::trace::{SpanName, Tracer};

const LANS: usize = 20;
const NODES_PER_LAN: usize = 50;
const BEACON_BYTES: u32 = 220;
const REPLY_BYTES: u32 = 40;
const REPLY_EVERY: u64 = 64;
const BEACON_PERIOD: SimTime = 1_000;
/// Part of set-up: every node started and the beacon phases spread out.
const WARMUP: SimTime = secs(20);
/// Measured phase, one step per simulated second.
const MEASURED: SimTime = secs(150);
const STEP: SimTime = secs(1);
/// 150 steps per repetition and at least three repetitions: p95 has its ten
/// samples beyond.
const TAIL_PCT: f64 = 95.0;

#[derive(Clone, Debug)]
enum Frame {
    Beacon,
    Reply,
}

#[derive(Default)]
struct BeaconNode {
    beacons_heard: u64,
    replies_heard: u64,
}

impl NodeHandler<Frame> for BeaconNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Frame>) {
        let phase = ctx.rng().gen_range(0..BEACON_PERIOD);
        ctx.set_timer(1 + phase, 0);
    }

    fn on_shared_message(&mut self, ctx: &mut Ctx<'_, Frame>, from: NodeId, msg: Rc<Frame>) {
        match *msg {
            Frame::Beacon => {
                self.beacons_heard += 1;
                if self.beacons_heard.is_multiple_of(REPLY_EVERY) {
                    ctx.send(
                        Destination::Unicast(from),
                        Frame::Reply,
                        REPLY_BYTES,
                        "beacon-reply",
                    );
                }
            }
            Frame::Reply => self.replies_heard += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _timer: TimerId, _tag: u64) {
        let lan = ctx.lan();
        ctx.send(
            Destination::Multicast(lan),
            Frame::Beacon,
            BEACON_BYTES,
            "beacon",
        );
        ctx.set_timer(BEACON_PERIOD, 0);
    }
}

fn build(seed: u64, lans: usize, nodes_per_lan: usize) -> (Sim<Frame>, Vec<NodeId>) {
    let mut topo = Topology::new();
    let lan_ids: Vec<_> = (0..lans).map(|_| topo.add_lan()).collect();
    let mut sim: Sim<Frame> = Sim::new(SimConfig::default(), topo, seed);
    let mut nodes = Vec::with_capacity(lans * nodes_per_lan);
    for &lan in &lan_ids {
        for _ in 0..nodes_per_lan {
            nodes.push(sim.add_node(lan, Box::new(BeaconNode::default())));
        }
    }
    (sim, nodes)
}

fn repetition(seed: u64, request: u64, mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
    let (setup_s, (mut sim, nodes)) = timed(|| {
        let mut world = span(&mut tracer, SpanName::Build, request, || {
            build(seed, LANS, NODES_PER_LAN)
        });
        span(&mut tracer, SpanName::Warmup, request, || {
            world.0.run_until(WARMUP)
        });
        world
    });
    sim.reset_stats();
    let events_before = sim.events_processed();
    let (mut queued_max, mut timers_max) = (0usize, 0usize);
    let mut steps = Vec::with_capacity((MEASURED / STEP) as usize);
    let mut t = WARMUP;
    while t < WARMUP + MEASURED {
        t += STEP;
        let start = Instant::now();
        span(&mut tracer, SpanName::RunUntil, request, || {
            sim.run_until(t)
        });
        steps.push(start.elapsed().as_secs_f64());
        queued_max = queued_max.max(sim.queued_event_count());
        timers_max = timers_max.max(sim.pending_timer_count());
    }
    let wall_s: f64 = steps.iter().sum();

    let fold_start = Instant::now();
    let events = sim.events_processed() - events_before;
    let net = sim.stats().clone();
    let (mut beacons, mut replies) = (0u64, 0u64);
    for &n in &nodes {
        let node = sim
            .handler::<BeaconNode>(n)
            .expect("every node is a BeaconNode");
        beacons += node.beacons_heard;
        replies += node.replies_heard;
    }
    let mut transcript = String::new();
    let _ = writeln!(
        transcript,
        "  open loop: {} nodes x 1 beacon/sim-s for {} sim-s, lateness 0 by construction\n  \
         events={events} delivered={} dropped={} multicast_tx={} lan_bytes={} queued_max={queued_max} \
         timers_max={timers_max}; since start: beacons_heard={beacons} replies_heard={replies}",
        nodes.len(),
        MEASURED / 1_000,
        net.delivered_messages,
        net.dropped_messages,
        net.multicast_transmissions,
        net.lan_bytes,
    );
    let mut violations = Vec::new();
    // One beacon per node per second reaches the 49 other nodes of its LAN.
    let expected_tx = (nodes.len() as u64) * (MEASURED / BEACON_PERIOD);
    if net.multicast_transmissions != expected_tx {
        violations.push(format!(
            "{} multicast transmissions in the measured phase, schedule says {expected_tx}",
            net.multicast_transmissions
        ));
    }
    if net.dropped_messages != 0 {
        violations.push(format!(
            "{} messages dropped on a fault-free LAN",
            net.dropped_messages
        ));
    }

    let mut m = Metrics::default();
    m.set("simnet.events", events as f64);
    m.set("simnet.ns_per_event", wall_s * 1e9 / events as f64);
    m.set("simnet.delivered_msgs", net.delivered_messages as f64);
    m.set("simnet.dropped_msgs", net.dropped_messages as f64);
    m.set("simnet.multicast_tx", net.multicast_transmissions as f64);
    m.set("simnet.queued_events_max", queued_max as f64);
    m.set("simnet.pending_timers_max", timers_max as f64);
    m.set(
        "simnet.lan_bytes_per_sim_s",
        net.lan_bytes as f64 / (MEASURED / 1_000) as f64,
    );
    m.set(
        "simnet.wan_bytes_per_sim_s",
        net.wan_bytes as f64 / (MEASURED / 1_000) as f64,
    );
    m.set("metrics.fold_ms", fold_start.elapsed().as_secs_f64() * 1e3);

    Ok(Rep {
        setup_s,
        wall_s,
        steps,
        transcript,
        work: events as f64,
        attempted: events,
        failed: 0,
        violations,
        layers: m,
    })
}

pub fn run(opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let seed = opts.seed;
    run_reps(opts, tracer, TAIL_PCT, |index, tracer| {
        repetition(seed, index, tracer)
    })
}

/// Host nanoseconds the bare engine takes per event on this box, from a
/// short run of a small beacon world. The federated workloads subtract it
/// from their own cost per event to estimate what the handlers add.
pub fn bare_ns_per_event(seed: u64) -> f64 {
    let (mut sim, _) = build(seed, 4, NODES_PER_LAN);
    sim.run_until(secs(20));
    let mut samples: Vec<f64> = (1..=5)
        .map(|k| {
            let before = sim.events_processed();
            let (s, ()) = timed(|| sim.run_until(secs(20 + 60 * k)));
            s * 1e9 / (sim.events_processed() - before) as f64
        })
        .collect();
    crate::stats::median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacons_reach_the_rest_of_their_lan_and_every_64th_is_answered() {
        let (mut sim, nodes) = build(5, 2, 10);
        sim.run_until(secs(30));
        let st = sim.stats();
        // Each beacon reaches the 9 other nodes of its LAN, never the other LAN.
        let beacons = st.multicast_transmissions;
        assert!(
            (20 * 29..=20 * 30).contains(&beacons),
            "{beacons} beacons in 30 s"
        );
        let heard: u64 = nodes
            .iter()
            .map(|&n| sim.handler::<BeaconNode>(n).unwrap().beacons_heard)
            .sum();
        assert!(heard <= beacons * 9 && heard >= (beacons - 20) * 9);
        let replies: u64 = nodes
            .iter()
            .map(|&n| sim.handler::<BeaconNode>(n).unwrap().replies_heard)
            .sum();
        assert!(replies > 0 && replies <= heard / REPLY_EVERY);
        assert_eq!(st.wan_bytes, 0);
    }
}
