//! Tests for the shared-medium bandwidth model.

use sds_simnet::{Ctx, Destination, NodeHandler, NodeId, Sim, SimConfig, Topology};

#[derive(Default)]
struct Recorder {
    arrivals: Vec<(u64, u32)>, // (time, marker)
}

impl NodeHandler<u32> for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        self.arrivals.push((ctx.now(), msg));
    }
}

struct Blaster {
    target: NodeId,
    count: u32,
    bytes: u32,
}

impl NodeHandler<u32> for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for i in 0..self.count {
            ctx.send(Destination::Unicast(self.target), i, self.bytes, "blast");
        }
    }
}

fn cfg(lan_rate_kbps: u32, wan_rate_kbps: u32) -> SimConfig {
    SimConfig {
        lan_latency: 1,
        lan_jitter: 0,
        wan_latency: 20,
        wan_jitter: 0,
        lan_rate_kbps,
        wan_rate_kbps,
        ..SimConfig::default()
    }
}

#[test]
fn zero_rate_means_no_serialization_delay() {
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u32> = Sim::new(cfg(0, 0), topo, 1);
    let rx = sim.add_node(lan, Box::<Recorder>::default());
    let _tx = sim.add_node(lan, Box::new(Blaster { target: rx, count: 10, bytes: 10_000 }));
    sim.run_until(1_000);
    let arrivals = &sim.handler::<Recorder>(rx).unwrap().arrivals;
    assert_eq!(arrivals.len(), 10);
    assert!(arrivals.iter().all(|&(t, _)| t == 1), "all delivered after pure latency: {arrivals:?}");
}

#[test]
fn lan_transmissions_serialize_at_the_configured_rate() {
    // 80 kbps; 1 000-byte messages → 8 000 bits / 80 kbps = 100 ms each.
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u32> = Sim::new(cfg(80, 0), topo, 2);
    let rx = sim.add_node(lan, Box::<Recorder>::default());
    let _tx = sim.add_node(lan, Box::new(Blaster { target: rx, count: 5, bytes: 1_000 }));
    sim.run_until(10_000);
    let arrivals = &sim.handler::<Recorder>(rx).unwrap().arrivals;
    assert_eq!(arrivals.len(), 5);
    // i-th message leaves the medium at (i+1)*100 ms, +1 ms latency.
    for (i, &(t, _)) in arrivals.iter().enumerate() {
        assert_eq!(t, (i as u64 + 1) * 100 + 1, "arrival {i}: {arrivals:?}");
    }
}

#[test]
fn each_lan_has_its_own_wan_uplink() {
    // WAN: 80 kbps per LAN uplink; LAN unlimited. A 1 000-byte message
    // takes 100 ms to serialize, then 20 ms of latency.
    let run = |senders_on_b: bool| {
        let mut topo = Topology::new();
        let lan_a = topo.add_lan();
        let lan_b = topo.add_lan();
        let mut sim: Sim<u32> = Sim::new(cfg(0, 80), topo, 3);
        let rx_a = sim.add_node(lan_a, Box::<Recorder>::default());
        let rx_b = sim.add_node(lan_b, Box::<Recorder>::default());
        let (first_lan, first_rx) = (lan_b, rx_a);
        let (second_lan, second_rx) = if senders_on_b { (lan_b, rx_a) } else { (lan_a, rx_b) };
        sim.add_node(first_lan, Box::new(Blaster { target: first_rx, count: 1, bytes: 1_000 }));
        sim.add_node(second_lan, Box::new(Blaster { target: second_rx, count: 1, bytes: 1_000 }));
        sim.run_until(10_000);
        let mut times: Vec<u64> = [rx_a, rx_b]
            .iter()
            .flat_map(|&rx| sim.handler::<Recorder>(rx).unwrap().arrivals.clone())
            .map(|(t, _)| t)
            .collect();
        times.sort_unstable();
        times
    };
    assert_eq!(run(true), vec![120, 220], "two senders on one LAN queue on its uplink");
    assert_eq!(run(false), vec![120, 120], "senders on two LANs do not wait for each other");
}

#[test]
fn multicast_charges_the_medium_once() {
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u32> = Sim::new(cfg(80, 0), topo, 4);
    let rx1 = sim.add_node(lan, Box::<Recorder>::default());
    let rx2 = sim.add_node(lan, Box::<Recorder>::default());

    struct Caster;
    impl NodeHandler<u32> for Caster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let lan = ctx.lan();
            ctx.send(Destination::Multicast(lan), 7, 1_000, "mc");
        }
    }
    let _tx = sim.add_node(lan, Box::new(Caster));
    sim.run_until(1_000);
    // Both receivers get it after ONE serialization interval (broadcast).
    for rx in [rx1, rx2] {
        let arrivals = &sim.handler::<Recorder>(rx).unwrap().arrivals;
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].0, 101);
    }
}

#[test]
fn congestion_does_not_reorder_single_flow() {
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    let mut sim: Sim<u32> = Sim::new(cfg(64, 0), topo, 5);
    let rx = sim.add_node(lan, Box::<Recorder>::default());
    let _tx = sim.add_node(lan, Box::new(Blaster { target: rx, count: 20, bytes: 400 }));
    sim.run_until(60_000);
    let markers: Vec<u32> =
        sim.handler::<Recorder>(rx).unwrap().arrivals.iter().map(|&(_, m)| m).collect();
    assert_eq!(markers, (0..20).collect::<Vec<_>>(), "FIFO within one sender's burst");
}
