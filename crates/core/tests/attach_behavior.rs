//! Focused tests of the attachment state machine: probe retry cadence,
//! failover timing bounds, and candidate freshness.

use sds_core::{
    AttachConfig, Bootstrap, ClientConfig, ClientNode, RegistryConfig, RegistryNode,
};
use sds_protocol::DiscoveryMessage;
use sds_simnet::{secs, ControlAction, FaultProfile, NodeId, Sim, SimConfig, Topology};

type Net = Sim<DiscoveryMessage>;

fn lan_world(seed: u64) -> (Net, sds_simnet::LanId) {
    let mut topo = Topology::new();
    let lan = topo.add_lan();
    (Sim::new(SimConfig::default(), topo, seed), lan)
}

#[test]
fn probe_retries_until_a_registry_appears() {
    let (mut sim, lan) = lan_world(1);
    let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(7));
    assert!(sim.handler::<ClientNode>(c).unwrap().home_registry().is_none());
    // 4 probes so far: t=0, 2, 4, 6.
    assert_eq!(sim.stats().kind("probe").messages, 4);

    // A registry appears; the next retry (t=8 s) finds it.
    let r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    sim.run_until(secs(9));
    assert_eq!(sim.handler::<ClientNode>(c).unwrap().home_registry(), Some(r));
    // Attached clients stop probing.
    let probes_after_attach = sim.stats().kind("probe").messages;
    sim.run_until(secs(20));
    assert_eq!(sim.stats().kind("probe").messages, probes_after_attach);
}

#[test]
fn failover_happens_within_the_ping_tolerance_window() {
    let (mut sim, lan) = lan_world(2);
    let r0 = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    let r1 = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    let attach = AttachConfig { ping_interval: secs(4), ..Default::default() };
    let c = sim.add_node(
        lan,
        Box::new(ClientNode::new(ClientConfig { attach, ..Default::default() })),
    );
    sim.run_until(secs(1));
    let home = sim.handler::<ClientNode>(c).unwrap().home_registry().unwrap();
    let other = if home == r0 { r1 } else { r0 };
    sim.crash_node(home);
    let crash_at = sim.now();

    // Detection needs (tolerance + 1) missed ping rounds at worst:
    // 3 rounds × 4 s = 12 s, plus one round of slack.
    let mut attached_at = None;
    for step in 0..3_000u64 {
        sim.run_until(crash_at + step * 10);
        if sim.handler::<ClientNode>(c).unwrap().home_registry() == Some(other) {
            attached_at = Some(sim.now() - crash_at);
            break;
        }
    }
    let took = attached_at.expect("failover happened");
    assert!(took <= secs(16), "failover within tolerance window, took {took} ms");
    assert!(took >= secs(8), "no premature failover, took {took} ms");
}

#[test]
fn static_bootstrap_never_probes() {
    let (mut sim, lan) = lan_world(3);
    let r = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    let _c = sim.add_node(
        lan,
        Box::new(ClientNode::new(ClientConfig {
            attach: AttachConfig { bootstrap: Bootstrap::Static(r), ..Default::default() },
            ..Default::default()
        })),
    );
    sim.run_until(secs(30));
    assert_eq!(sim.stats().kind("probe").messages, 0);
}

#[test]
fn candidate_list_refreshes_with_new_remote_registries() {
    // A remote registry joining the federation AFTER the client attached
    // must eventually show up in the client's failover candidates via the
    // periodic registry-list refresh.
    let mut topo = Topology::new();
    let lan0 = topo.add_lan();
    let lan1 = topo.add_lan();
    let mut sim: Net = Sim::new(SimConfig::default(), topo, 4);
    let r0 = sim.add_node(lan0, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
    let c = sim.add_node(lan0, Box::new(ClientNode::new(ClientConfig::default())));
    sim.run_until(secs(2));
    let before = sim.handler::<ClientNode>(c).unwrap().candidate_count();
    assert_eq!(before, 1, "only the home registry known initially");

    let _r1 = sim.add_node(
        lan1,
        Box::new(RegistryNode::new(RegistryConfig { seeds: vec![r0], ..Default::default() }, None)),
    );
    // Wait for federation join + the client's next list refresh (3 pings).
    sim.run_until(secs(40));
    assert!(
        sim.handler::<ClientNode>(c).unwrap().candidate_count() >= 2,
        "remote registry learned through registry signaling"
    );
}

#[test]
fn staggered_clients_spread_across_registries() {
    // Three equally empty registries; six clients arriving one by one.
    // Each probe reply carries the registry's attachment load, so joiners
    // pick the least-loaded one ("assigning clients to registries in an
    // even distribution").
    let (mut sim, lan) = lan_world(6);
    let regs: Vec<NodeId> = (0..3)
        .map(|_| sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None))))
        .collect();
    let mut clients = Vec::new();
    for i in 0..6 {
        sim.run_until(secs(1 + i * 2));
        clients.push(sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default()))));
    }
    sim.run_until(secs(20));
    let mut counts = std::collections::HashMap::new();
    for &c in &clients {
        let home = sim.handler::<ClientNode>(c).unwrap().home_registry().unwrap();
        *counts.entry(home).or_insert(0u32) += 1;
    }
    for &r in &regs {
        assert_eq!(counts.get(&r), Some(&2), "2 clients per registry: {counts:?}");
    }
}

#[test]
fn duplicated_probe_replies_do_not_flap_home_or_inflate_candidates() {
    // 100% duplication plus mild reordering on the LAN: every probe reply,
    // beacon, and pong arrives twice and slightly out of order. Attachment
    // must still converge to one stable home, and the candidate set must
    // stay bounded by the number of real registries.
    for seed in 0..5u64 {
        let (mut sim, lan) = lan_world(100 + seed);
        sim.set_lan_faults(
            lan,
            FaultProfile { duplicate: 1.0, reorder_jitter: 200, ..Default::default() },
        );
        let regs: Vec<NodeId> = (0..3)
            .map(|_| sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None))))
            .collect();
        let c = sim.add_node(lan, Box::new(ClientNode::new(ClientConfig::default())));
        sim.run_until(secs(2));
        let home = sim
            .handler::<ClientNode>(c)
            .unwrap()
            .home_registry()
            .expect("attached despite duplication");
        assert!(regs.contains(&home));
        // The home must not flap while every registry stays healthy.
        for step in 1..=28u64 {
            sim.run_until(secs(2 + step));
            let h = sim.handler::<ClientNode>(c).unwrap();
            assert_eq!(h.home_registry(), Some(home), "seed {seed}: home flapped");
            assert!(
                h.candidate_count() <= regs.len(),
                "seed {seed}: duplicated signals inflated the candidate set"
            );
        }
        assert!(sim.stats().duplicated_messages > 0, "faults were actually injected");
    }
}

#[test]
fn stale_pongs_after_failover_do_not_resurrect_a_dead_home() {
    // A fault window delays and duplicates traffic right before the home
    // registry crashes, so pongs the old home sent while alive can surface
    // long after the client failed over. Those stale pongs (and their
    // duplicates) must not re-attach the client to the dead registry.
    for seed in 0..8u64 {
        let (mut sim, lan) = lan_world(200 + seed);
        let r0 = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
        let r1 = sim.add_node(lan, Box::new(RegistryNode::new(RegistryConfig::default(), None)));
        let attach = AttachConfig { ping_interval: secs(2), ..Default::default() };
        let c = sim.add_node(
            lan,
            Box::new(ClientNode::new(ClientConfig { attach, ..Default::default() })),
        );
        sim.schedule(
            secs(10),
            ControlAction::SetLanFaults(
                lan,
                FaultProfile { duplicate: 1.0, reorder_jitter: secs(8), ..Default::default() },
            ),
        );
        sim.schedule(secs(20), ControlAction::ClearFaults);
        sim.run_until(secs(2));
        let home = sim.handler::<ClientNode>(c).unwrap().home_registry().expect("attached");
        let survivor = if home == r0 { r1 } else { r0 };
        sim.run_until(secs(20));
        sim.crash_node(home);
        // Delayed duplicates from the window drain while failover runs; the
        // client must settle on the survivor and stay there.
        sim.run_until(secs(60));
        assert_eq!(
            sim.handler::<ClientNode>(c).unwrap().home_registry(),
            Some(survivor),
            "seed {seed}: did not settle on the surviving registry"
        );
        for step in 1..=10u64 {
            sim.run_until(secs(60 + step * 2));
            assert_eq!(
                sim.handler::<ClientNode>(c).unwrap().home_registry(),
                Some(survivor),
                "seed {seed}: flapped away from the survivor"
            );
        }
        assert!(sim.stats().fault_injections() > 0, "faults were actually injected");
    }
}
