//! S1 — Engine scaling on a multicast-heavy LAN discovery workload.
//!
//! The paper's evaluation currency is message counts and bytes under churn;
//! every experiment is therefore bounded by how fast the discrete-event core
//! pushes deliveries. This benchmark drives the raw engine (no protocol
//! stack) with the access pattern that dominates discovery traffic: periodic
//! link-local multicast beacons on 50-node LANs — the WS-Discovery-style
//! probe/announce storm — plus a sparse unicast response current. Each
//! multicast fans one logical transmission out to 49 receivers, so payload
//! handling per *delivery*, not per *send*, is the hot path.
//!
//! Three dimensions are measured:
//!
//! * **delivery mode** — `shared` reads each payload through the shared
//!   `Rc` (zero-copy fast path); `owning` takes it by value, forcing a
//!   clone per delivered copy (≈ the pre-optimization engine);
//! * **engine** — `seq` is the one-domain plan (`PartitionPlan::Single`),
//!   which runs on the calling thread; `parW` is the same engine with
//!   `PartitionPlan::Domains(W)` and W worker threads. The `≥ 2×`
//!   speedup acceptance check runs only in full mode on machines with at
//!   least 4 cores — on smaller machines the ratio is still measured and
//!   printed, just not asserted;
//! * **scale** — up to 10⁶ nodes (S2's table). The million-node run also
//!   reports resident bytes per node (RSS delta across build + run), the
//!   number the struct-of-arrays node state is accountable to. Quick mode
//!   smoke-runs 10⁶ over a shortened horizon so CI can afford it.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sds_bench::{f2, Table};
use sds_simnet::{
    Ctx, Destination, NodeHandler, NodeId, PartitionPlan, Sim, SimConfig, SimTime, Topology,
};

/// Nodes per LAN: one multicast reaches `LAN_SIZE - 1` receivers.
const LAN_SIZE: usize = 50;
/// Beacon period per node (ms of simulated time).
const PERIOD: SimTime = 1_000;
/// Simulated advertisement payload size (a small semantic profile on the
/// wire).
const PAYLOAD_BYTES: usize = 220;
/// Every k-th received beacon triggers a unicast response (sparse reply
/// current, keeps the workload multicast-dominated).
const REPLY_EVERY: u64 = 64;
/// Target delivered-event budget per size (keeps wall time bounded).
const EVENT_BUDGET: u64 = 5_000_000;
/// The S2 scale target.
const MILLION: usize = 1_000_000;

/// Count of payload clones, bumped by `Frame::clone` — the
/// bytes-allocated-per-delivery proxy. Atomic because the partitioned
/// engine clones from worker threads.
static CLONES: AtomicU64 = AtomicU64::new(0);

/// The beacon payload: an opaque advert-sized byte frame whose clones are
/// counted.
struct Frame(Vec<u8>);

impl Clone for Frame {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Frame(self.0.clone())
    }
}

const TAG_BEACON: u64 = 1;

/// The per-node workload core: count + checksum each delivery, sparsely
/// unicast-reply, re-arm the beacon timer. Shared between the two handler
/// variants so the only difference measured is payload materialization.
#[derive(Default)]
struct BeaconCore {
    received: u64,
    checksum: u64,
}

impl BeaconCore {
    fn start(ctx: &mut Ctx<'_, Frame>) {
        // Deterministic stagger without touching the node RNG: never-drawing
        // nodes must stay RNG-free (the lazy-materialization fast path).
        let offset = 1 + (u64::from(ctx.node().0).wrapping_mul(7919)) % PERIOD;
        ctx.set_timer(offset, TAG_BEACON);
    }

    fn absorb(&mut self, ctx: &mut Ctx<'_, Frame>, from: NodeId, frame: &Frame) {
        self.received += 1;
        // Read the payload for real so delivery cannot be dead-code folded.
        self.checksum = self
            .checksum
            .wrapping_mul(31)
            .wrapping_add(u64::from(frame.0[0]) + frame.0.len() as u64);
        if self.received % REPLY_EVERY == 0 {
            ctx.send(Destination::Unicast(from), Frame(vec![0x5D; 32]), 32, "s1-reply");
        }
    }

    fn beacon(ctx: &mut Ctx<'_, Frame>, tag: u64) {
        if tag == TAG_BEACON {
            let lan = ctx.lan();
            ctx.send(
                Destination::Multicast(lan),
                Frame(vec![0xAB; PAYLOAD_BYTES]),
                PAYLOAD_BYTES as u32,
                "s1-beacon",
            );
            ctx.set_timer(PERIOD, TAG_BEACON);
        }
    }
}

/// The zero-copy fast path: reads each delivery through the shared `Rc`.
#[derive(Default)]
struct SharedBeacon(BeaconCore);

impl NodeHandler<Frame> for SharedBeacon {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Frame>) {
        BeaconCore::start(ctx);
    }

    fn on_shared_message(&mut self, ctx: &mut Ctx<'_, Frame>, from: NodeId, msg: Rc<Frame>) {
        self.0.absorb(ctx, from, &msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _timer: sds_simnet::TimerId, tag: u64) {
        BeaconCore::beacon(ctx, tag);
    }
}

/// The by-value path: the default `on_shared_message` materializes an owned
/// copy per delivered multicast copy (≈ the pre-optimization engine, which
/// cloned per receiver at enqueue time).
#[derive(Default)]
struct OwningBeacon(BeaconCore);

impl NodeHandler<Frame> for OwningBeacon {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Frame>) {
        BeaconCore::start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Frame>, from: NodeId, msg: Frame) {
        self.0.absorb(ctx, from, &msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Frame>, _timer: sds_simnet::TimerId, tag: u64) {
        BeaconCore::beacon(ctx, tag);
    }
}

/// Resident set size from `/proc/self/status`, in bytes (Linux only; the
/// bytes/node column reads `0` where the proc file is unavailable).
fn vm_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One benchmark configuration.
struct Spec {
    n: usize,
    shared: bool,
    plan: PartitionPlan,
    workers: usize,
    /// Simulated horizon; `None` sizes rounds from [`EVENT_BUDGET`].
    horizon: Option<SimTime>,
}

struct RunReport {
    events: u64,
    wall_s: f64,
    clones: u64,
    deliveries: u64,
    /// RSS growth across sim build + run, per node.
    rss_bytes_per_node: u64,
}

fn run_one(spec: &Spec) -> RunReport {
    let n = spec.n;
    let lans = n.div_ceil(LAN_SIZE);
    let mut topo = Topology::new();
    let lan_ids: Vec<_> = (0..lans).map(|_| topo.add_lan()).collect();
    let rss_before = vm_rss_bytes();
    let mut sim: Sim<Frame> = Sim::new_partitioned(SimConfig::default(), topo, 0x51, spec.plan);
    sim.set_workers(spec.workers);
    for i in 0..n {
        let handler: Box<dyn NodeHandler<Frame>> = if spec.shared {
            Box::new(SharedBeacon::default())
        } else {
            Box::new(OwningBeacon::default())
        };
        sim.add_node(lan_ids[i / LAN_SIZE], handler);
    }
    let horizon = spec.horizon.unwrap_or_else(|| {
        // Rounds sized so deliveries ≈ EVENT_BUDGET, at least one full period.
        let per_round = (n as u64) * (LAN_SIZE as u64 - 1);
        (EVENT_BUDGET / per_round.max(1)).clamp(1, 200) * PERIOD + PERIOD
    });

    CLONES.store(0, Ordering::Relaxed);
    let start = Instant::now();
    sim.run_until(horizon);
    let wall_s = start.elapsed().as_secs_f64();
    let clones = CLONES.load(Ordering::Relaxed);
    let rss_after = vm_rss_bytes();

    let deliveries = sim.stats().delivered_messages;
    RunReport {
        events: sim.events_processed(),
        wall_s,
        clones,
        deliveries,
        rss_bytes_per_node: rss_after.saturating_sub(rss_before) / n as u64,
    }
}

fn engine_label(plan: PartitionPlan, workers: usize) -> String {
    match plan {
        PartitionPlan::Single => "seq".into(),
        _ => format!("par{workers}"),
    }
}

fn main() {
    let quick = std::env::var_os("SDS_BENCH_QUICK").is_some();

    let mut table = Table::new(&[
        "engine",
        "mode",
        "nodes",
        "lans",
        "events",
        "wall (s)",
        "events/sec",
        "clones/delivery",
        "bytes-cloned/delivery",
        "rss bytes/node",
    ]);

    let run_row = |spec: &Spec, mode: &str, table: &mut Table| -> f64 {
        let r = run_one(spec);
        let evps = r.events as f64 / r.wall_s;
        let cpd = r.clones as f64 / r.deliveries.max(1) as f64;
        table.row(&[
            engine_label(spec.plan, spec.workers),
            mode.to_string(),
            spec.n.to_string(),
            spec.n.div_ceil(LAN_SIZE).to_string(),
            r.events.to_string(),
            format!("{:.3}", r.wall_s),
            format!("{:.0}", evps),
            f2(cpd),
            format!("{:.0}", cpd * PAYLOAD_BYTES as f64),
            r.rss_bytes_per_node.to_string(),
        ]);
        evps
    };

    // ---- Delivery-mode sweep in one domain (historical series).
    let sizes: &[usize] = if quick { &[100, 1_000] } else { &[100, 1_000, 10_000, 100_000] };
    for &(mode, shared) in &[("shared", true), ("owning", false)] {
        for &n in sizes {
            let spec =
                Spec { n, shared, plan: PartitionPlan::Single, workers: 1, horizon: None };
            run_row(&spec, mode, &mut table);
        }
    }

    // ---- Engine sweep: one domain vs 2 and 4 domains on as many workers.
    let engine_n = if quick { 1_000 } else { 100_000 };
    let seq_spec = Spec {
        n: engine_n,
        shared: true,
        plan: PartitionPlan::Single,
        workers: 1,
        horizon: None,
    };
    let seq_evps = run_row(&seq_spec, "shared", &mut table);
    let mut par4_evps = 0.0;
    for workers in [2usize, 4] {
        let spec = Spec {
            n: engine_n,
            shared: true,
            plan: PartitionPlan::Domains(workers),
            workers,
            horizon: None,
        };
        let evps = run_row(&spec, "shared", &mut table);
        if workers == 4 {
            par4_evps = evps;
        }
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if !quick && cores >= 4 {
        assert!(
            par4_evps >= 2.0 * seq_evps,
            "4-worker partitioned engine must be ≥2× sequential at {engine_n} nodes \
             on a ≥4-core machine: {par4_evps:.0} vs {seq_evps:.0} events/s"
        );
    } else {
        println!(
            "speedup check: par4 {:.2}× seq at {engine_n} nodes \
             (asserted only in full mode on ≥4 cores; this machine has {cores})",
            par4_evps / seq_evps
        );
    }

    // ---- The million-node run (S2). Quick mode shortens the horizon to a
    // fraction of one beacon period — the stagger spreads first beacons
    // uniformly over the period, so 1/8 of one period still delivers ~6M
    // events — keeping CI wall time bounded while proving 10⁶ nodes build,
    // run, and fit in memory.
    let million_spec = Spec {
        n: MILLION,
        shared: true,
        plan: PartitionPlan::Domains(4.min(cores.max(2))),
        workers: 4.min(cores.max(2)),
        horizon: Some(if quick { PERIOD / 8 } else { PERIOD + 1 }),
    };
    run_row(&million_spec, "shared", &mut table);

    table.print("S1: engine throughput on the multicast-heavy LAN discovery workload");
    println!(
        "Workload: {LAN_SIZE}-node LANs, one {PAYLOAD_BYTES}-byte multicast beacon per node\n\
         per {PERIOD} ms, a unicast reply every {REPLY_EVERY} deliveries. events = deliveries\n\
         + timer fires; clones/delivery is the allocation proxy (payload materializations\n\
         per delivered copy); rss bytes/node is the RSS delta across build + run divided\n\
         by the node count."
    );
}
