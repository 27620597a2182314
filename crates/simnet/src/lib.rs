//! # sds-simnet — deterministic discrete-event network simulator
//!
//! The paper targets "dynamic environments": wireless LANs and WAN links where
//! nodes (services, clients, registries) are transient. This crate provides
//! the substrate those environments are simulated on:
//!
//! * a single-threaded, seeded, discrete-event engine ([`Sim`]) — every run is
//!   reproducible bit-for-bit;
//! * a network model ([`Topology`]) of LAN multicast domains connected by a
//!   WAN, with per-scope latency, loss, and partitions;
//! * per-scope byte/message accounting ([`NetStats`]) — the currency most of
//!   the paper's bandwidth claims are stated in;
//! * node churn: crash, revive, scheduled control actions.
//!
//! Protocol logic lives in node handlers implementing [`NodeHandler`]; the
//! engine delivers messages and timer events to them and applies the actions
//! they queue on their [`Ctx`].
//!
//! ```
//! use sds_simnet::{Sim, SimConfig, Topology, NodeHandler, Ctx, Destination};
//!
//! struct Echo;
//! impl NodeHandler<String> for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: sds_simnet::NodeId, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(Destination::Unicast(from), "pong".to_string(), 4, "pong");
//!         }
//!     }
//! }
//! struct Pinger { got: bool }
//! impl NodeHandler<String> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
//!         ctx.send(Destination::Unicast(sds_simnet::NodeId(0)), "ping".to_string(), 4, "ping");
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, String>, _from: sds_simnet::NodeId, msg: String) {
//!         assert_eq!(msg, "pong");
//!         self.got = true;
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! let lan = topo.add_lan();
//! let mut sim: Sim<String> = Sim::new(SimConfig::default(), topo, 42);
//! let echo = sim.add_node(lan, Box::new(Echo));
//! assert_eq!(echo.0, 0);
//! let pinger = sim.add_node(lan, Box::new(Pinger { got: false }));
//! sim.run_until(1_000);
//! assert!(sim.handler::<Pinger>(pinger).unwrap().got);
//! ```

mod domain;
mod engine;
mod handler;
mod ids;
mod message;
mod par;
pub mod pool;
mod stats;
mod time;
mod topology;

pub use engine::{ControlAction, Corruptor, FaultProfile, NodeCapacity, Sim, SimConfig};
pub use par::PartitionPlan;
// Handlers receive a `&mut Rng` through `Ctx::rng`; re-exported so roles can
// name the type without depending on sds-rand directly. `IdMap` likewise,
// so the registry hashes with the workspace's one hasher.
pub use sds_rand::{IdMap, Rng, Seed};
pub use handler::{take_payload, Ctx, NodeHandler};
pub use ids::{LanId, NodeId, TimerId};
pub use message::{Destination, MsgKind};
pub use stats::{KindStats, NetStats, Scope};
pub use time::{millis, secs, SimTime};
pub use topology::Topology;
