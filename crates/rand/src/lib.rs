//! # sds-rand — deterministic randomness for reproducible experiments
//!
//! The whole evaluation rests on every random choice being a pure function
//! of an experiment seed: two runs with the same seed must be byte-identical
//! so that discovery mechanisms can be compared on identical workloads and
//! failure schedules. This crate owns that guarantee in-workspace, with zero
//! external dependencies:
//!
//! * [`Rng`] — a xoshiro256++ generator seeded through SplitMix64, with the
//!   helpers the codebase uses (`gen_range`, `gen_bool`, `fill_bytes`,
//!   `shuffle`/`choose`, exponential/geometric sampling);
//! * [`Seed`] — hierarchical seed derivation (`Seed::derive("simnet.node.42")`)
//!   so each component gets an independent, reproducible stream and adding a
//!   consumer in one place never perturbs the stream of another;
//! * [`check`] — a minimal seeded property-test harness: N seeded cases,
//!   failing-case seed reporting, explicit regression-case registration;
//! * [`IdMap`] — the workspace's one hash map type, hashed by the keyed
//!   multiply-fold [`IdHasher`] under a per-map key.

mod hash;
mod rng;
mod seed;

pub mod check;

pub use hash::{IdBuildHasher, IdHasher, IdMap};
pub use rng::{Rng, UniformRange};
pub use seed::Seed;
