//! Worker-thread execution of lookahead windows.
//!
//! A window is a set of independent jobs — one per domain — with no shared
//! mutable state: domains only read the [`World`] and write their own
//! fields (cross-domain messages go to per-destination outboxes, drained by
//! the coordinator *after* the window). So the scheduling here is the
//! simplest thing that works: the shared scoped pool ([`crate::pool`]) hands
//! each `&mut Domain` to exactly one worker, and the scope join is the
//! barrier. Which thread runs which domain — and in what order — cannot
//! affect the result, which is the worker-count-invariance guarantee the
//! equivalence tests pin. A one-domain sim goes through here too: its
//! window is a plain call on the coordinator's thread.

use crate::domain::{Domain, World};
use crate::pool;
use crate::time::SimTime;

/// How a simulator's LANs are grouped into share-nothing execution domains.
///
/// More domains expose more parallelism but cost more barrier work (the
/// coordinator scans domains² outbox pairs per window); for big runs a
/// domain count near the worker-thread count is the sweet spot, which is
/// what [`PartitionPlan::Domains`] expresses. Every plan runs the same
/// engine with the same per-LAN semantics; plans differ only in how
/// same-time events of different domains interleave (a domain dispatches
/// its own events in push order) and in how many windows a run takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionPlan {
    /// One domain holding every LAN: no barrier except at controls, no
    /// cross-domain handoff, no threads.
    Single,
    /// One domain per LAN: maximal partitioning. Right for topologies with
    /// at most a few hundred LANs; above that the per-domain fixed costs
    /// dominate (the domain count is capped at 1024 regardless).
    PerLan,
    /// A fixed number of domains; LAN `l` lands in domain `l mod n`.
    /// Clamped to `[1, lan_count]` (and the 1024 cap).
    Domains(usize),
}

/// Runs every domain up to `limit` (inclusive), using up to `workers`
/// threads. `workers <= 1` (or a single domain) runs inline on the calling
/// thread — no spawn cost, same result.
pub(crate) fn run_domains<P: Clone + Send + 'static>(
    domains: &mut [Domain<P>],
    world: &World<'_>,
    limit: SimTime,
    workers: usize,
) {
    pool::for_each_mut(workers, domains, |_, d| d.run_events(limit, world));
}
