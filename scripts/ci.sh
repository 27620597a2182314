#!/usr/bin/env bash
# Tier-1 gate, runnable with no network access and no crates.io registry.
# The zero-external-dependency policy (see DESIGN.md) is what makes the
# --offline flags below safe from a cold target directory; the
# zero_deps_guard integration test enforces it.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline

# The repo benchmark is its own workspace (benchmark/, path deps on
# crates/*), so the workspace build above never compiles it: run its unit
# tests — which compiles every source line of the benchmark binary — so a
# public-API removal in crates/* that breaks it fails here, not at the next
# benchmark run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Comparator smoke test on the latest committed pair with declared movements:
# with them it must pass (every undeclared seed-exact metric equal, every
# declared one moved as declared, every end-to-end metric inside its bound);
# without them it must fail, which proves the declared list is load-bearing.
# Comparing two revisions is a manual step (see the script's header); the
# files under bench-results/ are what each PR ran it on.
scripts/bench_compare.sh bench-results/854f87d.results bench-results/pr27.results \
  bench-results/pr27.declared > /dev/null
undeclared=0
scripts/bench_compare.sh bench-results/854f87d.results bench-results/pr27.results \
  > /dev/null || undeclared=$?
if [ "$undeclared" -ne 1 ]; then
  echo "bench_compare: the pr27 pair without its declared list exited $undeclared, not 1" >&2
  exit 1
fi
# The four newest pairs declare nothing: encoding each advert once, O(1)
# seen-id expiry with the one hasher, the codec as one table, and one shared
# payload per forward fan-out move host time only, so every frame and count
# must compare equal as recorded.
scripts/bench_compare.sh bench-results/febda56.results bench-results/pr29.results > /dev/null
scripts/bench_compare.sh bench-results/b7be2f0.results bench-results/pr33.results > /dev/null
scripts/bench_compare.sh bench-results/5669012.results bench-results/pr34.results > /dev/null
scripts/bench_compare.sh bench-results/568a756.results bench-results/pr35.results > /dev/null
# Arming only the client retry checkpoints that can still act removes events
# and queued timers on flash_crowd and moves nothing else, on both seeds.
scripts/bench_compare.sh bench-results/7b0e6ff.results bench-results/pr36.results \
  bench-results/pr36.declared > /dev/null
scripts/bench_compare.sh bench-results/7b0e6ff-seed7331.results \
  bench-results/pr36-seed7331.results bench-results/pr36.declared > /dev/null
# One path per registry-node decision (one admission, one client answer, one
# cache-coherent write per store operation) declares nothing: every frame,
# draw and count must compare equal as recorded.
scripts/bench_compare.sh bench-results/f175291.results bench-results/pr37.results > /dev/null
# Deleting the unexercised baselines and turning one-valued config fields
# into constants declares nothing either: every seed-exact value must be equal.
scripts/bench_compare.sh bench-results/27304cc.results bench-results/pr40.results > /dev/null

# Bounded chaos soak (quick mode): fixed 8-seed sweep of combined churn +
# fault injection with post-heal convergence invariants. Deterministic, so
# a red run here reproduces locally with the printed seed.
SDS_CHAOS_SEEDS=8 cargo test -q --offline -p sds-integration --test chaos_soak

# Rolling-chaos soak (quick mode): 2-seed sweep of repeated fault windows
# (asymmetric WAN loss, pair cuts, registry crashes) measuring per-window
# time-to-recovery. Fails if any self-healing window exceeds
# SDS_RECOVERY_BOUND ms or if healing is ever slower than the passive
# baseline. Deterministic per seed, like the soak above.
SDS_CHAOS_SEEDS=2 SDS_RECOVERY_BOUND=30000 \
  cargo test -q --offline -p sds-integration --test rolling_chaos

# Engine equivalence: the default configuration must reproduce the one
# table of pinned chaos-soak golden digests bit-for-bit in one domain, and
# in one domain per LAN at 1, 2 and 4 workers (a failure names the seed and
# worker count). --include-ignored adds the full 8-seed
# sweeps (release profile) to the quick 2-seed tests.
cargo test -q --offline --release -p sds-integration --test engine_equivalence \
  -- --include-ignored

# Microbenchmark smoke run: quick-mode wall clock, to prove the benches
# still build and run. Nothing is recorded: the measured trajectory is
# bench-results/ (see scripts/bench_compare.sh).
SDS_BENCH_QUICK=1 cargo bench -q --offline -p sds-bench --bench microbench

# Engine-scaling smoke (quick mode: 10^2 and 10^3 nodes in both delivery
# modes, the one-domain vs 2/4-domain engine sweep, and a shortened-horizon
# million-node run): proves the S1 bin runs — including that 10^6 nodes
# build, run, and fit in memory.
SDS_BENCH_QUICK=1 cargo run -q --release --offline -p sds-bench --bin s1_engine_scaling

# Shard-equivalence sweep: the engine at 1/2/4/8 shards must return the
# linear scan's ranked hits and the one-shard engine's outcomes, leases,
# purge order and summaries; batched coalescing, the lease-invalidated query
# cache and the parallel data plane (1/2/4 workers) must stay byte-identical
# to a lone sequential evaluation — on randomized taxonomies, stores, and
# lease schedules (seeded in-workspace property harness).
cargo test -q --offline -p sds-registry --test shard_props

# Mixed-workload smoke (quick mode): proves the Q2 bin runs — sharded +
# batched + cached data-plane configurations plus the workers × shards
# parallel-batch matrix under sustained query bursts with publish churn.
# The >=2x parallel speedup assertion only arms in full mode on >=4 cores.
SDS_BENCH_QUICK=1 cargo run -q --release --offline -p sds-bench --bin q2_mixed_workload

# Overload soak (quick mode): 2-seed flash-crowd sweep against
# capacity-bounded registries with the full admission/backpressure layer
# on. Per seed: every Busy-nacked query is eventually answered, renewals
# are never shed, no lease expires, and the metrics fingerprint is
# byte-identical across reruns. Deterministic per seed.
SDS_CHAOS_SEEDS=2 cargo test -q --offline -p sds-integration --test overload_soak

# Overload-resilience smoke (quick mode: 12 LANs / ~600 nodes): proves the
# O1 bin runs a 10x flash crowd against both the layer-disabled baseline
# and the full overload ladder, asserts the >=2x storm-goodput win, the
# renewal-class no-shed guarantee, and post-storm recall 1.0. The
# metro-scale (10^5-node) run is the non-quick mode.
SDS_BENCH_QUICK=1 cargo run -q --release --offline -p sds-bench --bin o1_overload

# Federation convergence property: 8 seeds of loss + duplication + reorder
# plus a 20 s partial partition; every registry must end with the exact
# same live (advert id -> version) map within the documented bound.
cargo test -q --offline -p sds-integration --test federation_sync

# Federation-replication smoke (quick mode: 2 and 4 LANs, 60 s windows):
# proves the F1 bin runs. The full-size byte-budget / bounded-staleness /
# convergence assertions run in non-quick mode.
SDS_BENCH_QUICK=1 cargo run -q --release --offline -p sds-bench --bin f1_federation_sync
