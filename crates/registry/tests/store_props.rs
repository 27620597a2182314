//! Property-based tests for the registry store: lease arithmetic, purge
//! correctness against a naive model, version monotonicity, the match
//! column's coherence with the table, and the query-id dedup cache. Run
//! under the in-workspace seeded harness (`sds_rand::check`).

use sds_rand::check::{gen, Checker};
use sds_rand::Rng;

use sds_protocol::{Advertisement, Description, QueryId, Uuid};
use sds_registry::{LeasePolicy, RegistryStore, SeenQueries};
use sds_semantic::{ClassId, QosKey, ServiceProfile};
use sds_simnet::{NodeId, SimTime};

/// A URI description one time in three, else a semantic profile: 0–3
/// outputs and 0–3 inputs (so some rows spill past their inline concepts), ids
/// up to `u32::MAX`, repeated QoS keys and non-finite values. Drawn fresh
/// per publish, so a same-version publish usually differs in content and a
/// newer one can change model.
fn arb_description(rng: &mut Rng, id: u128) -> Description {
    if rng.gen_range(0..3u32) == 0 {
        return Description::Uri(format!("urn:{id}"));
    }
    let concept = |r: &mut Rng| match r.gen_range(0..8u32) {
        0 => ClassId(u32::MAX),
        _ => ClassId(r.gen_range(0..6u32)),
    };
    let mut p = ServiceProfile::new(format!("s{id}"), concept(rng))
        .with_outputs(&gen::vec_of(rng, 0, 4, concept))
        .with_inputs(&gen::vec_of(rng, 0, 4, concept));
    for _ in 0..rng.gen_range(0..4u32) {
        let key = [QosKey::LatencyMs, QosKey::Accuracy][rng.gen_range(0..2usize)];
        let value = [0.5, f64::NAN, f64::INFINITY][rng.gen_range(0..3usize)];
        p = p.with_qos(key, value);
    }
    Description::Semantic(p)
}

#[derive(Clone, Debug)]
enum StoreOp {
    Publish {
        id: u128,
        version: u32,
        description: Description,
        lease_until: u64,
        from_provider: bool,
    },
    Renew { id: u128, lease_until: u64 },
    Remove { id: u128 },
    Purge { now: u64 },
}

fn arb_store_op(rng: &mut Rng) -> StoreOp {
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            let id = u128::from(rng.gen_range(0..8u64));
            StoreOp::Publish {
                id,
                version: rng.gen_range(0..4u32),
                description: arb_description(rng, id),
                lease_until: rng.gen_range(1..1_000u64),
                from_provider: rng.gen_range(0..2u32) == 0,
            }
        }
        2 => StoreOp::Renew {
            id: u128::from(rng.gen_range(0..8u64)),
            lease_until: rng.gen_range(1..1_000u64),
        },
        3 => StoreOp::Remove { id: u128::from(rng.gen_range(0..8u64)) },
        // One purge in eight is at the end of time, which takes the store's
        // other purge loop (and every advert).
        _ if rng.gen_range(0..8u32) == 0 => StoreOp::Purge { now: SimTime::MAX },
        _ => StoreOp::Purge { now: rng.gen_range(0..1_000u64) },
    }
}

/// Naive reference model of the store.
#[derive(Default)]
struct Model {
    adverts: std::collections::HashMap<u128, (u32, u64)>, // id → (version, lease_until)
}

#[test]
fn store_agrees_with_naive_model() {
    Checker::new("store_agrees_with_naive_model").run(|rng| {
        let ops = gen::vec_of(rng, 0, 80, arb_store_op);
        let mut store = RegistryStore::new();
        let mut model = Model::default();
        // The most semantic adverts the store has held at once.
        let mut semantic_high_water = 0;
        for op in ops {
            match op {
                StoreOp::Publish { id, version, description, lease_until, from_provider } => {
                    // The advert's provider is NodeId(id); third-party
                    // sources model replication forwards.
                    let source = if from_provider { NodeId(id as u32) } else { NodeId(999) };
                    let advert = Advertisement {
                        id: Uuid(id),
                        provider: NodeId(id as u32),
                        description,
                        version,
                    };
                    store.publish(advert, source, 0, lease_until, 0);
                    match model.adverts.get_mut(&id) {
                        Some((v, l)) if version >= *v => {
                            *v = version;
                            *l = (*l).max(lease_until);
                        }
                        Some((_, l)) if from_provider => {
                            // Stale content dropped, but a publish from the
                            // provider itself is still a liveness heartbeat.
                            *l = (*l).max(lease_until);
                        }
                        Some(_) => {} // stale version from a third party: dropped whole
                        None => {
                            model.adverts.insert(id, (version, lease_until));
                        }
                    }
                }
                StoreOp::Renew { id, lease_until } => {
                    let known = store.renew(Uuid(id), lease_until);
                    assert_eq!(known, model.adverts.contains_key(&id));
                    if let Some((_, l)) = model.adverts.get_mut(&id) {
                        *l = (*l).max(lease_until);
                    }
                }
                StoreOp::Remove { id } => {
                    let had = store.remove(Uuid(id));
                    assert_eq!(had, model.adverts.remove(&id).is_some());
                }
                StoreOp::Purge { now } => {
                    let mut purged = store.purge_expired(now);
                    purged.sort();
                    let mut expected: Vec<Uuid> = model
                        .adverts
                        .iter()
                        .filter(|(_, &(_, l))| l <= now)
                        .map(|(&id, _)| Uuid(id))
                        .collect();
                    expected.sort();
                    model.adverts.retain(|_, &mut (_, l)| l > now);
                    assert_eq!(purged, expected);
                }
            }
            assert_eq!(store.len(), model.adverts.len());
            for (&id, &(version, lease_until)) in &model.adverts {
                let stored = store.get(&Uuid(id)).expect("model says present");
                assert_eq!(stored.advert.version, version);
                assert_eq!(stored.lease_until, lease_until);
            }
            // The column never drifts from the table, whichever write path
            // ran, and churn does not leak rows: freed slots are reused
            // before the column grows.
            let semantic = store
                .iter()
                .filter(|a| matches!(a.advert.description, Description::Semantic(_)))
                .count();
            semantic_high_water = semantic_high_water.max(semantic);
            assert!(store.audit_match_column() <= semantic_high_water);
        }
    });
}

#[test]
fn lease_grants_are_bounded_and_monotone() {
    Checker::new("lease_grants_are_bounded_and_monotone").run(|rng| {
        let now = rng.gen_range(0..1_000_000u64);
        let requested = rng.gen_range(0..10_000_000u64);
        let default_ms = rng.gen_range(1..100_000u64);
        let max_ms = rng.gen_range(1..1_000_000u64);
        let p = LeasePolicy { default_ms, max_ms, leasing_enabled: true };
        let granted = p.grant(now, requested);
        assert!(granted > now, "a lease always lies in the future");
        assert!(
            granted <= now + max_ms.max(default_ms),
            "never beyond the policy bound"
        );
        // Lease-less policy is infinite regardless of inputs.
        let un = LeasePolicy { leasing_enabled: false, ..p };
        assert_eq!(un.grant(now, requested), u64::MAX);
    });
}

#[test]
fn seen_cache_drops_exactly_in_window_duplicates() {
    Checker::new("seen_cache_drops_exactly_in_window_duplicates").run(|rng| {
        let events = gen::vec_of(rng, 1, 60, |r| (r.gen_range(0..16u64), r.gen_range(0..5_000u64)));
        let retention = rng.gen_range(1..2_000u64);
        let mut cache = SeenQueries::new(retention);
        let mut sorted = events;
        sorted.sort_by_key(|&(_, t)| t);
        let mut last_accepted: std::collections::HashMap<u64, u64> = Default::default();
        for (seq, t) in sorted {
            let id = QueryId { origin: NodeId(1), seq };
            let fresh = cache.first_sighting(id, t);
            let expected = match last_accepted.get(&seq) {
                Some(&prev) => t.saturating_sub(prev) >= retention,
                None => true,
            };
            assert_eq!(fresh, expected, "seq {seq} at {t}");
            if fresh {
                last_accepted.insert(seq, t);
            }
        }
    });
}

#[test]
fn seen_cache_matches_a_never_evicting_model_across_clears() {
    // Streams long and dense enough that expiry pops on most sightings,
    // with restarts (`clear`) mixed in.
    Checker::new("seen_cache_matches_a_never_evicting_model_across_clears").run(|rng| {
        let retention = rng.gen_range(1..500u64);
        let ids = rng.gen_range(1..400u64);
        let steps = gen::vec_of(rng, 1, 3_000, |r| {
            (r.gen_range(0..ids), r.gen_range(0..4u64), r.gen_range(0..400u32) == 0)
        });
        let mut cache = SeenQueries::new(retention);
        // id -> time last recorded; never evicted, so it also remembers ids
        // long expired.
        let mut model: std::collections::BTreeMap<u64, SimTime> = Default::default();
        // Sightings inside the last `retention` ms, and how many per id.
        let mut window: std::collections::VecDeque<(SimTime, u64)> = Default::default();
        let mut in_window: std::collections::BTreeMap<u64, usize> = Default::default();
        let mut now: SimTime = 0;
        for (seq, dt, clear) in steps {
            now += dt;
            if clear {
                cache.clear();
                model.clear();
                window.clear();
                in_window.clear();
            }
            let fresh = cache.first_sighting(QueryId { origin: NodeId(7), seq }, now);
            let expected = model.get(&seq).is_none_or(|&at| now - at >= retention);
            assert_eq!(fresh, expected, "seq {seq} at {now}");
            if expected {
                model.insert(seq, now);
            }
            window.push_back((now, seq));
            *in_window.entry(seq).or_default() += 1;
            while let Some(&(at, id)) = window.front() {
                if now - at < retention {
                    break;
                }
                window.pop_front();
                let n = in_window.get_mut(&id).expect("counted on push");
                *n -= 1;
                if *n == 0 {
                    in_window.remove(&id);
                }
            }
            assert!(
                cache.len() <= in_window.len(),
                "holds {} ids, only {} sighted in the last {retention} ms",
                cache.len(),
                in_window.len()
            );
        }
    });
}
