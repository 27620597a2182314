//! Allocation audit for the places a ranked result is handed on without
//! being copied, and for the response frame it is encoded into.
//!
//! `evaluate_batch` coalesces identical in-flight queries to one evaluation
//! and returns duplicates as slot indices into the unique results — it used
//! to deep-clone the result vector once per duplicate, so a 1000-way
//! coalesced burst paid 1000 copies of every ranked hit. Growing a burst by
//! duplicates only must cost O(1) small allocations per duplicate (the
//! coalescing key), nothing proportional to the hit vectors.
//!
//! A cache hit hands out `SharedAdvert` references to the store's own
//! adverts — it used to deep-clone every hit's description. Serving a cached
//! result must allocate the same number of blocks however many hits it has
//! and however large their profiles are.
//!
//! Encoding the served result copies each hit's memoized wire segment into
//! a frame sized exactly up front — it used to re-serialize every hit field
//! by field into a buffer that grew by doubling. Once the segments exist,
//! the frame is the only block, whatever the hit count.
//!
//! The counter is per thread, because the libtest harness runs separate
//! tests on concurrent threads; the audits keep the engine on the calling
//! thread (`workers = 1`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sds_protocol::{
    codec, Advertisement, Description, DiscoveryMessage, QueryId, QueryMessage, QueryOp,
    QueryPayload, SharedAdvert, Uuid,
};
use sds_registry::{
    cache_key, LeasePolicy, QueryCache, SemanticEvaluator, ShardedEngine, TemplateEvaluator,
    UriEvaluator,
};
use sds_semantic::{Ontology, QosKey, ServiceProfile, ServiceRequest, SubsumptionIndex};
use sds_simnet::NodeId;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Blocks allocated so far on the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A small taxonomy with one category whose services all match a
/// `for_category` request — enough hits that a per-duplicate deep clone
/// would be loud in the allocation count.
fn engine_with_hits(hits: usize) -> (ShardedEngine, QueryPayload) {
    let mut ont = Ontology::new();
    let root = ont.class("Root", &[]);
    let cat = ont.class("Cat", &[root]);
    let leaf = ont.class("Leaf", &[cat]);
    let idx = Arc::new(SubsumptionIndex::build(&ont));
    let mut e = ShardedEngine::new(LeasePolicy::default(), 4, Some(&idx));
    e.register_evaluator(Box::new(UriEvaluator));
    e.register_evaluator(Box::new(TemplateEvaluator));
    e.register_evaluator(Box::new(SemanticEvaluator::new(idx.clone())));
    for i in 0..hits {
        let advert = Advertisement {
            id: Uuid(i as u128 + 1),
            provider: NodeId(i as u32),
            description: Description::Semantic(
                ServiceProfile::new(format!("svc{i}"), leaf)
                    .with_outputs(&[leaf])
                    .with_qos(QosKey::LatencyMs, 5.0),
            ),
            version: 1,
        };
        e.publish(advert, NodeId(0), 0, 1_000_000);
    }
    (e, QueryPayload::Semantic(ServiceRequest::for_category(cat)))
}

fn burst(payload: &QueryPayload, copies: usize) -> Vec<QueryMessage> {
    (0..copies)
        .map(|seq| QueryMessage {
            id: QueryId { origin: NodeId(9), seq: seq as u64 },
            payload: payload.clone(),
            max_responses: None,
            ttl: 0,
            reply_to: None,
        })
        .collect()
}

#[test]
fn coalesced_duplicates_do_not_clone_result_vectors() {
    const HITS: usize = 64;
    const SMALL: usize = 100;
    const BIG: usize = 1_000;

    let (engine, payload) = engine_with_hits(HITS);
    let small_burst = burst(&payload, SMALL);
    let big_burst = burst(&payload, BIG);

    // Warm up: hash-map capacities, memo vectors, and the result path all
    // reach steady state before anything is measured.
    let warm = engine.evaluate_batch(&big_burst, 1);
    assert_eq!(warm.len(), BIG);
    assert_eq!(warm.unique_evaluations(), 1, "identical copies must coalesce to one");
    assert_eq!(warm.hits(0).len(), HITS);
    // Structural sharing: the first and last duplicate borrow the *same*
    // unique vector, not equal copies.
    assert!(
        std::ptr::eq(warm.hits(0), warm.hits(BIG - 1)),
        "duplicates must share their unique slot's storage"
    );

    let before_small = allocations();
    let small_out = engine.evaluate_batch(&small_burst, 1);
    let small_allocs = allocations() - before_small;

    let before_big = allocations();
    let big_out = engine.evaluate_batch(&big_burst, 1);
    let big_allocs = allocations() - before_big;

    assert_eq!(small_out.unique_evaluations(), 1);
    assert_eq!(big_out.unique_evaluations(), 1);
    assert_eq!(small_out.hits(SMALL - 1), big_out.hits(BIG - 1));

    // The two bursts differ only in duplicate count: same unique query, same
    // hits. Each extra duplicate may cost the coalescing key encoding (one
    // Vec<u8>) and amortized table growth — call it 4 small allocations of
    // slack — and nothing that grows with the 64-hit result. (With adverts
    // behind `Arc`, re-cloning the result vector is one block per duplicate
    // and hides inside that slack; the pointer check above is what pins it.)
    let extra = (BIG - SMALL) as u64;
    let per_duplicate_budget = 4 * extra;
    assert!(
        big_allocs <= small_allocs + per_duplicate_budget,
        "duplicate growth allocated too much: {SMALL}-burst cost {small_allocs}, \
         {BIG}-burst cost {big_allocs}, budget {per_duplicate_budget} over the small burst"
    );
}

#[test]
fn serving_a_cached_result_allocates_independently_of_its_hits() {
    // Every profile owns three heap blocks (name, outputs, QoS), so a deep
    // clone of k hits costs 3k blocks on top of the result vector.
    let mut served = Vec::new();
    for hits in [1usize, 32, 320] {
        let (engine, payload) = engine_with_hits(hits);
        let query = &burst(&payload, 1)[0];
        let (ranked, valid_until) = engine.evaluate_with_validity(query, 1);
        assert_eq!(ranked.len(), hits);
        let mut cache = QueryCache::new(4);
        let key = cache_key(&query.payload, query.max_responses);
        cache.insert(key.clone(), &query.payload, ranked, valid_until, 1);

        let before = allocations();
        let response = cache.get(&key, 2).map(<[_]>::to_vec).expect("cached above");
        served.push(allocations() - before);

        assert_eq!(response.len(), hits);
        let store = engine.store();
        assert!(
            response.iter().all(|h| {
                SharedAdvert::ptr_eq(
                    &h.advert,
                    &store.get(&h.advert.id).expect("still stored").advert,
                )
            }),
            "a served hit is the store's allocation, not a copy"
        );
    }
    assert!(
        served.iter().all(|n| n.abs_diff(served[0]) <= 1 && *n <= 2),
        "serving 1, 32 and 320 cached hits allocated {served:?} blocks: the response vector \
         and nothing per hit"
    );
}

#[test]
fn encoding_a_served_response_allocates_one_frame() {
    for hits in [1usize, 32, 320] {
        let (engine, payload) = engine_with_hits(hits);
        let query = &burst(&payload, 1)[0];
        let (ranked, valid_until) = engine.evaluate_with_validity(query, 1);
        let mut cache = QueryCache::new(4);
        let key = cache_key(&query.payload, query.max_responses);
        cache.insert(key.clone(), &query.payload, ranked, valid_until, 1);
        let mut served = || {
            DiscoveryMessage::querying(QueryOp::QueryResponse {
                query_id: query.id,
                hits: cache.get(&key, 2).map(<[_]>::to_vec).expect("cached above"),
                responder: NodeId(0),
            })
        };

        // The warm encode writes every hit's segment; the next encode of a
        // served copy of the same result only copies them.
        let warm = codec::encode(&served());
        let response = served();
        let before = allocations();
        let frame = codec::encode(&response);
        let blocks = allocations() - before;

        assert_eq!(frame, warm, "a memoized encode is the fresh encode");
        assert_eq!(frame.capacity(), frame.len(), "the frame is reserved at its exact size");
        assert_eq!(
            blocks, 1,
            "encoding a served {hits}-hit response allocated {blocks} blocks: the frame and \
             nothing per hit"
        );
    }
}
