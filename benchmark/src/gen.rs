//! Seeded inputs of the `registry_*` workloads: the mixed-model advert
//! population, the query payload generators, and the burst generator. The
//! same seed gives the same inputs; the program under test only ever sees
//! the generated adverts and frames.

use sds_protocol::{
    codec, Advertisement, Description, DescriptionTemplate, DiscoveryMessage, QueryId,
    QueryMessage, QueryOp, QueryPayload, Uuid,
};
use sds_rand::{Rng, Seed};
use sds_semantic::{ClassId, Ontology, QosKey, ServiceProfile, ServiceRequest};
use sds_simnet::NodeId;
use sds_workload::parametric;

/// Queries per burst: what one registry drains from its ingress queue at once.
pub const BURST_QUERIES: usize = 256;
/// Fresh short-lease adverts published per burst.
pub const CHURN_PER_BURST: usize = 16;
/// Of the previous burst's churn adverts, how many get one renewal.
pub const RENEWALS_PER_BURST: usize = 8;
/// Response cap carried by every generated query.
pub const MAX_RESPONSES: u16 = 32;
/// Template type space: ~18 template adverts per type at 114 000 adverts, and
/// far more (type, zone) query keys than the cache holds.
const TEMPLATE_TYPES: u64 = 2_048;
const TEMPLATE_ZONES: u64 = 8;
/// Ids of churn adverts start here, clear of the base population's.
const CHURN_ID_BASE: u128 = 1 << 64;

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The taxonomy the registry workloads run over: `parametric(4, 4, 4)`,
/// 1 364 classes of which 1 024 are leaves.
pub struct Taxonomy {
    pub ontology: Ontology,
    /// Leaf classes: what adverts are categorised under.
    pub leaves: Vec<ClassId>,
    /// Parents of leaves: a request for one needs subsumption to answer and
    /// selects 4 leaves' worth of adverts.
    pub generals: Vec<ClassId>,
}

impl Taxonomy {
    pub fn build() -> Self {
        let ontology = parametric(4, 4, 4);
        let leaves: Vec<ClassId> = ontology
            .classes()
            .filter(|&c| ontology.children(c).is_empty())
            .collect();
        let mut generals: Vec<ClassId> = leaves.iter().map(|&l| ontology.parents(l)[0]).collect();
        generals.dedup();
        Self {
            ontology,
            leaves,
            generals,
        }
    }
}

/// One advert of the mixed-model population: a third each URI, template and
/// semantic, cycling by index.
pub fn advert(i: u128, tax: &Taxonomy, rng: &mut Rng) -> Advertisement {
    let description = match i % 3 {
        0 => Description::Uri(format!("urn:svc:b-{i}")),
        1 => Description::Template(DescriptionTemplate {
            name: Some(format!("svc{i}")),
            type_uri: Some(format!("urn:type:{}", rng.gen_below(TEMPLATE_TYPES))),
            attrs: vec![("zone".into(), format!("z{}", rng.gen_below(TEMPLATE_ZONES)))],
        }),
        _ => {
            let cat = tax.leaves[rng.gen_index(tax.leaves.len())];
            let out = tax.leaves[rng.gen_index(tax.leaves.len())];
            Description::Semantic(
                ServiceProfile::new(format!("svc{i}"), cat)
                    .with_outputs(&[out])
                    .with_qos(QosKey::Accuracy, 0.5 + 0.5 * rng.gen_f64()),
            )
        }
    };
    Advertisement {
        id: Uuid(i + 1),
        provider: NodeId((i % 1_000_000) as u32),
        description,
        version: 1,
    }
}

/// The base population of `n` adverts.
pub fn population(n: usize, tax: &Taxonomy, seed: Seed) -> Vec<Advertisement> {
    let mut rng = seed.derive("bench.population").rng();
    (0..n as u128).map(|i| advert(i, tax, &mut rng)).collect()
}

/// How a workload draws its query payloads.
pub enum PayloadSource {
    /// A fixed pool drawn Zipf(1.0): repeated keys, so the cache is used.
    Pool { pool: Vec<QueryPayload>, zipf: Zipf },
    /// A fresh payload per query: distinct keys, so the cache is bypassed.
    /// `generalized` is the share of semantic requests naming a parent class.
    Fresh { population: usize, generalized: f64 },
}

impl PayloadSource {
    /// A pool whose payload *shapes* cycle by popularity rank (general
    /// semantic, URI, leaf semantic, template, ...) whatever the seed: the
    /// seed picks which category or URI, not how heavy the popular queries
    /// are, so runs with different seeds cost about the same.
    pub fn pool(size: usize, population: usize, tax: &Taxonomy, seed: Seed) -> Self {
        let mut rng = seed.derive("bench.pool").rng();
        let pool = (0..size as u64)
            .map(|rank| {
                let generalized = if rank % 4 == 0 { 1.0 } else { 0.0 };
                payload_of_shape(rank % 4, population, generalized, tax, &mut rng)
            })
            .collect();
        PayloadSource::Pool {
            pool,
            zipf: Zipf::new(size, 1.0),
        }
    }

    fn draw(&self, tax: &Taxonomy, rng: &mut Rng) -> QueryPayload {
        match self {
            PayloadSource::Pool { pool, zipf } => pool[zipf.sample(rng)].clone(),
            PayloadSource::Fresh {
                population,
                generalized,
            } => fresh_payload(*population, *generalized, tax, rng),
        }
    }
}

/// A payload of a uniformly drawn shape: half semantic category requests (a unique always-satisfied QoS floor
/// makes every one a distinct cache key without changing what matches), a
/// quarter exact URIs of existing adverts, a quarter typed templates.
fn fresh_payload(
    population: usize,
    generalized: f64,
    tax: &Taxonomy,
    rng: &mut Rng,
) -> QueryPayload {
    let shape = rng.gen_below(4);
    payload_of_shape(shape, population, generalized, tax, rng)
}

/// Shapes 0 and 2 are semantic category requests, 1 an exact URI, 3 a typed
/// template.
fn payload_of_shape(
    shape: u64,
    population: usize,
    generalized: f64,
    tax: &Taxonomy,
    rng: &mut Rng,
) -> QueryPayload {
    match shape {
        0 | 2 => {
            let cat = if rng.gen_bool(generalized) {
                tax.generals[rng.gen_index(tax.generals.len())]
            } else {
                tax.leaves[rng.gen_index(tax.leaves.len())]
            };
            QueryPayload::Semantic(
                ServiceRequest::for_category(cat).with_qos(QosKey::Accuracy, 0.5 * rng.gen_f64()),
            )
        }
        1 => QueryPayload::Uri(format!(
            "urn:svc:b-{}",
            3 * rng.gen_below(population as u64 / 3)
        )),
        _ => QueryPayload::Template(DescriptionTemplate {
            type_uri: Some(format!("urn:type:{}", rng.gen_below(TEMPLATE_TYPES))),
            attrs: if rng.gen_bool(0.5) {
                vec![("zone".into(), format!("z{}", rng.gen_below(TEMPLATE_ZONES)))]
            } else {
                Vec::new()
            },
            ..Default::default()
        }),
    }
}

/// One burst: the writes that run beside it and the encoded query frames.
pub struct Burst {
    pub index: u64,
    /// Fresh short-lease adverts to publish before the queries.
    pub churn: Vec<Advertisement>,
    /// Ids (published by the previous burst) to renew once.
    pub renewals: Vec<Uuid>,
    /// Encoded `Query` frames, as they would arrive off the wire.
    pub frames: Vec<Vec<u8>>,
}

/// Generates the burst stream of one workload run. Burst `k` is a pure
/// function of `(seed, k)`, so the stream repeats for a seed however long
/// the run measures.
pub struct BurstGenerator {
    seed: Seed,
    source: PayloadSource,
    next: u64,
}

impl BurstGenerator {
    pub fn new(seed: Seed, source: PayloadSource) -> Self {
        Self {
            seed: seed.derive("bench.bursts"),
            source,
            next: 0,
        }
    }

    pub fn next_burst(&mut self, tax: &Taxonomy) -> Burst {
        let index = self.next;
        self.next += 1;
        let mut rng = self.seed.derive_idx("burst", index).rng();
        let churn_id =
            |b: u64, c: usize| CHURN_ID_BASE + u128::from(b) * CHURN_PER_BURST as u128 + c as u128;
        let churn = (0..CHURN_PER_BURST)
            .map(|c| advert(churn_id(index, c), tax, &mut rng))
            .collect();
        let renewals = match index.checked_sub(1) {
            Some(prev) => (0..RENEWALS_PER_BURST)
                .map(|c| Uuid(churn_id(prev, c) + 1))
                .collect(),
            None => Vec::new(),
        };
        let frames = (0..BURST_QUERIES as u64)
            .map(|q| {
                codec::encode(&DiscoveryMessage::querying(QueryOp::Query(QueryMessage {
                    id: QueryId {
                        origin: NodeId(0),
                        seq: index * BURST_QUERIES as u64 + q,
                    },
                    payload: self.source.draw(tax, &mut rng),
                    max_responses: Some(MAX_RESPONSES),
                    ttl: 0,
                    reply_to: None,
                })))
            })
            .collect();
        Burst {
            index,
            churn,
            renewals,
            frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(96, 1.0);
        let draw = |seed: u64| {
            let mut rng = Seed(seed).rng();
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same draws");
        assert_ne!(a, draw(8), "another seed, other draws");
        assert!(a.iter().all(|&r| r < 96));
        let count = |r: usize| a.iter().filter(|&&x| x == r).count() as f64;
        // Zipf(1): rank 0 is drawn about twice as often as rank 1 and about
        // ten times as often as rank 9.
        assert!(
            (1.6..2.5).contains(&(count(0) / count(1))),
            "{} vs {}",
            count(0),
            count(1)
        );
        assert!(
            (7.0..14.0).contains(&(count(0) / count(9))),
            "{} vs {}",
            count(0),
            count(9)
        );
    }

    #[test]
    fn zipf_of_one_rank_always_draws_it() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Seed(1).rng();
        assert!((0..100).all(|_| z.sample(&mut rng) == 0));
    }

    #[test]
    fn bursts_are_a_pure_function_of_seed_and_index() {
        let tax = Taxonomy::build();
        let stream = |seed: u64, n: usize| {
            let source = PayloadSource::pool(96, 3_000, &tax, Seed(seed));
            let mut g = BurstGenerator::new(Seed(seed), source);
            (0..n).map(|_| g.next_burst(&tax)).collect::<Vec<_>>()
        };
        let (a, b, c) = (stream(0x5D5, 3), stream(0x5D5, 3), stream(0x5D6, 3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.churn, y.churn);
            assert_eq!(x.renewals, y.renewals);
        }
        assert_ne!(a[0].frames, c[0].frames, "another seed, another stream");
        assert_eq!(a[0].frames.len(), BURST_QUERIES);
        assert_eq!(a[0].churn.len(), CHURN_PER_BURST);
        assert!(a[0].renewals.is_empty());
        // Burst 1 renews what burst 0 published.
        assert_eq!(a[1].renewals.len(), RENEWALS_PER_BURST);
        assert!(a[1]
            .renewals
            .iter()
            .all(|id| a[0].churn.iter().any(|c| c.id == *id)));
        // Every frame is a well-formed query under the response cap.
        for f in &a[2].frames {
            let msg = codec::decode(f).expect("generated frames decode");
            let sds_protocol::Operation::Querying(QueryOp::Query(q)) = msg.op else {
                panic!("not a query frame")
            };
            assert_eq!(q.max_responses, Some(MAX_RESPONSES));
        }
    }

    #[test]
    fn fresh_source_rarely_repeats_a_cache_key() {
        let tax = Taxonomy::build();
        let source = PayloadSource::Fresh {
            population: 99_999,
            generalized: 0.3,
        };
        let mut g = BurstGenerator::new(Seed(3), source);
        let mut keys: Vec<Vec<u8>> = (0..8)
            .flat_map(|_| g.next_burst(&tax).frames)
            .map(|f| match codec::decode(&f).expect("decodes").op {
                sds_protocol::Operation::Querying(QueryOp::Query(q)) => {
                    codec::encode_payload(&q.payload)
                }
                _ => panic!("not a query frame"),
            })
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        // Far more distinct keys than the 128-entry cache can hold.
        assert!(keys.len() * 100 >= n * 97, "{} distinct of {n}", keys.len());
    }

    #[test]
    fn population_mixes_the_three_models_evenly() {
        let tax = Taxonomy::build();
        assert_eq!(tax.leaves.len(), 1_024);
        assert_eq!(tax.generals.len(), 256);
        let pop = population(300, &tax, Seed(9));
        assert_eq!(pop, population(300, &tax, Seed(9)));
        for model in sds_protocol::ModelId::ALL {
            assert_eq!(
                pop.iter()
                    .filter(|a| a.description.model() == model)
                    .count(),
                100
            );
        }
    }
}
