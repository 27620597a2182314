//! The packed semantic match column: everything the matchmaker reads of a
//! stored semantic advert, plus its lease, in one cache line per advert, and
//! the request compiled once per query so that confirming a candidate is bit
//! probes on that line instead of a table probe and three heap blocks
//! (`SharedAdvert`, `outputs`, `qos`).
//!
//! [`CompiledRequest::verdict`] is [`sds_semantic::match_request`] over a
//! [`MatchRow`]; `match_request` stays the reference and the property below
//! holds the two equal on random taxonomies, out-of-ontology ids and
//! non-finite QoS values.

use sds_semantic::{
    ClassId, ConceptClosure, Degree, QosConstraint, ServiceProfile, ServiceRequest,
    SubsumptionIndex,
};
use sds_simnet::SimTime;

/// Concept references a row holds inline. A profile with more outputs plus
/// inputs keeps them in its `ServiceProfile` only and the confirm reads them
/// there (see [`MatchRow::concepts`]).
const INLINE_CONCEPTS: usize = 4;
/// `outputs` of a row whose concept lists did not fit inline.
const SPILLED: u8 = u8::MAX;

/// One stored semantic advert as the matchmaker sees it. Exactly one cache
/// line, and no heap block of its own.
#[repr(align(64))]
#[derive(Clone, Copy, Debug)]
pub(crate) struct MatchRow {
    /// The advert's lease, kept equal to `StoredAdvert::lease_until` by every
    /// store path that writes one: liveness is decided here, without the
    /// advert table.
    pub(crate) lease_until: SimTime,
    /// Indexed by `QosKey as usize`: the first declared value of each
    /// attribute, NaN when undeclared. No constraint accepts NaN, which is
    /// also `match_request`'s verdict on an undeclared attribute.
    qos: [f64; 4],
    category: ClassId,
    /// How many of `concepts` are outputs, or [`SPILLED`].
    outputs: u8,
    /// How many of `concepts`, after the outputs, are inputs.
    inputs: u8,
    concepts: [ClassId; INLINE_CONCEPTS],
}

const _: () = assert!(std::mem::size_of::<MatchRow>() == 64);

impl MatchRow {
    pub(crate) fn pack(profile: &ServiceProfile, lease_until: SimTime) -> Self {
        let mut qos = [f64::NAN; 4];
        // Last to first, so the first declaration of a key is what stays
        // (`ServiceProfile::qos_value` finds the first).
        for q in profile.qos.iter().rev() {
            qos[q.key as usize] = q.value;
        }
        let mut concepts = [ClassId(0); INLINE_CONCEPTS];
        let (n_out, n_in) = (profile.outputs.len(), profile.inputs.len());
        let (outputs, inputs) = if n_out + n_in <= INLINE_CONCEPTS {
            concepts[..n_out].copy_from_slice(&profile.outputs);
            concepts[n_out..n_out + n_in].copy_from_slice(&profile.inputs);
            (n_out as u8, n_in as u8)
        } else {
            (SPILLED, 0)
        };
        Self { lease_until, qos, category: profile.category, outputs, inputs, concepts }
    }

    /// The advertised `(outputs, inputs)`: from the row when they fit, else
    /// from the advert's own profile, which `profile` fetches.
    pub(crate) fn concepts<'a>(
        &'a self,
        profile: impl FnOnce() -> &'a ServiceProfile,
    ) -> (&'a [ClassId], &'a [ClassId]) {
        if self.outputs == SPILLED {
            let p = profile();
            return (&p.outputs, &p.inputs);
        }
        let (n_out, n_in) = (self.outputs as usize, self.inputs as usize);
        (&self.concepts[..n_out], &self.concepts[n_out..n_out + n_in])
    }

    /// Bitwise equality (a declared NaN equals itself), for the coherence
    /// audit.
    pub(crate) fn same_as(&self, other: &MatchRow) -> bool {
        self.lease_until == other.lease_until
            && self.qos.map(f64::to_bits) == other.qos.map(f64::to_bits)
            && (self.category, self.outputs, self.inputs, self.concepts)
                == (other.category, other.outputs, other.inputs, other.concepts)
    }
}

/// One requested (or provided) concept with its closure rows looked up once.
/// `closure` is `None` for an id outside the ontology, which relates only to
/// itself.
struct Concept<'a> {
    id: ClassId,
    closure: Option<ConceptClosure<'a>>,
}

impl Concept<'_> {
    /// `match_concept(idx, self, advertised)` with its `up_distance`: the
    /// output direction, also used for the category.
    #[inline]
    fn covered_by(&self, idx: &SubsumptionIndex, advertised: ClassId) -> Option<(Degree, u32)> {
        if advertised == self.id {
            return Some((Degree::Exact, 0));
        }
        let c = self.closure.as_ref()?;
        let degree = if c.descendants.contains(advertised.index()) {
            Degree::PlugIn
        } else if c.ancestors.contains(advertised.index()) {
            Degree::Subsumes
        } else {
            return None;
        };
        Some((degree, c.depth.abs_diff(idx.depth(advertised))))
    }

    /// The input direction: `self` is what the requester provides, and it
    /// must be the expected input or a subclass of it.
    #[inline]
    fn supplies(&self, idx: &SubsumptionIndex, expected: ClassId) -> Option<(Degree, u32)> {
        if expected == self.id {
            return Some((Degree::Exact, 0));
        }
        let c = self.closure.as_ref()?;
        c.ancestors
            .contains(expected.index())
            .then(|| (Degree::PlugIn, c.depth.abs_diff(idx.depth(expected))))
    }

    /// True when `other` subsumes or is subsumed by this concept.
    #[inline]
    fn related(&self, other: ClassId) -> bool {
        other == self.id
            || self.closure.as_ref().is_some_and(|c| {
                c.descendants.contains(other.index()) || c.ancestors.contains(other.index())
            })
    }
}

/// The better of two pair verdicts the way `match_request` picks: higher
/// degree, then smaller distance.
#[inline]
fn better(best: Option<(Degree, u32)>, next: Option<(Degree, u32)>) -> Option<(Degree, u32)> {
    match (best, next) {
        (Some((bd, bdist)), Some((d, dist))) if d > bd || (d == bd && dist < bdist) => next,
        (None, _) => next,
        _ => best,
    }
}

/// A `ServiceRequest` with every closure lookup done: built once per query,
/// applied to each candidate row.
pub(crate) struct CompiledRequest<'a> {
    idx: &'a SubsumptionIndex,
    category: Option<Concept<'a>>,
    outputs: Vec<Concept<'a>>,
    provided: Vec<Concept<'a>>,
    qos: &'a [QosConstraint],
}

impl<'a> CompiledRequest<'a> {
    pub(crate) fn compile(idx: &'a SubsumptionIndex, request: &'a ServiceRequest) -> Self {
        let concept = |&id: &ClassId| Concept { id, closure: idx.closure(id) };
        Self {
            idx,
            category: request.category.as_ref().map(concept),
            outputs: request.outputs.iter().map(concept).collect(),
            provided: request.provided_inputs.iter().map(concept).collect(),
            qos: &request.qos,
        }
    }

    /// True when the first requested output is related to `advertised`: the
    /// relation the `by_output` postings are walked by.
    pub(crate) fn first_output_related(&self, advertised: ClassId) -> bool {
        self.outputs.first().is_some_and(|o| o.related(advertised))
    }

    /// `match_request` of the compiled request against a row and its concept
    /// lists: `None` for `Degree::Fail`.
    pub(crate) fn verdict(
        &self,
        row: &MatchRow,
        outputs: &[ClassId],
        inputs: &[ClassId],
    ) -> Option<(Degree, u32)> {
        let mut overall = Degree::Exact;
        let mut distance = 0u32;
        let mut fold = |pair: Option<(Degree, u32)>| {
            let (d, dist) = pair?;
            overall = overall.min(d);
            distance += dist;
            Some(())
        };
        if let Some(cat) = &self.category {
            fold(cat.covered_by(self.idx, row.category))?;
        }
        for requested in &self.outputs {
            fold(outputs.iter().fold(None, |best, &adv| {
                better(best, requested.covered_by(self.idx, adv))
            }))?;
        }
        for &expected in inputs {
            fold(self.provided.iter().fold(None, |best, prov| {
                better(best, prov.supplies(self.idx, expected))
            }))?;
        }
        for c in self.qos {
            if !c.accepts(row.qos[c.key as usize]) {
                return None;
            }
        }
        Some((overall, distance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_rand::check::{gen, Checker};
    use sds_rand::Rng;
    use sds_semantic::{match_request, Ontology, QosKey};

    /// A random multi-rooted DAG: each class picks 0–3 parents among its
    /// predecessors, so diamonds (multiple inheritance) are common.
    fn arb_ontology(rng: &mut Rng) -> Ontology {
        let n = rng.gen_range(1..24u32);
        let mut o = Ontology::new();
        let mut ids: Vec<ClassId> = Vec::new();
        for i in 0..n {
            let mut parents: Vec<ClassId> = (0..rng.gen_range(0..4usize).min(ids.len()))
                .map(|_| ids[rng.gen_range(0..ids.len() as u64) as usize])
                .collect();
            parents.sort_unstable_by_key(|c| c.0);
            parents.dedup();
            ids.push(o.class(&format!("C{i}"), &parents));
        }
        o
    }

    /// In the ontology, just outside it, or at the end of the id space.
    fn arb_concept(rng: &mut Rng, n: u32) -> ClassId {
        match rng.gen_range(0..10u32) {
            0 => ClassId(u32::MAX - rng.gen_range(0..2u32)),
            1 => ClassId(n + rng.gen_range(0..3u32)),
            _ => ClassId(rng.gen_range(0..n)),
        }
    }

    fn arb_key(rng: &mut Rng) -> QosKey {
        [QosKey::LatencyMs, QosKey::UpdatePeriodS, QosKey::CoverageM, QosKey::Accuracy]
            [rng.gen_range(0..4usize)]
    }

    fn arb_f64(rng: &mut Rng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            // A small grid, so bounds and values collide often.
            _ => f64::from(rng.gen_range(0..5u32)) * 0.25,
        }
    }

    #[test]
    fn row_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<MatchRow>(), 64);
        assert_eq!(std::mem::align_of::<MatchRow>(), 64);
    }

    #[test]
    fn compiled_row_verdict_equals_match_request() {
        Checker::new("compiled_row_verdict_equals_match_request").run(|rng| {
            let ontology = arb_ontology(rng);
            let n = ontology.len() as u32;
            let idx = SubsumptionIndex::build(&ontology);
            for _ in 0..8 {
                let mut profile = ServiceProfile::new("p", arb_concept(rng, n))
                    .with_outputs(&gen::vec_of(rng, 0, 5, |r| arb_concept(r, n)))
                    .with_inputs(&gen::vec_of(rng, 0, 4, |r| arb_concept(r, n)));
                // Up to six declarations over four keys: duplicates are the
                // rule, and the first one must win.
                for _ in 0..rng.gen_range(0..7u32) {
                    profile = profile.with_qos(arb_key(rng), arb_f64(rng));
                }
                let mut request = ServiceRequest {
                    category: (rng.gen_range(0..2u32) == 0).then(|| arb_concept(rng, n)),
                    outputs: gen::vec_of(rng, 0, 4, |r| arb_concept(r, n)),
                    provided_inputs: gen::vec_of(rng, 0, 4, |r| arb_concept(r, n)),
                    qos: Vec::new(),
                };
                for _ in 0..rng.gen_range(0..3u32) {
                    request = request.with_qos(arb_key(rng), arb_f64(rng));
                }

                let row = MatchRow::pack(&profile, 7);
                assert!(row.same_as(&MatchRow::pack(&profile, 7)), "packing is a function");
                let spilled = profile.outputs.len() + profile.inputs.len() > INLINE_CONCEPTS;
                let (outputs, inputs) = row.concepts(|| {
                    assert!(spilled, "an inline row must not go to the profile");
                    &profile
                });
                assert_eq!((outputs, inputs), (&profile.outputs[..], &profile.inputs[..]));

                let compiled = CompiledRequest::compile(&idx, &request);
                let reference = match_request(&idx, &request, &profile);
                let expected =
                    reference.degree.is_match().then_some((reference.degree, reference.distance));
                assert_eq!(
                    compiled.verdict(&row, outputs, inputs),
                    expected,
                    "{request:?} against {profile:?}"
                );
                for c in (0..n + 3).map(ClassId).chain([ClassId(u32::MAX)]) {
                    let related = request.outputs.first().is_some_and(|&o| idx.related(o, c));
                    assert_eq!(compiled.first_output_related(c), related);
                }
            }
        });
    }
}
