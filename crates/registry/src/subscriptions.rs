//! Reverse candidate generation for standing queries: given a freshly stored
//! advert, which subscriptions could it match?
//!
//! This mirrors [`RegistryStore::candidates`](crate::RegistryStore) but runs
//! in the publish direction — subscriptions are indexed by the fields their
//! payloads constrain on, and an incoming advert probes those postings with
//! its *own* description fields. The produced set is a sound
//! over-approximation: the caller confirms every candidate with the full
//! evaluator, so a publish only re-matches the standing queries whose
//! requested concepts relate to the new advert instead of all of them.

use std::collections::BTreeSet;

use sds_protocol::{Advertisement, Description, ModelId, QueryId, QueryPayload};
use sds_semantic::{ClassId, SubsumptionIndex};
use sds_simnet::IdMap;

/// Secondary index over standing queries, keyed by what they constrain on.
#[derive(Default, Debug)]
pub struct SubscriptionIndex {
    /// URI subscriptions, by their exact query string.
    by_uri: IdMap<String, BTreeSet<QueryId>>,
    /// Template subscriptions constrained on `type_uri`, by that type.
    by_template_type: IdMap<String, BTreeSet<QueryId>>,
    /// Semantic subscriptions constrained on a category, by that concept.
    by_category: IdMap<ClassId, BTreeSet<QueryId>>,
    /// Semantic subscriptions without a category but with outputs, by their
    /// first requested output (one necessary constraint suffices for
    /// soundness; the evaluator checks the rest).
    by_output: IdMap<ClassId, BTreeSet<QueryId>>,
    /// Subscriptions the keyed postings cannot narrow: templates without a
    /// type constraint, semantic requests with neither category nor outputs.
    /// Probed whenever an advert of the matching model arrives.
    wildcard: [BTreeSet<QueryId>; 3],
}

impl SubscriptionIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes one standing query. A subscription id being re-registered
    /// with a different payload must be [`SubscriptionIndex::remove`]d with
    /// its old payload first.
    pub fn insert(&mut self, id: QueryId, payload: &QueryPayload) {
        match payload {
            QueryPayload::Uri(u) => {
                self.by_uri.entry(u.clone()).or_default().insert(id);
            }
            QueryPayload::Template(t) => match &t.type_uri {
                Some(ty) => {
                    self.by_template_type.entry(ty.clone()).or_default().insert(id);
                }
                None => {
                    self.wildcard[ModelId::Template.wire_tag() as usize].insert(id);
                }
            },
            QueryPayload::Semantic(req) => {
                if let Some(cat) = req.category {
                    self.by_category.entry(cat).or_default().insert(id);
                } else if let Some(&out) = req.outputs.first() {
                    self.by_output.entry(out).or_default().insert(id);
                } else {
                    self.wildcard[ModelId::Semantic.wire_tag() as usize].insert(id);
                }
            }
        }
    }

    /// Unindexes one standing query (no-op when absent).
    pub fn remove(&mut self, id: QueryId, payload: &QueryPayload) {
        match payload {
            QueryPayload::Uri(u) => remove_posting(&mut self.by_uri, u, id),
            QueryPayload::Template(t) => match &t.type_uri {
                Some(ty) => remove_posting(&mut self.by_template_type, ty, id),
                None => {
                    self.wildcard[ModelId::Template.wire_tag() as usize].remove(&id);
                }
            },
            QueryPayload::Semantic(req) => {
                if let Some(cat) = req.category {
                    remove_posting(&mut self.by_category, &cat, id);
                } else if let Some(&out) = req.outputs.first() {
                    remove_posting(&mut self.by_output, &out, id);
                } else {
                    self.wildcard[ModelId::Semantic.wire_tag() as usize].remove(&id);
                }
            }
        }
    }

    /// Drops every indexed subscription.
    pub fn clear(&mut self) {
        self.by_uri.clear();
        self.by_template_type.clear();
        self.by_category.clear();
        self.by_output.clear();
        for bucket in &mut self.wildcard {
            bucket.clear();
        }
    }

    /// Subscription ids that could match `advert`, sorted ascending and
    /// deduplicated. Soundness per model:
    ///
    /// - URI: a subscription matches only on string equality with the
    ///   advertised URI.
    /// - Template: a type-constrained subscription needs the advert to carry
    ///   exactly that `type_uri`; unconstrained subscriptions (wildcard
    ///   bucket) are always probed.
    /// - Semantic: a category-constrained subscription needs its category
    ///   related to the advertised one, so probing the postings of every
    ///   concept related to the advert's category covers them; likewise an
    ///   output-keyed subscription needs its first requested output related
    ///   to *some* advertised output. Without an index all keyed semantic
    ///   postings are probed wholesale (still sound, merely unselective).
    pub fn candidates(
        &self,
        advert: &Advertisement,
        idx: Option<&SubsumptionIndex>,
    ) -> Vec<QueryId> {
        let mut out: Vec<QueryId> = Vec::new();
        match &advert.description {
            Description::Uri(u) => {
                if let Some(set) = self.by_uri.get(u) {
                    out.extend(set.iter().copied());
                }
            }
            Description::Template(t) => {
                if let Some(ty) = &t.type_uri {
                    if let Some(set) = self.by_template_type.get(ty) {
                        out.extend(set.iter().copied());
                    }
                }
                out.extend(self.wildcard[ModelId::Template.wire_tag() as usize].iter().copied());
            }
            Description::Semantic(p) => {
                match idx {
                    Some(idx) => {
                        for c in idx.related_concepts(p.category) {
                            if let Some(set) = self.by_category.get(&c) {
                                out.extend(set.iter().copied());
                            }
                        }
                        for &adv_out in &p.outputs {
                            for c in idx.related_concepts(adv_out) {
                                if let Some(set) = self.by_output.get(&c) {
                                    out.extend(set.iter().copied());
                                }
                            }
                        }
                    }
                    None => {
                        for set in self.by_category.values().chain(self.by_output.values()) {
                            out.extend(set.iter().copied());
                        }
                    }
                }
                out.extend(self.wildcard[ModelId::Semantic.wire_tag() as usize].iter().copied());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of indexed subscriptions across all postings.
    pub fn len(&self) -> usize {
        self.by_uri.values().map(BTreeSet::len).sum::<usize>()
            + self.by_template_type.values().map(BTreeSet::len).sum::<usize>()
            + self.by_category.values().map(BTreeSet::len).sum::<usize>()
            + self.by_output.values().map(BTreeSet::len).sum::<usize>()
            + self.wildcard.iter().map(BTreeSet::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Removes `id` from one posting list, dropping emptied entries.
fn remove_posting<K: std::hash::Hash + Eq + Clone>(
    map: &mut IdMap<K, BTreeSet<QueryId>>,
    key: &K,
    id: QueryId,
) {
    if let Some(set) = map.get_mut(key) {
        set.remove(&id);
        if set.is_empty() {
            map.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_protocol::{DescriptionTemplate, Uuid};
    use sds_semantic::{Ontology, ServiceProfile, ServiceRequest};
    use sds_simnet::NodeId;

    fn qid(seq: u64) -> QueryId {
        QueryId { origin: NodeId(1), seq }
    }

    fn advert(description: Description) -> Advertisement {
        Advertisement { id: Uuid(1), provider: NodeId(2), description, version: 1 }
    }

    #[test]
    fn uri_subscriptions_probe_exact_string() {
        let mut s = SubscriptionIndex::new();
        s.insert(qid(1), &QueryPayload::Uri("urn:a".into()));
        s.insert(qid(2), &QueryPayload::Uri("urn:b".into()));
        let a = advert(Description::Uri("urn:a".into()));
        assert_eq!(s.candidates(&a, None), vec![qid(1)]);
        s.remove(qid(1), &QueryPayload::Uri("urn:a".into()));
        assert!(s.candidates(&a, None).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn template_wildcards_always_probed() {
        let mut s = SubscriptionIndex::new();
        let typed = QueryPayload::Template(DescriptionTemplate {
            type_uri: Some("urn:t".into()),
            ..Default::default()
        });
        let untyped = QueryPayload::Template(DescriptionTemplate {
            name: Some("x".into()),
            ..Default::default()
        });
        s.insert(qid(1), &typed);
        s.insert(qid(2), &untyped);
        let matching = advert(Description::Template(DescriptionTemplate {
            type_uri: Some("urn:t".into()),
            ..Default::default()
        }));
        assert_eq!(s.candidates(&matching, None), vec![qid(1), qid(2)]);
        let untyped_advert = advert(Description::Template(DescriptionTemplate::default()));
        assert_eq!(s.candidates(&untyped_advert, None), vec![qid(2)]);
    }

    #[test]
    fn semantic_candidates_follow_relatedness() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let weapon = o.class("Weapon", &[thing]);
        let idx = SubsumptionIndex::build(&o);

        let mut s = SubscriptionIndex::new();
        s.insert(qid(1), &QueryPayload::Semantic(ServiceRequest::for_category(sensor)));
        s.insert(qid(2), &QueryPayload::Semantic(ServiceRequest::for_category(weapon)));
        s.insert(
            qid(3),
            &QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[sensor])),
        );
        s.insert(qid(4), &QueryPayload::Semantic(ServiceRequest::default()));

        let a = advert(Description::Semantic(
            ServiceProfile::new("r", radar).with_outputs(&[radar]),
        ));
        // Radar relates to Sensor (category sub 1), its output relates to the
        // Sensor request (sub 3), and the unconstrained sub 4 always probes;
        // the Weapon subscription is pruned.
        assert_eq!(s.candidates(&a, Some(&idx)), vec![qid(1), qid(3), qid(4)]);
        // Without an index every keyed posting is probed (sound fallback).
        assert_eq!(s.candidates(&a, None), vec![qid(1), qid(2), qid(3), qid(4)]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut s = SubscriptionIndex::new();
        s.insert(qid(1), &QueryPayload::Uri("urn:a".into()));
        s.insert(qid(2), &QueryPayload::Semantic(ServiceRequest::default()));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }
}
