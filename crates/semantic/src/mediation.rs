//! Vocabulary mediation between ontologies.
//!
//! The paper anticipates multi-vocabulary deployments: "new functionality
//! such as mediation between different vocabularies may introduce additional
//! queries or hints by the discovery service. This could be the case when an
//! interesting service is found, but an additional translation or mediation
//! service may be needed to use it" (§2), and lists "mediator selection" as
//! registry support (§4.3). Ontology mappings are also among the artifacts a
//! registry hosts (§4.6: "ontologies and ontology mappings").
//!
//! A [`ClassMapping`] aligns classes of a *source* ontology with classes of
//! a *target* ontology; a [`Mediator`] uses it to match a request expressed
//! in the source vocabulary against profiles described in the target
//! vocabulary (translate, then subsumption-match as usual).

use crate::hash::IdMap;
use crate::matchmaker::{match_request, MatchResult};
use crate::ontology::ClassId;
use crate::profile::{ServiceProfile, ServiceRequest};
use crate::reasoner::SubsumptionIndex;

/// A (partial) alignment from one ontology's classes to another's.
///
/// ```
/// use sds_semantic::{ClassId, ClassMapping};
///
/// let m = ClassMapping::new().with(ClassId(1), ClassId(10)).with(ClassId(2), ClassId(20));
/// assert_eq!(m.translate_class(ClassId(1)), Some(ClassId(10)));
/// assert_eq!(m.translate_class(ClassId(9)), None);
/// let back = m.inverse().unwrap();
/// assert_eq!(back.translate_class(ClassId(20)), Some(ClassId(2)));
/// ```
#[derive(Clone, Default, Debug)]
pub struct ClassMapping {
    pairs: IdMap<ClassId, ClassId>,
}

impl ClassMapping {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `src` (source vocabulary) equivalent to `dst` (target
    /// vocabulary). Later declarations override earlier ones.
    pub fn map(&mut self, src: ClassId, dst: ClassId) -> &mut Self {
        self.pairs.insert(src, dst);
        self
    }

    /// Builder form of [`ClassMapping::map`].
    pub fn with(mut self, src: ClassId, dst: ClassId) -> Self {
        self.pairs.insert(src, dst);
        self
    }

    pub fn translate_class(&self, src: ClassId) -> Option<ClassId> {
        self.pairs.get(&src).copied()
    }

    /// Number of aligned classes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Translates a whole request into the target vocabulary. `None` when
    /// any referenced concept is unmapped — a partial translation would
    /// silently change the request's meaning.
    pub fn translate_request(&self, request: &ServiceRequest) -> Option<ServiceRequest> {
        let category = match request.category {
            Some(c) => Some(self.translate_class(c)?),
            None => None,
        };
        let outputs = request
            .outputs
            .iter()
            .map(|&c| self.translate_class(c))
            .collect::<Option<Vec<_>>>()?;
        let provided_inputs = request
            .provided_inputs
            .iter()
            .map(|&c| self.translate_class(c))
            .collect::<Option<Vec<_>>>()?;
        Some(ServiceRequest { category, outputs, provided_inputs, qos: request.qos.clone() })
    }

    /// Translates a profile (used when shipping descriptions into a foreign
    /// registry). Same all-or-nothing rule.
    pub fn translate_profile(&self, profile: &ServiceProfile) -> Option<ServiceProfile> {
        let category = self.translate_class(profile.category)?;
        let inputs = profile
            .inputs
            .iter()
            .map(|&c| self.translate_class(c))
            .collect::<Option<Vec<_>>>()?;
        let outputs = profile
            .outputs
            .iter()
            .map(|&c| self.translate_class(c))
            .collect::<Option<Vec<_>>>()?;
        Some(ServiceProfile { name: profile.name.clone(), category, inputs, outputs, qos: profile.qos.clone() })
    }

    /// Chains two alignments: `self` (A→B) then `other` (B→C) gives A→C for
    /// every class whose image is mapped by `other`.
    pub fn compose(&self, other: &ClassMapping) -> ClassMapping {
        let mut out = ClassMapping::new();
        for (&src, &mid) in &self.pairs {
            if let Some(dst) = other.translate_class(mid) {
                out.map(src, dst);
            }
        }
        out
    }

    /// The reverse alignment, if this one is injective (no two source
    /// classes share a target).
    pub fn inverse(&self) -> Option<ClassMapping> {
        let mut out = ClassMapping::new();
        for (&src, &dst) in &self.pairs {
            if out.pairs.insert(dst, src).is_some() {
                return None;
            }
        }
        Some(out)
    }
}

/// Matches requests written in a foreign vocabulary against local profiles:
/// translate with the alignment, then run the ordinary matchmaker over the
/// local subsumption index.
pub struct Mediator<'a> {
    mapping: &'a ClassMapping,
    local_index: &'a SubsumptionIndex,
}

impl<'a> Mediator<'a> {
    pub fn new(mapping: &'a ClassMapping, local_index: &'a SubsumptionIndex) -> Self {
        Self { mapping, local_index }
    }

    /// Translate-then-match. `None` when the request cannot be fully
    /// translated (the "additional mediation service needed" signal the
    /// paper describes).
    pub fn mediated_match(
        &self,
        foreign_request: &ServiceRequest,
        local_profile: &ServiceProfile,
    ) -> Option<MatchResult> {
        let translated = self.mapping.translate_request(foreign_request)?;
        Some(match_request(self.local_index, &translated, local_profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchmaker::Degree;
    use crate::ontology::Ontology;

    /// Two agencies model the same domain with different taxonomies.
    fn two_vocabularies() -> (Ontology, Ontology, ClassMapping) {
        // Agency A (source): "UAV" terminology.
        let mut a = Ontology::new();
        let a_thing = a.class("A:Thing", &[]);
        let a_uav = a.class("A:UAVService", &[a_thing]);
        let a_recon = a.class("A:ReconUAV", &[a_uav]);
        let a_imagery = a.class("A:Imagery", &[a_thing]);

        // Agency B (target): "Drone" terminology, deeper.
        let mut b = Ontology::new();
        let b_thing = b.class("B:Thing", &[]);
        let b_svc = b.class("B:Service", &[b_thing]);
        let b_drone = b.class("B:DroneService", &[b_svc]);
        let b_survey = b.class("B:SurveyDrone", &[b_drone]);
        let b_photo = b.class("B:Photo", &[b_thing]);

        let mapping = ClassMapping::new()
            .with(a_uav, b_drone)
            .with(a_recon, b_survey)
            .with(a_imagery, b_photo);
        let _ = (a_thing, b_thing);
        (a, b, mapping)
    }

    #[test]
    fn translated_request_matches_foreign_profiles() {
        let (a, b, mapping) = two_vocabularies();
        let idx_b = SubsumptionIndex::build(&b);
        let mediator = Mediator::new(&mapping, &idx_b);

        // Agency B's local profile.
        let profile = ServiceProfile::new("survey-drone", b.lookup("B:SurveyDrone").unwrap())
            .with_outputs(&[b.lookup("B:Photo").unwrap()]);

        // Agency A asks, in ITS vocabulary, for any UAV service with imagery.
        let request = ServiceRequest::for_category(a.lookup("A:UAVService").unwrap())
            .with_outputs(&[a.lookup("A:Imagery").unwrap()]);

        let result = mediator.mediated_match(&request, &profile).expect("fully mapped");
        assert_eq!(result.degree, Degree::PlugIn, "SurveyDrone ⊑ DroneService after translation");
    }

    #[test]
    fn unmapped_concept_yields_none_not_garbage() {
        let (a, b, mapping) = two_vocabularies();
        let idx_b = SubsumptionIndex::build(&b);
        let mediator = Mediator::new(&mapping, &idx_b);
        let profile = ServiceProfile::new("x", b.lookup("B:DroneService").unwrap());
        // A:Thing is deliberately unmapped.
        let request = ServiceRequest::for_category(a.lookup("A:Thing").unwrap());
        assert!(mediator.mediated_match(&request, &profile).is_none());
    }

    #[test]
    fn profile_translation_round_trips_through_inverse() {
        let (a, b, mapping) = two_vocabularies();
        let profile = ServiceProfile::new("recon", a.lookup("A:ReconUAV").unwrap())
            .with_outputs(&[a.lookup("A:Imagery").unwrap()]);
        let to_b = mapping.translate_profile(&profile).unwrap();
        assert_eq!(to_b.category, b.lookup("B:SurveyDrone").unwrap());
        let back = mapping.inverse().unwrap().translate_profile(&to_b).unwrap();
        assert_eq!(back.category, profile.category);
        assert_eq!(back.outputs, profile.outputs);
    }

    #[test]
    fn composition_chains_alignments() {
        let (_a, _b, ab) = two_vocabularies();
        // B → C relabels everything by +100.
        let mut bc = ClassMapping::new();
        for (&_src, &dst) in &ab.pairs {
            bc.map(dst, ClassId(dst.0 + 100));
        }
        let ac = ab.compose(&bc);
        assert_eq!(ac.len(), ab.len());
        for (&src, &dst) in &ab.pairs {
            assert_eq!(ac.translate_class(src), Some(ClassId(dst.0 + 100)));
        }
    }

    #[test]
    fn inverse_rejects_non_injective_mappings() {
        let m = ClassMapping::new().with(ClassId(1), ClassId(9)).with(ClassId(2), ClassId(9));
        assert!(m.inverse().is_none());
    }
}
