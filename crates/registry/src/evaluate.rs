//! Pluggable query evaluation — one evaluator per description model.
//!
//! "Software libraries for distribution would only need new plug-ins or
//! handlers for new models, keeping the same stack underneath." A registry
//! registers the evaluators it supports; payloads for models it lacks are
//! silently discarded (the paper's "next header" filtering).

use std::sync::Arc;

use sds_protocol::{Advertisement, Description, ModelId, QueryPayload};
use sds_semantic::{match_request, Degree, SubsumptionIndex};

/// Evaluates queries of one description model against advertisements.
///
/// Returns `None` for a non-match or for an advert in a different model;
/// `Some((degree, distance))` for a hit. Simple models only ever produce
/// [`Degree::Exact`] with distance 0.
///
/// `Send + Sync` because the sharded data plane confirms candidates from
/// scoped worker threads sharing one `&dyn ModelEvaluator` — evaluators are
/// stateless verdict functions over their (immutable) ontology index, so the
/// bound costs implementations nothing.
pub trait ModelEvaluator: Send + Sync {
    /// The model this evaluator handles.
    fn model(&self) -> ModelId;

    /// Match verdict for `payload` (already checked to be of this model)
    /// against `advert`.
    fn evaluate(&self, payload: &QueryPayload, advert: &Advertisement) -> Option<(Degree, u32)>;

    /// The subsumption index backing this evaluator, when it reasons over an
    /// ontology. Returning one is a statement about [`Self::evaluate`]: on a
    /// semantic payload its verdict is [`match_request`] over this index.
    /// Candidate generation prunes by that index's relatedness, the engine
    /// confirms semantic candidates from the store's packed match column
    /// instead of calling `evaluate` once per candidate, and composition
    /// plans over it. An evaluator with different semantics returns `None`
    /// and is asked about every semantic advert.
    fn subsumption_index(&self) -> Option<&SubsumptionIndex> {
        None
    }
}

/// Exact string match on pre-agreed service-type URIs (WS-Discovery-class).
#[derive(Default, Debug, Clone, Copy)]
pub struct UriEvaluator;

impl ModelEvaluator for UriEvaluator {
    fn model(&self) -> ModelId {
        ModelId::Uri
    }

    fn evaluate(&self, payload: &QueryPayload, advert: &Advertisement) -> Option<(Degree, u32)> {
        let (QueryPayload::Uri(q), Description::Uri(d)) = (payload, &advert.description) else {
            return None;
        };
        (q == d).then_some((Degree::Exact, 0))
    }
}

/// Partial-template match on (name, type, attributes) (UDDI-class).
#[derive(Default, Debug, Clone, Copy)]
pub struct TemplateEvaluator;

impl ModelEvaluator for TemplateEvaluator {
    fn model(&self) -> ModelId {
        ModelId::Template
    }

    fn evaluate(&self, payload: &QueryPayload, advert: &Advertisement) -> Option<(Degree, u32)> {
        let (QueryPayload::Template(q), Description::Template(d)) = (payload, &advert.description)
        else {
            return None;
        };
        d.matches(q).then_some((Degree::Exact, 0))
    }
}

/// Subsumption matchmaking over a shared ontology (OWL-S-class). The
/// evaluator holds the precomputed closure; registries sharing an ontology
/// share the index.
#[derive(Clone)]
pub struct SemanticEvaluator {
    idx: Arc<SubsumptionIndex>,
}

impl SemanticEvaluator {
    pub fn new(idx: Arc<SubsumptionIndex>) -> Self {
        Self { idx }
    }

    pub fn index(&self) -> &SubsumptionIndex {
        &self.idx
    }
}

impl ModelEvaluator for SemanticEvaluator {
    fn model(&self) -> ModelId {
        ModelId::Semantic
    }

    fn subsumption_index(&self) -> Option<&SubsumptionIndex> {
        Some(&self.idx)
    }

    fn evaluate(&self, payload: &QueryPayload, advert: &Advertisement) -> Option<(Degree, u32)> {
        let (QueryPayload::Semantic(req), Description::Semantic(profile)) =
            (payload, &advert.description)
        else {
            return None;
        };
        let r = match_request(&self.idx, req, profile);
        r.degree.is_match().then_some((r.degree, r.distance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sds_protocol::{DescriptionTemplate, Uuid};
    use sds_semantic::{Ontology, ServiceProfile, ServiceRequest};
    use sds_simnet::NodeId;

    fn advert(description: Description) -> Advertisement {
        Advertisement { id: Uuid(1), provider: NodeId(0), description, version: 1 }
    }

    #[test]
    fn uri_evaluator_exact_only() {
        let e = UriEvaluator;
        let a = advert(Description::Uri("urn:svc:chat".into()));
        assert_eq!(
            e.evaluate(&QueryPayload::Uri("urn:svc:chat".into()), &a),
            Some((Degree::Exact, 0))
        );
        assert_eq!(e.evaluate(&QueryPayload::Uri("urn:svc:mail".into()), &a), None);
        // Cross-model advert silently ignored.
        let t = advert(Description::Template(DescriptionTemplate::default()));
        assert_eq!(e.evaluate(&QueryPayload::Uri("urn:svc:chat".into()), &t), None);
    }

    #[test]
    fn template_evaluator_partial_match() {
        let e = TemplateEvaluator;
        let a = advert(Description::Template(DescriptionTemplate {
            name: Some("tracker".into()),
            type_uri: Some("urn:svc:tracking".into()),
            attrs: vec![],
        }));
        let q = QueryPayload::Template(DescriptionTemplate {
            type_uri: Some("urn:svc:tracking".into()),
            ..Default::default()
        });
        assert_eq!(e.evaluate(&q, &a), Some((Degree::Exact, 0)));
        let miss = QueryPayload::Template(DescriptionTemplate {
            name: Some("other".into()),
            ..Default::default()
        });
        assert_eq!(e.evaluate(&miss, &a), None);
    }

    #[test]
    fn semantic_evaluator_uses_subsumption() {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let svc = o.class("Svc", &[thing]);
        let e = SemanticEvaluator::new(Arc::new(SubsumptionIndex::build(&o)));
        assert_eq!(e.model(), ModelId::Semantic);

        let a = advert(Description::Semantic(
            ServiceProfile::new("radar-feed", svc).with_outputs(&[radar]),
        ));
        // Asking for Sensor output: Radar output plugs in.
        let q = QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[sensor]));
        assert_eq!(e.evaluate(&q, &a), Some((Degree::PlugIn, 1)));
        // Unrelated request fails.
        let q2 = QueryPayload::Semantic(ServiceRequest::default().with_outputs(&[svc]));
        assert_eq!(e.evaluate(&q2, &a), None);
    }
}
