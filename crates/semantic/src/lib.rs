//! # sds-semantic — the Semantic Web Services substrate
//!
//! The paper assumes "Semantic Web Services allow clients to engage newly
//! encountered services, given a shared semantic model, or ontology". Rust
//! has no mature OWL reasoner, so this crate implements the closest synthetic
//! equivalent exercising the same code paths the architecture needs:
//!
//! * a string [`Interner`] and an indexed [`TripleStore`] (SPO/POS/OSP) with
//!   pattern queries — the RDF-ish storage layer registries keep ontologies
//!   and descriptions in;
//! * an [`Ontology`]: a class taxonomy (DAG of named classes) that can be
//!   round-tripped through the triple store, standing in for shared
//!   "upper-level ontologies and service taxonomies";
//! * a [`SubsumptionIndex`]: precomputed reflexive-transitive subsumption
//!   closure (bitsets), answering "a Radar is a kind of Sensor" queries in
//!   O(1) — the inference the paper expects semantics-enabled registries to
//!   perform;
//! * OWL-S-profile-like [`ServiceProfile`]s / [`ServiceRequest`]s (category,
//!   inputs, outputs, QoS attributes);
//! * a Paolucci-style [`Matchmaker`] with degrees of match
//!   (Exact ≻ PlugIn ≻ Subsumes ≻ Fail) and ranked selection, used by
//!   registries for fine-grained service matching and query response control;
//! * an [`ArtifactRepository`] hosting ontologies/schemas for clients cut off
//!   from the Internet (paper §4.6 "Registry Support").

mod artifacts;
mod bitset;
mod composition;
// The workspace hasher (see its module docs). sds-semantic has no
// dependencies, so it compiles sds-rand's source file instead of linking it.
#[path = "../../rand/src/hash.rs"]
mod hash;
mod interner;
mod matchmaker;
mod mediation;
mod ontology;
mod profile;
mod reasoner;
mod triple;

pub use artifacts::{Artifact, ArtifactId, ArtifactKind, ArtifactRepository};
pub use bitset::BitSet;
pub use interner::{Interner, TermId};
pub use composition::{compose, CompositionPlan};
pub use matchmaker::{match_concept, match_request, Degree, MatchResult, Matchmaker};
pub use mediation::{ClassMapping, Mediator};
pub use ontology::{ClassId, Ontology, OntologyError};
pub use profile::{QosConstraint, QosKey, QosValue, ServiceProfile, ServiceRequest};
pub use reasoner::{ConceptClosure, SubsumptionIndex};
pub use triple::{Triple, TriplePattern, TripleStore};
