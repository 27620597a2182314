//! Artifact hosting (paper §4.6 "Registry Support").
//!
//! "Service discovery should work in environments disconnected from the
//! Internet … additional artifacts needed by clients to evaluate or use
//! services (e.g. XML schema, ontologies) must be obtained from elsewhere.
//! Such functionality could be provided by the discovery service." Registries
//! therefore host named artifacts that clients can fetch in-band.

use crate::hash::IdMap;

/// Identifies an artifact by name and version.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactId {
    pub name: String,
    pub version: u32,
}

impl ArtifactId {
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        Self { name: name.into(), version }
    }
}

/// What kind of supporting artifact this is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactKind {
    /// A serialized ontology/taxonomy.
    Ontology,
    /// An ontology mapping between vocabularies (mediation support).
    OntologyMapping,
    /// An XML-schema-like payload description.
    Schema,
    /// A transformation (XSLT/XQuery analogue).
    Transformation,
}

/// One hosted artifact. `body` stands in for the serialized bytes; its length
/// is the wire size when shipped.
#[derive(Clone, PartialEq, Debug)]
pub struct Artifact {
    pub id: ArtifactId,
    pub kind: ArtifactKind,
    pub body: Vec<u8>,
}

/// A registry-local artifact store with latest-version lookup.
#[derive(Default, Debug)]
pub struct ArtifactRepository {
    by_id: IdMap<ArtifactId, Artifact>,
    latest: IdMap<String, u32>,
}

impl ArtifactRepository {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores an artifact; replaces any artifact with the same id. Returns
    /// `true` when this became the newest version of its name.
    pub fn put(&mut self, artifact: Artifact) -> bool {
        let name = artifact.id.name.clone();
        let version = artifact.id.version;
        self.by_id.insert(artifact.id.clone(), artifact);
        let newest = self.latest.entry(name).or_insert(version);
        if version >= *newest {
            *newest = version;
            true
        } else {
            false
        }
    }

    /// Fetches an exact version.
    pub fn get(&self, id: &ArtifactId) -> Option<&Artifact> {
        self.by_id.get(id)
    }

    /// Fetches the newest version of a name.
    pub fn get_latest(&self, name: &str) -> Option<&Artifact> {
        let version = *self.latest.get(name)?;
        self.by_id.get(&ArtifactId::new(name, version))
    }

    /// Number of stored artifacts (all versions).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(name: &str, version: u32, size: usize) -> Artifact {
        Artifact { id: ArtifactId::new(name, version), kind: ArtifactKind::Ontology, body: vec![0; size] }
    }

    #[test]
    fn put_get_latest() {
        let mut repo = ArtifactRepository::new();
        assert!(repo.put(art("nato-sensors", 1, 100)));
        assert!(repo.put(art("nato-sensors", 3, 120)));
        assert!(!repo.put(art("nato-sensors", 2, 110)), "older version is not newest");
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.get_latest("nato-sensors").unwrap().id.version, 3);
        assert_eq!(repo.get(&ArtifactId::new("nato-sensors", 2)).unwrap().body.len(), 110);
        assert!(repo.get_latest("missing").is_none());
    }
}
