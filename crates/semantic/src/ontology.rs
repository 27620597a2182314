//! Class-taxonomy ontologies.
//!
//! The shared semantic model the paper's scenarios standardize ("upper-level
//! ontologies and service taxonomies could be standardized") is modelled as a
//! DAG of named classes. Acyclicity holds by construction: a class may only
//! name already-registered classes as superclasses.

use std::fmt;

use crate::hash::IdMap;
use crate::interner::Interner;
use crate::triple::{Triple, TriplePattern, TripleStore};

/// Identifies a class within one [`Ontology`]. Dense from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClassId(pub u32);

impl ClassId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors from ontology construction and import.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OntologyError {
    DuplicateClass(String),
    UnknownParent(String),
    /// Import found subclass edges that do not form a DAG.
    CyclicImport,
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateClass(n) => write!(f, "class {n:?} already defined"),
            Self::UnknownParent(n) => write!(f, "parent class {n:?} not defined"),
            Self::CyclicImport => write!(f, "imported subclass edges contain a cycle"),
        }
    }
}

impl std::error::Error for OntologyError {}

/// The predicate IRI used when exporting taxonomies to triples.
pub const SUBCLASS_OF: &str = "rdfs:subClassOf";
/// The predicate IRI marking class declarations in the triple export.
pub const IS_CLASS: &str = "rdf:type";
/// The object IRI marking class declarations in the triple export.
pub const CLASS: &str = "rdfs:Class";

/// A named class taxonomy (DAG, possibly multiple roots, multiple
/// inheritance allowed).
#[derive(Default, Debug)]
pub struct Ontology {
    names: Vec<String>,
    by_name: IdMap<String, ClassId>,
    parents: Vec<Vec<ClassId>>,
    children: Vec<Vec<ClassId>>,
}

impl Ontology {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class under the given (already-registered) superclasses.
    /// An empty `parents` slice makes it a root.
    pub fn add_class(&mut self, name: &str, parents: &[ClassId]) -> Result<ClassId, OntologyError> {
        if self.by_name.contains_key(name) {
            return Err(OntologyError::DuplicateClass(name.to_string()));
        }
        for p in parents {
            if p.index() >= self.names.len() {
                return Err(OntologyError::UnknownParent(format!("#{}", p.0)));
            }
        }
        let id = ClassId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.parents.push(parents.to_vec());
        self.children.push(Vec::new());
        for p in parents {
            self.children[p.index()].push(id);
        }
        Ok(id)
    }

    /// Convenience: add a class, panicking on error. For hand-built test and
    /// example taxonomies where errors are bugs.
    pub fn class(&mut self, name: &str, parents: &[ClassId]) -> ClassId {
        self.add_class(name, parents).expect("valid class definition")
    }

    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    pub fn name(&self, id: ClassId) -> &str {
        &self.names[id.index()]
    }

    pub fn parents(&self, id: ClassId) -> &[ClassId] {
        &self.parents[id.index()]
    }

    pub fn children(&self, id: ClassId) -> &[ClassId] {
        &self.children[id.index()]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All class ids, in definition order.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> {
        (0..self.names.len() as u32).map(ClassId)
    }

    /// Exports the taxonomy as triples (`rdf:type rdfs:Class` declarations
    /// plus `rdfs:subClassOf` edges) — this is what a registry physically
    /// hosts and ships to disconnected clients.
    pub fn to_triples(&self, interner: &mut Interner, store: &mut TripleStore) {
        let p_sub = interner.intern(SUBCLASS_OF);
        let p_type = interner.intern(IS_CLASS);
        let o_class = interner.intern(CLASS);
        for id in self.classes() {
            let s = interner.intern(self.name(id));
            store.insert(Triple::new(s, p_type, o_class));
            for parent in self.parents(id) {
                let o = interner.intern(self.name(*parent));
                store.insert(Triple::new(s, p_sub, o));
            }
        }
    }

    /// Rebuilds an ontology from a triple export. Classes come back in
    /// topological order (parents before children); ids are NOT preserved,
    /// names are. Fails if the edges are cyclic.
    pub fn from_triples(interner: &Interner, store: &TripleStore) -> Result<Self, OntologyError> {
        let (Some(p_sub), Some(p_type), Some(o_class)) =
            (interner.get(SUBCLASS_OF), interner.get(IS_CLASS), interner.get(CLASS))
        else {
            return Ok(Self::new());
        };
        let decls: Vec<&str> = store
            .query(TriplePattern::any().with_p(p_type).with_o(o_class))
            .map(|t| interner.resolve(t.s))
            .collect();
        let mut edges: IdMap<&str, Vec<&str>> = IdMap::default();
        for t in store.query(TriplePattern::any().with_p(p_sub)) {
            edges
                .entry(interner.resolve(t.s))
                .or_default()
                .push(interner.resolve(t.o));
        }
        // Kahn's algorithm over the declared classes.
        let mut indegree: IdMap<&str, usize> =
            decls.iter().map(|&n| (n, edges.get(n).map_or(0, Vec::len))).collect();
        let mut dependents: IdMap<&str, Vec<&str>> = IdMap::default();
        for (&child, parents) in &edges {
            for &parent in parents {
                dependents.entry(parent).or_default().push(child);
            }
        }
        let mut ready: Vec<&str> = {
            let mut r: Vec<&str> =
                indegree.iter().filter(|&(_, &d)| d == 0).map(|(&n, _)| n).collect();
            r.sort_unstable();
            r
        };
        let mut ont = Self::new();
        let mut placed = 0usize;
        while let Some(name) = ready.pop() {
            let parent_ids: Vec<ClassId> = edges
                .get(name)
                .map(|ps| ps.iter().filter_map(|p| ont.lookup(p)).collect())
                .unwrap_or_default();
            ont.add_class(name, &parent_ids)?;
            placed += 1;
            if let Some(deps) = dependents.get(name) {
                let mut newly: Vec<&str> = Vec::new();
                for &d in deps {
                    if let Some(cnt) = indegree.get_mut(d) {
                        *cnt -= 1;
                        if *cnt == 0 {
                            newly.push(d);
                        }
                    }
                }
                newly.sort_unstable();
                ready.extend(newly);
            }
        }
        if placed != decls.len() {
            return Err(OntologyError::CyclicImport);
        }
        Ok(ont)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensors() -> Ontology {
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        o.class("Radar", &[sensor]);
        o.class("Sonar", &[sensor]);
        o
    }

    #[test]
    fn basic_structure() {
        let o = sensors();
        let sensor = o.lookup("Sensor").unwrap();
        let radar = o.lookup("Radar").unwrap();
        assert_eq!(o.name(radar), "Radar");
        assert_eq!(o.parents(radar), &[sensor]);
        assert_eq!(o.children(sensor).len(), 2);
        assert_eq!(o.len(), 4);
    }

    #[test]
    fn duplicate_and_unknown_parent_errors() {
        let mut o = sensors();
        assert!(matches!(o.add_class("Radar", &[]), Err(OntologyError::DuplicateClass(_))));
        assert!(matches!(
            o.add_class("X", &[ClassId(99)]),
            Err(OntologyError::UnknownParent(_))
        ));
    }

    #[test]
    fn multiple_inheritance() {
        let mut o = Ontology::new();
        let a = o.class("A", &[]);
        let b = o.class("B", &[]);
        let c = o.class("C", &[a, b]);
        assert_eq!(o.parents(c), &[a, b]);
    }

    #[test]
    fn triple_round_trip_preserves_structure() {
        let o = sensors();
        let mut interner = Interner::new();
        let mut store = TripleStore::new();
        o.to_triples(&mut interner, &mut store);
        // 4 type declarations + 3 subclass edges.
        assert_eq!(store.len(), 7);

        let back = Ontology::from_triples(&interner, &store).unwrap();
        assert_eq!(back.len(), 4);
        let radar = back.lookup("Radar").unwrap();
        let sensor = back.lookup("Sensor").unwrap();
        assert_eq!(back.parents(radar), &[sensor]);
        let thing = back.lookup("Thing").unwrap();
        assert_eq!(back.parents(sensor), &[thing]);
    }

    #[test]
    fn cyclic_import_rejected() {
        let mut interner = Interner::new();
        let mut store = TripleStore::new();
        let p_sub = interner.intern(SUBCLASS_OF);
        let p_type = interner.intern(IS_CLASS);
        let o_class = interner.intern(CLASS);
        let a = interner.intern("A");
        let b = interner.intern("B");
        store.insert(Triple::new(a, p_type, o_class));
        store.insert(Triple::new(b, p_type, o_class));
        store.insert(Triple::new(a, p_sub, b));
        store.insert(Triple::new(b, p_sub, a));
        assert!(matches!(
            Ontology::from_triples(&interner, &store),
            Err(OntologyError::CyclicImport)
        ));
    }

    #[test]
    fn empty_store_imports_empty_ontology() {
        let interner = Interner::new();
        let store = TripleStore::new();
        assert!(Ontology::from_triples(&interner, &store).unwrap().is_empty());
    }
}
