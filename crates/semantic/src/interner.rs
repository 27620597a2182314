//! String interning for RDF-ish terms (IRIs, literals).

use crate::hash::IdMap;

/// Identifies an interned term. Dense from zero, so it can index side tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TermId(pub u32);

impl TermId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional string ↔ [`TermId`] map. Triples are stored as id triples;
/// the interner recovers the text form for display and export.
#[derive(Default, Debug)]
pub struct Interner {
    strings: Vec<Box<str>>,
    ids: IdMap<Box<str>, TermId>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> TermId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = TermId(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.ids.insert(boxed, id);
        id
    }

    /// Looks up an already-interned string.
    pub fn get(&self, s: &str) -> Option<TermId> {
        self.ids.get(s).copied()
    }

    /// The text of an interned term.
    pub fn resolve(&self, id: TermId) -> &str {
        &self.strings[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("urn:sensor:Radar");
        let b = i.intern("urn:sensor:Radar");
        let c = i.intern("urn:sensor:Sonar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.resolve(a), "urn:sensor:Radar");
        assert_eq!(i.get("urn:sensor:Sonar"), Some(c));
        assert_eq!(i.get("nope"), None);
        assert_eq!(i.len(), 2);
    }
}
