//! Subsumption reasoning over a class taxonomy.
//!
//! "In semantics-enabled registries, inference mechanisms can be used to find
//! matches based on a subtype hierarchy (e.g. a Radar is a kind of Sensor)."
//! The index precomputes the reflexive-transitive closure of `subClassOf` as
//! one bitset per class, so every subsumption test during matchmaking is a
//! single bit probe, and also records minimal up-distances for ranking.

use crate::bitset::BitSet;
use crate::ontology::{ClassId, Ontology};

/// Precomputed subsumption closure for one ontology.
#[derive(Debug)]
pub struct SubsumptionIndex {
    /// Per class: the set of its ancestors, itself included.
    ancestors: Vec<BitSet>,
    /// Per class: the set of its descendants, itself included.
    descendants: Vec<BitSet>,
    /// Per class: depth = length of the longest parent chain to a root.
    depth: Vec<u32>,
    n: usize,
}

/// One class's rows of a [`SubsumptionIndex`], borrowed: bit `i` of
/// `ancestors` (`descendants`) is set when class `i` subsumes (is subsumed
/// by) the class, itself included.
#[derive(Clone, Copy, Debug)]
pub struct ConceptClosure<'a> {
    pub ancestors: &'a BitSet,
    pub descendants: &'a BitSet,
    pub depth: u32,
}

impl SubsumptionIndex {
    /// Builds the closure. Classes are ordered parents-before-children by
    /// [`Ontology`] construction, so one forward pass suffices.
    pub fn build(ontology: &Ontology) -> Self {
        let n = ontology.len();
        let mut ancestors: Vec<BitSet> = Vec::with_capacity(n);
        let mut depth = vec![0u32; n];
        for id in ontology.classes() {
            let mut set = BitSet::with_capacity(n);
            set.insert(id.index());
            let mut d = 0;
            for &p in ontology.parents(id) {
                debug_assert!(p.index() < id.index(), "parents precede children");
                let parent_set = ancestors[p.index()].clone();
                set.union_with(&parent_set);
                d = d.max(depth[p.index()] + 1);
            }
            depth[id.index()] = d;
            ancestors.push(set);
        }
        // Descendant closures: the dual reverse pass. Children always have
        // larger indices than their parents, so walking ids in descending
        // order sees every child's full closure before its parents need it.
        let mut descendants: Vec<BitSet> = (0..n)
            .map(|i| {
                let mut set = BitSet::with_capacity(n);
                set.insert(i);
                set
            })
            .collect();
        for i in (0..n).rev() {
            for &c in ontology.children(ClassId(i as u32)) {
                debug_assert!(c.index() > i, "children follow parents");
                let child_set = descendants[c.index()].clone();
                descendants[i].union_with(&child_set);
            }
        }
        Self { ancestors, descendants, depth, n }
    }

    /// Number of classes covered.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True when the id names a class of this ontology. Wire input can carry
    /// any `u32`; registries use this to reject adverts referencing unknown
    /// concepts at publish time instead of storing them silently unmatched.
    #[inline]
    pub fn contains(&self, c: ClassId) -> bool {
        c.index() < self.n
    }

    /// Reflexive subsumption: true when `sub` ⊑ `sup` (every `sub` is a
    /// `sup`), including `sub == sup`.
    ///
    /// Total over all of `ClassId`: ids outside this ontology (they arrive
    /// from the wire, where any `u32` decodes) subsume nothing and are
    /// subsumed by nothing except themselves.
    #[inline]
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        match self.ancestors.get(sub.index()) {
            Some(set) => set.contains(sup.index()),
            None => sub == sup,
        }
    }

    /// Strict subsumption: `sub` ⊏ `sup`.
    #[inline]
    pub fn is_strict_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        sub != sup && self.is_subclass(sub, sup)
    }

    /// All ancestors of `c`, itself included. A class outside this ontology
    /// is its own sole ancestor, matching [`SubsumptionIndex::is_subclass`].
    pub fn ancestors(&self, c: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let known = self.ancestors.get(c.index());
        let unknown = known.is_none().then_some(c);
        known
            .into_iter()
            .flat_map(|set| set.iter().map(|i| ClassId(i as u32)))
            .chain(unknown)
    }

    /// All descendants of `c`, itself included — the dual of
    /// [`SubsumptionIndex::ancestors`]. A class outside this ontology is its
    /// own sole descendant.
    pub fn descendants(&self, c: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let known = self.descendants.get(c.index());
        let unknown = known.is_none().then_some(c);
        known
            .into_iter()
            .flat_map(|set| set.iter().map(|i| ClassId(i as u32)))
            .chain(unknown)
    }

    /// Every class related to `c` in either direction: ancestors ∪
    /// descendants, `c` included, in ascending id order. This is the complete
    /// set of classes `x` with `related(x, c)`, which candidate-generation
    /// indexes rely on: any concept that can subsume or be subsumed by `c`
    /// appears here. Classes outside this ontology relate only to themselves.
    pub fn related_concepts(&self, c: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let known = self
            .ancestors
            .get(c.index())
            .zip(self.descendants.get(c.index()));
        let unknown = known.is_none().then_some(c);
        known
            .into_iter()
            .flat_map(|(anc, desc)| anc.union_iter(desc).map(|i| ClassId(i as u32)))
            .chain(unknown)
    }

    /// The precomputed closure of `c`: what a caller matching one concept
    /// against many needs to turn every later subsumption test into a bit
    /// probe and every distance into a subtraction. `None` for a class
    /// outside this ontology, which relates only to itself.
    #[inline]
    pub fn closure(&self, c: ClassId) -> Option<ConceptClosure<'_>> {
        Some(ConceptClosure {
            ancestors: self.ancestors.get(c.index())?,
            descendants: &self.descendants[c.index()],
            depth: self.depth[c.index()],
        })
    }

    /// Depth of `c` (longest chain to a root; roots have depth 0). Classes
    /// outside this ontology count as roots of their own trivial hierarchy.
    #[inline]
    pub fn depth(&self, c: ClassId) -> u32 {
        self.depth.get(c.index()).copied().unwrap_or(0)
    }

    /// True when the classes are related in either direction.
    pub fn related(&self, a: ClassId, b: ClassId) -> bool {
        self.is_subclass(a, b) || self.is_subclass(b, a)
    }

    /// A coarse semantic distance for ranking: 0 for equal classes, else
    /// `|depth(a) - depth(b)|` when related (chain length between them along
    /// the longest-chain depth metric), else `None`.
    pub fn up_distance(&self, a: ClassId, b: ClassId) -> Option<u32> {
        if self.related(a, b) {
            Some(self.depth(a).abs_diff(self.depth(b)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Ontology, [ClassId; 5]) {
        // Thing
        //  ├─ Sensor ── Radar ─┐
        //  └─ Weapon ──────────┴─ RadarGuidedWeapon (multiple inheritance)
        let mut o = Ontology::new();
        let thing = o.class("Thing", &[]);
        let sensor = o.class("Sensor", &[thing]);
        let radar = o.class("Radar", &[sensor]);
        let weapon = o.class("Weapon", &[thing]);
        let rgw = o.class("RadarGuidedWeapon", &[radar, weapon]);
        (o, [thing, sensor, radar, weapon, rgw])
    }

    #[test]
    fn reflexive_and_transitive() {
        let (o, [thing, sensor, radar, weapon, rgw]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        assert!(idx.is_subclass(radar, radar), "reflexive");
        assert!(idx.is_subclass(radar, sensor));
        assert!(idx.is_subclass(radar, thing), "transitive");
        assert!(!idx.is_subclass(sensor, radar), "not symmetric");
        assert!(!idx.is_subclass(weapon, sensor));
        assert!(idx.is_subclass(rgw, sensor) && idx.is_subclass(rgw, weapon), "diamond");
        assert!(idx.is_strict_subclass(radar, sensor));
        assert!(!idx.is_strict_subclass(radar, radar));
    }

    #[test]
    fn depths_and_distance() {
        let (o, [thing, sensor, radar, _weapon, rgw]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        assert_eq!(idx.depth(thing), 0);
        assert_eq!(idx.depth(sensor), 1);
        assert_eq!(idx.depth(radar), 2);
        assert_eq!(idx.depth(rgw), 3);
        assert_eq!(idx.up_distance(radar, radar), Some(0));
        assert_eq!(idx.up_distance(radar, thing), Some(2));
        assert_eq!(idx.up_distance(thing, radar), Some(2), "symmetric");
    }

    #[test]
    fn unrelated_classes_have_no_distance() {
        let (o, [_, sensor, _, weapon, _]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        assert!(!idx.related(sensor, weapon));
        assert_eq!(idx.up_distance(sensor, weapon), None);
    }

    #[test]
    fn ancestors_iteration() {
        let (o, [thing, sensor, radar, _, _]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        let anc: Vec<ClassId> = idx.ancestors(radar).collect();
        assert_eq!(anc, vec![thing, sensor, radar]);
    }

    #[test]
    fn descendants_iteration() {
        let (o, [thing, sensor, radar, weapon, rgw]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        let desc: Vec<ClassId> = idx.descendants(sensor).collect();
        assert_eq!(desc, vec![sensor, radar, rgw]);
        let desc: Vec<ClassId> = idx.descendants(thing).collect();
        assert_eq!(desc, vec![thing, sensor, radar, weapon, rgw]);
        assert_eq!(idx.descendants(rgw).collect::<Vec<_>>(), vec![rgw], "leaf");
    }

    #[test]
    fn descendants_dual_to_ancestors() {
        let (o, _) = diamond();
        let idx = SubsumptionIndex::build(&o);
        for a in o.classes() {
            for b in o.classes() {
                assert_eq!(
                    idx.ancestors(a).any(|x| x == b),
                    idx.descendants(b).any(|x| x == a),
                    "b ∈ ancestors(a) ⇔ a ∈ descendants(b) for {a:?},{b:?}"
                );
            }
        }
    }

    #[test]
    fn related_concepts_is_exactly_the_related_set() {
        let (o, [_, sensor, radar, weapon, _]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        for c in o.classes() {
            let rel: Vec<ClassId> = idx.related_concepts(c).collect();
            let expect: Vec<ClassId> =
                o.classes().filter(|&x| idx.related(x, c)).collect();
            assert_eq!(rel, expect, "related_concepts({c:?}) in ascending order");
        }
        assert!(idx.related_concepts(radar).any(|x| x == sensor));
        assert!(!idx.related_concepts(radar).any(|x| x == weapon));
    }

    #[test]
    fn closure_rows_agree_with_the_pairwise_tests() {
        let (o, _) = diamond();
        let idx = SubsumptionIndex::build(&o);
        for a in o.classes() {
            let c = idx.closure(a).expect("in-ontology class");
            assert_eq!(c.depth, idx.depth(a));
            for b in o.classes() {
                assert_eq!(c.ancestors.contains(b.index()), idx.is_subclass(a, b));
                assert_eq!(c.descendants.contains(b.index()), idx.is_subclass(b, a));
            }
        }
        assert!(idx.closure(ClassId(o.len() as u32)).is_none(), "out of ontology");
        assert!(idx.closure(ClassId(u32::MAX)).is_none());
    }

    #[test]
    fn empty_ontology() {
        let idx = SubsumptionIndex::build(&Ontology::new());
        assert!(idx.is_empty());
    }

    #[test]
    fn out_of_ontology_ids_are_isolated_not_panics() {
        // Wire messages may carry any u32 as a ClassId; the index must stay
        // total. (Latent seed bug: indexing panicked, so one malformed
        // advert could crash a registry node.)
        let (o, [thing, ..]) = diamond();
        let idx = SubsumptionIndex::build(&o);
        let ghost = ClassId(o.len() as u32);
        let ghost2 = ClassId(o.len() as u32 + 7);
        assert!(idx.is_subclass(ghost, ghost), "reflexivity holds everywhere");
        assert!(!idx.is_subclass(ghost, thing));
        assert!(!idx.is_subclass(thing, ghost));
        assert!(!idx.is_subclass(ghost, ghost2));
        assert_eq!(idx.ancestors(ghost).collect::<Vec<_>>(), vec![ghost]);
        assert_eq!(idx.descendants(ghost).collect::<Vec<_>>(), vec![ghost]);
        assert_eq!(idx.related_concepts(ghost).collect::<Vec<_>>(), vec![ghost]);
        assert_eq!(idx.depth(ghost), 0);
        assert_eq!(idx.up_distance(ghost, thing), None);
        assert_eq!(idx.up_distance(ghost, ghost), Some(0));
    }
}
