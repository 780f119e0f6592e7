//! Points-to regions — the ranges of `from` instance constraints.

use std::rc::Rc;

use pta::BitSet;

/// The range of a `v̂ from r̂` instance constraint (§3.1): either a set of
/// abstract locations, or the distinguished `data` region of non-address
/// values (integers).
///
/// Location sets are shared (`Rc`): cloning a query only bumps counts, and
/// a narrowing copies a set only when it actually changes a shared one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Region {
    /// Instances drawn from this set of abstract locations.
    Locs(Rc<BitSet>),
    /// A non-address (integer) value.
    Data,
}

impl Region {
    /// A region of the given locations.
    pub fn locs(set: BitSet) -> Region {
        Region::Locs(Rc::new(set))
    }

    /// A region containing a single location.
    pub fn singleton(loc: usize) -> Region {
        Region::locs(BitSet::singleton(loc))
    }

    /// True if the region denotes no values — axiom (1) of §3.2: a `from ∅`
    /// constraint is a contradiction.
    pub fn is_empty(&self) -> bool {
        match self {
            Region::Locs(s) => s.is_empty(),
            Region::Data => false,
        }
    }

    /// Intersects in place with another region (axiom (2) of §3.2).
    /// Locations and `data` are disjoint, so mixing them yields the empty
    /// region. Returns `false` — leaving `self` unchanged — when the
    /// intersection is empty.
    pub fn intersect_with(&mut self, other: &Region) -> bool {
        match (&mut *self, other) {
            (Region::Locs(a), Region::Locs(b)) => narrow_locs(a, b),
            (Region::Data, Region::Data) => true,
            (Region::Locs(_), Region::Data) | (Region::Data, Region::Locs(_)) => false,
        }
    }

    /// Intersects in place with a location set; see
    /// [`Region::intersect_with`].
    pub fn intersect_locs(&mut self, locs: &BitSet) -> bool {
        match self {
            Region::Locs(a) => narrow_locs(a, locs),
            Region::Data => false,
        }
    }

    /// Subset check — the entailment of Equation (§) in §3.3:
    /// `(v from r̂1) |= (v from r̂2)` iff `r̂1 ⊆ r̂2`.
    pub fn is_subset(&self, other: &Region) -> bool {
        match (self, other) {
            (Region::Locs(a), Region::Locs(b)) => a.is_subset(b),
            (Region::Data, Region::Data) => true,
            (Region::Locs(a), Region::Data) => a.is_empty(),
            (Region::Data, Region::Locs(_)) => false,
        }
    }

    /// The location set, if this is a location region.
    pub fn as_locs(&self) -> Option<&BitSet> {
        match self {
            Region::Locs(s) => Some(s),
            Region::Data => None,
        }
    }
}

/// `a ∩= b`, copying `a` first only if it is shared and actually shrinks.
/// The result keeps `a`'s word length, exactly like
/// [`BitSet::intersection`]. Returns `false`, leaving `a` unchanged, when
/// the intersection is empty.
fn narrow_locs(a: &mut Rc<BitSet>, b: &BitSet) -> bool {
    if a.is_subset(b) {
        return !a.is_empty();
    }
    if a.is_disjoint(b) {
        return false;
    }
    Rc::make_mut(a).intersect_with(b);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_detection() {
        assert!(Region::locs(BitSet::new()).is_empty());
        assert!(!Region::singleton(3).is_empty());
        assert!(!Region::Data.is_empty());
    }

    #[test]
    fn intersection_narrows() {
        let mut a = Region::locs([1, 2, 3].into_iter().collect());
        let b = Region::locs([2, 3, 4].into_iter().collect());
        let shared = a.clone();
        assert!(a.intersect_with(&b));
        assert_eq!(a.as_locs().unwrap().iter().collect::<Vec<_>>(), vec![2, 3]);
        // The narrowing copied the shared set instead of changing it.
        assert_eq!(shared.as_locs().unwrap().len(), 3);
    }

    #[test]
    fn data_and_locs_are_disjoint() {
        let mut a = Region::singleton(1);
        assert!(!a.intersect_with(&Region::Data));
        assert_eq!(a, Region::singleton(1), "an empty intersection leaves the region");
        assert!(!Region::Data.intersect_with(&a));
        assert!(!Region::Data.intersect_locs(&BitSet::singleton(1)));
        let mut d = Region::Data;
        assert!(d.intersect_with(&Region::Data));
        assert!(!a.intersect_locs(&BitSet::singleton(2)));
    }

    #[test]
    fn subset_follows_set_inclusion() {
        let small = Region::singleton(2);
        let big = Region::locs([1, 2].into_iter().collect());
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(Region::Data.is_subset(&Region::Data));
        assert!(!Region::Data.is_subset(&big));
    }
}
