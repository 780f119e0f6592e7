//! Query-history subsumption (§3.3 "Query Simplification with
//! Disaliasing").
//!
//! The engine keeps a history of queries seen at procedure boundaries; when
//! a new query arrives that entails (is stronger than) a previously explored
//! one, it is dropped — refuting the weaker query refutes the stronger one.
//! Loop heads get the same treatment locally inside
//! [`loop_fixpoint`](crate::engine::Engine).
//!
//! Each stored query is interned with a precomputed [`SubKey`] — compact
//! bitmasks over its local/static/field footprint. Entailment `q ⊨ old`
//! requires every constraint of `old` to be matched in `q`, so
//! `old.key ⊆ q.key` is a *necessary* condition; the key check rejects most
//! non-matches in a few word operations before the structural
//! [`Query::entails`] walk runs.

use std::collections::HashMap;

use tir::MethodId;

use crate::query::{Query, QueryScratch};

/// A program point at which query histories are kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Point {
    /// The entry of a method, reached by upward propagation.
    MethodEntry(MethodId),
}

/// Interned subsumption key: Bloom-style one-word masks of the query's
/// constraint footprint. For `q.entails(old, _)` to hold, `old`'s locals,
/// statics, and heap fields must each be present in `q`, so
/// `old_key.subset_of(q_key)` is necessary for entailment (never the other
/// way: a set bit only says "some id hashing here is present").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SubKey {
    locals: u64,
    statics: u64,
    fields: u64,
}

#[inline]
fn mask(index: usize) -> u64 {
    1u64 << (index & 63)
}

impl SubKey {
    /// Computes the key for `q`.
    pub(crate) fn of(q: &Query) -> SubKey {
        let mut key = SubKey::default();
        for var in q.locals.keys() {
            key.locals |= mask(var.index());
        }
        for g in q.statics.keys() {
            key.statics |= mask(g.index());
        }
        for cell in &q.heap {
            key.fields |= mask(cell.field.index());
        }
        key
    }

    /// True when every footprint bit of `self` is present in `other` — the
    /// necessary condition for a query with key `other` to entail one with
    /// key `self`.
    #[inline]
    pub(crate) fn subset_of(&self, other: &SubKey) -> bool {
        self.locals & !other.locals == 0
            && self.statics & !other.statics == 0
            && self.fields & !other.fields == 0
    }
}

/// Bounded per-point query history.
#[derive(Debug, Default)]
pub(crate) struct History {
    map: HashMap<Point, Vec<(SubKey, Query)>>,
}

/// Cap on stored queries per point; beyond it the oldest entries rotate
/// out (bounding memory at a small precision cost).
const PER_POINT_CAP: usize = 64;

impl History {
    pub(crate) fn new() -> Self {
        History::default()
    }

    /// Forgets everything (called between edges).
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// True if a weaker-or-equal query was already explored at `point`.
    pub(crate) fn subsumes_at(
        &self,
        point: Point,
        q: &Query,
        strict: bool,
        scratch: &mut QueryScratch,
    ) -> bool {
        let Some(entries) = self.map.get(&point) else { return false };
        let key = SubKey::of(q);
        entries
            .iter()
            .any(|(old_key, old)| old_key.subset_of(&key) && q.entails(old, strict, scratch))
    }

    /// Records `q` at `point`.
    pub(crate) fn insert(&mut self, point: Point, q: Query) {
        let qs = self.map.entry(point).or_default();
        if qs.len() >= PER_POINT_CAP {
            qs.remove(0);
        }
        let key = SubKey::of(&q);
        qs.push((key, q));
    }

    /// Number of queries stored at `point` (test support).
    #[cfg(test)]
    fn len_at(&self, point: Point) -> usize {
        self.map.get(&point).map(Vec::len).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::region::Region;
    use crate::value::Val;
    use tir::VarId;

    #[test]
    fn identical_query_is_subsumed() {
        let mut h = History::new();
        let mut q = Query::new();
        let s = q.fresh_sym(Region::singleton(1));
        q.locals.insert(VarId(0), Val::Sym(s));
        let p = Point::MethodEntry(MethodId(0));
        assert!(!h.subsumes_at(p, &q, false, &mut QueryScratch::default()));
        h.insert(p, q.clone());
        assert!(h.subsumes_at(p, &q, false, &mut QueryScratch::default()));
    }

    #[test]
    fn stronger_query_is_subsumed_weaker_is_not() {
        let mut h = History::new();
        let p = Point::MethodEntry(MethodId(0));
        let mut weak = Query::new();
        let s = weak.fresh_sym(Region::locs([1, 2].into_iter().collect()));
        weak.locals.insert(VarId(0), Val::Sym(s));
        h.insert(p, weak.clone());

        let mut strong = Query::new();
        let t = strong.fresh_sym(Region::singleton(1));
        strong.locals.insert(VarId(0), Val::Sym(t));
        assert!(h.subsumes_at(p, &strong, false, &mut QueryScratch::default()));
        // Strict (fully symbolic) region comparison disables the subset
        // check.
        assert!(!h.subsumes_at(p, &strong, true, &mut QueryScratch::default()));

        let mut h2 = History::new();
        h2.insert(p, strong);
        assert!(!h2.subsumes_at(p, &weak, false, &mut QueryScratch::default()));
    }

    #[test]
    fn per_point_cap_rotates() {
        let mut h = History::new();
        let p = Point::MethodEntry(MethodId(0));
        for i in 0..(PER_POINT_CAP + 10) {
            let mut q = Query::new();
            let s = q.fresh_sym(Region::singleton(i));
            q.locals.insert(VarId(0), Val::Sym(s));
            h.insert(p, q);
        }
        assert_eq!(h.len_at(p), PER_POINT_CAP);
    }

    #[test]
    fn clear_empties() {
        let mut h = History::new();
        let p = Point::MethodEntry(MethodId(1));
        h.insert(p, Query::new());
        h.clear();
        assert!(!h.subsumes_at(p, &Query::new(), false, &mut QueryScratch::default()));
    }

    #[test]
    fn subkey_subset_tracks_footprint() {
        let mut small = Query::new();
        let s = small.fresh_sym(Region::singleton(1));
        small.locals.insert(VarId(0), Val::Sym(s));

        let mut big = small.clone();
        let t = big.fresh_sym(Region::singleton(2));
        big.locals.insert(VarId(1), Val::Sym(t));

        let ks = SubKey::of(&small);
        let kb = SubKey::of(&big);
        assert!(ks.subset_of(&kb));
        assert!(!kb.subset_of(&ks));
        // The key filter is only a necessary condition, so the reject
        // direction must be exact: `big` has a local `small` lacks.
        assert!(!small.entails(&big, false, &mut QueryScratch::default()));
    }
}
