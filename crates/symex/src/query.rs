//! Mixed symbolic-explicit queries (§2.1, §3.1).
//!
//! A [`Query`] is one conjunctive candidate witness: exact points-to
//! constraints on locals, globals, and heap cells (a bounded separation-logic
//! fragment — distinct cells are separated by `*`), `from` instance
//! constraints tying each symbolic value to a points-to region, and pure
//! integer constraints split into *internal* equalities and capped *path*
//! conditions.
//!
//! Queries are forked at every branch, call and heap write, so they are
//! built to be cheap to clone: the maps are sorted vectors, region sets
//! are shared ([`Region`]), and the trace is a persistent list whose
//! chunks forks share.

use std::rc::Rc;

use pta::BitSet;
use solver::{Atom, ConstraintSet, Term};
use tir::{CmdId, FieldId, GlobalId, VarId};

use crate::region::Region;
use crate::value::{SymId, Val};
use crate::vecmap::VecMap;

/// Raised when a query transfer discovers a contradiction; the enclosing
/// path program is pruned. The variants drive the refutation statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Refuted {
    /// A `from` region became empty (axiom 1 of §3.2).
    EmptyRegion,
    /// Separation: one memory cell would need two distinct values.
    Separation,
    /// The pure/path constraints became unsatisfiable.
    Pure,
    /// A constraint mentioned an instance before its allocation site.
    Allocation,
    /// Constraints survived to the program entry, where the heap is empty.
    Entry,
}

impl std::fmt::Display for Refuted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Refuted::EmptyRegion => "empty instance region",
            Refuted::Separation => "separation contradiction",
            Refuted::Pure => "unsatisfiable pure constraints",
            Refuted::Allocation => "instance constrained before allocation",
            Refuted::Entry => "constraints unsatisfiable at program entry",
        };
        f.write_str(s)
    }
}

/// One exact heap points-to constraint `v̂·f ↦ û` (with an optional symbolic
/// array index for `contents` cells).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapCell {
    /// The owning instance.
    pub obj: SymId,
    /// The field.
    pub field: FieldId,
    /// The stored value.
    pub val: Val,
    /// For array `contents` cells: the element index.
    pub idx: Option<Val>,
}

/// A conjunctive candidate witness (see the module-level documentation).
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Exact points-to constraints on locals: `x ↦ v`.
    pub(crate) locals: VecMap<VarId, Val>,
    /// Exact points-to constraints on globals: `$G ↦ v`.
    pub(crate) statics: VecMap<GlobalId, Val>,
    /// Exact heap constraints, implicitly `*`-separated.
    pub heap: Vec<HeapCell>,
    /// `from` instance constraints per symbolic value.
    regions: VecMap<SymId, Region>,
    /// Internal pure constraints (value equalities, array index relations).
    pub pure: ConstraintSet,
    /// Path conditions gathered from guards; capped by the engine.
    pub path: ConstraintSet,
    /// Pending return-value constraint while entering a callee backwards:
    /// consumed by the callee's trailing `return` transfer.
    pub ret_slot: Option<Val>,
    next_sym: u32,
    /// Commands traversed by this path program.
    trace: Trace,
}

/// Commands per [`TraceChunk`].
const TRACE_CHUNK: usize = 16;

/// The commands a path program traversed, in traversal order, as a
/// persistent list of fixed-size chunks: a fork shares every chunk, and a
/// push appends in place while its chunk is unshared.
#[derive(Clone, Debug, Default)]
struct Trace {
    head: Option<Rc<TraceChunk>>,
    len: usize,
}

#[derive(Debug)]
struct TraceChunk {
    ids: [CmdId; TRACE_CHUNK],
    n: usize,
    prev: Option<Rc<TraceChunk>>,
}

impl Trace {
    fn push(&mut self, cmd: CmdId) {
        self.len += 1;
        if let Some(chunk) = self.head.as_mut().and_then(Rc::get_mut) {
            if chunk.n < TRACE_CHUNK {
                chunk.ids[chunk.n] = cmd;
                chunk.n += 1;
                return;
            }
        }
        let mut ids = [CmdId(0); TRACE_CHUNK];
        ids[0] = cmd;
        self.head = Some(Rc::new(TraceChunk { ids, n: 1, prev: self.head.take() }));
    }

    fn to_vec(&self) -> Vec<CmdId> {
        let mut out = Vec::with_capacity(self.len);
        let mut chunk = self.head.as_deref();
        while let Some(c) = chunk {
            out.extend(c.ids[..c.n].iter().rev());
            chunk = c.prev.as_deref();
        }
        out.reverse();
        out
    }
}

/// Reusable buffers for [`Query::gc`] and [`Query::entails`]. The engine
/// owns one, so neither allocates once the buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    structural: Vec<u32>,
    live: Vec<u32>,
    occurrences: Vec<(u32, usize)>,
    /// Entailment's symbol matching, `theirs → mine`, rolled back on a
    /// failed cell trial.
    map: Vec<(SymId, SymId)>,
    used: Vec<bool>,
}

fn insert_sym(set: &mut Vec<u32>, s: u32) -> bool {
    if set.contains(&s) {
        false
    } else {
        set.push(s);
        true
    }
}

impl Query {
    /// An empty query (the `any` memory — trivially witnessed).
    pub fn new() -> Query {
        Query::default()
    }

    /// Allocates a fresh symbolic value constrained to `region`.
    pub fn fresh_sym(&mut self, region: Region) -> SymId {
        let id = SymId(self.next_sym);
        self.next_sym += 1;
        self.regions.insert(id, region);
        id
    }

    /// A watermark: all symbolic values created after this call have ids
    /// `>=` the returned mark (unification keeps the smaller id as the
    /// representative, so merged values stay below their original marks).
    pub fn sym_mark(&self) -> u32 {
        self.next_sym
    }

    /// Drops pure and path atoms that mention any symbolic value created at
    /// or after `mark` — the loop-widening weakening: constraints derived
    /// during loop analysis are discarded, constraints about loop-invariant
    /// values survive.
    pub fn drop_atoms_since(&mut self, mark: u32) {
        let keep = |a: &Atom| a.syms().all(|s| s < mark);
        self.pure.retain(keep);
        self.path.retain(keep);
    }

    /// The `from` region of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is unknown to this query.
    pub fn region(&self, s: SymId) -> &Region {
        self.regions.get(&s).expect("unknown symbolic value")
    }

    /// All symbolic values with their regions.
    pub fn regions(&self) -> impl Iterator<Item = (SymId, &Region)> {
        self.regions.iter().map(|(&s, r)| (s, r))
    }

    /// Narrows the region of `s` by intersection with `locs`.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::EmptyRegion`] if the intersection is empty — the
    /// eager contradiction at the heart of the mixed representation (§2.2).
    pub fn narrow(&mut self, s: SymId, locs: &BitSet) -> Result<(), Refuted> {
        let r = self.regions.get_mut(&s).expect("unknown symbolic value");
        if r.intersect_locs(locs) {
            Ok(())
        } else {
            Err(Refuted::EmptyRegion)
        }
    }

    /// Unifies two values, merging symbolic variables (intersecting their
    /// regions) and substituting throughout the query.
    ///
    /// # Errors
    ///
    /// Returns a [`Refuted`] reason when the values cannot be equal: a
    /// symbolic instance against `null`, clashing constants, disjoint
    /// regions, or a resulting separation/pure contradiction.
    pub fn unify(&mut self, a: Val, b: Val) -> Result<(), Refuted> {
        match (a, b) {
            (Val::Null, Val::Null) => Ok(()),
            (Val::Int(x), Val::Int(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(Refuted::Pure)
                }
            }
            (Val::Null, Val::Int(_)) | (Val::Int(_), Val::Null) => Err(Refuted::Pure),
            // A symbolic value denotes a concrete instance or integer —
            // never null.
            (Val::Sym(_), Val::Null) | (Val::Null, Val::Sym(_)) => Err(Refuted::Separation),
            (Val::Sym(s), Val::Int(c)) | (Val::Int(c), Val::Sym(s)) => {
                match self.region(s) {
                    Region::Data => {}
                    Region::Locs(_) => return Err(Refuted::EmptyRegion),
                }
                self.add_pure(tir::CmpOp::Eq, Term::sym(s.0), Term::int(c))
            }
            (Val::Sym(s1), Val::Sym(s2)) => {
                if s1 == s2 {
                    return Ok(());
                }
                let (rep, gone) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                let r1 = self.regions.remove(&gone).expect("unknown symbolic value");
                let r0 = self.regions.get_mut(&rep).expect("unknown symbolic value");
                if !r0.intersect_with(&r1) {
                    return Err(Refuted::EmptyRegion);
                }
                self.substitute(gone, rep)
            }
        }
    }

    /// Replaces every occurrence of `gone` with `rep`, then re-establishes
    /// the one-value-per-cell invariant of the heap.
    fn substitute(&mut self, gone: SymId, rep: SymId) -> Result<(), Refuted> {
        let subst = |v: Val| v.map_sym(|s| if s == gone { rep } else { s });
        if let Some(r) = self.ret_slot {
            self.ret_slot = Some(subst(r));
        }
        for v in self.locals.values_mut() {
            *v = subst(*v);
        }
        for v in self.statics.values_mut() {
            *v = subst(*v);
        }
        for cell in &mut self.heap {
            if cell.obj == gone {
                cell.obj = rep;
            }
            cell.val = subst(cell.val);
            cell.idx = cell.idx.map(subst);
        }
        let rename = |s: u32| if s == gone.0 { rep.0 } else { s };
        self.pure.rename_syms(rename);
        self.path.rename_syms(rename);
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        self.dedupe_cells()
    }

    /// Merges heap cells that now name the same memory cell. Two non-array
    /// cells with the same `(obj, field)` are one concrete cell, so their
    /// values unify; array cells are merged only when their indices are
    /// syntactically equal (otherwise they may address distinct elements).
    fn dedupe_cells(&mut self) -> Result<(), Refuted> {
        loop {
            let mut pair: Option<(usize, usize)> = None;
            'outer: for i in 0..self.heap.len() {
                for j in (i + 1)..self.heap.len() {
                    let (a, b) = (&self.heap[i], &self.heap[j]);
                    if a.obj == b.obj && a.field == b.field {
                        match (&a.idx, &b.idx) {
                            (None, None) => {
                                pair = Some((i, j));
                                break 'outer;
                            }
                            (Some(x), Some(y)) if x == y => {
                                pair = Some((i, j));
                                break 'outer;
                            }
                            _ => {}
                        }
                    }
                }
            }
            let Some((i, j)) = pair else { return Ok(()) };
            let b = self.heap.remove(j);
            let a_val = self.heap[i].val;
            self.unify(a_val, b.val)?;
        }
    }

    /// True if the pure and path constraints are jointly satisfiable.
    /// Solver failures are absorbed as "satisfiable" (refutation-sound);
    /// use [`Query::try_pure_sat`] to surface them.
    pub fn pure_sat(&self) -> bool {
        self.try_pure_sat().unwrap_or(true)
    }

    /// True if the pure and path constraints are jointly satisfiable,
    /// reporting solver failures (overflow, oversized sets) to the caller.
    pub fn try_pure_sat(&self) -> Result<bool, solver::SolverError> {
        self.pure.try_is_sat_with(self.path.atoms())
    }

    /// The combined pure+path constraint set.
    pub fn all_pure(&self) -> ConstraintSet {
        let mut all = self.pure.clone();
        for a in self.path.atoms() {
            all.add_atom(*a);
        }
        all
    }

    /// Adds an internal pure atom (value equality, index relation),
    /// evicting the oldest atoms beyond a fixed cap — a sound weakening
    /// that keeps the solver's constraint graphs small.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_pure(&mut self, op: tir::CmpOp, lhs: Term, rhs: Term) -> Result<(), Refuted> {
        const INTERNAL_PURE_CAP: usize = 32;
        self.pure.add(op, lhs, rhs);
        while self.pure.len() > INTERNAL_PURE_CAP {
            let mut first = true;
            self.pure.retain(|_| !std::mem::take(&mut first));
        }
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        Ok(())
    }

    /// True if symbol `s` is tied to a heap or static constraint.
    fn anchored(&self, s: u32) -> bool {
        let is = |v: Val| v == Val::Sym(SymId(s));
        self.heap.iter().any(|c| c.obj.0 == s || is(c.val) || c.idx.is_some_and(is))
            || self.statics.values().any(|&v| is(v))
    }

    /// Adds a path-condition atom, evicting atoms beyond `cap` (a sound
    /// weakening; §4 caps the set at two). Eviction prefers atoms whose
    /// symbols are not tied to any heap or static constraint — transient
    /// guard conditions — keeping memory-anchored conditions like the
    /// `sz < cap` constraint of Figure 1 alive longest.
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Pure`] if the constraints become unsatisfiable.
    pub fn add_path_atom(&mut self, atom: Atom, cap: usize) -> Result<(), Refuted> {
        self.path.add_atom(atom);
        while self.path.len() > cap {
            // Never evict the just-added atom (its symbols become anchored
            // only once the reads feeding the guard are processed).
            let atoms = self.path.atoms();
            let victim = atoms[..atoms.len() - 1]
                .iter()
                .position(|a| a.syms().all(|s| !self.anchored(s)))
                .unwrap_or(0);
            let mut i = 0;
            self.path.retain(|_| {
                i += 1;
                i - 1 != victim
            });
        }
        if !self.pure_sat() {
            return Err(Refuted::Pure);
        }
        Ok(())
    }

    /// Record a traversed command in the path-program trace.
    pub fn record(&mut self, cmd: CmdId, cap: usize) {
        if self.trace.len < cap {
            self.trace.push(cmd);
        }
    }

    /// The commands this path program traversed, in traversal order.
    pub fn trace(&self) -> Vec<CmdId> {
        self.trace.to_vec()
    }

    /// True if no memory constraints remain — the query is the `any` memory
    /// and the path program is a *full witness*, provided the pure
    /// constraints are satisfiable.
    pub fn is_discharged(&self) -> bool {
        self.locals.is_empty() && self.statics.is_empty() && self.heap.is_empty()
    }

    /// Checks the query against the initial program state (empty heap, all
    /// globals null, locals zero-initialized).
    ///
    /// # Errors
    ///
    /// Returns [`Refuted::Entry`] if any constraint demands a non-default
    /// value at entry: no object exists yet (so every heap cell and every
    /// binding to a location-region symbol is contradictory), and all
    /// integer values are zero.
    pub fn check_at_entry(&self) -> Result<(), Refuted> {
        if !self.heap.is_empty() {
            return Err(Refuted::Entry);
        }
        let mut pure = self.all_pure();
        for v in self.locals.values().chain(self.statics.values()) {
            match v {
                Val::Null | Val::Int(0) => {}
                Val::Int(_) => return Err(Refuted::Entry),
                Val::Sym(s) => match self.regions.get(s) {
                    Some(Region::Data) => pure.add(tir::CmpOp::Eq, Term::sym(s.0), Term::int(0)),
                    _ => return Err(Refuted::Entry),
                },
            }
        }
        if !pure.is_sat() {
            return Err(Refuted::Entry);
        }
        Ok(())
    }

    /// Calls `f` on every symbolic value a structural constraint (local,
    /// pending return, static, heap cell) mentions.
    fn for_each_structural_sym(&self, mut f: impl FnMut(SymId)) {
        let mut val = |v: &Val| {
            if let Val::Sym(s) = v {
                f(*s);
            }
        };
        for v in self.locals.values() {
            val(v);
        }
        if let Some(r) = &self.ret_slot {
            val(r);
        }
        for v in self.statics.values() {
            val(v);
        }
        for c in &self.heap {
            val(&Val::Sym(c.obj));
            val(&c.val);
            if let Some(i) = &c.idx {
                val(i);
            }
        }
    }

    /// Drops pure/path atoms that mention no symbolic value reachable from
    /// the structural constraints (a sound weakening that keeps queries
    /// comparable), and garbage-collects unused regions.
    pub(crate) fn gc(&mut self, scratch: &mut QueryScratch) {
        let QueryScratch { structural, live, occurrences, .. } = scratch;
        structural.clear();
        self.for_each_structural_sym(|s| {
            insert_sym(structural, s.0);
        });
        // Close over pure atoms: an atom linking a live sym keeps its other
        // sym live.
        live.clear();
        live.extend_from_slice(structural);
        let mut changed = true;
        while changed {
            changed = false;
            for a in self.pure.atoms().iter().chain(self.path.atoms()) {
                if a.syms().any(|s| live.contains(&s)) {
                    for s in a.syms() {
                        changed |= insert_sym(live, s);
                    }
                }
            }
        }
        let keep = |a: &Atom| {
            let mut syms = a.syms().peekable();
            syms.peek().is_none() || syms.any(|s| live.contains(&s))
        };
        self.pure.retain(keep);
        self.path.retain(keep);

        // Vacuous-definition elimination: an atom containing a symbol that
        // is not structural and occurs in no other atom is existentially
        // trivial (the symbol can always be chosen to satisfy it — the
        // integers are unbounded), so it constrains nothing. Dropping it is
        // a no-loss weakening that keeps queries canonical for subsumption.
        loop {
            occurrences.clear();
            for a in self.pure.atoms().iter().chain(self.path.atoms()) {
                for s in a.syms() {
                    match occurrences.iter_mut().find(|(t, _)| *t == s) {
                        Some((_, n)) => *n += 1,
                        None => occurrences.push((s, 1)),
                    }
                }
            }
            let vacuous = |a: &Atom| {
                a.syms().any(|s| {
                    !structural.contains(&s) && occurrences.iter().any(|&(t, n)| t == s && n == 1)
                })
            };
            let before = self.pure.len() + self.path.len();
            self.pure.retain(|a| !vacuous(a));
            self.path.retain(|a| !vacuous(a));
            if self.pure.len() + self.path.len() == before {
                break;
            }
        }
        let (pure, path) = (&self.pure, &self.path);
        self.regions.retain(|s, _| {
            structural.contains(&s.0)
                || pure.atoms().iter().chain(path.atoms()).any(|a| a.syms().any(|t| t == s.0))
        });
    }

    /// True if both queries carry exactly the same constraints (ignoring
    /// the recorded trace). Used to detect branches that did not touch the
    /// query, in which case guard constraints are skipped (§3.2: path
    /// constraints are added "only when the queries on each side of the
    /// branch are different").
    pub fn same_constraints(&self, other: &Query) -> bool {
        self.locals == other.locals
            && self.statics == other.statics
            && self.heap == other.heap
            && self.regions == other.regions
            && self.pure == other.pure
            && self.path == other.path
            && self.ret_slot == other.ret_slot
    }

    /// Structural entailment `self |= other` (self is stronger): used for
    /// query-history subsumption (§3.3). With `strict_regions` (the
    /// fully-symbolic ablation) region comparison requires equality instead
    /// of the Equation (§) subset check.
    ///
    /// Conservative: may return `false` for semantically entailed queries,
    /// never `true` for non-entailed ones.
    pub(crate) fn entails(
        &self,
        other: &Query,
        strict_regions: bool,
        scratch: &mut QueryScratch,
    ) -> bool {
        // Histories are only consulted at points where no return binding is
        // pending; bail out conservatively otherwise.
        if self.ret_slot.is_some() || other.ret_slot.is_some() {
            return false;
        }
        let QueryScratch { map, used, .. } = scratch;
        map.clear();
        let match_val = |map: &mut Vec<(SymId, SymId)>, mine: Val, theirs: Val| -> bool {
            match (mine, theirs) {
                (Val::Sym(a), Val::Sym(b)) => {
                    if let Some(&(_, m)) = map.iter().find(|(t, _)| *t == b) {
                        return m == a;
                    }
                    let ok = if strict_regions {
                        self.region(a) == other.region(b)
                    } else {
                        self.region(a).is_subset(other.region(b))
                    };
                    if ok {
                        map.push((b, a));
                    }
                    ok
                }
                (Val::Null, Val::Null) => true,
                (Val::Int(x), Val::Int(y)) => x == y,
                _ => false,
            }
        };

        for (var, &theirs) in other.locals.iter() {
            let Some(&mine) = self.locals.get(var) else { return false };
            if !match_val(map, mine, theirs) {
                return false;
            }
        }
        for (g, &theirs) in other.statics.iter() {
            let Some(&mine) = self.statics.get(g) else { return false };
            if !match_val(map, mine, theirs) {
                return false;
            }
        }
        // Greedy cell matching with used-set (cells are few). A failed
        // trial rolls the symbol map back to where it started.
        used.clear();
        used.resize(self.heap.len(), false);
        for cell in &other.heap {
            let mut found = false;
            for (i, mine) in self.heap.iter().enumerate() {
                if used[i] || mine.field != cell.field {
                    continue;
                }
                let mark = map.len();
                let matched = match_val(map, Val::Sym(mine.obj), Val::Sym(cell.obj))
                    && match_val(map, mine.val, cell.val)
                    && match (&mine.idx, &cell.idx) {
                        (None, None) => true,
                        (Some(a), Some(b)) => match_val(map, *a, *b),
                        _ => false,
                    };
                if !matched {
                    map.truncate(mark);
                    continue;
                }
                used[i] = true;
                found = true;
                break;
            }
            if !found {
                return false;
            }
        }
        // Pure entailment on mapped atoms.
        if other.pure.is_empty() && other.path.is_empty() {
            return true;
        }
        for atom in other.pure.atoms().iter().chain(other.path.atoms()) {
            let mut unmapped = false;
            let mut rename = |s: u32| match map.iter().find(|(t, _)| t.0 == s) {
                Some(&(_, m)) => m.0,
                None => {
                    unmapped = true;
                    s
                }
            };
            let mapped = Atom {
                op: atom.op,
                lhs: atom.lhs.map_sym(&mut rename),
                rhs: atom.rhs.map_sym(&mut rename),
            };
            if unmapped || !self.pure.implies_with(self.path.atoms(), &mapped) {
                return false;
            }
        }
        true
    }

    /// Renders the query for diagnostics, e.g.
    /// `x -> v0 * v0.f -> v1 . v0 from {3} . v1 from {5}`.
    pub fn describe(&self, program: &tir::Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let val = |v: &Val| match v {
            Val::Sym(s) => format!("{s}"),
            Val::Null => "null".to_owned(),
            Val::Int(i) => i.to_string(),
        };
        for (x, v) in self.locals.iter() {
            let _ = write!(out, "{} -> {} * ", program.var(*x).name, val(v));
        }
        for (g, v) in self.statics.iter() {
            let _ = write!(out, "${} -> {} * ", program.global(*g).name, val(v));
        }
        for c in &self.heap {
            match &c.idx {
                Some(i) => {
                    let _ = write!(
                        out,
                        "{}.{}[{}] -> {} * ",
                        c.obj,
                        program.field(c.field).name,
                        val(i),
                        val(&c.val)
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{}.{} -> {} * ",
                        c.obj,
                        program.field(c.field).name,
                        val(&c.val)
                    );
                }
            }
        }
        if out.ends_with(" * ") {
            out.truncate(out.len() - 3);
        }
        if out.is_empty() {
            out.push_str("any");
        }
        for (s, r) in self.regions.iter() {
            match r {
                Region::Locs(set) => {
                    let _ = write!(out, " . {s} from {set:?}");
                }
                Region::Data => {
                    let _ = write!(out, " . {s} from data");
                }
            }
        }
        for a in self.pure.atoms().iter().chain(self.path.atoms()) {
            let _ = write!(out, " . {:?} {} {:?}", a.lhs, a.op.symbol(), a.rhs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::CmpOp;

    fn locs(bits: &[usize]) -> Region {
        Region::locs(bits.iter().copied().collect())
    }

    #[test]
    fn narrow_refutes_on_empty() {
        let mut q = Query::new();
        let s = q.fresh_sym(locs(&[1, 2]));
        assert!(q.narrow(s, &[2, 3].into_iter().collect()).is_ok());
        assert_eq!(q.narrow(s, &[4].into_iter().collect()), Err(Refuted::EmptyRegion));
    }

    #[test]
    fn unify_merges_regions() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1, 2]));
        let b = q.fresh_sym(locs(&[2, 3]));
        q.unify(Val::Sym(a), Val::Sym(b)).expect("unify");
        assert_eq!(q.region(a).as_locs().unwrap().iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn unify_disjoint_regions_refutes() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1]));
        let b = q.fresh_sym(locs(&[2]));
        assert_eq!(q.unify(Val::Sym(a), Val::Sym(b)), Err(Refuted::EmptyRegion));
    }

    #[test]
    fn unify_sym_with_null_refutes() {
        let mut q = Query::new();
        let a = q.fresh_sym(locs(&[1]));
        assert_eq!(q.unify(Val::Sym(a), Val::Null), Err(Refuted::Separation));
    }

    #[test]
    fn unify_substitutes_in_heap_and_dedupes() {
        let mut q = Query::new();
        let o1 = q.fresh_sym(locs(&[1, 2]));
        let o2 = q.fresh_sym(locs(&[2, 3]));
        let v1 = q.fresh_sym(locs(&[5]));
        let v2 = q.fresh_sym(locs(&[5, 6]));
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o1, field: f, val: Val::Sym(v1), idx: None });
        q.heap.push(HeapCell { obj: o2, field: f, val: Val::Sym(v2), idx: None });
        // Unifying the owners forces the cell values to unify too.
        q.unify(Val::Sym(o1), Val::Sym(o2)).expect("unify");
        assert_eq!(q.heap.len(), 1);
        let cell = &q.heap[0];
        assert_eq!(q.region(cell.val.sym().unwrap()).as_locs().unwrap().len(), 1);
    }

    #[test]
    fn unify_separation_via_cell_values() {
        let mut q = Query::new();
        let o1 = q.fresh_sym(locs(&[1, 2]));
        let o2 = q.fresh_sym(locs(&[2, 3]));
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o1, field: f, val: Val::Null, idx: None });
        let v = q.fresh_sym(locs(&[5]));
        q.heap.push(HeapCell { obj: o2, field: f, val: Val::Sym(v), idx: None });
        // Same cell cannot hold both null and an instance.
        assert!(q.unify(Val::Sym(o1), Val::Sym(o2)).is_err());
    }

    #[test]
    fn array_cells_with_distinct_indices_coexist() {
        let mut q = Query::new();
        let o = q.fresh_sym(locs(&[1]));
        let i1 = q.fresh_sym(Region::Data);
        let i2 = q.fresh_sym(Region::Data);
        let f = FieldId(0);
        q.heap.push(HeapCell { obj: o, field: f, val: Val::Null, idx: Some(Val::Sym(i1)) });
        let v = q.fresh_sym(locs(&[5]));
        q.heap.push(HeapCell { obj: o, field: f, val: Val::Sym(v), idx: Some(Val::Sym(i2)) });
        assert!(q.dedupe_cells().is_ok());
        assert_eq!(q.heap.len(), 2);
    }

    #[test]
    fn int_unification_constrains_data_syms() {
        let mut q = Query::new();
        let s = q.fresh_sym(Region::Data);
        q.unify(Val::Sym(s), Val::Int(3)).expect("unify");
        assert!(q.pure_sat());
        assert_eq!(q.unify(Val::Sym(s), Val::Int(4)), Err(Refuted::Pure));
    }

    #[test]
    fn path_atom_cap_evicts_oldest() {
        let mut q = Query::new();
        let a = q.fresh_sym(Region::Data);
        let b = q.fresh_sym(Region::Data);
        let c = q.fresh_sym(Region::Data);
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(a.0), Term::int(0)), 2).unwrap();
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(b.0), Term::int(0)), 2).unwrap();
        q.add_path_atom(Atom::new(CmpOp::Lt, Term::sym(c.0), Term::int(0)), 2).unwrap();
        assert_eq!(q.path.len(), 2);
        // The oldest (about `a`) was dropped.
        assert!(q.path.atoms().iter().all(|at| at.syms().all(|s| s != a.0)));
    }

    #[test]
    fn entry_check_accepts_defaults_only() {
        let mut q = Query::new();
        assert!(q.check_at_entry().is_ok());
        q.locals.insert(VarId(0), Val::Null);
        q.locals.insert(VarId(1), Val::Int(0));
        assert!(q.check_at_entry().is_ok());
        let s = q.fresh_sym(locs(&[1]));
        q.locals.insert(VarId(2), Val::Sym(s));
        assert_eq!(q.check_at_entry(), Err(Refuted::Entry));
    }

    #[test]
    fn entry_check_rejects_heap() {
        let mut q = Query::new();
        let o = q.fresh_sym(locs(&[1]));
        q.heap.push(HeapCell { obj: o, field: FieldId(0), val: Val::Null, idx: None });
        assert_eq!(q.check_at_entry(), Err(Refuted::Entry));
    }

    #[test]
    fn gc_drops_unreachable_atoms() {
        let mut q = Query::new();
        let live = q.fresh_sym(locs(&[1]));
        q.locals.insert(VarId(0), Val::Sym(live));
        let dead = q.fresh_sym(Region::Data);
        let chained = q.fresh_sym(Region::Data);
        q.pure.add(CmpOp::Eq, Term::sym(dead.0), Term::sym(chained.0));
        q.gc(&mut QueryScratch::default());
        assert!(q.pure.is_empty());
        assert!(!q.regions.contains_key(&dead));
        assert!(q.regions.contains_key(&live));
    }

    #[test]
    fn gc_keeps_atom_chains_reaching_structure() {
        let mut q = Query::new();
        let live = q.fresh_sym(Region::Data);
        let o = q.fresh_sym(locs(&[1]));
        q.heap.push(HeapCell { obj: o, field: FieldId(0), val: Val::Sym(live), idx: None });
        let mid = q.fresh_sym(Region::Data);
        q.pure.add(CmpOp::Eq, Term::sym(live.0), Term::sym(mid.0));
        q.pure.add(CmpOp::Eq, Term::sym(mid.0), Term::int(5));
        q.gc(&mut QueryScratch::default());
        assert_eq!(q.pure.len(), 2);
    }

    #[test]
    fn entails_weaker_query() {
        // stronger: x -> v{1} * v.f -> u{5}; weaker: x -> v{1,2}
        let mut strong = Query::new();
        let v = strong.fresh_sym(locs(&[1]));
        let u = strong.fresh_sym(locs(&[5]));
        strong.locals.insert(VarId(0), Val::Sym(v));
        strong.heap.push(HeapCell { obj: v, field: FieldId(0), val: Val::Sym(u), idx: None });

        let mut weak = Query::new();
        let w = weak.fresh_sym(locs(&[1, 2]));
        weak.locals.insert(VarId(0), Val::Sym(w));

        assert!(strong.entails(&weak, false, &mut QueryScratch::default()));
        assert!(!weak.entails(&strong, false, &mut QueryScratch::default()));
        // Strict regions (fully symbolic): subset no longer suffices.
        assert!(!strong.entails(&weak, true, &mut QueryScratch::default()));
    }

    #[test]
    fn entails_requires_matching_pure() {
        let mut a = Query::new();
        let s = a.fresh_sym(Region::Data);
        a.locals.insert(VarId(0), Val::Sym(s));
        a.pure.add(CmpOp::Eq, Term::sym(s.0), Term::int(3));

        let mut b = Query::new();
        let t = b.fresh_sym(Region::Data);
        b.locals.insert(VarId(0), Val::Sym(t));
        b.pure.add(CmpOp::Le, Term::sym(t.0), Term::int(5));

        assert!(a.entails(&b, false, &mut QueryScratch::default())); // s = 3 implies s <= 5
        assert!(!b.entails(&a, false, &mut QueryScratch::default()));
    }

    #[test]
    fn describe_mentions_constraints() {
        let mut b = tir::ProgramBuilder::new();
        let main = b.method(None, "main", &[], None, |mb| {
            let x = mb.var("x", tir::Ty::Ref(mb.program_builder().object_class()));
            let _ = x;
            mb.ret_void();
        });
        b.set_entry(main);
        let p = b.finish();
        let mut q = Query::new();
        assert_eq!(q.describe(&p), "any");
        let v = q.fresh_sym(locs(&[1]));
        let x = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "x").unwrap();
        q.locals.insert(x, Val::Sym(v));
        let d = q.describe(&p);
        assert!(d.contains("x -> v0"), "{d}");
        assert!(d.contains("from"), "{d}");
    }
}
