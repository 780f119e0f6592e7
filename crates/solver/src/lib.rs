//! # solver — decision procedure for path constraints
//!
//! Thresher discharges pure path constraints (e.g. `sz < cap` against
//! `sz = 0 ∧ cap = -1`) with an off-the-shelf SMT solver (Z3 via ScalaZ3).
//! This crate is the from-scratch substitute: a sound decision procedure for
//! conjunctions of comparisons over symbolic integers in the *integer
//! difference logic* fragment, extended with disequalities.
//!
//! The fragment is exactly what the refutation engine needs: the paper caps
//! path-constraint sets at two atoms (§4), and every constraint the engine
//! generates has the form `t1 ⋈ t2` where each `tᵢ` is a symbolic value, a
//! constant, or a symbolic value plus a constant.
//!
//! ## Soundness/completeness
//!
//! - For conjunctions without `!=` the procedure is **complete**: `is_sat`
//!   returns exactly whether an integer assignment exists (negative-cycle
//!   detection on the difference-bound graph).
//! - With `!=` atoms the procedure stays **refutation-sound** (it reports
//!   unsat only for truly unsatisfiable sets) but may report sat for systems
//!   whose unsatisfiability requires pigeonhole-style reasoning over several
//!   disequalities. This mirrors the paper's position that refutations must
//!   be sound while witnesses may be over-approximate.
//!
//! ```
//! use solver::{ConstraintSet, Term};
//! use tir::CmpOp;
//!
//! let mut cs = ConstraintSet::new();
//! let (sz, cap) = (Term::sym(0), Term::sym(1));
//! cs.add(CmpOp::Lt, sz, cap);       // sz < cap
//! cs.add(CmpOp::Eq, sz, Term::int(0));
//! assert!(cs.is_sat());
//! cs.add(CmpOp::Eq, cap, Term::int(-1));
//! assert!(!cs.is_sat());            // 0 < -1 is refuted
//! ```

#![warn(missing_docs)]

use tir::CmpOp;

/// A term of the constraint language.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A symbolic integer value, identified by a caller-chosen id.
    Sym(u32),
    /// An integer constant.
    Const(i64),
    /// A symbolic value plus a constant offset (`v + k`).
    SymPlus(u32, i64),
}

impl Term {
    /// Shorthand for [`Term::Sym`].
    pub fn sym(id: u32) -> Term {
        Term::Sym(id)
    }

    /// Shorthand for [`Term::Const`].
    pub fn int(v: i64) -> Term {
        Term::Const(v)
    }

    /// Shorthand for [`Term::SymPlus`].
    pub fn sym_plus(id: u32, k: i64) -> Term {
        Term::SymPlus(id, k)
    }

    /// The symbolic id mentioned by this term, if any.
    pub fn sym_id(&self) -> Option<u32> {
        match self {
            Term::Sym(s) | Term::SymPlus(s, _) => Some(*s),
            Term::Const(_) => None,
        }
    }

    /// Rewrites the symbolic id via `f` (used when queries rename values).
    pub fn map_sym(self, f: impl FnOnce(u32) -> u32) -> Term {
        match self {
            Term::Sym(s) => Term::Sym(f(s)),
            Term::SymPlus(s, k) => Term::SymPlus(f(s), k),
            Term::Const(c) => Term::Const(c),
        }
    }
}

/// One comparison atom `lhs op rhs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The comparison operator.
    pub op: CmpOp,
    /// Left term.
    pub lhs: Term,
    /// Right term.
    pub rhs: Term,
}

impl Atom {
    /// Creates an atom.
    pub fn new(op: CmpOp, lhs: Term, rhs: Term) -> Atom {
        Atom { op, lhs, rhs }
    }

    /// The negation of this atom.
    pub fn negate(&self) -> Atom {
        Atom { op: self.op.negate(), lhs: self.lhs, rhs: self.rhs }
    }

    /// Symbolic ids mentioned by the atom.
    pub fn syms(&self) -> impl Iterator<Item = u32> {
        self.lhs.sym_id().into_iter().chain(self.rhs.sym_id())
    }
}

/// A conjunction of [`Atom`]s with satisfiability and entailment checks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    atoms: Vec<Atom>,
}

/// Why the decision procedure could not produce an answer. Callers must
/// treat an error conservatively: assume satisfiable when checking
/// satisfiability (keeps refutations sound) and assume non-entailment when
/// checking implication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// Offset normalization overflowed `i64` (e.g. `v + k` with `k` near
    /// the representation boundary).
    Overflow,
    /// The constraint set exceeds the size the procedure is willing to
    /// decide ([`MAX_ATOMS`]).
    TooLarge,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Overflow => write!(f, "arithmetic overflow during normalization"),
            SolverError::TooLarge => write!(f, "constraint set exceeds solver size cap"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Hard cap on the number of atoms [`ConstraintSet::try_is_sat`] will
/// decide; larger sets return [`SolverError::TooLarge`]. The engine caps
/// path constraints at a handful of atoms (§4), so this bounds only
/// adversarial inputs.
pub const MAX_ATOMS: usize = 4096;

/// Node in the difference graph: a symbolic value or the distinguished
/// zero node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Zero,
    Sym(u32),
}

/// `(node, offset)` normalization of a term: the term's value is
/// `value(node) + offset` with `value(Zero) = 0`.
fn norm(t: Term) -> (Node, i64) {
    match t {
        Term::Sym(s) => (Node::Sym(s), 0),
        Term::Const(c) => (Node::Zero, c),
        Term::SymPlus(s, k) => (Node::Sym(s), k),
    }
}

impl ConstraintSet {
    /// Creates an empty (trivially satisfiable) set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds `lhs op rhs`.
    pub fn add(&mut self, op: CmpOp, lhs: Term, rhs: Term) {
        self.add_atom(Atom { op, lhs, rhs });
    }

    /// Adds an atom, deduplicating syntactic repeats.
    pub fn add_atom(&mut self, atom: Atom) {
        if !self.atoms.contains(&atom) {
            self.atoms.push(atom);
        }
    }

    /// The atoms of the conjunction.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the conjunction is empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Removes atoms not satisfying `keep`.
    pub fn retain(&mut self, keep: impl FnMut(&Atom) -> bool) {
        self.atoms.retain(keep);
    }

    /// Renames symbolic ids in place via `f`, then drops atoms the renaming
    /// made equal to an earlier one — the same set as collecting the
    /// renamed atoms into a fresh one with [`ConstraintSet::add_atom`].
    pub fn rename_syms(&mut self, f: impl Fn(u32) -> u32) {
        for a in &mut self.atoms {
            a.lhs = a.lhs.map_sym(&f);
            a.rhs = a.rhs.map_sym(&f);
        }
        let mut kept = 0;
        for i in 0..self.atoms.len() {
            let a = self.atoms[i];
            if !self.atoms[..kept].contains(&a) {
                self.atoms[kept] = a;
                kept += 1;
            }
        }
        self.atoms.truncate(kept);
    }

    /// Decides satisfiability over the integers, treating solver failure
    /// as satisfiable (the conservative direction: refutations stay sound).
    /// See the [crate docs](self) for the completeness guarantee.
    pub fn is_sat(&self) -> bool {
        self.try_is_sat().unwrap_or(true)
    }

    /// Decides satisfiability over the integers, reporting failures (offset
    /// overflow, oversized inputs) instead of panicking or silently
    /// wrapping. See the [crate docs](self) for the completeness guarantee.
    ///
    /// Every call is metered: one [`obs::Counter::SolverCalls`] bump, a
    /// verdict counter, and a latency observation — plus a fine-grained
    /// span when an installed recorder asks for one.
    pub fn try_is_sat(&self) -> Result<bool, SolverError> {
        self.try_is_sat_with(&[])
    }

    /// Decides satisfiability of `self ∧ extra` exactly as if every atom of
    /// `extra` had been added to a copy of `self` with
    /// [`ConstraintSet::add_atom`], without building that copy. Metered
    /// like [`ConstraintSet::try_is_sat`]: one solver call.
    pub fn try_is_sat_with(&self, extra: &[Atom]) -> Result<bool, SolverError> {
        Scratch::decide(&self.atoms, extra, None)
    }

    /// True if this conjunction entails `atom` (refutation-sound: may
    /// return false negatives, never false positives). Solver failure is
    /// treated as non-entailment.
    pub fn implies(&self, atom: &Atom) -> bool {
        self.try_implies(atom).unwrap_or(false)
    }

    /// Entailment check reporting solver failures instead of panicking.
    pub fn try_implies(&self, atom: &Atom) -> Result<bool, SolverError> {
        self.try_implies_with(&[], atom)
    }

    /// True if `self ∧ extra` entails `atom`: the answer
    /// [`ConstraintSet::implies`] gives on the conjunction, without
    /// building it.
    pub fn implies_with(&self, extra: &[Atom], atom: &Atom) -> bool {
        self.try_implies_with(extra, atom).unwrap_or(false)
    }

    fn try_implies_with(&self, extra: &[Atom], atom: &Atom) -> Result<bool, SolverError> {
        if self.atoms.contains(atom) || extra.contains(atom) {
            return Ok(true);
        }
        match atom.op {
            // The negation of Eq is Ne, whose unsat check is incomplete, so
            // entailment of Eq goes through both inequalities instead.
            CmpOp::Eq => {
                let le = Atom::new(CmpOp::Le, atom.lhs, atom.rhs);
                let ge = Atom::new(CmpOp::Ge, atom.lhs, atom.rhs);
                Ok(self.try_implies_with(extra, &le)? && self.try_implies_with(extra, &ge)?)
            }
            _ => Ok(!Scratch::decide(&self.atoms, extra, Some(atom.negate()))?),
        }
    }

    /// True if every atom of `other` is entailed by `self`.
    pub fn entails_all(&self, other: &ConstraintSet) -> bool {
        other.atoms.iter().all(|a| self.implies(a))
    }
}

/// Per-thread buffers of the decision procedure, reused across calls so a
/// satisfiability check allocates nothing once they have grown to the
/// largest conjunction seen.
#[derive(Default)]
struct Scratch {
    /// The conjunction being decided, deduplicated in insertion order.
    atoms: Vec<Atom>,
    nodes: Vec<Node>,
    /// `a - b <= c` as edge `b -> a` with weight `c`.
    edges: Vec<(usize, usize, i64)>,
    diseqs: Vec<((Node, i64), (Node, i64))>,
    dist: Vec<i64>,
    /// Row-major all-pairs distance matrix.
    apsp: Vec<i64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

impl Scratch {
    /// Decides `base ∧ extra ∧ last` (atoms added in that order with
    /// [`ConstraintSet::add_atom`] semantics) as one metered solver call.
    fn decide(base: &[Atom], extra: &[Atom], last: Option<Atom>) -> Result<bool, SolverError> {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.atoms.clear();
            scratch.atoms.extend_from_slice(base);
            for &a in extra.iter().chain(&last) {
                if !scratch.atoms.contains(&a) {
                    scratch.atoms.push(a);
                }
            }
            let timer = obs::timer();
            let _span = obs::span_with(obs::SpanKind::SolverCall, || {
                format!("is_sat/{}", scratch.atoms.len())
            });
            let result = scratch.is_sat();
            if obs::enabled() {
                obs::add(obs::Counter::SolverCalls, 1);
                let verdict = match &result {
                    Ok(true) => obs::Counter::SolverSat,
                    Ok(false) => obs::Counter::SolverUnsat,
                    Err(_) => obs::Counter::SolverFailures,
                };
                obs::add(verdict, 1);
                obs::observe_elapsed_ns(obs::Hist::SolverNanos, timer);
            }
            result
        })
    }

    fn node_of(&mut self, n: Node) -> usize {
        if let Some(i) = self.nodes.iter().position(|&m| m == n) {
            i
        } else {
            self.nodes.push(n);
            self.nodes.len() - 1
        }
    }

    /// Decides the loaded conjunction.
    fn is_sat(&mut self) -> Result<bool, SolverError> {
        if self.atoms.len() > MAX_ATOMS {
            return Err(SolverError::TooLarge);
        }
        // Collect difference edges `a - b <= c` and disequality pairs.
        self.nodes.clear();
        self.nodes.push(Node::Zero);
        self.edges.clear();
        self.diseqs.clear();
        for i in 0..self.atoms.len() {
            let atom = self.atoms[i];
            let (a, ca) = norm(atom.lhs);
            let (b, cb) = norm(atom.rhs);
            if a == b {
                // Both sides over the same node: decide directly.
                // lhs - rhs = ca - cb.
                if !atom.op.eval(ca, cb) {
                    return Ok(false);
                }
                continue;
            }
            let ai = self.node_of(a);
            let bi = self.node_of(b);
            // value(a) + ca  op  value(b) + cb
            // i.e. a - b  op  cb - ca
            let d = cb.checked_sub(ca).ok_or(SolverError::Overflow)?;
            let neg_d = d.checked_neg().ok_or(SolverError::Overflow)?;
            let edges = &mut self.edges;
            match atom.op {
                CmpOp::Lt => edges.push((bi, ai, d.checked_sub(1).ok_or(SolverError::Overflow)?)),
                CmpOp::Le => edges.push((bi, ai, d)),
                CmpOp::Gt => {
                    edges.push((ai, bi, neg_d.checked_sub(1).ok_or(SolverError::Overflow)?))
                }
                CmpOp::Ge => edges.push((ai, bi, neg_d)),
                CmpOp::Eq => {
                    edges.push((bi, ai, d));
                    edges.push((ai, bi, neg_d));
                }
                CmpOp::Ne => self.diseqs.push(((a, ca), (b, cb))),
            }
        }

        // Bellman-Ford negative cycle detection.
        let n = self.nodes.len();
        self.dist.clear();
        self.dist.resize(n, 0);
        let dist = &mut self.dist;
        for round in 0..n {
            let mut changed = false;
            for &(from, to, w) in &self.edges {
                let cand = dist[from].saturating_add(w);
                if cand < dist[to] {
                    dist[to] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if round + 1 == n && changed {
                return Ok(false); // negative cycle: the difference system is unsat
            }
        }

        if self.diseqs.is_empty() {
            return Ok(true);
        }

        // All-pairs shortest paths (Floyd-Warshall) to detect forced
        // equalities contradicting a disequality.
        const INF: i64 = i64::MAX / 4;
        let d = &mut self.apsp;
        d.clear();
        d.resize(n * n, INF);
        for i in 0..n {
            d[i * n + i] = 0;
        }
        for &(from, to, w) in &self.edges {
            // edge b -> a with weight c encodes a - b <= c; shortest path
            // d[b][a] bounds a - b.
            if w < d[from * n + to] {
                d[from * n + to] = w;
            }
        }
        for k in 0..n {
            for i in 0..n {
                if d[i * n + k] == INF {
                    continue;
                }
                for j in 0..n {
                    let cand = d[i * n + k].saturating_add(d[k * n + j]);
                    if cand < d[i * n + j] {
                        d[i * n + j] = cand;
                    }
                }
            }
        }
        for &((a, ca), (b, cb)) in &self.diseqs {
            let ai = self.nodes.iter().position(|&m| m == a).expect("node interned");
            let bi = self.nodes.iter().position(|&m| m == b).expect("node interned");
            // lhs = rhs forced iff a - b forced to equal cb - ca:
            //   d[bi][ai] <= cb - ca  (a - b <= cb - ca)
            //   d[ai][bi] <= ca - cb  (b - a <= ca - cb)
            let delta = cb.checked_sub(ca).ok_or(SolverError::Overflow)?;
            let neg_delta = delta.checked_neg().ok_or(SolverError::Overflow)?;
            if d[bi * n + ai] <= delta && d[ai * n + bi] <= neg_delta {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl FromIterator<Atom> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        let mut cs = ConstraintSet::new();
        for a in iter {
            cs.add_atom(a);
        }
        cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Term {
        Term::sym(i)
    }

    fn c(v: i64) -> Term {
        Term::int(v)
    }

    #[test]
    fn empty_is_sat() {
        assert!(ConstraintSet::new().is_sat());
    }

    #[test]
    fn paper_vec_contradiction() {
        // The Figure 1 refutation: sz < cap with sz = 0 and cap = -1.
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), s(1));
        cs.add(CmpOp::Eq, s(0), c(0));
        cs.add(CmpOp::Eq, s(1), c(-1));
        assert!(!cs.is_sat());
    }

    #[test]
    fn strict_integer_semantics() {
        // x < y && y < x + 2 forces y = x + 1: satisfiable.
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), s(1));
        cs.add(CmpOp::Lt, s(1), Term::sym_plus(0, 2));
        assert!(cs.is_sat());
        // x < y && y < x + 1 is unsat over the integers.
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), s(1));
        cs.add(CmpOp::Lt, s(1), Term::sym_plus(0, 1));
        assert!(!cs.is_sat());
    }

    #[test]
    fn constant_comparisons_evaluate() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, c(3), c(5));
        assert!(cs.is_sat());
        cs.add(CmpOp::Ge, c(3), c(5));
        assert!(!cs.is_sat());
    }

    #[test]
    fn disequality_with_forced_equality_unsat() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Le, s(0), s(1));
        cs.add(CmpOp::Ge, s(0), s(1));
        cs.add(CmpOp::Ne, s(0), s(1));
        assert!(!cs.is_sat());
    }

    #[test]
    fn disequality_against_constant() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Eq, s(0), c(4));
        cs.add(CmpOp::Ne, s(0), c(4));
        assert!(!cs.is_sat());

        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Le, s(0), c(4));
        cs.add(CmpOp::Ne, s(0), c(4));
        assert!(cs.is_sat());
    }

    #[test]
    fn offsets_chain_through_equalities() {
        // v = w + 1, w = 5, v = 7 is unsat.
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Eq, s(0), Term::sym_plus(1, 1));
        cs.add(CmpOp::Eq, s(1), c(5));
        cs.add(CmpOp::Eq, s(0), c(7));
        assert!(!cs.is_sat());
    }

    #[test]
    fn implies_basic() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), c(5));
        assert!(cs.implies(&Atom::new(CmpOp::Le, s(0), c(10))));
        assert!(cs.implies(&Atom::new(CmpOp::Lt, s(0), c(5))));
        assert!(!cs.implies(&Atom::new(CmpOp::Lt, s(0), c(3))));
    }

    #[test]
    fn implies_equality_via_two_bounds() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Le, s(0), c(4));
        cs.add(CmpOp::Ge, s(0), c(4));
        assert!(cs.implies(&Atom::new(CmpOp::Eq, s(0), c(4))));
    }

    #[test]
    fn entails_all_subset() {
        let mut big = ConstraintSet::new();
        big.add(CmpOp::Eq, s(0), c(1));
        big.add(CmpOp::Lt, s(1), s(2));
        let mut small = ConstraintSet::new();
        small.add(CmpOp::Le, s(1), s(2));
        assert!(big.entails_all(&small));
        assert!(!small.entails_all(&big));
    }

    #[test]
    fn dedup_on_add() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), s(1));
        cs.add(CmpOp::Lt, s(0), s(1));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn transitive_chain_detects_cycle() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, s(0), s(1));
        cs.add(CmpOp::Lt, s(1), s(2));
        cs.add(CmpOp::Lt, s(2), s(0));
        assert!(!cs.is_sat());
    }

    #[test]
    fn overflow_reports_error_not_panic() {
        // cb - ca overflows i64 during normalization.
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Lt, Term::sym_plus(0, i64::MIN), Term::sym_plus(1, i64::MAX));
        assert_eq!(cs.try_is_sat(), Err(SolverError::Overflow));
        // Conservative public answers: sat (not a refutation), no entailment.
        assert!(cs.is_sat());
        assert!(!cs.implies(&Atom::new(CmpOp::Lt, s(0), s(1))));
    }

    #[test]
    fn extreme_but_valid_offsets_still_decide() {
        let mut cs = ConstraintSet::new();
        cs.add(CmpOp::Eq, s(0), Term::sym_plus(1, i64::MAX - 1));
        assert_eq!(cs.try_is_sat(), Ok(true));
    }

    #[test]
    fn oversized_set_reports_too_large() {
        let mut cs = ConstraintSet::new();
        for i in 0..(MAX_ATOMS as i64 + 1) {
            cs.add(CmpOp::Le, s(0), c(i));
        }
        assert_eq!(cs.try_is_sat(), Err(SolverError::TooLarge));
        assert!(cs.is_sat());
    }

    #[test]
    fn map_sym_renames() {
        let t = Term::sym_plus(3, 2).map_sym(|s| s + 10);
        assert_eq!(t, Term::SymPlus(13, 2));
        assert_eq!(Term::Const(5).map_sym(|_| unreachable!()), Term::Const(5));
    }
}
