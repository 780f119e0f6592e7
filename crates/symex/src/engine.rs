//! The witness-refutation search driver (§3.2).
//!
//! The search is a backwards, path-program by path-program symbolic
//! execution: starting from a statement that may produce the queried heap
//! edge, it walks the structured statement tree in reverse, forking at
//! branches and calls, inferring loop invariants at loops, and propagating
//! queries from method entries to all call sites. A query is *refuted* when
//! a transfer derives a contradiction; it is *witnessed* when all of its
//! memory constraints are discharged (the query becomes `any`) or it
//! survives, satisfiable, to the program entry.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use pta::{BitSet, HeapEdge, LocId, ModRef, PtaView};
use tir::{Callee, CmdId, Command, FieldId, MethodId, Operand, Program, Stmt, Ty, VarId};

use crate::config::{LoopMode, Representation, SymexConfig};
use crate::key::{DerefSite, RefKey};
use crate::query::{Query, QueryScratch, Refuted};
use crate::region::Region;
use crate::simplify::History;
use crate::stats::{SearchOutcome, SearchStats, StopReason, Witness};
use crate::value::Val;

/// Terminates a search early: a witness was found, or the search must give
/// up for the stated reason.
#[derive(Clone, Debug)]
pub(crate) enum Stop {
    Witnessed(Witness),
    Aborted(StopReason),
}

/// The result of pushing queries backwards. The surviving sub-queries go
/// into an output buffer the caller owns, so a transfer that yields one
/// query allocates nothing; `Err` is an early stop.
pub(crate) type Flow = Result<(), Stop>;

/// Hard cap on upward caller-propagation depth; exceeding it aborts the
/// search (sound: the edge is simply not refuted).
const CALLER_DEPTH_CAP: usize = 40;

/// Deadline polls happen on every `DEADLINE_STRIDE`-th budget charge (plus
/// the very first one), keeping `Instant::now()` off the hot path.
const DEADLINE_STRIDE: u32 = 64;

/// Command-transfer allowance per unit of path-program budget: bounds the
/// straight-line work a search may do between forks, so the per-edge budget
/// is a hard runtime bound even on fork-free divergence.
const CMDS_PER_PATH_PROGRAM: u64 = 256;

/// The witness-refutation engine. One engine holds the analysis inputs and
/// accumulates [`SearchStats`] across searches.
pub struct Engine<'a> {
    pub(crate) program: &'a Program,
    pub(crate) pta: &'a dyn PtaView,
    pub(crate) modref: &'a ModRef,
    /// Engine configuration. May be adjusted between searches; the
    /// deadline fields are snapshotted at construction time.
    pub config: SymexConfig,
    /// Statistics accumulated across all searches run by this engine.
    pub stats: SearchStats,
    pub(crate) history: History,
    budget_left: u64,
    cmd_budget_left: u64,
    call_chain: Vec<MethodId>,
    caller_depth: usize,
    /// Wall-clock cutoff for the edge currently being refuted (the tighter
    /// of `edge_deadline` and the remaining `total_deadline`).
    deadline: Option<Instant>,
    /// Wall-clock cutoff for everything this engine does, from
    /// [`SymexConfig::total_deadline`] at construction time.
    engine_deadline: Option<Instant>,
    /// Charge counter used to amortize deadline polls.
    ticks: u32,
    /// Spare query buffers, reused across transfers (see
    /// [`Engine::take_buf`]).
    bufs: Vec<Vec<Query>>,
    /// Reusable buffers for query simplification and entailment.
    pub(crate) scratch: QueryScratch,
    /// Reusable location sets for [`Engine::normalize_cells`].
    pub(crate) allowed: BitSet,
    pub(crate) owners: BitSet,
    /// Memoized points-to facts.
    memo: PtaMemo,
}

/// Points-to facts the search asks for again and again. Each is a pure
/// function of the program and its points-to result, which are fixed for
/// an engine's lifetime, so memoizing them cannot change an answer.
#[derive(Default)]
struct PtaMemo {
    /// `pt(x)`, shared with the regions of the symbols bound to `x`.
    pt_var: HashMap<VarId, Rc<BitSet>>,
    /// `pt(x.f)`.
    pt_var_field: HashMap<(VarId, FieldId), BitSet>,
    /// Receiver locations dispatching a call to a target.
    dispatch: HashMap<(CmdId, MethodId), BitSet>,
    /// Statement-tree positions of commands in their method bodies.
    paths: HashMap<CmdId, Rc<[usize]>>,
}

impl<'a> Engine<'a> {
    /// Creates an engine over the analyzed program.
    pub fn new(
        program: &'a Program,
        pta: &'a dyn PtaView,
        modref: &'a ModRef,
        config: SymexConfig,
    ) -> Self {
        let budget = config.budget;
        let engine_deadline = config.total_deadline.map(|d| Instant::now() + d);
        Engine {
            program,
            pta,
            modref,
            config,
            stats: SearchStats::default(),
            history: History::new(),
            budget_left: budget,
            cmd_budget_left: budget.saturating_mul(CMDS_PER_PATH_PROGRAM),
            call_chain: Vec::new(),
            caller_depth: 0,
            deadline: None,
            engine_deadline,
            ticks: 0,
            bufs: Vec::new(),
            scratch: QueryScratch::default(),
            allowed: BitSet::new(),
            owners: BitSet::new(),
            memo: PtaMemo::default(),
        }
    }

    /// An empty query buffer from the spare pool; hand it back with
    /// [`Engine::put_buf`] once drained. Buffers dropped on an early stop
    /// are simply not reused.
    pub(crate) fn take_buf(&mut self) -> Vec<Query> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer to the spare pool.
    pub(crate) fn put_buf(&mut self, mut buf: Vec<Query>) {
        buf.clear();
        self.bufs.push(buf);
    }

    /// The active configuration.
    pub fn config(&self) -> &SymexConfig {
        &self.config
    }

    /// Resets the per-search state (budgets, history, deadline) at the top
    /// of every [`Engine::refute_edge`] / [`Engine::refute_deref`] call.
    fn begin_search(&mut self) {
        self.budget_left = self.config.budget;
        self.cmd_budget_left = self.config.budget.saturating_mul(CMDS_PER_PATH_PROGRAM);
        self.history.clear();
        self.ticks = 0;
        self.deadline =
            match (self.config.edge_deadline.map(|d| Instant::now() + d), self.engine_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
    }

    /// Attempts to refute `edge`: runs one witness search per producing
    /// statement. The edge is refuted only if every search is refuted.
    pub fn refute_edge(&mut self, edge: &HeapEdge) -> SearchOutcome {
        self.begin_search();
        let pta = self.pta;
        let producers = pta.producers(edge);
        if producers.is_empty() {
            // Nothing can produce the edge: it is vacuously refuted. (This
            // happens when an annotation removed the only producers.)
            return SearchOutcome::Refuted;
        }
        for &cmd in producers {
            let q0 = match self.initial_query(edge) {
                Ok(q) => q,
                Err(r) => {
                    self.stats.count_refutation(r);
                    continue;
                }
            };
            match self.search_from(cmd, q0, true) {
                Ok(()) => {}
                Err(Stop::Witnessed(w)) => return SearchOutcome::Witnessed(w),
                Err(Stop::Aborted(reason)) => return SearchOutcome::Aborted(reason),
            }
        }
        SearchOutcome::Refuted
    }

    /// Attempts to refute the null-dereference candidate `site`: searches
    /// backwards from the dereferencing command for a path program along
    /// which its base local holds `null`. `Refuted` is a proof that the
    /// base is non-null on every path reaching the dereference.
    ///
    /// The dereferencing command itself is *not* executed backwards — the
    /// question is the state just before it runs.
    pub fn refute_deref(&mut self, site: &DerefSite) -> SearchOutcome {
        self.begin_search();
        let q0 = match self.initial_deref_query(site) {
            Ok(q) => q,
            Err(r) => {
                self.stats.count_refutation(r);
                return SearchOutcome::Refuted;
            }
        };
        match self.search_from(site.cmd, q0, false) {
            Ok(()) => SearchOutcome::Refuted,
            Err(Stop::Witnessed(w)) => SearchOutcome::Witnessed(w),
            Err(Stop::Aborted(reason)) => SearchOutcome::Aborted(reason),
        }
    }

    /// Attempts to refute a [`RefKey`] of either kind.
    pub fn refute_key(&mut self, key: &RefKey) -> SearchOutcome {
        match key {
            RefKey::Edge(e) => self.refute_edge(e),
            RefKey::Deref(s) => self.refute_deref(s),
        }
    }

    /// Fault-contained [`Engine::refute_edge`]: a panic anywhere in the
    /// search (transfer functions, solver, query bookkeeping) is caught and
    /// converted into the sound `Aborted(Panic)` outcome instead of
    /// unwinding into the caller. The engine stays usable afterwards —
    /// `refute_edge` re-initializes all per-edge state on entry.
    pub fn refute_edge_contained(&mut self, edge: &HeapEdge) -> SearchOutcome {
        self.refute_key_contained(&RefKey::Edge(*edge))
    }

    /// Fault-contained [`Engine::refute_key`] (see
    /// [`Engine::refute_edge_contained`]).
    pub fn refute_key_contained(&mut self, key: &RefKey) -> SearchOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| self.refute_key(key)));
        match result {
            Ok(out) => out,
            Err(payload) => {
                SearchOutcome::Aborted(StopReason::Panic(panic_message(payload.as_ref())))
            }
        }
    }

    /// Fault-contained refutation with graceful degradation: if the search
    /// aborts under the configured precision, retry under progressively
    /// coarser — but still sound — configurations (drop loop-invariant
    /// inference, then path atoms, then halve the heap-cell cap) while the
    /// deadline allows. A coarse refutation is still a refutation, so the
    /// ladder can only *add* refutations relative to a single strict pass.
    pub fn refute_edge_resilient(&mut self, edge: &HeapEdge) -> EdgeDecision {
        self.refute_key_resilient(&RefKey::Edge(*edge))
    }

    /// [`Engine::refute_edge_resilient`] generalized over [`RefKey`]. This
    /// is the *only* site bumping the edge-outcome and degradation
    /// counters, so report totals match driver-level tallies exactly.
    pub fn refute_key_resilient(&mut self, key: &RefKey) -> EdgeDecision {
        let timer = obs::timer();
        let _span = obs::span_with(obs::SpanKind::Edge, || key.describe(self.program, self.pta));
        let decision = self.refute_key_resilient_inner(key);
        if obs::enabled() {
            let outcome = match &decision.outcome {
                SearchOutcome::Refuted => obs::Counter::EdgesRefuted,
                SearchOutcome::Witnessed(_) => obs::Counter::EdgesWitnessed,
                SearchOutcome::Aborted(_) => obs::Counter::EdgesAborted,
            };
            obs::add(outcome, 1);
            obs::add(obs::Counter::DegradedRetries, u64::from(decision.attempts.saturating_sub(1)));
            if decision.degraded {
                obs::add(obs::Counter::DegradedDecisions, 1);
            }
            if let SearchOutcome::Witnessed(w) = &decision.outcome {
                obs::observe(obs::Hist::WitnessTraceLen, w.trace.len() as u64);
            }
            obs::observe_elapsed_us(obs::Hist::EdgeMicros, timer);
        }
        decision
    }

    fn refute_key_resilient_inner(&mut self, key: &RefKey) -> EdgeDecision {
        let first = {
            let _attempt = obs::span(obs::SpanKind::Attempt, "strict");
            self.refute_key_contained(key)
        };
        let reason = match first {
            SearchOutcome::Refuted | SearchOutcome::Witnessed(_) => {
                return EdgeDecision { outcome: first, attempts: 1, degraded: false };
            }
            SearchOutcome::Aborted(ref r) => r.clone(),
        };
        let mut attempts = 1;
        if self.config.degrade {
            for coarse in degradation_ladder(&self.config) {
                if self.past_engine_deadline() {
                    break;
                }
                attempts += 1;
                let saved = std::mem::replace(&mut self.config, coarse);
                let out = {
                    let _attempt =
                        obs::span_with(obs::SpanKind::Attempt, || format!("coarse-{attempts}"));
                    self.refute_key_contained(key)
                };
                self.config = saved;
                match out {
                    SearchOutcome::Aborted(_) => continue,
                    // Refuted or Witnessed: the coarse pass decided the
                    // edge. Both are sound to report (a coarse witness only
                    // means "not refuted", same as the abort it replaces).
                    decided => {
                        return EdgeDecision { outcome: decided, attempts, degraded: true };
                    }
                }
            }
        }
        EdgeDecision { outcome: SearchOutcome::Aborted(reason), attempts, degraded: false }
    }

    /// True once the engine-wide deadline (from
    /// [`SymexConfig::total_deadline`]) has expired.
    pub fn past_engine_deadline(&self) -> bool {
        self.engine_deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Overrides the engine-wide deadline with an absolute instant. The
    /// parallel scheduler uses this to share one global cutoff across all
    /// worker engines — each engine otherwise snapshots its own
    /// `total_deadline` at construction time, which would multiply the
    /// allowance by the number of workers.
    pub fn set_deadline_at(&mut self, deadline: Option<Instant>) {
        self.engine_deadline = deadline;
    }

    /// Builds the initial query asserting that `edge` holds, e.g.
    /// `v̂1·f ↦ v̂2 ∧ v̂1 from {base} ∧ v̂2 from {target}` (§3.1).
    pub fn initial_query(&self, edge: &HeapEdge) -> Result<Query, Refuted> {
        let mut q = Query::new();
        match edge {
            HeapEdge::Global { global, target } => {
                let v = q.fresh_sym(Region::singleton(target.index()));
                q.statics.insert(*global, Val::Sym(v));
            }
            HeapEdge::Field { base, field, target } => {
                let o = q.fresh_sym(Region::singleton(base.index()));
                let v = q.fresh_sym(Region::singleton(target.index()));
                let idx = if *field == self.program.contents_field {
                    Some(Val::Sym(q.fresh_sym(Region::Data)))
                } else {
                    None
                };
                q.heap.push(crate::query::HeapCell {
                    obj: o,
                    field: *field,
                    val: Val::Sym(v),
                    idx,
                });
            }
        }
        Ok(q)
    }

    /// Builds the initial query for a null-dereference candidate: the base
    /// local holds `null` in the state just before the dereferencing
    /// command (§3.1 generalized to the null client).
    pub fn initial_deref_query(&self, site: &DerefSite) -> Result<Query, Refuted> {
        let mut q = Query::new();
        q.locals.insert(site.base, Val::Null);
        // The dereference itself anchors the witness trace even though it
        // is not executed backwards.
        q.record(site.cmd, self.config.trace_cap);
        Ok(q)
    }

    /// Runs one witness search from statement `start` with post-query `q0`;
    /// the command at `start` is applied iff `include_cmd`. `Ok(())` means
    /// every path program was refuted.
    pub(crate) fn search_from(
        &mut self,
        start: CmdId,
        q0: Query,
        include_cmd: bool,
    ) -> Result<(), Stop> {
        let _span = obs::span_with(obs::SpanKind::Path, || self.program.describe_cmd(start));
        self.charge(1)?;
        let method = self.program.cmd_method(start);
        let path = self.path_to(start);
        self.call_chain.clear();
        self.caller_depth = 0;
        // Borrow the body straight out of the shared program (lifetime 'a,
        // decoupled from `self`) instead of cloning the statement tree.
        let program = self.program;
        let body = &program.method(method).body;
        let mut qs = self.take_buf();
        self.back_pos(body, &path, q0, include_cmd, &mut qs)?;
        for q in qs.drain(..) {
            self.propagate_up(method, q)?;
        }
        self.put_buf(qs);
        Ok(())
    }

    /// The position of `cmd` in its method's statement tree (memoized).
    fn path_to(&mut self, cmd: CmdId) -> Rc<[usize]> {
        let program = self.program;
        let path = self.memo.paths.entry(cmd).or_insert_with(|| {
            let body = &program.method(program.cmd_method(cmd)).body;
            body.path_to(cmd).expect("command not found in its own method body").into()
        });
        Rc::clone(path)
    }

    /// `pt(var)` as a shared set (memoized).
    fn pt_var_shared(&mut self, var: VarId) -> Rc<BitSet> {
        let pta = self.pta;
        Rc::clone(self.memo.pt_var.entry(var).or_insert_with(|| Rc::new(pta.pt_var(var).clone())))
    }

    /// `pt(var.field)` (memoized).
    pub(crate) fn pt_var_field(&mut self, var: VarId, field: FieldId) -> &BitSet {
        let pta = self.pta;
        self.memo.pt_var_field.entry((var, field)).or_insert_with(|| pta.pt_var_field(var, field))
    }

    /// Charges `n` path programs against the budget.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), Stop> {
        self.stats.add_path_programs(n);
        self.poll_deadline()?;
        if self.budget_left < n {
            self.budget_left = 0;
            return Err(Stop::Aborted(StopReason::ForkBudget));
        }
        self.budget_left -= n;
        Ok(())
    }

    /// Charges one command transfer against the work allowance.
    pub(crate) fn charge_cmd(&mut self) -> Result<(), Stop> {
        self.poll_deadline()?;
        if self.cmd_budget_left == 0 {
            return Err(Stop::Aborted(StopReason::WorkBudget));
        }
        self.cmd_budget_left -= 1;
        Ok(())
    }

    /// Amortized cooperative deadline check: reads the clock on the first
    /// charge after [`Engine::refute_edge`] and then once every
    /// [`DEADLINE_STRIDE`] charges. Free when no deadline is configured.
    #[inline]
    fn poll_deadline(&mut self) -> Result<(), Stop> {
        let Some(dl) = self.deadline else { return Ok(()) };
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks % DEADLINE_STRIDE == 1 && Instant::now() >= dl {
            return Err(Stop::Aborted(StopReason::WallClock));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Backwards statement walking
    // ------------------------------------------------------------------

    /// Executes backwards from the position `path` inside `stmt` (the
    /// command at that position is applied iff `include_cmd`), pushing the
    /// queries at the entry of `stmt` into `out`.
    pub(crate) fn back_pos(
        &mut self,
        stmt: &Stmt,
        path: &[usize],
        q: Query,
        include_cmd: bool,
        out: &mut Vec<Query>,
    ) -> Flow {
        match stmt {
            Stmt::Cmd(c) => {
                debug_assert!(path.is_empty());
                if include_cmd {
                    return self.exec_cmd_back(*c, q, out);
                }
                out.push(q);
                Ok(())
            }
            Stmt::Skip => {
                out.push(q);
                Ok(())
            }
            Stmt::Seq(ss) => {
                let i = path[0];
                let mut qs = self.take_buf();
                self.back_pos(&ss[i], &path[1..], q, include_cmd, &mut qs)?;
                self.exec_seq(ss[..i].iter().rev(), qs, out)
            }
            Stmt::If { cond, then_br, else_br } => {
                let branch = path[0];
                let child = if branch == 0 { then_br } else { else_br };
                let mut qs = self.take_buf();
                self.back_pos(child, &path[1..], q, include_cmd, &mut qs)?;
                let guard = if branch == 0 { cond.clone() } else { cond.negate() };
                for q in qs.drain(..) {
                    if let Some(q2) = self.apply_cond(&guard, q)? {
                        out.push(q2);
                    }
                }
                self.put_buf(qs);
                Ok(())
            }
            Stmt::Choice(a, b) => {
                let branch = path[0];
                let child = if branch == 0 { a } else { b };
                self.back_pos(child, &path[1..], q, include_cmd, out)
            }
            Stmt::While { cond, body } => {
                // Starting inside the body: walk back to the body entry,
                // then account for any number of preceding full iterations.
                let mut seed = self.take_buf();
                self.back_pos(body, &path[1..], q, include_cmd, &mut seed)?;
                self.loop_fixpoint(Some(cond), body, seed, out)
            }
            Stmt::Loop(body) => {
                let mut seed = self.take_buf();
                self.back_pos(body, &path[1..], q, include_cmd, &mut seed)?;
                self.loop_fixpoint(None, body, seed, out)
            }
        }
    }

    /// Executes `stmts` backwards in iteration order over the queries in
    /// `qs`, stopping early once every query is refuted, and pushes the
    /// survivors into `out`.
    fn exec_seq<'s>(
        &mut self,
        stmts: impl Iterator<Item = &'s Stmt>,
        mut qs: Vec<Query>,
        out: &mut Vec<Query>,
    ) -> Flow {
        let mut next = self.take_buf();
        for stmt in stmts {
            if qs.is_empty() {
                break;
            }
            for q in qs.drain(..) {
                self.exec_stmt_back(stmt, q, &mut next)?;
            }
            std::mem::swap(&mut qs, &mut next);
        }
        out.append(&mut qs);
        self.put_buf(qs);
        self.put_buf(next);
        Ok(())
    }

    /// Executes one whole statement backwards: given the post-query `q`,
    /// pushes the surviving pre-queries into `out`.
    pub(crate) fn exec_stmt_back(&mut self, stmt: &Stmt, q: Query, out: &mut Vec<Query>) -> Flow {
        match stmt {
            Stmt::Skip => {
                out.push(q);
                Ok(())
            }
            Stmt::Cmd(c) => self.exec_cmd_back(*c, q, out),
            Stmt::Seq(ss) => {
                let mut qs = self.take_buf();
                qs.push(q);
                self.exec_seq(ss.iter().rev(), qs, out)
            }
            Stmt::If { cond, then_br, else_br } => {
                self.charge(1)?; // the extra branch is a fork
                let mut then_qs = self.take_buf();
                self.exec_stmt_back(then_br, q.clone(), &mut then_qs)?;
                let then_untouched = then_qs.len() == 1 && then_qs[0].same_constraints(&q);
                let mut else_qs = self.take_buf();
                self.exec_stmt_back(else_br, q, &mut else_qs)?;
                // If neither branch touched the query, the guard is
                // irrelevant path-sensitivity: keep one copy, no constraint
                // (§3.2, following ESP/PSE). The else branch is compared
                // with the then branch, which equals the original query.
                if then_untouched && else_qs.len() == 1 && else_qs[0].same_constraints(&then_qs[0])
                {
                    out.append(&mut then_qs);
                } else {
                    for tq in then_qs.drain(..) {
                        if let Some(q2) = self.apply_cond(cond, tq)? {
                            out.push(q2);
                        }
                    }
                    let neg = cond.negate();
                    for eq in else_qs.drain(..) {
                        if let Some(q2) = self.apply_cond(&neg, eq)? {
                            out.push(q2);
                        }
                    }
                }
                self.put_buf(then_qs);
                self.put_buf(else_qs);
                Ok(())
            }
            Stmt::Choice(a, b) => {
                self.charge(1)?;
                self.exec_stmt_back(a, q.clone(), out)?;
                self.exec_stmt_back(b, q, out)
            }
            Stmt::While { cond, body } => {
                // Zero or more iterations; after the loop ¬cond holds.
                let Some(q2) = self.apply_cond(&cond.negate(), q)? else { return Ok(()) };
                let mut seed = self.take_buf();
                seed.push(q2);
                self.loop_fixpoint(Some(cond), body, seed, out)
            }
            Stmt::Loop(body) => {
                let mut seed = self.take_buf();
                seed.push(q);
                self.loop_fixpoint(None, body, seed, out)
            }
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Backwards transfer for a call command.
    pub(crate) fn exec_call_back(
        &mut self,
        cmd_id: CmdId,
        mut q: Query,
        out: &mut Vec<Query>,
    ) -> Flow {
        let Command::Call { dst, callee: _, .. } = self.program.cmd(cmd_id) else {
            unreachable!("exec_call_back on non-call");
        };
        let pta = self.pta;
        let targets = pta.call_targets(cmd_id);

        // Frame rule: skip the call outright if it cannot affect the query.
        // Relevance is checked per cell at location granularity: a callee
        // that writes `contents` of map arrays cannot affect a query cell
        // over a vec array, even though the field matches.
        let dst_relevant = dst.map(|d| q.locals.contains_key(&d)).unwrap_or(false);
        let mods_relevant = targets.iter().any(|&t| {
            let mod_globals = self.modref.mod_globals(t);
            q.statics.keys().any(|g| mod_globals.contains(g.index()))
                || q.heap.iter().any(|cell| self.cell_may_be_written(t, cell, &q))
        });
        if !dst_relevant && !mods_relevant {
            self.stats.add_call_skipped_irrelevant();
            out.push(q);
            return Ok(());
        }

        // Depth bound / recursion / unresolved targets: skip soundly by
        // dropping everything the callee might produce.
        let too_deep = self.call_chain.len() >= self.config.max_call_depth;
        let recursive = targets.iter().any(|t| self.call_chain.contains(t));
        if too_deep || recursive || targets.is_empty() {
            self.stats.add_call_skipped_depth();
            out.push(self.skip_call(cmd_id, targets, q));
            return Ok(());
        }

        if targets.len() > 1 {
            self.charge(targets.len() as u64 - 1)?;
        }
        let representation = self.config.representation;
        let mut entry_qs = self.take_buf();
        for (k, &t) in targets.iter().enumerate() {
            // The last target takes the query itself instead of a copy.
            let mut qt = if k + 1 == targets.len() { std::mem::take(&mut q) } else { q.clone() };
            // Receiver narrowing: only locations that dispatch to `t` are
            // compatible with taking this target.
            if let Some(recv_var) = self.call_receiver(cmd_id) {
                if let Some(&Val::Sym(s)) = qt.locals.get(&recv_var) {
                    let dl = self.dispatch_locs(cmd_id, t);
                    let narrowed = if representation != Representation::FullySymbolic {
                        qt.narrow(s, dl)
                    } else if qt.region(s).as_locs().map(|l| l.is_disjoint(dl)).unwrap_or(true) {
                        // PSE-style oracle check without narrowing.
                        Err(Refuted::EmptyRegion)
                    } else {
                        Ok(())
                    };
                    if let Err(r) = narrowed {
                        self.stats.count_refutation(r);
                        continue;
                    }
                } else if let Some(&Val::Null) = qt.locals.get(&recv_var) {
                    // Call on null receiver: path impossible.
                    self.stats.count_refutation(Refuted::Separation);
                    continue;
                }
            }
            // Pending return value: consumed by the callee's trailing
            // return.
            debug_assert!(qt.ret_slot.is_none());
            if let Some(d) = dst {
                qt.ret_slot = qt.locals.remove(d);
            }
            self.call_chain.push(t);
            let program = self.program;
            let body = &program.method(t).body;
            let entered = self.exec_stmt_back(body, qt, &mut entry_qs);
            self.call_chain.pop();
            entered?;
            for mut qe in entry_qs.drain(..) {
                // A pending return that was never consumed means the callee
                // cannot produce the required value along this path — but
                // dropping the constraint is the sound over-approximation.
                qe.ret_slot = None;
                if let Some(q2) = self.bind_params(cmd_id, t, qe)? {
                    out.push(q2);
                }
            }
        }
        self.put_buf(entry_qs);
        Ok(())
    }

    /// The receiver variable of a call, if it is an instance-method call.
    fn call_receiver(&self, cmd_id: CmdId) -> Option<VarId> {
        match self.program.cmd(cmd_id) {
            Command::Call { callee: Callee::Virtual { receiver, .. }, .. } => Some(*receiver),
            Command::Call { callee: Callee::Static { method }, args, .. } => {
                if self.program.method(*method).class.is_some() {
                    match args.first() {
                        Some(Operand::Var(v)) => Some(*v),
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Receiver locations (among `pt(receiver)`) that dispatch to `target`
    /// (memoized).
    fn dispatch_locs(&mut self, cmd_id: CmdId, target: MethodId) -> &BitSet {
        let recv = self.call_receiver(cmd_id);
        let (program, pta) = (self.program, self.pta);
        self.memo.dispatch.entry((cmd_id, target)).or_insert_with(|| {
            let Command::Call { callee, .. } = program.cmd(cmd_id) else {
                unreachable!();
            };
            let Some(recv) = recv else { return BitSet::new() };
            let mut out = BitSet::new();
            for l in pta.pt_var(recv).iter() {
                let class = pta.class_of(LocId(l as u32));
                let ok = match callee {
                    Callee::Virtual { method, .. } => {
                        program.resolve_method(class, method) == Some(target)
                    }
                    Callee::Static { method } => {
                        let tc = program.method(*method).class.expect("instance method");
                        program.is_subclass(class, tc)
                    }
                };
                if ok {
                    out.insert(l);
                }
            }
            out
        })
    }

    /// True if method `t` may write the concrete cell described by `cell`
    /// (field match plus owner-region overlap with the callee's
    /// location-sensitive write summary).
    fn cell_may_be_written(&self, t: MethodId, cell: &crate::query::HeapCell, q: &Query) -> bool {
        match q.region(cell.obj).as_locs() {
            Some(locs) => self.modref.may_write_cell(t, cell.field, locs),
            // Data-region owner cannot occur; be conservative.
            None => self.modref.mod_fields(t).contains(cell.field.index()),
        }
    }

    /// Sound skip of a call: drop the destination binding and every
    /// constraint the callee's mod summary may cover (cell-granular).
    fn skip_call(&mut self, cmd_id: CmdId, targets: &[MethodId], mut q: Query) -> Query {
        let Command::Call { dst, .. } = self.program.cmd(cmd_id) else { unreachable!() };
        if let Some(d) = dst {
            q.locals.remove(d);
        }
        if targets.is_empty() {
            // No resolved targets (should not happen for reached code):
            // drop everything heap-related to stay sound.
            q.heap.clear();
            q.statics.clear();
        } else {
            // Whether a cell may be written depends on regions only, so
            // removing from the back keeps every other decision unchanged.
            for i in (0..q.heap.len()).rev() {
                if targets.iter().any(|&t| self.cell_may_be_written(t, &q.heap[i], &q)) {
                    q.heap.remove(i);
                }
            }
            let modref = self.modref;
            q.statics
                .retain(|g, _| !targets.iter().any(|&t| modref.mod_globals(t).contains(g.index())));
        }
        q.gc(&mut self.scratch);
        q
    }

    /// Binds callee parameters to the actuals of call site `cmd_id`,
    /// producing the query just before the call in the caller. `Ok(None)`
    /// means the binding refuted the query.
    pub(crate) fn bind_params(
        &mut self,
        cmd_id: CmdId,
        callee: MethodId,
        mut q: Query,
    ) -> Result<Option<Query>, Stop> {
        // Borrow the call command and callee signature out of the shared
        // program (lifetime 'a) instead of cloning them per binding.
        let program = self.program;
        let Command::Call { callee: ckind, args, .. } = program.cmd(cmd_id) else {
            unreachable!("bind_params on non-call");
        };
        // The call site is part of the path program; record it so witness
        // traces stay connected through upward propagation.
        q.record(cmd_id, self.config.trace_cap);
        let callee_m = program.method(callee);
        let is_instance = callee_m.class.is_some();
        // (param, actual) pairs including the receiver.
        let (receiver, params) = match (ckind, is_instance) {
            (Callee::Virtual { receiver, .. }, true) => {
                (Some((callee_m.params[0], Operand::Var(*receiver))), &callee_m.params[1..])
            }
            _ => (None, &callee_m.params[..]),
        };
        let pairs = receiver.into_iter().chain(params.iter().copied().zip(args.iter().copied()));
        for (param, actual) in pairs {
            let Some(v) = q.locals.remove(&param) else { continue };
            let res = self.bind_value_to_operand(&mut q, v, actual);
            match res {
                Ok(()) => {}
                Err(r) => {
                    self.stats.count_refutation(r);
                    return Ok(None);
                }
            }
        }
        // Receiver/argument narrowing may have shrunk owner regions;
        // re-establish graph consistency across the boundary.
        if let Err(r) = self.normalize_cells(&mut q) {
            self.stats.count_refutation(r);
            return Ok(None);
        }
        // The receiver of a virtual call additionally narrows to locations
        // dispatching to this callee (handled in exec_call_back when
        // entering; on upward propagation do it here).
        if let (Callee::Virtual { receiver, .. }, true) = (ckind, is_instance) {
            if let Some(&Val::Sym(s)) = q.locals.get(receiver) {
                if self.config.representation != Representation::FullySymbolic {
                    let dl = self.dispatch_locs(cmd_id, callee);
                    if let Err(r) = q.narrow(s, dl) {
                        self.stats.count_refutation(r);
                        return Ok(None);
                    }
                }
            }
        }
        Ok(Some(q))
    }

    /// Unifies a required value `v` with an actual operand in the caller
    /// frame: `x := operand` in reverse.
    pub(crate) fn bind_value_to_operand(
        &mut self,
        q: &mut Query,
        v: Val,
        operand: Operand,
    ) -> Result<(), Refuted> {
        match operand {
            Operand::Int(c) => q.unify(v, Val::Int(c)),
            Operand::Null => q.unify(v, Val::Null),
            Operand::Var(y) => {
                if let Val::Sym(s) = v {
                    if self.config.representation != Representation::FullySymbolic
                        && self.program.var(y).ty.is_ref()
                    {
                        q.narrow(s, self.pta.pt_var(y))?;
                    }
                }
                match q.locals.get(&y).copied() {
                    Some(w) => q.unify(v, w),
                    None => {
                        q.locals.insert(y, v);
                        Ok(())
                    }
                }
            }
        }
    }

    /// Gets the value bound to `var`, creating a fresh symbolic value (with
    /// its `from` region seeded from the points-to set) if unbound.
    pub(crate) fn get_or_bind(&mut self, q: &mut Query, var: VarId) -> Result<Val, Refuted> {
        if let Some(&v) = q.locals.get(&var) {
            return Ok(v);
        }
        let v = match self.program.var(var).ty {
            Ty::Int => Val::Sym(q.fresh_sym(Region::Data)),
            Ty::Ref(_) => {
                if self.pta.pt_var(var).is_empty() {
                    // The variable can never hold an instance.
                    return Err(Refuted::EmptyRegion);
                }
                Val::Sym(q.fresh_sym(Region::Locs(self.pt_var_shared(var))))
            }
        };
        q.locals.insert(var, v);
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Upward propagation
    // ------------------------------------------------------------------

    /// Propagates a query that reached the entry of `method` to every call
    /// site of `method`; at the program entry the query is decided.
    /// `Ok(())` means all upward paths were refuted.
    pub(crate) fn propagate_up(&mut self, method: MethodId, mut q: Query) -> Result<(), Stop> {
        // Heap-consistency narrowing at the procedure boundary.
        if let Err(r) = self.normalize_cells(&mut q) {
            self.stats.count_refutation(r);
            return Ok(());
        }
        q.gc(&mut self.scratch);
        // Query-history subsumption at the procedure boundary (§3.3).
        if self.config.simplification {
            let strict = self.config.representation == Representation::FullySymbolic;
            let point = crate::simplify::Point::MethodEntry(method);
            if self.history.subsumes_at(point, &q, strict, &mut self.scratch) {
                self.stats.add_subsumed();
                return Ok(());
            }
            self.history.insert(crate::simplify::Point::MethodEntry(method), q.clone());
        }

        if Some(method) == self.program.entry_opt() {
            return match q.check_at_entry() {
                Ok(()) => Err(Stop::Witnessed(self.make_witness(&q))),
                Err(r) => {
                    self.stats.count_refutation(r);
                    Ok(())
                }
            };
        }

        let pta = self.pta;
        let callers = pta.callers(method);
        if callers.is_empty() {
            // Unreachable code cannot witness anything.
            self.stats.count_refutation(Refuted::Entry);
            return Ok(());
        }
        if self.caller_depth >= CALLER_DEPTH_CAP {
            return Err(Stop::Aborted(StopReason::CallerDepth));
        }
        if callers.len() > 1 {
            self.charge(callers.len() as u64 - 1)?;
        }
        // Upward propagation starts outside every callee: the downward
        // call chain (recursion and depth checks) is empty here.
        debug_assert!(self.call_chain.is_empty());
        for (k, &c) in callers.iter().enumerate() {
            let caller_m = self.program.cmd_method(c);
            // The last caller takes the query itself instead of a copy.
            let qc = if k + 1 == callers.len() { std::mem::take(&mut q) } else { q.clone() };
            let Some(q2) = self.bind_params(c, method, qc)? else { continue };
            let program = self.program;
            let body = &program.method(caller_m).body;
            let path = self.path_to(c);
            self.caller_depth += 1;
            let mut qs = self.take_buf();
            let walked = self.back_pos(body, &path, q2, false, &mut qs);
            let propagated = walked
                .and_then(|()| qs.drain(..).try_for_each(|q3| self.propagate_up(caller_m, q3)));
            self.caller_depth -= 1;
            propagated?;
            self.put_buf(qs);
        }
        Ok(())
    }

    /// Builds a witness record from a discharged or entry-satisfiable query.
    pub(crate) fn make_witness(&self, q: &Query) -> Witness {
        Witness { trace: q.trace(), final_query: q.describe(self.program) }
    }
}

/// Outcome of [`Engine::refute_edge_resilient`], with retry provenance.
#[derive(Clone, Debug)]
pub struct EdgeDecision {
    /// The final outcome for the edge.
    pub outcome: SearchOutcome,
    /// Total refutation attempts (1 = the strict pass alone).
    pub attempts: u32,
    /// True when the outcome came from a coarsened (degraded) retry rather
    /// than the originally configured precision.
    pub degraded: bool,
}

/// The graceful degradation ladder: successively coarser — but still sound —
/// configurations derived from `base`. Each step over-approximates the
/// previous one, so any refutation it produces is still a valid proof.
fn degradation_ladder(base: &SymexConfig) -> Vec<SymexConfig> {
    let mut steps = Vec::new();
    let mut cfg = base.clone();
    cfg.degrade = false;
    cfg.inject_panic_on_new = None;
    if cfg.loop_mode != LoopMode::DropAll {
        cfg.loop_mode = LoopMode::DropAll;
        steps.push(cfg.clone());
    }
    if cfg.max_path_atoms > 0 {
        cfg.max_path_atoms = 0;
        steps.push(cfg.clone());
    }
    if cfg.max_heap_cells > 4 {
        cfg.max_heap_cells /= 2;
        steps.push(cfg);
    }
    steps
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
