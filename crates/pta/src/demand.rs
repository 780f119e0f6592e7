//! Demand-driven points-to queries: O(query) slices of the points-to
//! graph via CFL-reachability over the solved constraint graph.
//!
//! The exhaustive solver ([`crate::analyze_with`]) computes `pt(n)` for
//! every node. A refutation query, however, touches one alarm edge — one
//! source global, one sink location — and reads only the facts on the
//! heap paths between them. [`DemandPta`] answers such a query by
//! traversing the *solved* constraint graph backwards from the queried
//! node: at fixpoint every complex constraint (field read/write, dynamic
//! dispatch) has been materialized into plain copy edges through
//! `Field(loc, f)` nodes, so the balanced field-read/field-write paths of
//! CFL-reachability (`flowsTo` / `flowsTo-bar`) degenerate to plain
//! reverse reachability over copy edges, and
//!
//! ```text
//!   pt(n) = ⋃ { seeds(m) : m →* n over copy edges }
//! ```
//!
//! where `seeds(m)` are the allocation-site locations injected at `m` by
//! `new` commands and dispatch `this`-bindings. A query explores only the
//! backward cone of its node — the *slice* — and the forward heap closure
//! of the resulting targets, typically a small fraction of the graph.
//!
//! Three guarantees, in decreasing order of strength:
//!
//! * **Exactness is enforced, not assumed.** Every demand-computed fact is
//!   gated against the resident exhaustive result (the *oracle*) before
//!   publication: on any mismatch the oracle's value is published and a
//!   drift counter ticks ([`obs::Counter::PtaDemandDrift`]). A demand
//!   answer is therefore byte-identical to the exhaustive answer on every
//!   queried fact, unconditionally.
//! * **Budgeted exploration.** A query that traverses more than
//!   [`PtaOptions::demand_budget`](crate::PtaOptions) representatives
//!   abandons the slice and falls back to pure oracle delegation
//!   ([`PartialPtaResult`] in fallback mode) — recorded, never wrong.
//! * **Out-of-slice resolution.** The engine consuming a
//!   [`PartialPtaResult`] may ask for facts outside the slice (transfer
//!   functions walk arbitrary code); those resolve against the oracle and
//!   are counted ([`PartialPtaResult::resolutions`]).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tir::{AllocId, ClassId, CmdId, Command, FieldId, GlobalId, MethodId, Operand, Program, VarId};

use crate::analysis::{NodeKind, PtaOptions, Solver, SolverKind};
use crate::bitset::BitSet;
use crate::context::ContextPolicy;
use crate::incremental::IncrementalPta;
use crate::loc::{AbsLoc, LocId, LocTable};
use crate::result::{HeapEdge, PtaResult};
use crate::view::PtaView;

/// Element-wise set equality. `BitSet`'s derived `Eq` is unusable here:
/// word vectors may differ by trailing zero words.
fn same_set(a: &BitSet, b: &BitSet) -> bool {
    a.is_subset(b) && b.is_subset(a)
}

/// Accounting for one demand query.
#[derive(Clone, Copy, Debug, Default)]
pub struct DemandQueryStats {
    /// Constraint-graph representatives traversed (first visits only).
    pub nodes_touched: u64,
    /// `nodes_touched` over the total representative count — the fraction
    /// of the constraint graph this query needed.
    pub slice_fraction: f64,
    /// True if the exploration budget ran out and the answer is pure
    /// oracle delegation.
    pub fallback: bool,
    /// Demand-computed facts that disagreed with the oracle and were
    /// replaced by it. Zero on a from-scratch fixpoint.
    pub drift: u64,
    /// True if a previously-computed slice was revalidated and reused.
    pub cache_hit: bool,
}

/// Lifetime aggregate over every query answered by one [`DemandPta`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DemandStats {
    /// Queries answered.
    pub queries: u64,
    /// Queries that fell back to the exhaustive result.
    pub fallbacks: u64,
    /// Gated facts replaced by the oracle.
    pub drift: u64,
    /// Representatives traversed, summed over queries.
    pub nodes_touched: u64,
    /// Sum of per-query slice fractions (mean = sum / queries).
    pub slice_fraction_sum: f64,
    /// Queries answered from the slice cache.
    pub cache_hits: u64,
}

impl DemandStats {
    /// Mean per-query slice fraction; 0 before the first query.
    pub fn mean_slice_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.slice_fraction_sum / self.queries as f64
        }
    }
}

/// A query-relevant slice of the points-to graph, backed by the resident
/// exhaustive result for everything outside the slice.
///
/// Implements [`PtaView`], so the refutation engine runs on it unchanged.
/// In-slice lookups (the queried global, closed heap cells, producer
/// lists, and the variables the producer pass resolved) are served from
/// demand-computed — oracle-gated — data; everything else delegates to the
/// oracle and bumps [`Self::resolutions`]. Call-graph and location-table
/// accessors delegate wholesale: they are byproducts of the resident solve
/// and carry no per-query cost.
pub struct PartialPtaResult {
    oracle: Arc<PtaResult>,
    global: GlobalId,
    global_pt: BitSet,
    heap: HashMap<(LocId, FieldId), BitSet>,
    /// Locations whose *every* field cell is materialized in `heap`; a
    /// missing cell for a closed base means provably-empty, not
    /// out-of-slice.
    closed_locs: BitSet,
    var_pt: HashMap<VarId, BitSet>,
    producers: HashMap<HeapEdge, Vec<CmdId>>,
    fallback: bool,
    resolutions: AtomicU64,
    empty: BitSet,
}

impl PartialPtaResult {
    fn pure_fallback(oracle: Arc<PtaResult>, global: GlobalId) -> Self {
        PartialPtaResult {
            global_pt: oracle.pt_global(global).clone(),
            oracle,
            global,
            heap: HashMap::new(),
            closed_locs: BitSet::new(),
            var_pt: HashMap::new(),
            producers: HashMap::new(),
            fallback: true,
            resolutions: AtomicU64::new(0),
            empty: BitSet::new(),
        }
    }

    /// The exhaustive result backing out-of-slice lookups.
    pub fn oracle(&self) -> &Arc<PtaResult> {
        &self.oracle
    }

    /// The global this slice was computed for.
    pub fn queried_global(&self) -> GlobalId {
        self.global
    }

    /// True if the budget ran out and every lookup delegates.
    pub fn is_fallback(&self) -> bool {
        self.fallback
    }

    /// Out-of-slice lookups resolved against the oracle so far.
    pub fn resolutions(&self) -> u64 {
        self.resolutions.load(Ordering::Relaxed)
    }

    /// Number of heap edges materialized in the slice.
    pub fn slice_edges(&self) -> usize {
        self.heap.values().map(BitSet::len).sum::<usize>() + self.global_pt.len()
    }

    /// Locations whose outgoing field cells are fully materialized.
    pub fn closed_locs(&self) -> &BitSet {
        &self.closed_locs
    }

    fn count_resolution(&self) {
        self.resolutions.fetch_add(1, Ordering::Relaxed);
    }
}

impl PtaView for PartialPtaResult {
    fn pt_var(&self, v: VarId) -> &BitSet {
        if !self.fallback {
            if let Some(pt) = self.var_pt.get(&v) {
                return pt;
            }
        }
        self.count_resolution();
        self.oracle.pt_var(v)
    }

    fn pt_global(&self, g: GlobalId) -> &BitSet {
        if g == self.global {
            return &self.global_pt;
        }
        self.count_resolution();
        self.oracle.pt_global(g)
    }

    fn pt_field(&self, base: LocId, f: FieldId) -> &BitSet {
        if !self.fallback && self.closed_locs.contains(base.index()) {
            return self.heap.get(&(base, f)).unwrap_or(&self.empty);
        }
        self.count_resolution();
        self.oracle.pt_field(base, f)
    }

    fn heap_rows(&self) -> Vec<(LocId, FieldId, &BitSet)> {
        if self.fallback {
            return self.oracle.heap_rows();
        }
        self.heap.iter().map(|(&(l, f), t)| (l, f, t)).collect()
    }

    fn producers(&self, edge: &HeapEdge) -> &[CmdId] {
        if !self.fallback {
            let in_slice = match edge {
                HeapEdge::Global { global, .. } => *global == self.global,
                HeapEdge::Field { base, .. } => self.closed_locs.contains(base.index()),
            };
            if in_slice {
                return self.producers.get(edge).map(Vec::as_slice).unwrap_or(&[]);
            }
        }
        self.count_resolution();
        self.oracle.producers(edge)
    }

    fn call_targets(&self, cmd: CmdId) -> &[MethodId] {
        self.oracle.call_targets(cmd)
    }

    fn callers(&self, m: MethodId) -> &[CmdId] {
        self.oracle.callers(m)
    }

    fn is_reached(&self, m: MethodId) -> bool {
        self.oracle.is_reached(m)
    }

    fn class_of(&self, l: LocId) -> ClassId {
        self.oracle.class_of(l)
    }

    fn locs_of_class(&self, program: &Program, base: ClassId) -> BitSet {
        self.oracle.locs_of_class(program, base)
    }

    fn alloc_locs(&self, a: AllocId) -> &BitSet {
        self.oracle.alloc_locs(a)
    }

    fn locs(&self) -> &LocTable {
        self.oracle.locs()
    }

    fn exhaustive(&self) -> &PtaResult {
        &self.oracle
    }
}

struct CachedSlice {
    partial: Arc<PartialPtaResult>,
    /// Methods whose facts contributed to the slice — the proactive
    /// invalidation key (revalidation at reuse is the safety net).
    touched_methods: Vec<MethodId>,
    stats: DemandQueryStats,
}

/// Per-query scratch: budget accounting and the method set the traversal
/// touched.
#[derive(Default)]
struct QueryScratch {
    nodes_touched: u64,
    visited: HashSet<u32>,
    drift: u64,
    touched_methods: HashSet<MethodId>,
}

/// The demand-driven query tier over a solved constraint graph.
///
/// Build one with [`DemandPta::analyze`] (owns its own exhaustive solve)
/// or [`DemandPta::from_incremental`] (indexes a resident
/// [`IncrementalPta`]'s state). Queries ([`DemandPta::query_global`])
/// return a [`PartialPtaResult`] slice plus per-query cost stats; slices
/// are cached per global and revalidated fact-by-fact against the oracle
/// on reuse, so a stale cache can cost time but never correctness.
pub struct DemandPta {
    oracle: Arc<PtaResult>,
    budget: usize,
    empty_contents_allocs: Vec<AllocId>,
    /// Reverse copy edges between union-find representatives (sorted,
    /// dedup'd, self-loops dropped), indexed by representative node id.
    preds: Vec<Vec<u32>>,
    /// Seed locations (canonical numbering) injected at each
    /// representative by `new` commands and dispatch `this`-bindings.
    seeds: Vec<BitSet>,
    /// Methods owning each representative's `Var`/`Ret` members.
    rep_methods: Vec<Vec<MethodId>>,
    /// Representatives of the `Var` nodes of each variable (conflated
    /// over instances, suspended instances excluded).
    var_nodes: HashMap<VarId, Vec<u32>>,
    global_nodes: HashMap<GlobalId, u32>,
    /// Field cells per canonical location: `(field, cell representative)`.
    fields_of_loc: HashMap<u32, Vec<(FieldId, u32)>>,
    total_nodes: usize,
    /// Memoized `pt` per representative (canonical numbering). Survives
    /// across queries; cleared on rebuild.
    memo: HashMap<u32, BitSet>,
    slices: HashMap<GlobalId, CachedSlice>,
    stats: DemandStats,
}

impl DemandPta {
    /// Runs the exhaustive delta solve on `program`, retains the result as
    /// the oracle, and indexes the solved constraint graph for queries.
    ///
    /// # Panics
    ///
    /// Panics if `program` has no entry method.
    pub fn analyze(program: &Program, policy: ContextPolicy, options: &PtaOptions) -> Self {
        let mut solver = Solver::new(policy);
        solver.options = PtaOptions { solver: SolverKind::Delta, ..options.clone() };
        solver.solve(program, program.entry());
        let result = solver.build_result(program, None);
        result.check_types(program);
        let oracle = Arc::new(result);
        let mut demand = DemandPta::empty(oracle, options.demand_budget);
        demand.rebuild_index(&solver, program, None);
        demand
    }

    /// Indexes a resident incremental solver's current fixpoint. The
    /// oracle is snapshotted via [`IncrementalPta::result`].
    pub fn from_incremental(inc: &IncrementalPta, program: &Program) -> Self {
        let oracle = Arc::new(inc.result(program));
        DemandPta::from_incremental_with_oracle(inc, program, oracle)
    }

    /// [`DemandPta::from_incremental`] reusing an already-snapshotted
    /// oracle (must be `inc.result(program)` for the same program version;
    /// [`crate::Solver::build_result`] is deterministic, so any such
    /// snapshot is interchangeable).
    pub fn from_incremental_with_oracle(
        inc: &IncrementalPta,
        program: &Program,
        oracle: Arc<PtaResult>,
    ) -> Self {
        let solver = inc.solver();
        let mut demand = DemandPta::empty(oracle, solver.options.demand_budget);
        demand.rebuild_index(solver, program, Some(inc.live_loc_table(program)));
        demand
    }

    fn empty(oracle: Arc<PtaResult>, budget: usize) -> Self {
        DemandPta {
            oracle,
            budget,
            empty_contents_allocs: Vec::new(),
            preds: Vec::new(),
            seeds: Vec::new(),
            rep_methods: Vec::new(),
            var_nodes: HashMap::new(),
            global_nodes: HashMap::new(),
            fields_of_loc: HashMap::new(),
            total_nodes: 0,
            memo: HashMap::new(),
            slices: HashMap::new(),
            stats: DemandStats::default(),
        }
    }

    /// Re-indexes after an edit batch: `inc` has absorbed the edits,
    /// `oracle` is the fresh exhaustive snapshot, and `changed` is the
    /// batch's invalidation set ([`crate::EditSolveStats::changed_methods`]).
    /// Cached slices touching a changed method are dropped eagerly; the
    /// survivors are revalidated fact-by-fact on their next reuse. Returns
    /// the number of slices dropped.
    pub fn on_edit(
        &mut self,
        inc: &IncrementalPta,
        program: &Program,
        oracle: Arc<PtaResult>,
        changed: &[MethodId],
    ) -> usize {
        self.oracle = oracle;
        let solver = inc.solver();
        self.rebuild_index(solver, program, Some(inc.live_loc_table(program)));
        self.invalidate(changed)
    }

    /// Drops cached slices whose traversal touched any of `changed`.
    /// Returns the number dropped.
    pub fn invalidate(&mut self, changed: &[MethodId]) -> usize {
        let changed: HashSet<MethodId> = changed.iter().copied().collect();
        let before = self.slices.len();
        self.slices.retain(|_, s| !s.touched_methods.iter().any(|m| changed.contains(m)));
        before - self.slices.len()
    }

    /// Drops every cached slice (the serve-eviction path). Returns the
    /// number dropped.
    pub fn clear_slices(&mut self) -> usize {
        let n = self.slices.len();
        self.slices.clear();
        n
    }

    /// Lifetime query statistics.
    pub fn stats(&self) -> &DemandStats {
        &self.stats
    }

    /// Slices currently cached.
    pub fn slices_cached(&self) -> usize {
        self.slices.len()
    }

    /// Total constraint-graph nodes — the denominator of
    /// [`DemandQueryStats::slice_fraction`].
    pub fn total_nodes(&self) -> usize {
        self.total_nodes
    }

    /// The exploration budget (0 = unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Replaces the exploration budget.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
    }

    /// The exhaustive oracle.
    pub fn oracle(&self) -> &Arc<PtaResult> {
        &self.oracle
    }

    /// Extracts the query index from a solved constraint graph. Read-only
    /// over the solver; the index owns plain copied data.
    fn rebuild_index(
        &mut self,
        solver: &Solver,
        program: &Program,
        live: Option<(LocTable, Vec<Option<LocId>>)>,
    ) {
        self.memo.clear();
        self.empty_contents_allocs = solver.options.empty_contents_allocs.clone();
        let n = solver.nodes.len();
        self.total_nodes = n;

        // Canonical renumbering of the solver's (interning-order) location
        // ids, mirroring `Solver::build_result` exactly: optional live
        // filter, then `LocTable::canonicalize` (deterministic name-chain
        // sort on a cloned table).
        let (mut table, map): (LocTable, Vec<Option<LocId>>) = match live {
            Some(x) => x,
            None => (solver.locs.clone(), solver.locs.ids().map(Some).collect()),
        };
        let perm = table.canonicalize(program);
        let remap = |l: usize| -> Option<u32> { map[l].map(|fresh| perm[fresh.index()].0) };

        let reps: Vec<u32> = (0..n).map(|i| solver.find_read(i) as u32).collect();

        // Reverse copy edges between representatives. Collapsed members'
        // successor rows were merged into their representative, but
        // scanning every row is correct regardless of merge policy.
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            let ri = reps[i];
            for &s in &solver.copy_succs[i] {
                let rs = reps[s.0 as usize];
                if rs != ri {
                    preds[rs as usize].push(ri);
                }
            }
        }
        for p in &mut preds {
            p.sort_unstable();
            p.dedup();
        }
        self.preds = preds;

        // Seeds: the only entry points of locations into the constraint
        // graph are `new`/`newarray` destinations (`Solver::process_cmd`)
        // and dispatch `this`-bindings (`Solver::bind_call`). Reconstruct
        // both read-only, in canonical numbering.
        let mut seeds: Vec<BitSet> = vec![BitSet::new(); n];
        let mut rep_methods: Vec<Vec<MethodId>> = vec![Vec::new(); n];
        let mut var_nodes: HashMap<VarId, Vec<u32>> = HashMap::new();
        let mut global_nodes: HashMap<GlobalId, u32> = HashMap::new();
        let mut fields_of_loc: HashMap<u32, Vec<(FieldId, u32)>> = HashMap::new();

        for (i, kind) in solver.nodes.iter().enumerate() {
            match kind {
                NodeKind::Var(inst, v) => {
                    if solver.suspended.contains(inst) {
                        continue;
                    }
                    let (m, _) = solver.insts[inst.0 as usize];
                    rep_methods[reps[i] as usize].push(m);
                    var_nodes.entry(*v).or_default().push(reps[i]);
                }
                NodeKind::Ret(inst) => {
                    if solver.suspended.contains(inst) {
                        continue;
                    }
                    let (m, _) = solver.insts[inst.0 as usize];
                    rep_methods[reps[i] as usize].push(m);
                }
                NodeKind::Global(g) => {
                    global_nodes.insert(*g, reps[i]);
                }
                NodeKind::Field(l, f) => {
                    if let Some(c) = remap(l.index()) {
                        fields_of_loc.entry(c).or_default().push((*f, reps[i]));
                    }
                }
            }
        }
        for ms in &mut rep_methods {
            ms.sort_unstable_by_key(|m| m.index());
            ms.dedup();
        }
        for ns in var_nodes.values_mut() {
            ns.sort_unstable();
            ns.dedup();
        }

        // Allocation seeds.
        for (i, &(method, _)) in solver.insts.iter().enumerate() {
            let inst = crate::analysis::InstId(i as u32);
            if solver.suspended.contains(&inst) || program.method(method).removed {
                continue;
            }
            let qual = solver.alloc_qualifier(program, inst);
            for cmd_id in program.method_cmds(method) {
                let (dst, alloc) = match program.cmd(cmd_id) {
                    Command::New { dst, alloc, .. } | Command::NewArray { dst, alloc, .. } => {
                        (*dst, *alloc)
                    }
                    _ => continue,
                };
                let Some(&node) = solver.node_index.get(&NodeKind::Var(inst, dst)) else {
                    continue;
                };
                let Some(old) = solver.locs.lookup(AbsLoc { alloc, ctx: qual }) else {
                    continue;
                };
                if let Some(c) = remap(old.index()) {
                    seeds[reps[node.0 as usize] as usize].insert(c as usize);
                }
            }
        }
        // Dispatch `this`-binding seeds.
        for call in &solver.calls {
            for &(lbit, callee_inst) in &call.dispatched {
                if solver.suspended.contains(&callee_inst) {
                    continue;
                }
                let (m, _) = solver.insts[callee_inst.0 as usize];
                let method = program.method(m);
                if method.removed || method.class.is_none() {
                    continue;
                }
                let Some(&this_param) = method.params.first() else { continue };
                let Some(&node) = solver.node_index.get(&NodeKind::Var(callee_inst, this_param))
                else {
                    continue;
                };
                if let Some(c) = remap(lbit) {
                    seeds[reps[node.0 as usize] as usize].insert(c as usize);
                }
            }
        }

        self.seeds = seeds;
        self.rep_methods = rep_methods;
        self.var_nodes = var_nodes;
        self.global_nodes = global_nodes;
        self.fields_of_loc = fields_of_loc;
    }

    /// `pt(start)` by backward reachability over reverse copy edges,
    /// unioning seeds; memoized per representative. `None` on budget
    /// exhaustion. Memoized hits are absorbed without re-expansion.
    fn resolve(&mut self, start: u32, qs: &mut QueryScratch) -> Option<BitSet> {
        if let Some(m) = self.memo.get(&start) {
            return Some(m.clone());
        }
        let mut out = BitSet::new();
        let mut stack = vec![start];
        let mut seen: HashSet<u32> = HashSet::new();
        seen.insert(start);
        while let Some(r) = stack.pop() {
            if qs.visited.insert(r) {
                qs.nodes_touched += 1;
                if self.budget != 0 && qs.nodes_touched > self.budget as u64 {
                    return None;
                }
            }
            out.union_with(&self.seeds[r as usize]);
            qs.touched_methods.extend(self.rep_methods[r as usize].iter().copied());
            for &p in &self.preds[r as usize] {
                if !seen.insert(p) {
                    continue;
                }
                if let Some(m) = self.memo.get(&p) {
                    out.union_with(m);
                } else {
                    stack.push(p);
                }
            }
        }
        self.memo.insert(start, out.clone());
        Some(out)
    }

    /// Gates a demand-computed set against the oracle's value: equal sets
    /// publish the computed one, any disagreement publishes the oracle's
    /// and counts drift. Publication is therefore always exact.
    fn gate(&self, computed: BitSet, oracle: &BitSet, qs: &mut QueryScratch) -> BitSet {
        if same_set(&computed, oracle) {
            computed
        } else {
            qs.drift += 1;
            oracle.clone()
        }
    }

    /// Gated `pt(v)`: union over the variable's instance nodes, compared
    /// against the oracle's conflated set. `None` on budget exhaustion.
    fn var_fact(&mut self, v: VarId, qs: &mut QueryScratch) -> Option<BitSet> {
        let reps = self.var_nodes.get(&v).cloned().unwrap_or_default();
        let mut out = BitSet::new();
        for r in reps {
            out.union_with(&self.resolve(r, qs)?);
        }
        let oracle = self.oracle.clone();
        Some(self.gate(out, oracle.pt_var(v), qs))
    }

    /// Answers a points-to query for `global`: the slice holding
    /// `pt(global)`, the full forward heap closure of its targets, and the
    /// producer lists of every slice edge — everything a refutation of an
    /// alarm edge rooted at `global` reads in-slice.
    ///
    /// Returns the (possibly cached) slice and this query's cost. On
    /// budget exhaustion the slice is pure oracle delegation with
    /// `fallback` recorded — never a wrong answer.
    pub fn query_global(
        &mut self,
        program: &Program,
        global: GlobalId,
    ) -> (Arc<PartialPtaResult>, DemandQueryStats) {
        obs::add(obs::Counter::PtaDemandQueries, 1);
        self.stats.queries += 1;

        if let Some(cached) = self.slices.get(&global) {
            if self.slice_matches_oracle(&cached.partial) {
                let mut stats = cached.stats;
                stats.cache_hit = true;
                stats.nodes_touched = 0;
                self.stats.cache_hits += 1;
                self.stats.slice_fraction_sum += stats.slice_fraction;
                let partial = Arc::clone(&self.slices[&global].partial);
                return (partial, stats);
            }
            self.slices.remove(&global);
        }

        let mut qs = QueryScratch::default();
        let computed = self.compute_slice(program, global, &mut qs);
        let fallback = computed.is_none();
        let partial = match computed {
            Some(p) => Arc::new(p),
            None => {
                obs::add(obs::Counter::PtaDemandFallbacks, 1);
                Arc::new(PartialPtaResult::pure_fallback(Arc::clone(&self.oracle), global))
            }
        };
        let slice_fraction = if self.total_nodes == 0 {
            0.0
        } else {
            qs.nodes_touched as f64 / self.total_nodes as f64
        };
        let stats = DemandQueryStats {
            nodes_touched: qs.nodes_touched,
            slice_fraction,
            fallback,
            drift: qs.drift,
            cache_hit: false,
        };
        obs::add(obs::Counter::PtaDemandNodesTouched, qs.nodes_touched);
        obs::add(obs::Counter::PtaDemandDrift, qs.drift);
        self.stats.fallbacks += u64::from(fallback);
        self.stats.drift += qs.drift;
        self.stats.nodes_touched += qs.nodes_touched;
        self.stats.slice_fraction_sum += slice_fraction;

        if !fallback {
            let mut touched: Vec<MethodId> = qs.touched_methods.into_iter().collect();
            touched.sort_unstable_by_key(|m| m.index());
            self.slices.insert(
                global,
                CachedSlice { partial: Arc::clone(&partial), touched_methods: touched, stats },
            );
        }
        (partial, stats)
    }

    /// The demand computation proper. `None` on budget exhaustion.
    fn compute_slice(
        &mut self,
        program: &Program,
        global: GlobalId,
        qs: &mut QueryScratch,
    ) -> Option<PartialPtaResult> {
        let oracle = Arc::clone(&self.oracle);

        // pt(global), gated.
        let computed = match self.global_nodes.get(&global).copied() {
            Some(r) => self.resolve(r, qs)?,
            None => BitSet::new(),
        };
        let global_pt = self.gate(computed, oracle.pt_global(global), qs);

        // Forward heap closure: every location reachable from the queried
        // global gets all of its field cells materialized (gated), and new
        // targets join the frontier. `closed` marks completion, so an
        // absent cell under a closed base reads as provably empty.
        let mut heap: HashMap<(LocId, FieldId), BitSet> = HashMap::new();
        let mut closed = BitSet::new();
        let mut frontier: Vec<usize> = global_pt.iter().collect();
        while let Some(l) = frontier.pop() {
            if !closed.insert(l) {
                continue;
            }
            let cells = self.fields_of_loc.get(&(l as u32)).cloned().unwrap_or_default();
            let lid = LocId(l as u32);
            for (f, rep) in cells {
                let computed = self.resolve(rep, qs)?;
                let cell = self.gate(computed, oracle.pt_field(lid, f), qs);
                if cell.is_empty() {
                    continue;
                }
                for t in cell.iter() {
                    if !closed.contains(t) {
                        frontier.push(t);
                    }
                }
                heap.insert((lid, f), cell);
            }
        }

        // Producer lists for the slice edges, mirroring
        // `Solver::build_result`'s exact iteration order (methods in
        // program order, commands in body order) restricted to writes that
        // can hit the slice. The variable facts feeding the lists are
        // themselves gated, so the lists match the exhaustive ones on
        // every slice edge.
        let slice_fields: HashSet<FieldId> = closed
            .iter()
            .flat_map(|l| {
                self.fields_of_loc
                    .get(&(l as u32))
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .map(|&(f, _)| f)
            })
            .collect();
        let mut producers: HashMap<HeapEdge, Vec<CmdId>> = HashMap::new();
        let mut var_pt: HashMap<VarId, BitSet> = HashMap::new();
        let field_producers = |this: &mut Self,
                               producers: &mut HashMap<HeapEdge, Vec<CmdId>>,
                               var_pt: &mut HashMap<VarId, BitSet>,
                               qs: &mut QueryScratch,
                               obj: VarId,
                               field: FieldId,
                               y: VarId,
                               cmd_id: CmdId,
                               array: bool|
         -> Option<()> {
            let mut base_pt = match var_pt.get(&obj) {
                Some(pt) => pt.clone(),
                None => {
                    let pt = this.var_fact(obj, qs)?;
                    var_pt.insert(obj, pt.clone());
                    pt
                }
            };
            if array {
                // Annotated arrays have no producible contents edges;
                // blocked cells are keyed by allocation site, resolved
                // through the canonical table.
                let blocked: Vec<usize> = base_pt
                    .iter()
                    .filter(|&l| {
                        this.empty_contents_allocs
                            .contains(&oracle.locs().get(LocId(l as u32)).alloc)
                    })
                    .collect();
                for l in blocked {
                    base_pt.remove(l);
                }
            }
            if !base_pt.iter().any(|l| closed.contains(l)) {
                return Some(());
            }
            let val_pt = match var_pt.get(&y) {
                Some(pt) => pt.clone(),
                None => {
                    let pt = this.var_fact(y, qs)?;
                    var_pt.insert(y, pt.clone());
                    pt
                }
            };
            for b in base_pt.iter().filter(|&b| closed.contains(b)) {
                for t in val_pt.iter() {
                    producers
                        .entry(HeapEdge::Field {
                            base: LocId(b as u32),
                            field,
                            target: LocId(t as u32),
                        })
                        .or_default()
                        .push(cmd_id);
                }
            }
            qs.touched_methods.insert(program.cmd_method(cmd_id));
            Some(())
        };
        let reached: Vec<MethodId> =
            program.method_ids().filter(|&m| oracle.is_reached(m)).collect();
        for &m in &reached {
            for cmd_id in program.method_cmds(m) {
                match program.cmd(cmd_id) {
                    Command::WriteField { obj, field, src: Operand::Var(y) } => {
                        if !slice_fields.contains(field) {
                            continue;
                        }
                        field_producers(
                            self,
                            &mut producers,
                            &mut var_pt,
                            qs,
                            *obj,
                            *field,
                            *y,
                            cmd_id,
                            false,
                        )?;
                    }
                    Command::WriteArray { arr, src: Operand::Var(y), .. } => {
                        if !slice_fields.contains(&program.contents_field) {
                            continue;
                        }
                        field_producers(
                            self,
                            &mut producers,
                            &mut var_pt,
                            qs,
                            *arr,
                            program.contents_field,
                            *y,
                            cmd_id,
                            true,
                        )?;
                    }
                    Command::WriteGlobal { global: g, src: Operand::Var(y) } if *g == global => {
                        let val_pt = match var_pt.get(y) {
                            Some(pt) => pt.clone(),
                            None => {
                                let pt = self.var_fact(*y, qs)?;
                                var_pt.insert(*y, pt.clone());
                                pt
                            }
                        };
                        for t in val_pt.iter() {
                            producers
                                .entry(HeapEdge::Global { global, target: LocId(t as u32) })
                                .or_default()
                                .push(cmd_id);
                        }
                        qs.touched_methods.insert(program.cmd_method(cmd_id));
                    }
                    _ => {}
                }
            }
        }

        Some(PartialPtaResult {
            oracle,
            global,
            global_pt,
            heap,
            closed_locs: closed,
            var_pt,
            producers,
            fallback: false,
            resolutions: AtomicU64::new(0),
            empty: BitSet::new(),
        })
    }

    /// Revalidates a cached slice fact-by-fact against the current oracle:
    /// the queried global's set, every materialized heap cell, closure
    /// completeness of every closed location (a cell that appeared since
    /// caching invalidates), every resolved variable, and every producer
    /// list. O(slice) hash lookups and set compares — no graph traversal.
    fn slice_matches_oracle(&self, slice: &PartialPtaResult) -> bool {
        if slice.fallback {
            // A fallback pseudo-slice holds no reusable demand data.
            return false;
        }
        let o = &self.oracle;
        if !same_set(&slice.global_pt, o.pt_global(slice.global)) {
            return false;
        }
        for (&(l, f), cell) in &slice.heap {
            if !same_set(cell, o.pt_field(l, f)) {
                return false;
            }
        }
        for l in slice.closed_locs.iter() {
            for &(f, _) in self.fields_of_loc.get(&(l as u32)).map(Vec::as_slice).unwrap_or(&[]) {
                let lid = LocId(l as u32);
                if !slice.heap.contains_key(&(lid, f)) && !o.pt_field(lid, f).is_empty() {
                    return false;
                }
            }
        }
        for (&v, pt) in &slice.var_pt {
            if !same_set(pt, o.pt_var(v)) {
                return false;
            }
        }
        for (edge, cmds) in &slice.producers {
            if o.producers(edge) != cmds.as_slice() {
                return false;
            }
        }
        true
    }

    /// Gated `pt(v)` as a standalone query (differential tests and tools).
    /// Falls back to the oracle's set — with `fallback` recorded — on
    /// budget exhaustion.
    pub fn pt_var_query(&mut self, v: VarId) -> (BitSet, DemandQueryStats) {
        obs::add(obs::Counter::PtaDemandQueries, 1);
        self.stats.queries += 1;
        let mut qs = QueryScratch::default();
        let (pt, fallback) = match self.var_fact(v, &mut qs) {
            Some(pt) => (pt, false),
            None => {
                obs::add(obs::Counter::PtaDemandFallbacks, 1);
                (self.oracle.pt_var(v).clone(), true)
            }
        };
        let slice_fraction = if self.total_nodes == 0 {
            0.0
        } else {
            qs.nodes_touched as f64 / self.total_nodes as f64
        };
        let stats = DemandQueryStats {
            nodes_touched: qs.nodes_touched,
            slice_fraction,
            fallback,
            drift: qs.drift,
            cache_hit: false,
        };
        obs::add(obs::Counter::PtaDemandNodesTouched, qs.nodes_touched);
        obs::add(obs::Counter::PtaDemandDrift, qs.drift);
        self.stats.fallbacks += u64::from(fallback);
        self.stats.drift += qs.drift;
        self.stats.nodes_touched += qs.nodes_touched;
        self.stats.slice_fraction_sum += slice_fraction;
        (pt, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_with;
    use tir::parse;

    const BOXY: &str = r#"
class Box { field item: Object; }
global ROOT: Box;
global OTHER: Object;
fn main() {
  var b: Box;
  var o: Object;
  var stray: Object;
  b = new Box @box0;
  o = new Object @obj0;
  stray = new Object @stray0;
  b.item = o;
  $ROOT = b;
  $OTHER = stray;
}
entry main;
"#;

    #[test]
    fn demand_matches_exhaustive_on_queried_facts() {
        let p = parse(BOXY).expect("parse");
        let opts = PtaOptions::default();
        let exhaustive = analyze_with(&p, ContextPolicy::Insensitive, &opts);
        let mut demand = DemandPta::analyze(&p, ContextPolicy::Insensitive, &opts);
        let root = p.global_by_name("ROOT").unwrap();
        let (partial, stats) = demand.query_global(&p, root);
        assert!(!stats.fallback);
        assert_eq!(stats.drift, 0, "from-scratch fixpoint must not drift");
        assert!(same_set(partial.pt_global(root), exhaustive.pt_global(root)));
        for (l, f, cell) in partial.heap_rows() {
            assert!(same_set(cell, exhaustive.pt_field(l, f)));
        }
        // The slice is partial: the stray global's cone was never touched.
        assert!(stats.nodes_touched > 0);
        assert!((stats.nodes_touched as usize) < demand.total_nodes());
    }

    #[test]
    fn out_of_slice_lookups_resolve_against_oracle() {
        let p = parse(BOXY).expect("parse");
        let mut demand = DemandPta::analyze(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let root = p.global_by_name("ROOT").unwrap();
        let other = p.global_by_name("OTHER").unwrap();
        let (partial, _) = demand.query_global(&p, root);
        assert_eq!(partial.resolutions(), 0);
        let via_oracle = partial.pt_global(other).clone();
        assert_eq!(partial.resolutions(), 1, "out-of-slice global must count");
        assert!(same_set(&via_oracle, demand.oracle().pt_global(other)));
    }

    #[test]
    fn budget_exhaustion_falls_back_exactly() {
        let p = parse(BOXY).expect("parse");
        let opts = PtaOptions { demand_budget: 1, ..PtaOptions::default() };
        let exhaustive = analyze_with(&p, ContextPolicy::Insensitive, &opts);
        let mut demand = DemandPta::analyze(&p, ContextPolicy::Insensitive, &opts);
        let root = p.global_by_name("ROOT").unwrap();
        let (partial, stats) = demand.query_global(&p, root);
        assert!(stats.fallback, "budget 1 must exhaust on a multi-node cone");
        assert!(partial.is_fallback());
        assert!(same_set(partial.pt_global(root), exhaustive.pt_global(root)));
        let box0 = exhaustive.pt_global(root).iter().next().unwrap();
        let item = p.field_ids().find(|&f| p.field(f).name == "item").unwrap();
        assert!(same_set(
            partial.pt_field(LocId(box0 as u32), item),
            exhaustive.pt_field(LocId(box0 as u32), item)
        ));
        assert_eq!(demand.stats().fallbacks, 1);
    }

    #[test]
    fn second_query_hits_the_slice_cache() {
        let p = parse(BOXY).expect("parse");
        let mut demand = DemandPta::analyze(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let root = p.global_by_name("ROOT").unwrap();
        let (_, first) = demand.query_global(&p, root);
        assert!(!first.cache_hit);
        let (_, second) = demand.query_global(&p, root);
        assert!(second.cache_hit);
        assert_eq!(second.nodes_touched, 0);
        assert_eq!(demand.stats().cache_hits, 1);
        assert_eq!(demand.slices_cached(), 1);
    }

    #[test]
    fn producers_match_exhaustive_on_slice_edges() {
        let p = parse(BOXY).expect("parse");
        let exhaustive = analyze_with(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let mut demand = DemandPta::analyze(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let root = p.global_by_name("ROOT").unwrap();
        let (partial, _) = demand.query_global(&p, root);
        for t in partial.pt_global(root).iter() {
            let edge = HeapEdge::Global { global: root, target: LocId(t as u32) };
            assert_eq!(partial.producers(&edge), exhaustive.producers(&edge));
        }
        for (l, f, cell) in partial.heap_rows() {
            for t in cell.iter() {
                let edge = HeapEdge::Field { base: l, field: f, target: LocId(t as u32) };
                assert_eq!(partial.producers(&edge), exhaustive.producers(&edge));
            }
        }
    }

    #[test]
    fn incremental_edit_invalidates_and_stays_exact() {
        let mut p = parse(BOXY).expect("parse");
        let opts = PtaOptions::default();
        let mut inc = IncrementalPta::new(&p, ContextPolicy::Insensitive, &opts);
        let mut demand = DemandPta::from_incremental(&inc, &p);
        let root = p.global_by_name("ROOT").unwrap();
        let (_, first) = demand.query_global(&p, root);
        assert_eq!(first.drift, 0);

        // Reroute the store: b.item now also holds a second object.
        let applied = tir::apply_edits(
            &mut p,
            &[
                tir::EditOp::AddStmt {
                    method: "main".into(),
                    at: 3,
                    text: "var o2: Object;".into(),
                },
                tir::EditOp::AddStmt {
                    method: "main".into(),
                    at: 4,
                    text: "o2 = new Object @obj1;".into(),
                },
                tir::EditOp::AddStmt { method: "main".into(), at: 5, text: "b.item = o2;".into() },
            ],
        )
        .expect("edit applies");
        let stats = inc.apply_edits(&p, &applied);
        let oracle = Arc::new(inc.result(&p));
        demand.on_edit(&inc, &p, Arc::clone(&oracle), &stats.changed_methods);

        let (partial, second) = demand.query_global(&p, root);
        assert!(!second.cache_hit, "edited slice must not warm-hit");
        assert_eq!(second.drift, 0, "post-edit fixpoint must still be exact");
        assert!(same_set(partial.pt_global(root), oracle.pt_global(root)));
        let item = p.field_ids().find(|&f| p.field(f).name == "item").unwrap();
        let box_loc = oracle.pt_global(root).iter().next().unwrap();
        assert_eq!(partial.pt_field(LocId(box_loc as u32), item).len(), 2);
    }
}
