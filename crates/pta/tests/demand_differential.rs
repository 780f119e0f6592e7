//! Demand-vs-exhaustive differential property test: on random programs,
//! every fact a demand query answers — the queried global's points-to
//! set, every heap cell in the slice closure, and every local variable's
//! set — is byte-identical to a from-scratch [`pta::SolverKind::Reference`]
//! solve, under all four context policies, with and without a
//! budget that forces fallback. Fallback may change *cost*, never the
//! answer.

use std::collections::BTreeSet;

use minicheck::{run_cases, Rng};
use pta::{BitSet, ContextPolicy, DemandPta, PtaOptions, PtaView, SolverKind};
use tir::{FieldId, GlobalId, MethodId, Operand, Program, ProgramBuilder, Ty, VarId};

#[derive(Clone, Debug)]
enum Op {
    New(usize),
    NewSub(usize),
    Copy(usize, usize),
    Write(usize, usize, usize),
    Read(usize, usize, usize),
    GWrite(usize, usize),
    GRead(usize, usize),
    Call(usize, usize, usize),
}

const NV: usize = 4;
const NF: usize = 2;
const NG: usize = 3;

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.usize_in(2, 24);
    (0..len)
        .map(|_| match rng.below(8) {
            0 => Op::New(rng.below(NV)),
            1 => Op::NewSub(rng.below(NV)),
            2 => Op::Copy(rng.below(NV), rng.below(NV)),
            3 => Op::Write(rng.below(NV), rng.below(NF), rng.below(NV)),
            4 => Op::Read(rng.below(NV), rng.below(NV), rng.below(NF)),
            5 => Op::GWrite(rng.below(NG), rng.below(NV)),
            6 => Op::GRead(rng.below(NV), rng.below(NG)),
            _ => Op::Call(rng.below(NV), rng.below(NV), rng.below(NV)),
        })
        .collect()
}

struct Built {
    program: Program,
    globals: Vec<GlobalId>,
    main: MethodId,
}

/// Builds a program with virtual dispatch (`Cell::mix` vs `Sub::mix`
/// write different fields), so the demand tier's this-binding seeds and
/// every context policy's dispatch behavior are exercised, not just
/// straight-line copies.
fn build(ops: &[Op]) -> Built {
    let mut b = ProgramBuilder::new();
    let object = b.object_class();
    let cell = b.class("Cell", None);
    let sub = b.class("Sub", Some(cell));
    let fields: Vec<FieldId> =
        (0..NF).map(|i| b.field(cell, &format!("f{i}"), Ty::Ref(object))).collect();
    let globals: Vec<GlobalId> =
        (0..NG).map(|i| b.global(&format!("G{i}"), Ty::Ref(object))).collect();
    let f0 = fields[0];
    let f1 = fields[1];
    b.method(Some(cell), "mix", &[("p", Ty::Ref(object))], Some(Ty::Ref(object)), |mb| {
        let this = mb.this();
        let p = mb.param(0);
        let r = mb.var("r", Ty::Ref(object));
        mb.write_field(this, f0, p);
        mb.read_field(r, this, f0);
        mb.ret(Operand::Var(r));
    });
    b.method(Some(sub), "mix", &[("p", Ty::Ref(object))], Some(Ty::Ref(object)), |mb| {
        let this = mb.this();
        let p = mb.param(0);
        let r = mb.var("r", Ty::Ref(object));
        mb.write_field(this, f1, p);
        mb.read_field(r, this, f1);
        mb.ret(Operand::Var(r));
    });
    let f2 = fields.clone();
    let g2 = globals.clone();
    let main = b.method(None, "main", &[], None, |mb| {
        let vars: Vec<VarId> = (0..NV).map(|i| mb.var(&format!("v{i}"), Ty::Ref(cell))).collect();
        for (i, &v) in vars.iter().enumerate() {
            mb.new_obj(v, cell, &format!("init{i}"));
        }
        for (n, op) in ops.iter().enumerate() {
            match op {
                Op::New(a) => {
                    mb.new_obj(vars[*a], cell, &format!("s{n}"));
                }
                Op::NewSub(a) => {
                    mb.new_obj(vars[*a], sub, &format!("t{n}"));
                }
                Op::Copy(a, c) => {
                    mb.assign(vars[*a], Operand::Var(vars[*c]));
                }
                Op::Write(a, f, c) => {
                    mb.write_field(vars[*a], f2[*f], vars[*c]);
                }
                Op::Read(a, c, f) => {
                    mb.read_field(vars[*a], vars[*c], f2[*f]);
                }
                Op::GWrite(g, a) => {
                    mb.write_global(g2[*g], vars[*a]);
                }
                Op::GRead(a, g) => {
                    mb.read_global(vars[*a], g2[*g]);
                }
                Op::Call(d, r, a) => {
                    mb.call_virtual(Some(vars[*d]), vars[*r], "mix", &[Operand::Var(vars[*a])]);
                }
            }
        }
    });
    b.set_entry(main);
    Built { program: b.finish(), globals, main }
}

fn policies(program: &Program) -> Vec<ContextPolicy> {
    vec![
        ContextPolicy::Insensitive,
        ContextPolicy::ObjectSensitive { max_depth: 2 },
        ContextPolicy::CallSiteSensitive,
        ContextPolicy::containers_named(program, &["AVec", "AHashMap"]),
    ]
}

/// A points-to set as canonical location names — index-free, so results
/// from independently-built solver states compare exactly.
fn names(view: &dyn PtaView, program: &Program, set: &BitSet) -> BTreeSet<String> {
    set.iter().map(|l| view.loc_name(program, pta::LocId(l as u32))).collect()
}

/// Queries every global and every `main` local through `demand`, checking
/// each answered fact byte-exact (as canonical name sets) against
/// `reference`. `expect_exact_cost` additionally requires drift-free
/// traversals (an unbudgeted demand run must never need the gate).
fn check_against_reference(
    built: &Built,
    demand: &mut DemandPta,
    reference: &pta::PtaResult,
    expect_no_drift: bool,
) {
    let p = &built.program;
    for &g in &built.globals {
        let (partial, stats) = demand.query_global(p, g);
        assert_eq!(
            names(&*partial, p, partial.pt_global(g)),
            names(reference, p, reference.pt_global(g)),
            "demand pt(global) diverged from reference"
        );
        if expect_no_drift {
            assert_eq!(stats.drift, 0, "unbudgeted demand traversal needed the oracle gate");
            assert!(!stats.fallback, "unbudgeted demand query fell back");
        }
        // Every heap cell the slice closed over must match the reference
        // cell exactly (the closure is the part a refutation walks).
        for (base, field, targets) in partial.heap_rows() {
            let base_name = partial.loc_name(p, base);
            let ref_base = reference
                .locs()
                .ids()
                .find(|&l| reference.loc_name(p, l) == base_name)
                .expect("slice base exists in reference");
            assert_eq!(
                names(&*partial, p, targets),
                names(reference, p, reference.pt_field(ref_base, field)),
                "demand heap cell {base_name}.{field:?} diverged from reference"
            );
        }
    }
    for &v in &built.program.method(built.main).locals {
        let (set, _) = demand.pt_var_query(v);
        assert_eq!(
            names(reference, p, &set),
            names(reference, p, reference.pt_var(v)),
            "demand pt(var) diverged from reference"
        );
    }
}

#[test]
fn demand_matches_reference_under_all_policies() {
    run_cases(48, |rng| {
        let ops = arb_ops(rng);
        let built = build(&ops);
        for policy in policies(&built.program) {
            let reference = pta::analyze_with(
                &built.program,
                policy.clone(),
                &PtaOptions { solver: SolverKind::Reference, ..Default::default() },
            );
            let mut demand = DemandPta::analyze(
                &built.program,
                policy.clone(),
                &PtaOptions { solver: SolverKind::Demand, ..Default::default() },
            );
            check_against_reference(&built, &mut demand, &reference, true);
        }
    });
}

#[test]
fn budget_exhaustion_changes_cost_never_answers() {
    run_cases(48, |rng| {
        let ops = arb_ops(rng);
        let built = build(&ops);
        for policy in policies(&built.program) {
            let reference = pta::analyze_with(
                &built.program,
                policy.clone(),
                &PtaOptions { solver: SolverKind::Reference, ..Default::default() },
            );
            // A one-node budget exhausts on any non-trivial traversal; the
            // answers must still be byte-identical to the reference —
            // fallback resolves against the retained exhaustive result.
            let mut demand = DemandPta::analyze(
                &built.program,
                policy.clone(),
                &PtaOptions { solver: SolverKind::Demand, demand_budget: 1, ..Default::default() },
            );
            check_against_reference(&built, &mut demand, &reference, false);
        }
    });
}
