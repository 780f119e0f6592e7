//! `null-scaled`: parse the printed `scaled_null_program(512)`, solve
//! points-to (context-insensitive), compute mod/ref, and run the
//! null-dereference client.

use std::hint::black_box;
use std::time::Instant;

use pta::{ContextPolicy, ModRef, PtaOptions, PtaResult};
use symex::SymexConfig;
use thresher::{NullClient, NullReport};
use tir::Program;

use crate::{counters, Ctx, Outcome};

/// Generator scale of the workload's program.
const SCALE: usize = 512;

/// Builds and prints the program: the workload's input text.
fn build_input() -> String {
    tir::print_program(&apps::scale::scaled_null_program(SCALE))
}

/// What a pass leaves behind (dropped outside the timed region).
struct PassResult {
    program: Program,
    pta: PtaResult,
    modref: ModRef,
    report: NullReport,
}

fn pass(ctx: &mut Ctx, text: &str) -> (u64, Option<usize>, PassResult) {
    let t0 = Instant::now();
    let root = ctx.tracer.enter("pass");
    let program =
        ctx.tracer.time("tir.parse", || tir::parse(text)).expect("printed program parses");
    let pta = ctx.tracer.time("pta.solve", || {
        pta::analyze_with(&program, ContextPolicy::Insensitive, &PtaOptions::default())
    });
    let modref = ctx.tracer.time("pta.modref", || ModRef::compute(&program, &pta));
    let report = ctx.tracer.time("client.run", || {
        NullClient::new(&program, &pta, &modref, SymexConfig::default()).with_jobs(1).run()
    });
    ctx.tracer.exit(root);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    (wall_ns, root, PassResult { program, pta, modref, report: black_box(report) })
}

/// Checks a pass: the alarm count is the generator's ground truth, and
/// the report is byte-identical to the first pass's.
fn check(out: &mut Outcome, expected_alarms: usize, first: &mut Option<String>, r: &PassResult) {
    let alarms = r.report.num_alarms();
    out.check(alarms == expected_alarms, || format!("{alarms} alarms, expected {expected_alarms}"));
    let json = r.report.to_value(&r.program).to_json();
    match first {
        None => *first = Some(json),
        Some(f) => out.check(*f == json, || "report differs from the first pass's".to_owned()),
    }
}

/// Runs the workload for the measuring window. Set-up is repeated before
/// every pass, so its samples spread over the window like the passes do.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    let expected = apps::scale::expected_null_alarms(SCALE);
    let mut first = None;

    while ctx.window_open(out) {
        let t0 = Instant::now();
        let text = black_box(build_input());
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let (wall_ns, _, r) = pass(ctx, &text);
        out.pass_s.push(wall_ns as f64 / 1e9);
        check(out, expected, &mut first, &r);
        drop(r);
        if out.pass_s.len() == 1 {
            out.peak_rss_mb = crate::peak_rss_mb(None);
        }

        if ctx.trace {
            ctx.tracer.set_enabled(true);
            counters::start();
            let (wall_ns, root, r) = pass(ctx, &text);
            let counts = counters::stop();
            ctx.tracer.set_enabled(false);
            let root = root.expect("traced pass has a root span");
            check(out, expected, &mut first, &r);

            // Time candidate enumeration on the pass's own analyses, outside
            // the pass, to split NullClient::run into its two parts.
            let client = NullClient::new(&r.program, &r.pta, &r.modref, SymexConfig::default());
            let t0 = Instant::now();
            black_box(client.candidate_sites());
            let candidates_ns = t0.elapsed().as_nanos() as u64;

            out.record_traced_pass(
                ctx,
                root,
                wall_ns,
                &counts,
                &[("client.run", "null.candidates_ms", candidates_ns)],
            );
            out.layer("null.sites", r.report.candidate_sites as f64);
            let parse_ms =
                ctx.tracer.self_times(root).get("tir.parse").copied().unwrap_or(0) as f64 / 1e6;
            out.layer("tir.parse_mb_per_s", text.len() as f64 / 1e6 / (parse_ms / 1e3));
        }
    }
}
