//! `leak-table1`: the Activity-leak client over the seven suite apps, the
//! Ann?=N rows and then the Ann?=Y rows (the 14 rows of Table 1), with the
//! container policy, the default budget, one refutation thread and no
//! decision store.

use std::hint::black_box;
use std::time::Instant;

use android::{paper_annotations, to_pta_options, LeakClient, LeakReport};
use apps::{builder, BenchApp};
use pta::{ContextPolicy, ModRef, PtaOptions, PtaResult};
use symex::SymexConfig;

use crate::{counters, Ctx, Outcome};

/// Expected Table 1 counters per row: Alrms, RefA, TruA, FalA, RefEdg,
/// WitEdg, TO.
const EXPECTED: [(&str, bool, [usize; 7]); 14] = [
    ("PulsePoint", false, [9, 5, 2, 2, 5, 15, 0]),
    ("StandupTimer", false, [9, 6, 0, 3, 6, 11, 0]),
    ("DroidLife", false, [3, 0, 3, 0, 0, 4, 0]),
    ("OpenSudoku", false, [10, 4, 0, 6, 4, 11, 3]),
    ("SMSPopUp", false, [9, 5, 4, 0, 5, 12, 0]),
    ("aMetro", false, [54, 10, 2, 42, 10, 45, 11]),
    ("K9Mail", false, [69, 13, 5, 51, 13, 54, 13]),
    ("PulsePoint", true, [5, 3, 2, 0, 3, 7, 0]),
    ("StandupTimer", true, [6, 5, 0, 1, 5, 4, 0]),
    ("DroidLife", true, [3, 0, 3, 0, 0, 4, 0]),
    ("OpenSudoku", true, [2, 2, 0, 0, 2, 2, 0]),
    ("SMSPopUp", true, [7, 3, 4, 0, 3, 9, 0]),
    ("aMetro", true, [12, 10, 2, 0, 10, 13, 0]),
    ("K9Mail", true, [19, 13, 5, 1, 13, 19, 0]),
];

/// One Table 1 row's input: an app and the points-to options of one
/// annotation setting.
struct Row {
    app: usize,
    annotated: bool,
    policy: ContextPolicy,
    options: PtaOptions,
}

/// The built apps and their 14 rows, in pass order.
struct Inputs {
    apps: Vec<BenchApp>,
    rows: Vec<Row>,
}

fn build_inputs() -> Inputs {
    let apps = apps::suite::all_apps();
    let mut rows = Vec::new();
    for annotated in [false, true] {
        for (i, app) in apps.iter().enumerate() {
            let options = if annotated {
                to_pta_options(&paper_annotations(&app.lib))
            } else {
                PtaOptions::default()
            };
            rows.push(Row { app: i, annotated, policy: builder::container_policy(app), options });
        }
    }
    Inputs { apps, rows }
}

/// What one row of a pass leaves behind: its analyses (dropped after the
/// pass, outside the timed region) and its report.
struct RowResult {
    pta: PtaResult,
    modref: ModRef,
    report: LeakReport,
    wall_ns: u64,
}

/// One pass over the 14 rows; spans go to the tracer when it is enabled.
/// With `calibrate`, the host speed is also sampled between rows — a pass
/// lasts seconds — and that time is left out of the pass's wall time.
fn pass(
    ctx: &mut Ctx,
    inputs: &Inputs,
    mut calibrate: Option<&mut Outcome>,
) -> (u64, Option<usize>, Vec<RowResult>) {
    let t0 = Instant::now();
    let mut calib_ns = 0;
    let root = ctx.tracer.enter("pass");
    let mut results = Vec::with_capacity(inputs.rows.len());
    for row in &inputs.rows {
        if let Some(out) = calibrate.as_deref_mut() {
            calib_ns += (out.calibrate() * 1e9) as u64;
        }
        let r0 = Instant::now();
        let span = ctx.tracer.enter("row");
        let program = &inputs.apps[row.app].program;
        let pta = ctx
            .tracer
            .time("pta.solve", || pta::analyze_with(program, row.policy.clone(), &row.options));
        let modref = ctx.tracer.time("pta.modref", || ModRef::compute(program, &pta));
        let report = ctx.tracer.time("client.run", || {
            LeakClient::new(program, &pta, &modref, SymexConfig::default()).with_jobs(1).run()
        });
        ctx.tracer.exit(span);
        results.push(RowResult {
            pta,
            modref,
            report: black_box(report),
            wall_ns: r0.elapsed().as_nanos() as u64,
        });
    }
    ctx.tracer.exit(root);
    (t0.elapsed().as_nanos() as u64 - calib_ns, root, results)
}

/// Scores one row's report as Table 1 counters.
fn counters_of(app: &BenchApp, report: &LeakReport) -> [usize; 7] {
    let (mut true_alarms, mut false_alarms) = (0, 0);
    for (alarm, result) in &report.alarms {
        if result.is_refuted() {
            continue;
        }
        if app.true_leak_fields.contains(&app.program.global(alarm.field).name) {
            true_alarms += 1;
        } else {
            false_alarms += 1;
        }
    }
    [
        report.num_alarms(),
        report.num_refuted(),
        true_alarms,
        false_alarms,
        report.stats.edges_refuted,
        report.stats.edges_witnessed,
        report.stats.edge_timeouts,
    ]
}

/// Checks every row of a pass against the expected counters.
fn check(out: &mut Outcome, inputs: &Inputs, results: &[RowResult]) {
    for ((row, r), (name, annotated, expected)) in inputs.rows.iter().zip(results).zip(EXPECTED) {
        let app = &inputs.apps[row.app];
        let got = counters_of(app, &r.report);
        out.check(app.name == name && row.annotated == annotated && got == expected, || {
            format!(
                "{} Ann?={}: counters {got:?}, expected {expected:?}",
                app.name,
                if row.annotated { 'Y' } else { 'N' }
            )
        });
    }
}

/// Runs the workload for the measuring window. Set-up is repeated before
/// every pass, so its samples spread over the window like the passes do.
pub fn run(ctx: &mut Ctx, out: &mut Outcome) {
    while ctx.window_open(out) {
        let t0 = Instant::now();
        let inputs = black_box(build_inputs());
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let (wall_ns, _, results) = pass(ctx, &inputs, Some(&mut *out));
        out.pass_s.push(wall_ns as f64 / 1e9);
        let annotated: u64 = inputs
            .rows
            .iter()
            .zip(&results)
            .filter(|(row, _)| row.annotated)
            .map(|(_, r)| r.wall_ns)
            .sum();
        out.sample("annotated_ms", annotated as f64 / 1e6);
        check(out, &inputs, &results);
        drop(results);
        if out.pass_s.len() == 1 {
            out.peak_rss_mb = crate::peak_rss_mb(None);
        }

        if ctx.trace {
            traced_pass(ctx, out, &inputs);
        }
    }
}

/// One traced pass: spans on, counters read from an `obs` recorder, and
/// `find_alarms` timed separately afterwards on the pass's own analyses to
/// split `LeakClient::run` into alarm enumeration and witness search.
fn traced_pass(ctx: &mut Ctx, out: &mut Outcome, inputs: &Inputs) {
    ctx.tracer.set_enabled(true);
    counters::start();
    let (wall_ns, root, results) = pass(ctx, inputs, None);
    let snap = counters::stop();
    ctx.tracer.set_enabled(false);
    let root = root.expect("traced pass has a root span");
    check(out, inputs, &results);

    let mut find_alarms_ns = 0u64;
    for (row, r) in inputs.rows.iter().zip(&results) {
        let program = &inputs.apps[row.app].program;
        let client = LeakClient::new(program, &r.pta, &r.modref, SymexConfig::default());
        let t0 = Instant::now();
        black_box(client.find_alarms());
        find_alarms_ns += t0.elapsed().as_nanos() as u64;
    }
    let alarms: usize = results.iter().map(|r| r.report.num_alarms()).sum();
    out.record_traced_pass(
        ctx,
        root,
        wall_ns,
        &snap,
        &[("client.run", "android.find_alarms_ms", find_alarms_ns)],
    );
    out.layer("android.alarms", alarms as f64);
}
