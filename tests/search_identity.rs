//! Search-identity golden test: pins the work counters of the witness
//! search on the Table 1 rows, so any change to *what* the search explores
//! (which path programs, in which order, how many solver calls) fails here
//! loudly, even when every Table 1 column still agrees.
//!
//! Each row runs the Activity-leak client exactly as the `leak-table1`
//! benchmark does (container policy, default config, one refutation
//! thread, no decision store) with a coarse recorder installed, and
//! compares the counters the recorder saw against the table below. The
//! two rows that take minutes in a debug build (aMetro and K9Mail without
//! annotations) are pinned by a release CI step instead: their
//! `--report-out` reports are compared with `--diff-reports` against
//! `tests/golden/*.report.json`.
//!
//! The test lives in its own binary because it installs the process-global
//! recorder.

use android::{paper_annotations, to_pta_options, LeakClient};
use apps::{builder, BenchApp};
use pta::{ModRef, PtaOptions};
use symex::SymexConfig;
use thresher::obs::{self, Counter, MemRecorder, RingCapacity};

/// The pinned counters, in this order.
const COUNTERS: [Counter; 9] = [
    Counter::PathPrograms,
    Counter::CmdsExecuted,
    Counter::LoopFixpoints,
    Counter::Subsumed,
    Counter::DegradedRetries,
    Counter::EdgesRefuted,
    Counter::EdgesWitnessed,
    Counter::EdgesAborted,
    Counter::SolverCalls,
];

/// `(app, annotated, counters)` per Table 1 row that is cheap in a debug
/// build, counters in [`COUNTERS`] order.
const GOLDEN: [(&str, bool, [u64; 9]); 12] = [
    ("PulsePoint", false, [1507, 3604, 39, 161, 0, 5, 15, 0, 1806]),
    ("StandupTimer", false, [3368, 7402, 85, 239, 0, 6, 11, 0, 4231]),
    ("DroidLife", false, [6, 17, 0, 0, 0, 0, 4, 0, 5]),
    ("OpenSudoku", false, [121258, 256050, 5388, 638, 9, 4, 11, 3, 146141]),
    ("SMSPopUp", false, [1194, 2884, 30, 135, 0, 5, 12, 0, 1447]),
    ("PulsePoint", true, [223, 850, 0, 72, 0, 3, 7, 0, 38]),
    ("StandupTimer", true, [251, 923, 0, 84, 0, 5, 4, 0, 42]),
    ("DroidLife", true, [6, 17, 0, 0, 0, 0, 4, 0, 5]),
    ("OpenSudoku", true, [16, 98, 0, 2, 0, 2, 2, 0, 6]),
    ("SMSPopUp", true, [162, 650, 0, 48, 0, 3, 9, 0, 32]),
    ("aMetro", true, [219, 1404, 0, 66, 0, 10, 13, 0, 54]),
    ("K9Mail", true, [319, 1772, 0, 80, 0, 13, 19, 0, 73]),
];

fn row_counters(rec: &'static MemRecorder, app: &BenchApp, annotated: bool) -> [u64; 9] {
    let options = if annotated {
        to_pta_options(&paper_annotations(&app.lib))
    } else {
        PtaOptions::default()
    };
    let pta = pta::analyze_with(&app.program, builder::container_policy(app), &options);
    let modref = ModRef::compute(&app.program, &pta);
    rec.reset();
    obs::install(rec);
    let report =
        LeakClient::new(&app.program, &pta, &modref, SymexConfig::default()).with_jobs(1).run();
    obs::uninstall();
    let got = COUNTERS.map(|c| rec.counter(c));
    // The recorder and the client's own tallies agree (single recording
    // site), so a mismatch below is a change in the search, not in
    // accounting.
    assert_eq!(got[5], report.stats.edges_refuted as u64);
    assert_eq!(got[6], report.stats.edges_witnessed as u64);
    assert_eq!(got[7], report.stats.edge_timeouts as u64);
    got
}

#[test]
fn table1_search_work_is_pinned() {
    let _serial = obs::test_lock();
    let rec: &'static MemRecorder = Box::leak(Box::new(MemRecorder::coarse(RingCapacity(0))));
    let apps = apps::suite::all_apps();
    let mut mismatches = Vec::new();
    let mut actual = String::new();
    for (name, annotated, expected) in GOLDEN {
        let app = apps.iter().find(|a| a.name == name).expect("suite app");
        let got = row_counters(rec, app, annotated);
        actual.push_str(&format!("    ({name:?}, {annotated}, {got:?}),\n"));
        if got != expected {
            mismatches.push(format!(
                "{name} Ann?={}: got {got:?}, pinned {expected:?}",
                if annotated { 'Y' } else { 'N' }
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "search work changed ({:?} per row):\n{}\nactual table:\n{actual}",
        COUNTERS.map(|c| c.name()),
        mismatches.join("\n")
    );
}
