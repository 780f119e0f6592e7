//! Allocation-budget regression test for the witness search.
//!
//! A counting global allocator tallies allocation calls (`alloc`,
//! `alloc_zeroed` and `realloc`) per thread, so tests running in parallel
//! in this binary do not disturb each other's counts. The test runs a
//! corpus leak analysis with one refutation thread — the search then runs
//! on the calling thread — and asserts the allocations per executed
//! command transfer stay within budget. The whole client run is counted:
//! alarm enumeration, scheduling and report assembly are included, so the
//! app is chosen to do enough search work for those fixed costs to
//! amortize.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use android::LeakClient;
use apps::builder;
use pta::{ModRef, PtaOptions};
use symex::SymexConfig;
use thresher::obs::{self, Counter, MemRecorder, RingCapacity};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allowed allocation calls per executed command transfer.
const BUDGET_PER_CMD: f64 = 3.0;

#[test]
fn leak_search_allocations_per_command_within_budget() {
    let apps = apps::suite::all_apps();
    let app = apps.iter().find(|a| a.name == "OpenSudoku").expect("suite app");
    let pta =
        pta::analyze_with(&app.program, builder::container_policy(app), &PtaOptions::default());
    let modref = ModRef::compute(&app.program, &pta);
    let run =
        || LeakClient::new(&app.program, &pta, &modref, SymexConfig::default()).with_jobs(1).run();

    // Work done, read from a recorder on a separate identical run (the
    // search is deterministic), so the counted run has recording off.
    let cmds = {
        let _serial = obs::test_lock();
        let rec: &'static MemRecorder = Box::leak(Box::new(MemRecorder::coarse(RingCapacity(0))));
        obs::install(rec);
        let _ = run();
        obs::uninstall();
        rec.counter(Counter::CmdsExecuted)
    };
    assert!(cmds > 100_000, "too little search work to measure: {cmds} commands");

    let before = allocs_on_this_thread();
    let report = run();
    let allocs = allocs_on_this_thread() - before;
    assert!(report.num_alarms() > 0);
    let per_cmd = allocs as f64 / cmds as f64;
    eprintln!("{allocs} allocations over {cmds} executed commands: {per_cmd:.2} per command");
    assert!(
        per_cmd <= BUDGET_PER_CMD,
        "{per_cmd:.2} allocations per executed command (budget {BUDGET_PER_CMD}): \
         {allocs} allocations over {cmds} commands"
    );
}
