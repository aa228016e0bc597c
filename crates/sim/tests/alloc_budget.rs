//! Allocation budget of the untraced step core, and of tracing on top.
//!
//! Triggering re-runs the program untraced, once per ordering, so what a
//! step costs in heap allocations is what a re-run costs. Names are
//! resolved to slots and ids at compile time, the instruction is borrowed,
//! and a heap-map key is typed, so a step that touches only existing
//! locals and cells must not allocate at all; what remains in a
//! `local_churn`-shaped loop is the growing map's blocks, one allocation
//! per block of appended keys.
//!
//! A traced run emits records that own no heap memory: names are ids into
//! the run's table and a callstack is a call-tree node interned once per
//! call path, so a record adds nothing but its share of the trace's own
//! growth.
//!
//! A streamed run steps the simulator on a thread of its own, so its
//! bound reads a count of every thread's allocations; each test holds
//! [`serial`] throughout, so no other test of this binary allocates
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

use dcatch_apps::{streambench, streambench_rounds};
use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder};
use dcatch_sim::{SimConfig, Topology, World};
use dcatch_trace::{Record, StreamControl, TraceSink};

thread_local! {
    // per-thread: the test harness's own work at a test's start or end is
    // not counted
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Every thread's allocations, a streamed run's simulator thread included.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count() {
    ALL_THREADS.fetch_add(1, Relaxed);
    // a thread being torn down has no counter left to bump
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made on this thread so far.
fn this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made on every thread so far: exact only while [`serial`]
/// is held (the harness may still start or end a test meanwhile, which
/// can only add to a reading).
fn all_threads() -> u64 {
    ALL_THREADS.load(Relaxed)
}

/// Held by every test of this binary for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // a failed test poisons the lock; the next one may run all the same
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a static atomic and
// a const-initialized thread-local `Cell` without a destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn untraced() -> SimConfig {
    SimConfig {
        trace_enabled: false,
        ..SimConfig::default()
    }
}

/// Runs `program` on one node under `config` and returns (allocations,
/// steps, records).
fn run_on_one_node(program: &Program, config: SimConfig) -> (u64, u64, u64) {
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let before = this_thread();
    let result = World::run_once(program, &topo, config).expect("valid program");
    let allocs = this_thread() - before;
    assert!(result.is_correct(), "{:?}", result.failures);
    (allocs, result.steps, result.trace.len() as u64)
}

/// Runs `program` untraced on one node and returns (allocations, steps).
fn untraced_run(program: &Program) -> (u64, u64) {
    let (allocs, steps, _) = run_on_one_node(program, untraced());
    (allocs, steps)
}

/// The loop of `dcatch_apps::noise::local_churn`.
fn churn(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, move |b| {
        b.assign("i", Expr::val(0));
        b.while_(Expr::local("i").lt(Expr::val(iters)), |b| {
            b.write("scratch", Expr::local("i"));
            b.map_put("table", Expr::local("i"), Expr::local("i"));
            b.read("v", "scratch");
            b.assign("i", Expr::local("v").add(Expr::val(1)));
        });
    });
    pb.build().expect("valid program")
}

/// A loop whose body only assigns locals and reads/writes one cell.
fn cell_loop(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    pb.func("main", &[], FuncKind::Regular, move |b| {
        b.assign("i", Expr::val(0));
        b.while_(Expr::local("i").lt(Expr::val(iters)), |b| {
            b.write("cell", Expr::local("i"));
            b.read("v", "cell");
            b.assign("i", Expr::local("v").add(Expr::val(1)));
        });
    });
    pb.build().expect("valid program")
}

#[test]
fn churn_loop_allocates_once_per_map_block() {
    let _serial = serial();
    let (allocs, steps) = untraced_run(&churn(10_000));
    assert!(steps >= 60_000, "loop did not run: {steps} steps");
    // one `map_put` of a fresh integer key every 6 steps: no key string,
    // one block per 128 appended keys — 130 allocations over 60 005 steps
    // (0.0022 per step), 1 706 (0.0284) while a heap map was a B-tree
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step <= 0.004,
        "{allocs} allocations over {steps} steps = {per_step:.4} per step"
    );
}

#[test]
fn steps_over_existing_locals_and_cells_do_not_allocate() {
    let _serial = serial();
    // lets per-thread metric registration happen before anything is compared
    untraced_run(&cell_loop(1));
    let (short_allocs, short_steps) = untraced_run(&cell_loop(2_000));
    let (long_allocs, long_steps) = untraced_run(&cell_loop(4_000));
    assert!(long_steps >= short_steps + 10_000);
    // set-up and the first iteration are the same in both runs, so every
    // extra allocation was made by one of the extra iterations
    assert_eq!(
        long_allocs,
        short_allocs,
        "{} allocations over {} extra steps",
        long_allocs.abs_diff(short_allocs),
        long_steps - short_steps
    );
}

/// Allocations per record that tracing adds over the untraced run, between
/// a short and a long run of one workload: set-up and the growth of the
/// tables to their steady size are the same in both, so what is left is
/// the added records' own. `run` returns (allocations, records) of one run,
/// traced or not, at a length.
fn traced_allocs_per_added_record(run: impl Fn(bool, i64) -> (u64, u64), short: i64) -> f64 {
    run(true, 1);
    let cost = |length| {
        let (traced, records) = run(true, length);
        let (untraced, _) = run(false, length);
        (traced as f64 - untraced as f64, records)
    };
    let (short_cost, short_records) = cost(short);
    let (long_cost, long_records) = cost(3 * short);
    assert!(
        long_records >= short_records + 10_000,
        "{short_records} → {long_records} records"
    );
    (long_cost - short_cost) / (long_records - short_records) as f64
}

/// A sink that only counts what it is handed.
#[derive(Default)]
struct Count(u64);

impl TraceSink for Count {
    fn record(&mut self, _: &Record) {
        self.0 += 1;
    }

    fn control(&mut self, _: StreamControl) {}
}

#[test]
fn a_traced_record_adds_no_allocation() {
    let _serial = serial();
    // a full-traced churn: three memory records an iteration, one keyed
    let churn = |traced: bool, iters: i64| {
        let config = if traced {
            SimConfig::default().with_full_tracing()
        } else {
            untraced()
        };
        let (allocs, _, records) = run_on_one_node(&churn(iters), config);
        (allocs, records)
    };
    let per_record = traced_allocs_per_added_record(churn, 2_000);
    // 2.33 per record while a record owned its callstack and names
    assert!(per_record <= 0.05, "churn: {per_record:.4} per record");

    // `streambench` streamed into a sink that only counts: six records a
    // round, four of them memory accesses of a socket handler; the
    // simulator steps on a thread of its own, so every thread is counted
    let stream = |traced: bool, records: i64| {
        let (program, topology) = streambench(streambench_rounds(records as u64));
        let config = SimConfig::default().with_seed(7).with_full_tracing();
        let mut sink = Count::default();
        let before = all_threads();
        let run = if traced {
            World::run_streamed(&program, &topology, config, &mut sink)
        } else {
            let config = SimConfig {
                trace_enabled: false,
                ..config
            };
            World::run_once(&program, &topology, config)
        };
        let allocs = all_threads() - before;
        assert!(run.expect("valid program").failures.is_empty());
        (allocs, sink.0)
    };
    let per_record = traced_allocs_per_added_record(stream, 6_000);
    // 1.67 per record while a record owned its callstack and names
    assert!(
        per_record <= 0.05,
        "streambench: {per_record:.4} per record"
    );
}
