//! Allocation budget of the untraced step core.
//!
//! Triggering re-runs the program untraced, once per ordering, so what a
//! step costs in heap allocations is what a re-run costs. Names are
//! resolved to slots and ids at compile time, the instruction is borrowed,
//! and a heap-map key is typed and rendered only into a record that is
//! written, so a step that touches only existing locals and cells must not
//! allocate at all; what remains in a `local_churn`-shaped loop is the
//! growing map's own B-tree nodes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcatch_model::{Expr, FuncKind, Program, ProgramBuilder};
use dcatch_sim::{SimConfig, Topology, World};

thread_local! {
    // per-thread, so tests running beside this one are not counted
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // a thread being torn down has no counter left to bump
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it never allocates.
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

/// Runs `program` untraced on one node and returns (allocations, steps).
fn untraced_run(program: &Program) -> (u64, u64) {
    let mut topo = Topology::new();
    topo.node("n").entry("main", vec![]);
    let config = SimConfig {
        trace_enabled: false,
        ..SimConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let result = World::run_once(program, &topo, config).expect("valid program");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(result.is_correct(), "{:?}", result.failures);
    (allocs, result.steps)
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
fn churn_loop_allocates_only_for_map_nodes() {
    let (allocs, steps) = untraced_run(&churn(10_000));
    assert!(steps >= 60_000, "loop did not run: {steps} steps");
    // one `map_put` of a fresh integer key every 6 steps: no key string,
    // a B-tree node every few inserts
    let per_step = allocs as f64 / steps as f64;
    assert!(
        per_step <= 0.05,
        "{allocs} allocations over {steps} steps = {per_step:.4} per step"
    );
}

#[test]
fn steps_over_existing_locals_and_cells_do_not_allocate() {
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
