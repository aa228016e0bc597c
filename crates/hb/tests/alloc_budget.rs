//! Allocation budget of the offline HB build.
//!
//! `HbAnalysis::build` keeps per record what the one pass reports: its
//! incoming edges and its clock. Both go into flat arrays — the edges laid
//! out by source once after the pass, a clock as a share of the row of the
//! record before it in its slot unless the record joined something else —
//! so what the build allocates grows with the trace's joins and with the
//! amortized growth of a few vectors, not with its records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcatch_hb::{HbAnalysis, HbConfig, ReachabilityMode};
use dcatch_model::{FuncId, NodeId, StmtId};
use dcatch_trace::{
    ExecCtx, MemLoc, MemSpace, MsgId, NameId, Names, OpKind, Record, TaskId, TraceSet,
};

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

/// A trace of about `records` records: `chains` regular tasks, one a
/// node, taking turns at memory accesses — long program-order chains —
/// and every `period` records one of them sends the next a message that
/// its thread receives in program order, so the chains join one another
/// periodically.
fn chains_with_joins(records: usize, chains: u32, period: usize) -> TraceSet {
    let mut trace = TraceSet::with_names(Names::with_base(["x".to_owned()]));
    let task = |i: u32| TaskId {
        node: NodeId(i % chains),
        index: 0,
    };
    let push = |trace: &mut TraceSet, t: TaskId, kind| {
        let stmt = StmtId {
            func: FuncId(t.node.0),
            idx: 0,
        };
        let stack = trace.names_mut().stack_of(&[stmt]);
        let seq = trace.len() as u64;
        trace.push(Record {
            seq,
            task: t,
            ctx: ExecCtx::Regular,
            kind,
            stack,
        });
    };
    let mut sent = 0;
    while trace.len() < records {
        let i = trace.len() as u32;
        if trace.len() % period == period - 1 {
            let msg = MsgId(sent);
            sent += 1;
            push(&mut trace, task(i), OpKind::SocketSend { msg });
            push(&mut trace, task(i + 1), OpKind::SocketRecv { msg });
        } else {
            let loc = MemLoc {
                space: MemSpace::Heap,
                node: task(i).node,
                object: NameId(0),
                key: None,
            };
            push(&mut trace, task(i), OpKind::MemWrite { loc, value: None });
        }
    }
    trace
}

/// The build makes at most one allocation per hundred vertices on a
/// 20 000-record trace of four long chains joined every 500 records —
/// what it allocates follows the joins, not the records.
#[test]
fn hb_build_allocates_per_join_not_per_vertex() {
    let trace = chains_with_joins(20_000, 4, 500);
    let n = trace.len();
    let cfg = HbConfig {
        reachability: ReachabilityMode::Clocks,
        ..HbConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let hb = HbAnalysis::build(trace, &cfg).expect("fits the default budget");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(hb.vertex_count(), n);
    assert!(hb.happens_before(0, n - 1), "the chains are joined");
    let per_vertex = allocs as f64 / n as f64;
    assert!(
        per_vertex <= 0.01,
        "{allocs} allocations for {n} vertices ({per_vertex:.4} per vertex)"
    );
}
