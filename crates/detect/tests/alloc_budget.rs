//! Allocation budget of the online detector's steady state.
//!
//! On a stream every record passes through `OnlineDetector`, so what a
//! record costs in heap allocations is what a 10 M-record pass costs. An
//! access finds its location group by integer key and enters the window
//! as a plain value — ids for its callstack, object and key, nothing on
//! the heap; a delivery joins its cause's clock without copying it and a
//! finished handler chain leaves its clock buffer to the next one. What
//! remains is the amortized growth of the window's deques and maps.
//!
//! A streamed run steps the simulator on a thread of its own and calls the
//! sink on the caller's, so this thread's count is the detector's plus
//! the caller's half of the relay; the subtraction of a run into a sink
//! that ignores everything takes out the latter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcatch_apps::{streambench, streambench_rounds};
use dcatch_detect::{OnlineDetector, OnlineOptions};
use dcatch_sim::{SimConfig, World};
use dcatch_trace::{Record, StreamControl, TraceSink};

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

/// What the caller's thread allocates to receive the stream with nobody
/// listening.
struct Ignore(u64);

impl TraceSink for Ignore {
    fn record(&mut self, _: &Record) {
        self.0 += 1;
    }

    fn control(&mut self, _: StreamControl) {}
}

/// Streams a `streambench` of about `records` records into `sink`;
/// returns the allocations the run made.
fn streamed(records: u64, sink: &mut (dyn TraceSink + Send)) -> u64 {
    let (program, topology) = streambench(streambench_rounds(records));
    let cfg = SimConfig::default().with_seed(7).with_full_tracing();
    let before = ALLOCS.with(Cell::get);
    let run = World::run_streamed(&program, &topology, cfg, sink).expect("valid program");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    allocs
}

/// The detector's own allocations over a stream of about `records`
/// records — a run into it minus the same run into a sink that ignores
/// everything — and the exact record count.
fn detector_allocs(records: u64) -> (u64, u64) {
    let mut ignore = Ignore(0);
    let emit = streamed(records, &mut ignore);
    let mut online = OnlineDetector::new(OnlineOptions::default());
    let total = streamed(records, &mut online);
    let out = online.finalize();
    assert_eq!(out.records as u64, ignore.0);
    assert_eq!(out.candidates.static_pair_count(), 1, "planted pair");
    assert!(out.records_retired > 0, "the steady state retires");
    (total - emit, ignore.0)
}

#[test]
fn a_streamed_record_costs_the_detector_no_allocation() {
    // lets per-thread metric registration happen before anything is compared
    detector_allocs(3_000);
    let (short_allocs, short_records) = detector_allocs(12_000);
    let (long_allocs, long_records) = detector_allocs(36_000);
    let added = long_records - short_records;
    assert!(added >= 20_000, "stream did not grow: {added} records");
    // set-up and the growth of the tables to their steady size are the
    // same in both runs, so the difference is the added records' own
    let per_record = (long_allocs - short_allocs) as f64 / added as f64;
    // 0.871 while a window entry owned its callstack and key and the group
    // was looked up by name (0.897 while every handler chain was a slot
    // whose clock buffer had to grow to the sweep cadence's length)
    assert!(
        per_record <= 0.05,
        "{} allocations over {added} added records = {per_record:.4} per record",
        long_allocs - short_allocs
    );
}
