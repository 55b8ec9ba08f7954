//! Building and dropping the simulated machine must cost a few heap
//! allocations, not one per cache set: a 2 MB, 4-way L2 has 16,384 sets,
//! and a short sweep point simulates for less time than it would take to
//! allocate and free them one by one. Counted, not timed, so the guard
//! holds on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tls_core::{CmpConfig, CmpSimulator, RunOptions};
use tls_trace::{Addr, OpSink, Pc, ProgramBuilder};

/// The system allocator, counting allocations made by the current thread
/// (the test harness's own threads cannot leak into the count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`,
// which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_tiny_run_allocates_independently_of_cache_geometry() {
    let mut b = ProgramBuilder::new("ten-ops");
    b.begin_parallel();
    for e in 0..2u16 {
        b.begin_epoch();
        b.int_ops(Pc::new(e, 0), 3);
        b.load(Pc::new(e, 1), Addr(0x1000), 8);
        b.store(Pc::new(e, 2), Addr(0x2000 + u64::from(e) * 64), 8);
        b.end_epoch();
    }
    b.end_parallel();
    let program = b.finish();
    assert_eq!(program.total_ops(), 10);

    let sim = CmpSimulator::new(CmpConfig::paper_default());
    let opts = RunOptions { audit: false, oracle: false, ..RunOptions::default() };
    // The first run also pays for lazily initialised process state.
    sim.run_with(&program, opts.clone());
    let before = ALLOCATIONS.with(Cell::get);
    sim.run_with(&program, opts);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(allocations <= 256, "one run made {allocations} heap allocations");
}
