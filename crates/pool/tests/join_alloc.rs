//! A warm `join` allocates nothing on the calling thread: the queued
//! closures live in the caller's stack frame and the worker deques are
//! pre-sized. This is what lets the default DGEFMM fork its GEMM loops
//! without breaking the zero-allocation guarantee of `tests/arena_reuse.rs`
//! at the repository root.
//!
//! Verified with a counting global allocator whose count is per thread,
//! so allocations made by pool workers (for example the first use of a
//! worker's lane) are not charged to the caller.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// counting only bumps a const-initialized thread-local, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A full binary tree of joins, `2^depth` leaves of real work.
fn tree(depth: u32) -> u64 {
    if depth == 0 {
        return std::hint::black_box((0..2_000u64).sum());
    }
    let (a, b) = pool::join(|| tree(depth - 1), || tree(depth - 1));
    a + b
}

#[test]
fn warm_join_allocates_nothing_on_the_calling_thread() {
    // At least two workers (unless STRASSEN_THREADS says otherwise), so
    // queued halves really run on other threads while the caller waits.
    let workers = pool::pin_once(2);
    let leaf = (0..2_000u64).sum::<u64>();
    for _ in 0..8 {
        assert_eq!(tree(5), 32 * leaf);
    }
    let before = ALLOC_CALLS.with(Cell::get);
    for _ in 0..64 {
        assert_eq!(tree(5), 32 * leaf);
    }
    let allocs = ALLOC_CALLS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{allocs} allocations in 64 warm join trees on {workers} workers");
}
