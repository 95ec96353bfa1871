//! The no-allocation guarantee of the thread-local workspace arena: after
//! the first DGEFMM call at a problem size, subsequent calls on the same
//! thread draw everything — schedule temporaries, transpose staging, and
//! GEMM pack buffers — from reused thread-local storage. A call the
//! cutoff stops at the root borrows no arena at all and is bitwise the
//! conventional GEMM.
//!
//! Verified with a counting global allocator. The count is per thread:
//! every call here is made from the test's own thread, and what the
//! default's pool-parallel GEMM forks to the pool workers runs on their
//! threads, so neither concurrent tests nor workers perturb the count.
//! Every test pins at least two pool workers (`pool::pin_once(2)`;
//! `STRASSEN_THREADS` still wins), so the fork path runs even on a
//! 1-core host.

use blas::level3::gemm;
use blas::GemmConfig;
use blas::Op;
use matrix::{random, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use strassen::{dgefmm, planned_depth, tls_arena_capacity_elements, StrassenConfig};

/// System allocator with a per-thread count of every allocation-acquiring
/// call.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it from inside
    // the allocator never allocates.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// const-initialized thread-local, which neither allocates nor unwinds.
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

#[test]
fn second_dgefmm_call_performs_zero_allocations() {
    pool::pin_once(2);
    let n = 256;
    // A cutoff that recurses at n = 256 (two levels, the last fused) and
    // the shipped default (which runs this order as one GEMM).
    let recursing = StrassenConfig::with_square_cutoff(64);
    assert!(planned_depth(&recursing, n, n, n) >= 2);
    let a = random::uniform::<f64>(n, n, 1);
    let b = random::uniform::<f64>(n, n, 2);
    let mut c = Matrix::<f64>::zeros(n, n);

    for (label, cfg) in [("recursing", recursing), ("default", StrassenConfig::dgefmm())] {
        // Warm-up sizes the thread-local arena and the GEMM pack buffers.
        for (op_a, beta) in [(Op::NoTrans, 0.0), (Op::Trans, 0.5)] {
            dgefmm(&cfg, 1.0, op_a, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
        }

        // Steady state: no heap traffic at all, for either β class, with
        // or without transpose staging (which is carved from the same
        // arena).
        for (op_a, beta) in [(Op::NoTrans, 0.0), (Op::NoTrans, 0.5), (Op::Trans, 0.0), (Op::Trans, 0.5)] {
            let allocs = allocations_during(|| {
                dgefmm(&cfg, 1.0, op_a, a.as_ref(), Op::NoTrans, b.as_ref(), beta, c.as_mut());
            });
            assert_eq!(allocs, 0, "{label} op_a={op_a:?} β={beta}: {allocs} allocations in steady state");
        }
    }
    assert!(c.as_slice().iter().all(|x| x.is_finite()));
}

/// A `dgefmm` call that the cutoff stops at the root is the conventional
/// GEMM on the caller's `op(A)`/`op(B)`: bitwise equal to the *serial*
/// `blas::gemm` (the default forks its loops across the pool, which must
/// not change a bit) for every op pair and both β classes, with no arena
/// and — once the pack buffers are warm — no allocation.
#[test]
fn root_leaf_dgefmm_is_bitwise_gemm_without_arena_or_allocation() {
    pool::pin_once(2);
    let cfg = StrassenConfig::dgefmm();
    let serial = GemmConfig::auto();
    let shapes = [(1, 1, 1), (3, 2, 5), (97, 61, 33), (1024, 1024, 1024)];
    let ops = [Op::NoTrans, Op::Trans];
    // Operand of logical shape rows × cols, stored as op requires.
    let stored = |op: Op, rows: usize, cols: usize, seed: u64| match op {
        Op::NoTrans => random::uniform::<f64>(rows, cols, seed),
        Op::Trans => random::uniform::<f64>(cols, rows, seed),
    };
    // The largest shape warms the pack buffers to their high-water, on
    // this thread (serial) and through the default's fork path.
    let (m, k, n) = shapes[shapes.len() - 1];
    let (a, b) = (stored(Op::Trans, m, k, 1), stored(Op::Trans, k, n, 2));
    let mut c = Matrix::<f64>::zeros(m, n);
    gemm(&serial, 1.0, Op::Trans, a.as_ref(), Op::Trans, b.as_ref(), 0.0, c.as_mut());
    dgefmm(&cfg, 1.0, Op::Trans, a.as_ref(), Op::Trans, b.as_ref(), 0.0, c.as_mut());

    for &(m, k, n) in &shapes {
        assert_eq!(planned_depth(&cfg, m, k, n), 0, "({m},{k},{n}) must not recurse");
        for op_a in ops {
            for op_b in ops {
                let a = stored(op_a, m, k, 3);
                let b = stored(op_b, k, n, 4);
                let c0 = random::uniform::<f64>(m, n, 5);
                for beta in [0.0, 0.5] {
                    let mut want = c0.clone();
                    gemm(&serial, 1.5, op_a, a.as_ref(), op_b, b.as_ref(), beta, want.as_mut());
                    let mut got = c0.clone();
                    let allocs = allocations_during(|| {
                        dgefmm(&cfg, 1.5, op_a, a.as_ref(), op_b, b.as_ref(), beta, got.as_mut());
                    });
                    let label = format!("({m},{k},{n}) {op_a:?}/{op_b:?} β={beta}");
                    assert_eq!(got.as_slice(), want.as_slice(), "{label}: not bitwise blas::gemm");
                    assert_eq!(allocs, 0, "{label}: {allocs} allocations");
                }
            }
        }
    }
    assert_eq!(tls_arena_capacity_elements::<f64>(), 0, "root-leaf calls must not touch the arena");
}
