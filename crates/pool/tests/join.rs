//! `pool::join`: panics, nesting, pool telemetry and timeline tags.
//!
//! These run in their own process, away from the unit tests: a thread
//! waiting in `join` helps with any queued job, and the unit tests that
//! count per-worker participation must not see these joins' callers run
//! their tasks.

use pool::ring::{self, tag, EventKind};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Pool size for every test here (STRASSEN_THREADS still wins).
fn init() {
    pool::pin_once(4);
}

/// The recording test needs the rings to itself.
fn serialized() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload.downcast_ref::<&str>().copied().unwrap_or("<non-str payload>")
}

#[test]
fn join_rethrows_a_panic_only_after_both_closures_finish() {
    init();
    let slow = || {
        std::thread::sleep(Duration::from_millis(30));
        true
    };
    // Panic in `a`: `b` is still running (or not yet started) when `a`
    // unwinds, and must have finished before `join` re-throws.
    let b_done = AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool::join(|| panic!("boom in a"), || b_done.store(slow(), Ordering::SeqCst))
    }));
    assert_eq!(panic_message(&*r.unwrap_err()), "boom in a");
    assert!(b_done.load(Ordering::SeqCst), "join re-threw before b finished");
    // Panic in `b`: `a` keeps running on the caller; the panic surfaces
    // only after it returns.
    let a_done = AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        pool::join(|| a_done.store(slow(), Ordering::SeqCst), || panic!("boom in b"))
    }));
    assert_eq!(panic_message(&*r.unwrap_err()), "boom in b");
    assert!(a_done.load(Ordering::SeqCst), "join re-threw before a finished");
    // Both panic: `a`'s payload wins, and the pool survives.
    let r = catch_unwind(AssertUnwindSafe(|| pool::join(|| panic!("first"), || panic!("second"))));
    assert_eq!(panic_message(&*r.unwrap_err()), "first");
    assert_eq!(pool::join(|| 1, || 2), (1, 2));
}

#[test]
fn nested_joins_sum_a_tree() {
    init();
    fn sum(v: &[u64]) -> u64 {
        if v.len() <= 4 {
            return v.iter().sum();
        }
        let (lo, hi) = v.split_at(v.len() / 2);
        let (a, b) = pool::join(|| sum(lo), || sum(hi));
        a + b
    }
    let v: Vec<u64> = (1..=1000).collect();
    assert_eq!(sum(&v), 500_500);
}

#[test]
fn join_stats_account_for_every_job() {
    init();
    let _serial = serialized();
    // Each join queues exactly one job, which a worker or a helping
    // thread (possibly the joiner itself) pops and runs once. Concurrent
    // tests in this binary can land jobs inside the bracket, so retry
    // brackets until one shows only this test's jobs.
    let mut executed = Vec::new();
    let (after, delta) = loop {
        let before = pool::pool_stats();
        for _ in 0..64 {
            pool::join(
                || std::hint::black_box((0..20_000).sum::<u64>()),
                || std::hint::black_box((0..20_000).sum::<u64>()),
            );
        }
        let mut after = pool::pool_stats();
        for _ in 0..100 {
            if after.workers.iter().all(|w| w.own_pops + w.steals == w.jobs) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            after = pool::pool_stats();
        }
        let delta = after.since(&before);
        executed.push(delta.total_jobs() + delta.helper_pops);
        if executed.last() == Some(&64) || executed.len() == 10 {
            break (after, delta);
        }
    };
    assert_eq!(delta.total_jobs() + delta.helper_pops, 64, "jobs per bracket: {executed:?}");
    assert!(delta.wake_notifies >= 64);
    for (i, w) in after.workers.iter().enumerate() {
        assert_eq!(w.own_pops + w.steals, w.jobs, "worker {i}: pops must equal jobs");
    }
}

#[test]
fn join_tagged_records_spawn_start_finish() {
    init();
    let _serial = serialized();
    let marks = ring::marks();
    let t = tag::gemm_task(0, 7);
    assert!(!ring::start_recording());
    for _ in 0..8 {
        pool::join_tagged(t, || std::hint::black_box(()), || std::hint::black_box(()));
    }
    assert!(ring::stop_recording());
    let lanes = ring::events_since(&marks);
    let count = |k: EventKind| {
        lanes.iter().flat_map(|(ev, _)| ev.iter()).filter(|e| e.kind == k && e.tag == t).count()
    };
    // The queued closure of every join is one tagged task; the closure
    // the joiner runs inline is not a task.
    for k in [EventKind::Spawn, EventKind::Start, EventKind::Finish] {
        assert_eq!(count(k), 8, "{k:?}");
    }
}
