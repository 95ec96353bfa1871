//! `join` on a one-worker pool. The joiner helps with queued work while
//! its stack job is pending, so nested joins — including a worker that
//! joins inside a job it took from the caller, and scopes inside joins —
//! must finish even when the caller and a single worker are the only
//! threads. This binary sizes the pool itself, so it runs in its own
//! process.

use std::sync::mpsc;
use std::time::Duration;

/// Sum by recursive halving: every level is a `join`.
fn sum(v: &[u64]) -> u64 {
    if v.len() <= 8 {
        return std::hint::black_box(v.iter().sum());
    }
    let (lo, hi) = v.split_at(v.len() / 2);
    let (a, b) = pool::join(|| sum(lo), || sum(hi));
    a + b
}

#[test]
fn nested_joins_on_one_worker_do_not_deadlock() {
    // An explicit request beats STRASSEN_THREADS, so this runs at one
    // worker under every thread-matrix setting.
    pool::set_num_threads(1).expect("nothing in this binary starts the pool earlier");
    assert_eq!(pool::current_num_threads(), 1);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let v: Vec<u64> = (1..=4096).collect();
        for _ in 0..50 {
            let (tree, scoped) = pool::join(
                || sum(&v),
                || {
                    let mut parts = [0u64; 4];
                    pool::scope(|s| {
                        for (p, chunk) in parts.iter_mut().zip(v.chunks(1024)) {
                            s.spawn(move || *p = sum(chunk));
                        }
                    });
                    parts.iter().sum::<u64>()
                },
            );
            tx.send((tree, scoped)).unwrap();
        }
    });
    for round in 0..50 {
        let got = rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|_| {
            panic!("round {round}: nested joins made no progress in 60 s on a 1-worker pool")
        });
        assert_eq!(got, (8_390_656, 8_390_656), "round {round}");
    }
}
