//! Soak test: sustained mixed-shape load at a fixed seed.
//!
//! Three production properties of the serving layer, each reduced to a
//! deterministic assertion:
//!
//! 1. **Zero steady-state allocation growth.** Every request runs
//!    through the per-thread workspace arena; once a thread has served
//!    the arena-dominating shape, later requests reuse the same
//!    capacity. The test warms each executing thread up to the stream's
//!    Table-1 ceiling, snapshots the per-thread arena high-water map,
//!    pushes sustained load, and asserts the map is **exactly
//!    unchanged** — and everywhere bounded by the ceiling computed from
//!    `strassen::workspace_elements`.
//! 2. **No starvation.** Per-bucket FIFO with a per-cycle `max_batch`
//!    bounds how long a request can sit queued; `max_wait_cycles` must
//!    stay under the worst backlog the test ever created.
//! 3. **Graceful drain.** Shutdown serves every admitted ticket; the
//!    final counters balance exactly.

use accuracy::draw_shape;
use matrix::random;
use serve::{BucketKey, BucketTuning, MachineProfile, Request, Server, ServerConfig, Ticket, TuneCache};
use strassen::workspace_elements;
use testkit::Gen;

const SOAK_SEED: u64 = 0x50AC_BEEF;
const ROUNDS: usize = 8;
const PER_ROUND: usize = 96;

fn shapes(count: usize, g: &mut Gen) -> Vec<(usize, usize, usize)> {
    (0..count).map(|_| draw_shape(g)).collect()
}

fn submit_shape(server: &Server, (m, k, n): (usize, usize, usize), g: &mut Gen) -> Ticket {
    let a = random::uniform::<f64>(m, k, g.seed());
    let b = random::uniform::<f64>(k, n, g.seed());
    server.submit_blocking(Request::new(a, b)).expect("soak submissions are admitted")
}

#[test]
fn sustained_load_is_arena_stable_starvation_free_and_drains() {
    let _ = pool::pin_once(4);
    let mut g = Gen::new(SOAK_SEED, 1.0);

    // The whole campaign's shape list, drawn up front so the Table-1
    // arena ceiling — and the shape that attains it — are known before
    // any load runs.
    let campaign: Vec<Vec<(usize, usize, usize)>> = (0..ROUNDS).map(|_| shapes(PER_ROUND, &mut g)).collect();
    // The shipped cutoff runs every shape this small as one GEMM; tune
    // every bucket the stream hits to a small cutoff so requests recurse
    // and draw on the arena.
    let mut cache = TuneCache::new(MachineProfile::detect());
    let tuned = BucketTuning { tau: 24, tau_m: 12, tau_k: 12, tau_n: 12, parallel_depth: 0 };
    for &(m, k, n) in campaign.iter().flatten() {
        cache.insert(BucketKey::classify(m, k, n), tuned);
    }
    let server = Server::start_with_cache(
        ServerConfig { queue_capacity: 2 * PER_ROUND, max_batch: 16, ..ServerConfig::default() },
        cache,
    );
    let (mut ceiling, mut worst) = (0, (1, 1, 1));
    for &(m, k, n) in campaign.iter().flatten() {
        let need = workspace_elements(&server.config_for(m, k, n), m, k, n, true);
        if need > ceiling {
            (ceiling, worst) = (need, (m, k, n));
        }
    }
    assert!(ceiling > 0, "the stream must exercise the Strassen workspace");

    // Warm-up: enough copies of the arena-dominating shape that every
    // thread which will ever execute requests (the pool workers plus
    // the helping dispatcher) serves it at least once. The set of
    // eligible threads is closed, so coverage converges; iterate until
    // the high-water map stops changing.
    let mut warm = server.stats().arena_high_water;
    for _ in 0..32 {
        let tickets: Vec<Ticket> = (0..32).map(|_| submit_shape(&server, worst, &mut g)).collect();
        tickets.into_iter().for_each(|t| drop(t.wait()));
        let now = server.stats().arena_high_water;
        let settled = now == warm;
        warm = now;
        if settled {
            break;
        }
    }
    assert!(!warm.is_empty(), "warm-up must have executed on at least one thread");
    for (thread, &high) in &warm {
        // Warmed threads served only the dominating shape, so their
        // high-water is the ceiling exactly — the strongest possible
        // baseline for the steady-state equality below.
        assert_eq!(high, ceiling, "{thread}: warm arena {high} != Table-1 ceiling {ceiling}");
    }

    // Steady state: sustained mixed-shape rounds with a bounded
    // outstanding-ticket window.
    for round in campaign {
        let tickets: Vec<Ticket> =
            round.into_iter().map(|shape| submit_shape(&server, shape, &mut g)).collect();
        for t in tickets {
            let done = t.wait();
            assert!(done.latency_ns >= done.exec_ns);
        }
        // Zero steady-state growth: a warmed thread's arena never moves
        // (it is already at the ceiling and every stream shape fits),
        // and even a thread whose *first* request lands after warm-up —
        // a late-waking worker, legitimate first-touch — stays within
        // the same ceiling.
        let now = server.stats().arena_high_water;
        for (thread, &high) in &now {
            assert!(high <= ceiling, "{thread}: arena {high} exceeds the Table-1 ceiling {ceiling}");
            if let Some(&warmed) = warm.get(thread) {
                assert_eq!(high, warmed, "{thread}: steady-state arena growth ({warmed} -> {high})");
            }
        }
    }

    // Starvation bound: a request can be left behind only while its
    // bucket has a backlog, and each cycle retires `max_batch` of the
    // backlog. The worst same-bucket backlog is everything in flight at
    // once; with ≤ 2·PER_ROUND admitted and max_batch = 16 the wait can
    // never reach 2·PER_ROUND/16 cycles — assert that bound.
    let stats = server.stats();
    let wait_bound = (2 * PER_ROUND / 16) as u64;
    assert!(
        stats.max_wait_cycles < wait_bound,
        "request starvation: waited {} cycles (bound {wait_bound})",
        stats.max_wait_cycles
    );
    assert_eq!(stats.fifo_violations, 0, "per-bucket FIFO must hold under sustained load");
    assert!(stats.max_bucket_batch <= 16, "max_batch breached: {}", stats.max_bucket_batch);

    // Graceful drain: admit a final burst, then shut down without
    // waiting — every ticket must still be served.
    server.pause();
    let parting: Vec<Ticket> =
        shapes(24, &mut g).into_iter().map(|s| submit_shape(&server, s, &mut g)).collect();
    let final_stats = server.shutdown();
    for (i, t) in parting.into_iter().enumerate() {
        assert!(t.try_take().is_some(), "parting ticket {i} stranded by shutdown");
    }
    assert_eq!(final_stats.completed, final_stats.submitted, "drain must serve every admitted request");
    assert_eq!(final_stats.rejected_full, 0, "soak never overran its queue");
    let served: u64 = final_stats.per_bucket.values().sum();
    assert_eq!(served, final_stats.completed, "per-bucket counters must partition completions");
}
