//! Determinism of the execution-timeline recorder.
//!
//! Steal order, park timing, and lane assignment legitimately vary run
//! to run — but the *structure* of a recorded timeline (which tagged
//! tasks ran at which recursion level, and which dependency edges were
//! honored) is fully determined by the configuration. These tests pin
//! that claim across both schedulers and the parallel-width axis, tie
//! the per-level task counts to the analytic `counts::predict` model,
//! and pin the zeroth law of observability: recording a timeline must
//! not change a single bit of the numerical result.
//!
//! Seeds derive from `TESTKIT_SEED` (default `0xD1CE5EED`), so a
//! failure replays bit-for-bit.
//!
//! The event rings are global to the pool: any multiply running during
//! a record bracket contributes events. Tests in this binary therefore
//! serialize on a local mutex so each bracket observes only its own
//! multiply (`timeline::record`'s own lock only serializes recorders
//! against each other, not against unrecorded pool traffic).

use blas::Op;
use matrix::{random, Matrix};
use pool::ring;
use std::sync::{Mutex, MutexGuard};
use strassen::probe::timeline::{self, Structure};
use strassen::{counts, dgefmm, CutoffCriterion, Scheduler, Scheme, StrassenConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const N: usize = 64;
const TAU: usize = 16;
const PARALLEL_DEPTH: usize = 2;

/// The shared test shape: two parallel seven-temp levels above a τ = 16
/// cutoff, classic (non-fused) schedules so every parallel level runs a
/// real DAG instance.
fn config(scheduler: Scheduler, width: usize) -> StrassenConfig {
    StrassenConfig {
        parallel_depth: PARALLEL_DEPTH,
        ..StrassenConfig::dgefmm()
            .scheme(Scheme::SevenTemp)
            .scheduler(scheduler)
            .parallel_width(width)
            .cutoff(CutoffCriterion::Simple { tau: TAU })
            .fused(false)
    }
}

fn multiply(cfg: &StrassenConfig, seed: u64) -> Matrix<f64> {
    let a = random::uniform::<f64>(N, N, seed);
    let b = random::uniform::<f64>(N, N, seed.wrapping_add(1));
    let mut c = Matrix::<f64>::zeros(N, N);
    dgefmm(cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    c
}

fn recorded_structure(cfg: &StrassenConfig, seed: u64) -> Structure {
    let (_, tl) = timeline::record(|| multiply(cfg, seed));
    assert_eq!(tl.total_dropped(), 0, "ring overflow would make structure comparisons meaningless");
    tl.structure()
}

/// Splits the recursion performs *at* level `level` — the difference of
/// two truncated predictions.
fn splits_at_level(cfg: &StrassenConfig, level: u32) -> u64 {
    let upto = |d: u32| counts::predict(&cfg.max_depth(d as usize), N, N, N, true).splits;
    upto(level + 1) - upto(level)
}

/// Structure is identical run to run, for every scheduler × width
/// combination, and the per-level tagged-task counts match the analytic
/// recursion model: the task-DAG scheduler tags all 21 nodes of each
/// seven-temp instance, the fan-out scheduler tags only the 7 products.
#[test]
fn structure_is_deterministic_across_schedulers_and_widths() {
    let _guard = serialized();
    let seed = testkit::master_seed();
    for scheduler in Scheduler::ALL {
        let tags_per_split: u64 = match scheduler {
            Scheduler::TaskDag => 21,
            Scheduler::FanOut => 7,
        };
        let mut baseline: Option<Structure> = None;
        for width in [1, 2, usize::MAX] {
            let cfg = config(scheduler, width);
            let s1 = recorded_structure(&cfg, seed);
            let s2 = recorded_structure(&cfg, seed);
            assert_eq!(s1, s2, "{scheduler:?} width={width}: structure varies run to run");

            // Width throttles how many ready tasks are in flight; it
            // must not change which tasks exist.
            match &baseline {
                None => baseline = Some(s1.clone()),
                Some(b) => {
                    assert_eq!(&s1, b, "{scheduler:?} width={width}: structure depends on parallel width")
                }
            }

            let mut per_level = std::collections::BTreeMap::new();
            for (&(level, _node), &count) in &s1.tasks {
                *per_level.entry(level).or_insert(0u64) += count;
            }
            for level in 0..PARALLEL_DEPTH as u32 {
                let expect = tags_per_split * splits_at_level(&cfg, level);
                assert_eq!(
                    per_level.get(&(level as u8)).copied().unwrap_or(0),
                    expect,
                    "{scheduler:?} width={width}: level-{level} tagged tasks != {tags_per_split} × splits"
                );
            }
            // Levels at or below the serial frontier never spawn.
            assert!(per_level.keys().all(|&l| (l as usize) < PARALLEL_DEPTH));
        }
    }
}

/// The task-DAG structure also records every dependency edge of each
/// seven-temp instance: 25 per split (4 sum-chain, 8 product←operand,
/// 13 combine), with the fan-out scheduler recording none.
#[test]
fn taskdag_edge_structure_matches_the_schedule() {
    let _guard = serialized();
    let seed = testkit::master_seed().wrapping_add(17);
    let dag = recorded_structure(&config(Scheduler::TaskDag, usize::MAX), seed);
    let total_splits: u64 =
        (0..PARALLEL_DEPTH as u32).map(|l| splits_at_level(&config(Scheduler::TaskDag, 1), l)).sum();
    assert_eq!(dag.edges.values().sum::<u64>(), 25 * total_splits);

    let fanout = recorded_structure(&config(Scheduler::FanOut, usize::MAX), seed);
    assert_eq!(fanout.edges.values().sum::<u64>(), 0, "fan-out has no recorded dependency edges");
}

/// The zeroth law: recording a timeline is bitwise invisible to the
/// numerical result, for both schedulers.
#[test]
fn tracing_on_is_bitwise_identical_to_tracing_off() {
    let _guard = serialized();
    let seed = testkit::master_seed().wrapping_add(34);
    for scheduler in Scheduler::ALL {
        let cfg = config(scheduler, usize::MAX);
        let plain = multiply(&cfg, seed);
        let (recorded, tl) = timeline::record(|| multiply(&cfg, seed));
        assert!(tl.duration_events() > 0, "the bracket must actually have recorded the run");
        assert!(
            plain.as_slice() == recorded.as_slice(),
            "{scheduler:?}: recording perturbed the result (max {} ulps)",
            testkit::max_ulp_diff_mat(plain.as_ref(), recorded.as_ref())
        );
    }
}

/// The shipped default forks its GEMM column groups through `pool::join`,
/// and the queued groups stay named tasks: each records a spawn, a start
/// and a finish under the parallel-GEMM tag namespace, and the Perfetto
/// export names them `gemm:jc<i>`.
#[test]
fn default_gemm_column_groups_are_tagged_tasks() {
    let _guard = serialized();
    let workers = pool::pin_once(2);
    if workers < 2 {
        eprintln!("pool pinned to {workers} worker(s); the default GEMM does not fork");
        return;
    }
    // Above the fork threshold (`blas::level3::MIN_PARALLEL_FLOPS`).
    let n = 512;
    let a = random::uniform::<f64>(n, n, 91);
    let b = random::uniform::<f64>(n, n, 92);
    let mut c = Matrix::<f64>::zeros(n, n);
    let cfg = StrassenConfig::dgefmm();
    let ((), tl) = timeline::record(|| {
        dgefmm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
    });
    let gemm_events = |kind: ring::EventKind| {
        tl.all_events()
            .filter(|e| e.kind == kind && ring::tag::namespace(e.tag) == ring::tag::NS_GEMM)
            .count()
    };
    let spawned = gemm_events(ring::EventKind::Spawn);
    assert!(spawned >= workers - 1, "{spawned} tagged GEMM tasks queued on {workers} workers");
    assert_eq!(gemm_events(ring::EventKind::Start), spawned);
    assert_eq!(gemm_events(ring::EventKind::Finish), spawned);
    assert!(timeline::chrome_trace_json(&tl, None).contains("gemm:jc"), "export must name the GEMM tasks");
}
