//! Quick regression benchmark for the shipped DGEFMM default, the
//! crossover sweeps that measure it, and the serial-vs-parallel
//! scheduler headline.
//!
//! Thread count is pinned **up front** — `STRASSEN_THREADS` if set,
//! otherwise the sysfs physical-core count ([`pool::machine_threads`]) —
//! before any pool use, so every measured region runs on a pool of known
//! size and `set_num_threads` can never hit its already-running error
//! path mid-run.
//!
//! Two sweeps measure the constants the default ships:
//!
//! - **Fork threshold.** The pool-parallel 5-loop GEMM, forced to fork
//!   at every size ([`gemm_parallel_always`]), against the serial one at
//!   n = 64 … 384, alternating sample by sample (each sample about a
//!   millisecond of calls). The crossover — the smallest n from which
//!   forking wins at least three paired samples in four (lower quartile
//!   of the speedup above 1) — is recorded with the quartiles of every
//!   point; its cube is [`MIN_PARALLEL_FLOPS`].
//! - **Strassen crossover** (paper Section 3.4). The eq.-(15) parameters
//!   (τ, τm, τk, τn) against the 5-loop GEMM the default ships
//!   ([`GemmConfig::auto_parallel`]) at n = 128 … 2048, three times; each
//!   parameter is the median over the sweeps. The reports, with the
//!   median and MAD of both arms at every point, are the evidence behind
//!   the cutoff of [`StrassenConfig::dgefmm`].
//!
//! Measured targets, interleaved round-robin at each size:
//!
//! - the 5-loop GEMM the default ships, pool-parallel (reference floor —
//!   so the default-vs-GEMM gate measures Strassen, not core count),
//! - the shipped default, [`StrassenConfig::dgefmm`],
//! - serial DGEFMM under this run's swept parameters (seven-temp
//!   schedule, fused last level, serial GEMM),
//! - its parallel twin: task-DAG Strassen levels (`parallel_depth = 2`,
//!   fusion off so the levels stay DAGs) over pool-parallel leaf GEMMs
//!   (the nested jc×ic 5-loop nest).
//!
//! A dedicated serial-vs-parallel A/B at the largest size
//! ([`strassen::tuning::measure_parallel_speedup`]) adds wall-clock
//! speedup plus pool utilization over the parallel arm. Everything lands
//! in `BENCH_PR14.json`.
//!
//! Regression gates (waivable with `BENCH_NO_GUARD=1`):
//!
//! - the shipped default ≥ 0.98× the pool-parallel 5-loop GEMM at every
//!   measured size (median of the per-round paired ratios);
//! - parallel DGEFMM ≥ 2.5× its serial wall clock at the largest size —
//!   **enforced only when the host has ≥ 4 physical cores and the pool
//!   got ≥ 4 workers**; a 1-core container cannot express the ratio, so
//!   smaller hosts record the measurement and waive the gate loudly;
//! - pool utilization ≥ 80% over the parallel arm — enforced from
//!   2 physical cores / 2 workers up, same reasoning;
//! - the probe contracts at n = 512 (noop ≤ 10%, timed ≤ 15% with noise
//!   allowance).
//!
//! `BENCH_SMOKE=1` runs a fast functional pass — small sizes, a
//! three-point fork sweep, no Strassen sweep (the swept targets reuse the
//! shipped default), gates recorded but not enforced — and writes
//! `BENCH_PR14.smoke.json` so CI can check the
//! whole pipeline including the utilization plumbing (see
//! `scripts/verify.sh`). Scale with the usual harness knobs:
//! `BENCH_SAMPLES`, `BENCH_WARMUP_MS`, `BENCH_MEASURE_MS`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bench::micro::Harness;
use bench::stats::{quartiles, summarize, Summary};
use blas::level3::{
    gemm, gemm_blocked, gemm_parallel_always, kernel_class, BlockingParams, CacheInfo, MIN_PARALLEL_FLOPS,
};
use blas::{GemmConfig, Op};
use matrix::{random, Matrix};
use strassen::tuning::{
    measure_parallel_speedup, tune_report, ParallelSpeedup, TunedParameters, TuningReport,
};
use strassen::{dgefmm, trace, NoopProbe, Scheme, StrassenConfig, TimedProbe};

/// Time every target interleaved: one call of each per round, `rounds`
/// chosen so the whole group roughly fills `h.measure` (at least
/// `min_rounds`). Returns one per-call-nanoseconds [`Summary`] per
/// target, the raw samples, and the round count.
fn bench_group(
    h: &Harness,
    min_rounds: usize,
    targets: &mut [(&str, &mut dyn FnMut())],
) -> (Vec<Summary>, Vec<Vec<f64>>, usize) {
    // Warm-up round-robin, remembering the last per-round total.
    let mut round_ns;
    let warm_start = Instant::now();
    loop {
        let t = Instant::now();
        for (_, f) in targets.iter_mut() {
            f();
        }
        round_ns = t.elapsed().as_nanos();
        if warm_start.elapsed() >= h.warmup {
            break;
        }
    }

    let rounds = (h.measure.as_nanos() / round_ns.max(1)).clamp(min_rounds as u128, 10_000) as usize;
    let mut samples = vec![Vec::with_capacity(rounds); targets.len()];
    for _ in 0..rounds {
        for (i, (_, f)) in targets.iter_mut().enumerate() {
            let t = Instant::now();
            f();
            samples[i].push(t.elapsed().as_nanos() as f64);
        }
    }
    (samples.iter().map(|s| summarize(s)).collect(), samples, rounds)
}

/// Quartiles of the per-round ratios `num[i] / den[i]` — pairing within
/// a round cancels machine drift that the per-target minima cannot.
fn paired_ratio_quartiles(num: &[f64], den: &[f64]) -> [f64; 3] {
    let ratios: Vec<f64> = num.iter().zip(den).map(|(a, b)| a / b).collect();
    quartiles(&ratios)
}

/// Dedicated two-target A/B measurement: alternate the calls
/// back-to-back until `h.measure` elapses and return the ratio of the
/// per-target minima. With hundreds of strictly alternating rounds both
/// minima converge to the true floor, resolving differences well below
/// this host's per-call noise — the statistic the 1% guard needs.
fn overhead_pair(h: &Harness, plain: &mut dyn FnMut(), probe: &mut dyn FnMut()) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < h.warmup {
        plain();
        probe();
    }
    let (mut t_plain, mut t_probe) = (f64::INFINITY, f64::INFINITY);
    let start = Instant::now();
    let mut rounds = 0usize;
    while (start.elapsed() < h.measure || rounds < h.samples) && rounds < 10_000 {
        let t = Instant::now();
        plain();
        t_plain = t_plain.min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        probe();
        t_probe = t_probe.min(t.elapsed().as_nanos() as f64);
        rounds += 1;
    }
    t_probe / t_plain
}

/// Crossover sweeps per full run; each swept parameter is the median.
const SWEEPS: usize = 3;

/// One point of the fork-threshold sweep: paired per-round speedup
/// quartiles of the forked GEMM over the serial one at `n³`.
struct ForkPoint {
    n: usize,
    speedup: [f64; 3],
    rounds: usize,
}

/// Calls per timed sample of the fork sweep at `n³`: a few milliseconds
/// of serial work, so each sample averages the fork's costs (pushes,
/// worker wake-ups, joins) over several calls instead of being dominated
/// by timer and scheduler jitter on a single call.
fn calls_per_sample(n: usize) -> usize {
    (120_000_000 / n.pow(3)).max(1)
}

/// The fork-threshold sweep (module docs): forced-fork pool-parallel
/// GEMM against the serial GEMM, the same blocking, alternating samples.
fn fork_sweep(h: &Harness, sizes: &[usize]) -> Vec<ForkPoint> {
    let serial = GemmConfig::auto();
    let parallel = GemmConfig::auto_parallel();
    sizes
        .iter()
        .map(|&n| {
            let a = random::uniform::<f64>(n, n, 3);
            let b = random::uniform::<f64>(n, n, 4);
            let c = std::cell::RefCell::new(Matrix::<f64>::zeros(n, n));
            let call = |cfg: &GemmConfig, forked: bool| {
                let mut cm = c.borrow_mut();
                for _ in 0..calls_per_sample(n) {
                    let (a, b) = (black_box(a.as_ref()), black_box(b.as_ref()));
                    if forked {
                        gemm_parallel_always(cfg, 1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, cm.as_mut());
                    } else {
                        gemm_blocked(cfg, 1.0, Op::NoTrans, a, Op::NoTrans, b, 0.0, cm.as_mut());
                    }
                }
            };
            let mut f_serial = || call(&serial, false);
            let mut f_forked = || call(&parallel, true);
            let mut targets: [(&str, &mut dyn FnMut()); 2] =
                [("serial", &mut f_serial), ("forked", &mut f_forked)];
            let (_, samples, rounds) = bench_group(h, h.samples, &mut targets);
            ForkPoint { n, speedup: paired_ratio_quartiles(&samples[0], &samples[1]), rounds }
        })
        .collect()
}

/// Smallest swept n from which forking wins in at least three paired
/// samples of four (lower quartile of the speedup above 1) at every
/// larger size, if any.
fn fork_crossover(points: &[ForkPoint]) -> Option<usize> {
    let losing = points.iter().rposition(|p| p.speedup[0] <= 1.0);
    match losing {
        None => points.first().map(|p| p.n),
        Some(i) => points.get(i + 1).map(|p| p.n),
    }
}

fn gflops(n: usize, ns: f64) -> f64 {
    2.0 * (n as f64).powi(3) / ns
}

/// Append one result object to the JSON `results` array.
fn push_result(json: &mut String, bench: &str, n: usize, s: &Summary, rounds: usize) {
    let _ = write!(
        json,
        "    {{\"bench\": \"{bench}\", \"n\": {n}, \"rounds\": {rounds}, \
         \"median_ms\": {:.4}, \"min_ms\": {:.4}, \"mean_ms\": {:.4}, \"max_ms\": {:.4}, \
         \"gflops_min\": {:.3}}}",
        s.median / 1e6,
        s.min / 1e6,
        s.mean / 1e6,
        s.max / 1e6,
        gflops(n, s.min)
    );
}

fn ratio_map(json: &mut String, key: &str, entries: &[(usize, f64)]) {
    let _ = write!(json, "  \"{key}\": {{");
    for (i, (n, r)) in entries.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{n}\": {r:.4}");
    }
    json.push_str("},\n");
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let h = Harness::from_env();

    // Pin the pool before anything else touches it (satellite: thread
    // count set up front, honoring STRASSEN_THREADS via the pool's own
    // default resolution). current_num_threads() starts the pool with
    // that default; a later set_num_threads would be the error path.
    let workers = pool::current_num_threads();
    let phys = pool::machine_threads();
    println!(
        "bench_quick{}: {workers} pool workers ({phys} physical cores), \
         ≥{} interleaved rounds, warmup {:?}, measure {:?} per size",
        if smoke { " (smoke)" } else { "" },
        h.samples,
        h.warmup,
        h.measure
    );

    // Machine profile: the runtime facts the auto blocking derives from.
    let cache = CacheInfo::detect();
    let bp = BlockingParams::auto_f64();
    // The GEMM the shipped default runs: reference floor and the Strassen
    // sweep's GEMM arm.
    let gemm_cfg = GemmConfig::auto_parallel();
    println!(
        "machine: kernel {:?}, L1d {} KiB, L2 {} KiB, L3 {} KiB -> mc={} kc={} nc={}",
        kernel_class(),
        cache.l1d / 1024,
        cache.l2 / 1024,
        cache.l3 / 1024,
        bp.mc,
        bp.kc,
        bp.nc
    );

    // Fork-threshold sweep: where forking the GEMM's column loop starts
    // to pay (module docs).
    let fork_sizes: &[usize] =
        if smoke { &[64, 128, 256] } else { &[64, 80, 96, 128, 160, 192, 224, 256, 320, 384] };
    let fork_points = fork_sweep(&h, fork_sizes);
    let crossover = fork_crossover(&fork_points);
    let shipped_fork_n = (MIN_PARALLEL_FLOPS as f64).cbrt().round() as usize;
    println!("fork-threshold sweep on {workers} workers (forked vs serial GEMM, paired quartiles):");
    for p in &fork_points {
        let [q1, med, q3] = p.speedup;
        println!(
            "  n={:<4} {med:.3}x [{q1:.3}-{q3:.3}] over {} rounds of {} calls",
            p.n,
            p.rounds,
            calls_per_sample(p.n)
        );
    }
    println!(
        "fork crossover: {} (shipped MIN_PARALLEL_FLOPS = {shipped_fork_n}^3)",
        crossover.map_or("none in the swept range".to_string(), |n| format!("n = {n}"))
    );

    // Crossover sweep: measure the eq.-(15) hybrid cutoff parameters
    // (τ, τm, τk, τn) against the shipped 5-loop GEMM, far enough past the
    // crossover to find it. Near the crossover one level and GEMM differ
    // by less than a shared host's run-to-run noise, so the sweep runs
    // several times and each parameter is the median over the runs. Smoke mode
    // skips the sweep and runs the swept targets under the shipped
    // default.
    let shipped = StrassenConfig::dgefmm();
    let sweeps: Vec<TuningReport> = if smoke {
        Vec::new()
    } else {
        let sizes = [128, 192, 256, 384, 512, 704, 896, 1024, 1536, 2048];
        let (rect_fixed, reps) = (2048, 5);
        println!("tuning sweep x{SWEEPS}: square and rect {sizes:?} @ fixed {rect_fixed} ({reps} reps)");
        (0..SWEEPS)
            .map(|i| {
                let t0 = Instant::now();
                let report = tune_report(&gemm_cfg, &sizes, &sizes, rect_fixed, reps);
                let p = report.params;
                println!(
                    "  sweep {i} in {:.1}s: tau={} tau_m={} tau_k={} tau_n={}",
                    t0.elapsed().as_secs_f64(),
                    p.tau,
                    p.tau_m,
                    p.tau_k,
                    p.tau_n
                );
                report
            })
            .collect()
    };
    let swept = (!sweeps.is_empty()).then(|| {
        let median = |f: fn(&TunedParameters) -> usize| {
            let mut v: Vec<usize> = sweeps.iter().map(|r| f(&r.params)).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        TunedParameters {
            tau: median(|p| p.tau),
            tau_m: median(|p| p.tau_m),
            tau_k: median(|p| p.tau_k),
            tau_n: median(|p| p.tau_n),
        }
    });
    if let Some(p) = swept {
        println!("median swept parameters: {:?} (shipped default: {:?})", p.criterion(), shipped.cutoff);
    }
    let tuned_cfg = swept.map_or(shipped, |p| p.config(gemm_cfg));
    // The parallel twin: task-DAG Strassen levels over pool-parallel leaf
    // GEMMs, at the same cutoff and blocking. Fusion is off so the top
    // levels stay 21-node task DAGs — the scheduler this arm and the
    // utilization gate measure; fused, the n = 4096 root would be one
    // level split into column groups.
    let parallel_cfg =
        tuned_cfg.scheme(Scheme::SevenTemp).parallel_depth(2).gemm(GemmConfig::auto_parallel()).fused(false);
    let serial_cfg = tuned_cfg.scheme(Scheme::SevenTemp).gemm(GemmConfig::auto());

    let mut json = String::from("{\n  \"pr\": 14,\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"harness\": {{\"min_rounds\": {}}},", h.samples);
    let _ = writeln!(
        json,
        "  \"pool\": {{\"workers\": {workers}, \"physical_cores\": {phys}, \"env_override\": {}}},",
        std::env::var_os("STRASSEN_THREADS").is_some()
    );
    let _ = writeln!(
        json,
        "  \"machine\": {{\"kernel_class\": \"{:?}\", \"l1d\": {}, \"l2\": {}, \"l3\": {}, \
         \"mc\": {}, \"kc\": {}, \"nc\": {}}},",
        kernel_class(),
        cache.l1d,
        cache.l2,
        cache.l3,
        bp.mc,
        bp.kc,
        bp.nc
    );
    let _ = write!(
        json,
        "  \"fork_threshold\": {{\"shipped_n\": {shipped_fork_n}, \"crossover_n\": {}, \"points\": [",
        crossover.map_or("null".to_string(), |n| n.to_string())
    );
    for (i, p) in fork_points.iter().enumerate() {
        let [q1, med, q3] = p.speedup;
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{{\"n\": {}, \"speedup\": {med:.4}, \"q1\": {q1:.4}, \"q3\": {q3:.4}, \"rounds\": {}, \
             \"calls_per_sample\": {}}}",
            p.n,
            p.rounds,
            calls_per_sample(p.n)
        );
    }
    json.push_str("]},\n");
    json.push_str("  \"results\": [\n");

    let sizes: &[usize] = if smoke { &[256, 512] } else { &[256, 512, 1024, 2048, 4096] };
    let mut first = true;
    let mut serial_vs_gemm = Vec::new();
    let mut default_vs_gemm = Vec::new();
    let mut parallel_vs_serial = Vec::new();
    let mut parallel_paired = Vec::new();
    for &n in sizes {
        let a = random::uniform::<f64>(n, n, 1);
        let b = random::uniform::<f64>(n, n, 2);
        // All targets write the *same* destination (β = 0, so each call
        // is self-contained): with per-target matrices, whichever C
        // happens to land at an unlucky offset relative to A/B pays a
        // large conflict-miss penalty at power-of-two sizes, and the
        // comparison measures allocator luck instead of the kernels.
        let c = std::cell::RefCell::new(Matrix::<f64>::zeros(n, n));

        let mut f_gemm = || {
            let mut cm = c.borrow_mut();
            gemm(
                &gemm_cfg,
                1.0,
                Op::NoTrans,
                black_box(a.as_ref()),
                Op::NoTrans,
                black_box(b.as_ref()),
                0.0,
                cm.as_mut(),
            );
        };
        let mut f_default = || {
            let mut cm = c.borrow_mut();
            dgefmm(
                &shipped,
                1.0,
                Op::NoTrans,
                black_box(a.as_ref()),
                Op::NoTrans,
                black_box(b.as_ref()),
                0.0,
                cm.as_mut(),
            );
        };
        let mut f_serial = || {
            let mut cm = c.borrow_mut();
            dgefmm(
                &serial_cfg,
                1.0,
                Op::NoTrans,
                black_box(a.as_ref()),
                Op::NoTrans,
                black_box(b.as_ref()),
                0.0,
                cm.as_mut(),
            );
        };
        let mut f_parallel = || {
            let mut cm = c.borrow_mut();
            dgefmm(
                &parallel_cfg,
                1.0,
                Op::NoTrans,
                black_box(a.as_ref()),
                Op::NoTrans,
                black_box(b.as_ref()),
                0.0,
                cm.as_mut(),
            );
        };

        let mut targets: [(&str, &mut dyn FnMut()); 4] = [
            ("gemm_5loop", &mut f_gemm),
            ("dgefmm_default", &mut f_default),
            ("dgefmm_serial", &mut f_serial),
            ("dgefmm_parallel", &mut f_parallel),
        ];
        // Big sizes: cap the mandatory round count so n = 4096 does not
        // multiply a ~10 s round by the full sample budget.
        let min_rounds = match n {
            0..=1024 => h.samples,
            1025..=2048 => h.samples.min(5),
            _ => h.samples.min(3),
        };
        let (summaries, samples, rounds) = bench_group(&h, min_rounds, &mut targets);

        for ((label, _), s) in targets.iter().zip(&summaries) {
            println!(
                "{label:<24} n={n:<5} min {:>10.3} ms  median {:>10.3} ms  ({:.3} GFLOP/s)",
                s.min / 1e6,
                s.median / 1e6,
                gflops(n, s.min)
            );
            if !first {
                json.push_str(",\n");
            }
            first = false;
            push_result(&mut json, label, n, s, rounds);
        }
        let default_q = paired_ratio_quartiles(&samples[0], &samples[1]);
        let serial_ratio = summaries[0].min / summaries[2].min;
        let par_ratio = summaries[2].min / summaries[3].min;
        let par_med = paired_ratio_quartiles(&samples[2], &samples[3])[1];
        println!(
            "  n={n}: default dgefmm vs GEMM {:.3}x (paired quartiles {:.3}-{:.3}), swept serial \
             dgefmm vs GEMM {serial_ratio:.3}x, parallel vs serial dgefmm {par_ratio:.3}x \
             (paired median {par_med:.3}x, {rounds} rounds)\n",
            default_q[1], default_q[0], default_q[2]
        );
        default_vs_gemm.push((n, default_q));
        serial_vs_gemm.push((n, serial_ratio));
        parallel_vs_serial.push((n, par_ratio));
        parallel_paired.push((n, par_med));
    }

    json.push_str("\n  ],\n");
    let quartile_map = |json: &mut String, key: &str, i: usize| {
        let entries: Vec<(usize, f64)> = default_vs_gemm.iter().map(|&(n, q)| (n, q[i])).collect();
        ratio_map(json, key, &entries);
    };
    quartile_map(&mut json, "dgefmm_default_vs_gemm", 1);
    quartile_map(&mut json, "dgefmm_default_vs_gemm_q1", 0);
    quartile_map(&mut json, "dgefmm_default_vs_gemm_q3", 2);
    ratio_map(&mut json, "dgefmm_serial_speedup_vs_gemm", &serial_vs_gemm);
    ratio_map(&mut json, "dgefmm_parallel_speedup_vs_serial", &parallel_vs_serial);
    ratio_map(&mut json, "dgefmm_parallel_paired_median_vs_serial", &parallel_paired);

    // Scheduler headline: the dedicated serial-vs-parallel A/B at the largest
    // size, with pool utilization over the parallel arm.
    let headline_n = *sizes.last().unwrap();
    let headline_reps = if smoke { 2 } else { 3 };
    let sp: ParallelSpeedup = measure_parallel_speedup(&serial_cfg, &parallel_cfg, headline_n, headline_reps);
    let delta = &sp.pool_delta;
    let steals: u64 = delta.workers.iter().map(|w| w.steals).sum();
    println!(
        "parallel headline at n={headline_n}: serial {:.3}s, parallel {:.3}s -> {:.3}x speedup, \
         utilization {:.1}% over {} workers ({} jobs, {} steals, {} helper pops)",
        sp.serial_s,
        sp.parallel_s,
        sp.speedup,
        sp.utilization * 100.0,
        sp.workers,
        delta.total_jobs(),
        steals,
        delta.helper_pops
    );
    let _ = writeln!(
        json,
        "  \"parallel_headline\": {{\"n\": {headline_n}, \"workers\": {}, \
         \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \"speedup\": {:.4}, \
         \"utilization\": {:.4}, \"jobs\": {}, \"steals\": {steals}, \"helper_pops\": {}}},",
        sp.workers,
        sp.serial_s,
        sp.parallel_s,
        sp.speedup,
        sp.utilization,
        delta.total_jobs(),
        delta.helper_pops
    );

    let _ = writeln!(json, "  \"shipped_cutoff\": \"{:?}\",", shipped.cutoff);
    match swept {
        // `tuning.params` keeps the key path earlier artifacts used.
        Some(p) => {
            let _ = write!(
                json,
                "  \"tuning\": {{\"params\": {{\"tau\": {}, \"tau_m\": {}, \"tau_k\": {}, \"tau_n\": {}}}, \
                 \"sweeps\": [",
                p.tau, p.tau_m, p.tau_k, p.tau_n
            );
            let reports: Vec<String> = sweeps.iter().map(TuningReport::to_json).collect();
            json.push_str(&reports.join(", "));
            json.push_str("]},\n");
        }
        None => json.push_str("  \"tuning\": null,\n"),
    }

    let waived = std::env::var_os("BENCH_NO_GUARD").is_some();
    let enforce = |label: &str, worst: f64, limit: f64, at_least: bool| {
        let fail = if at_least { worst < limit } else { worst > limit };
        let rel = if at_least { "≥" } else { "≤" };
        if fail {
            let msg = format!("{label} guard: {worst:.4}x violates {rel} {limit}x");
            if waived {
                println!("WARNING (guard waived): {msg}");
            } else {
                panic!("{msg}");
            }
        } else {
            println!("{label} guard passed: {worst:.4}x {rel} {limit}x");
        }
    };

    // Core-scaled parallel gates: the 2.5× speedup target assumes the
    // machine can express it. Enforce speedup on ≥ 4 physical cores with
    // ≥ 4 workers, utilization on ≥ 2 of each; smaller (or oversubscribed
    // 1-core CI) hosts record the measurement and waive the gate loudly.
    let speedup_gated = phys >= 4 && sp.workers >= 4;
    let util_gated = phys >= 2 && sp.workers >= 2 && sp.workers <= phys;
    // The shipped default must never lose to GEMM: gate the worst
    // paired-median ratio over every measured size.
    let (worst_n, worst_default) = default_vs_gemm
        .iter()
        .map(|&(n, q)| (n, q[1]))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one measured size");
    let _ = writeln!(
        json,
        "  \"gates\": {{\"default_vs_gemm_required\": {}, \"default_vs_gemm_limit\": 0.98, \
         \"speedup_required\": {speedup_gated}, \"speedup_limit\": 2.5, \
         \"utilization_required\": {util_gated}, \"utilization_limit\": 0.8}},",
        !smoke
    );

    if smoke {
        // Smoke writes to its own artifact so a CI smoke pass can never
        // clobber the committed full-run BENCH_PR14.json.
        println!("default dgefmm vs GEMM (recorded, not enforced): worst {worst_default:.4}x at n={worst_n}");
        json.push_str("  \"noop_probe_guard_512\": null,\n  \"timed_probe_guard_512\": null\n}\n");
        std::fs::write("BENCH_PR14.smoke.json", &json).expect("write BENCH_PR14.smoke.json");
        println!("wrote BENCH_PR14.smoke.json (smoke: guards recorded, not enforced)");
        return;
    }

    // The probe subsystem's contract: an installed-but-idle probe costs
    // at most 1% at n = 512 (the instrumentation seams are O(recursion
    // nodes), the work is O(n^2.81) — the ratio must vanish), and a full
    // TimedProbe at most 5%. Measured with the dedicated tight A/B
    // pairing, not the round-robin groups. The raw ratios land in the
    // JSON; enforcement below adds a noise allowance on top of the
    // contract targets (see module docs).
    let n = 512usize;
    let a = random::uniform::<f64>(n, n, 1);
    let b = random::uniform::<f64>(n, n, 2);
    let c = std::cell::RefCell::new(Matrix::<f64>::zeros(n, n));
    // The shipped default runs n = 512 as one GEMM; the contracts are
    // about the recursion's seams, so pin a cutoff that recurses (three
    // levels at this size).
    let classic = StrassenConfig::with_square_cutoff(64).fused(false);
    let fused = StrassenConfig::with_square_cutoff(64).fused(true);
    let call = |cfg: &StrassenConfig| {
        let mut cm = c.borrow_mut();
        dgefmm(
            cfg,
            1.0,
            Op::NoTrans,
            black_box(a.as_ref()),
            Op::NoTrans,
            black_box(b.as_ref()),
            0.0,
            cm.as_mut(),
        );
    };
    let guard_classic = overhead_pair(&h, &mut || call(&classic), &mut || {
        let _ = trace::with_probe(NoopProbe, || call(&classic));
    });
    let guard_fused = overhead_pair(&h, &mut || call(&fused), &mut || {
        let _ = trace::with_probe(NoopProbe, || call(&fused));
    });
    let guard_timed_classic = overhead_pair(&h, &mut || call(&classic), &mut || {
        let _ = trace::with_probe(TimedProbe::new(), || call(&classic));
    });
    let guard_timed_fused = overhead_pair(&h, &mut || call(&fused), &mut || {
        let _ = trace::with_probe(TimedProbe::new(), || call(&fused));
    });
    println!("noop-probe guard A/B at n=512: classic {guard_classic:.4}x, fused {guard_fused:.4}x");
    println!(
        "timed-probe guard A/B at n=512: classic {guard_timed_classic:.4}x, fused {guard_timed_fused:.4}x"
    );

    let _ = write!(
        json,
        "  \"noop_probe_guard_512\": {{\"classic\": {guard_classic:.4}, \"fused\": {guard_fused:.4}}},\n  \
         \"timed_probe_guard_512\": {{\"classic\": {guard_timed_classic:.4}, \
         \"fused\": {guard_timed_fused:.4}}}\n}}\n"
    );
    std::fs::write("BENCH_PR14.json", &json).expect("write BENCH_PR14.json");
    println!("wrote BENCH_PR14.json");

    // Perf regression gates (see module docs).
    enforce(&format!("default DGEFMM vs GEMM (worst at n={worst_n})"), worst_default, 0.98, true);
    if speedup_gated {
        enforce(&format!("parallel DGEFMM speedup at n={headline_n}"), sp.speedup, 2.5, true);
    } else {
        println!(
            "parallel speedup gate waived: {} physical cores / {} workers cannot express 2.5x \
             (measured {:.3}x, recorded in BENCH_PR14.json)",
            phys, sp.workers, sp.speedup
        );
    }
    if util_gated {
        enforce("pool utilization over parallel arm", sp.utilization, 0.8, true);
    } else {
        println!(
            "utilization gate waived below 2 physical cores / matched workers \
             (measured {:.1}% over {} workers)",
            sp.utilization * 100.0,
            sp.workers
        );
    }
    enforce("noop-probe overhead", guard_classic.max(guard_fused), 1.10, false);
    enforce("timed-probe overhead", guard_timed_classic.max(guard_timed_fused), 1.15, false);
}
