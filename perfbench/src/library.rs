//! The library workloads (`square_pow2`, `rect_odd_update`): one caller,
//! closed loop, `dgefmm` with the shipped `StrassenConfig::dgefmm()`.

use std::time::{Duration, Instant};

use accuracy::{gemm_bound, BoundSchedule};
use blas::GemmConfig;
use matrix::{MatMut, Matrix};
use strassen::{dgefmm, planned_depth, trace, CutoffCriterion, Phase, Profile, StrassenConfig, TimedProbe};

use crate::layers;
use crate::report::{median, peak_rss_mib, windowed_p50_p99, Report, SpanLog};
use crate::speed::SpeedLog;
use crate::workload::{CallData, CallSpec};

/// Consecutive windows the pass latencies are cut into for
/// `serve.latency_us.p50` and `.p99` (see [`windowed_p50_p99`]).
const LATENCY_WINDOWS: usize = 5;

/// A call with its operands, its `blas::gemm` reference result and the
/// error tolerance its `dgefmm` result must meet.
struct Prepared {
    spec: CallSpec,
    data: CallData,
    reference: Matrix<f64>,
    tol: f64,
}

fn prepare(cfg: &StrassenConfig, spec: CallSpec) -> Prepared {
    let data = spec.materialize();
    let mut reference = data.c0.clone();
    let CallSpec { m, k, n, alpha, beta, op_a, op_b, .. } = spec;
    blas::gemm(
        &GemmConfig::auto(),
        alpha,
        op_a,
        data.a.as_ref(),
        op_b,
        data.b.as_ref(),
        beta,
        reference.as_mut(),
    );
    let (na, nb, nc) = (
        matrix::norms::max_abs(data.a.as_ref()),
        matrix::norms::max_abs(data.b.as_ref()),
        matrix::norms::max_abs(data.c0.as_ref()),
    );
    // dgefmm and the reference each carry their own bound against the
    // exact product, so their difference is within the sum.
    let criterion = *cfg.criterion_for(beta == 0.0);
    let tol = gemm_bound(m, k, n, &criterion, BoundSchedule::Winograd, alpha, na, nb, beta, nc)
        + gemm_bound(m, k, n, &CutoffCriterion::Never, BoundSchedule::Classic, alpha, na, nb, beta, nc);
    Prepared { spec, data, reference, tol }
}

/// Reset the output buffer to the call's prior `C` (NaN when `β = 0`,
/// which `dgefmm` must overwrite without reading) and view it.
fn reset<'w>(p: &Prepared, work: &'w mut [f64]) -> MatMut<'w, f64> {
    let len = p.spec.m * p.spec.n;
    if p.spec.beta == 0.0 {
        work[..len].fill(f64::NAN);
    } else {
        work[..len].copy_from_slice(p.data.c0.as_slice());
    }
    MatMut::from_slice(&mut work[..len], p.spec.m, p.spec.n, p.spec.m.max(1))
}

/// Is the result in `work` within the call's tolerance of the reference?
/// NaN or infinity anywhere fails.
fn within_tol(p: &Prepared, work: &[f64]) -> bool {
    let got = &work[..p.spec.m * p.spec.n];
    got.iter().zip(p.reference.as_slice()).all(|(x, y)| (x - y).abs() <= p.tol)
}

fn call(cfg: &StrassenConfig, p: &Prepared, c: MatMut<'_, f64>) {
    let s = &p.spec;
    dgefmm(cfg, s.alpha, s.op_a, p.data.a.as_ref(), s.op_b, p.data.b.as_ref(), s.beta, c);
}

/// Time one untraced `dgefmm` call and check its result.
fn timed_call(
    cfg: &StrassenConfig,
    p: &Prepared,
    work: &mut [f64],
    report: &mut Report,
) -> (Instant, Duration) {
    let c = reset(p, work);
    let t = Instant::now();
    call(cfg, p, c);
    let dt = t.elapsed();
    report.check(within_tol(p, work));
    (t, dt)
}

/// Per-call traced state: one `TimedProbe` per call, re-installed on
/// every traced repetition so its aggregates accumulate.
struct Traced {
    probes: Vec<Option<TimedProbe>>,
    untraced: Duration,
    traced: Duration,
    gemm: Duration,
    flops: f64,
}

/// Run a library workload for `seconds` and fill `report` with the
/// end-to-end metrics, or (with `spans`) the per-layer metrics.
pub fn run(specs: &[CallSpec], seconds: f64, mut spans: Option<&mut SpanLog>, report: &mut Report) {
    let cfg = StrassenConfig::dgefmm();
    let prepared: Vec<Prepared> = specs.iter().map(|&s| prepare(&cfg, s)).collect();
    let mut work = vec![0.0f64; specs.iter().map(|s| s.m * s.n).max().unwrap_or(0)];
    // Warm-up pass: grows the arena and pack buffers, checked like any other.
    for p in &prepared {
        timed_call(&cfg, p, &mut work, report);
    }

    let mut traced = Traced {
        probes: (0..prepared.len()).map(|_| Some(TimedProbe::new())).collect(),
        untraced: Duration::ZERO,
        traced: Duration::ZERO,
        gemm: Duration::ZERO,
        flops: 0.0,
    };
    // Times at the reference host speed (see `speed`): each pass, and
    // each call of the pass; raw per-call times for the notes.
    let mut pass_latencies_us = Vec::new();
    let mut per_call_us: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut raw_us: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut speed = SpeedLog::default();
    let mut passes = 0u64;
    let pool_before = pool::pool_stats();
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let pass_start = Instant::now();
        let pass_id = spans.as_deref_mut().map_or(0, |log| log.push("pass", 0, 0, pass_start, pass_start));
        let mut pass_us = 0.0;
        for (i, p) in prepared.iter().enumerate() {
            speed.probe();
            let (t, dt) = timed_call(&cfg, p, &mut work, report);
            let us = dt.as_secs_f64() * 1e6;
            pass_us += us * speed.last_scale();
            per_call_us[i].push(us * speed.last_scale());
            raw_us[i].push(us);
            if let Some(log) = spans.as_deref_mut() {
                log.push("dgefmm", pass_id, 0, t, t + dt);
                traced_repetitions(&cfg, p, i, &mut work, &mut traced, log, pass_id, report);
                traced.untraced += dt;
                traced.flops += p.spec.flops();
            }
        }
        if let Some(log) = spans.as_deref_mut() {
            let end = log.ns(Instant::now());
            log.close(pass_id, end);
        }
        pass_latencies_us.push(pass_us);
        passes += 1;
    }
    let wall = start.elapsed();

    // A pass is the library workloads' request. Throughput takes one pass
    // at each call's median time: robust to the stalls a shared host
    // injects into single calls.
    let pass_flops: f64 = specs.iter().map(CallSpec::flops).sum();
    let pass_us: f64 = per_call_us.iter_mut().map(|v| median(v)).sum();
    let raw_pass_us: f64 = raw_us.iter_mut().map(|v| median(v)).sum();
    let (p50, p99) = windowed_p50_p99(&pass_latencies_us, LATENCY_WINDOWS);
    report.set("gflops", pass_flops / pass_us / 1e3);
    report.set("serve_rps", 1e6 / pass_us);
    report.set("serve.latency_us.p50", p50);
    report.set("serve.latency_us.p99", p99);
    report.set("host.probe_gops", speed.median_gops());
    report.notes.push(format!(
        "{passes} passes over {} calls, {:.2} s; unscaled {:.3} GFLOP/s at probe {:.3} Gop/s",
        specs.len(),
        wall.as_secs_f64(),
        pass_flops / raw_pass_us / 1e3,
        speed.median_gops()
    ));
    report.set(
        "workspace_mib",
        (strassen::tls_arena_capacity_elements::<f64>() + blas::level3::pack_buf_capacity_words()) as f64
            * 8.0
            / (1u64 << 20) as f64,
    );
    report.set("peak_rss_mib", peak_rss_mib());

    if spans.is_some() {
        layer_metrics(&cfg, &prepared, traced, passes, report);
        layers::pool_layer(report, &pool_before, wall);
        // The library workloads never touch the server.
        for name in [
            "serve.queue_us.p50",
            "serve.queue_us.p99",
            "serve.exec_us.p50",
            "serve.exec_us.p99",
            "serve.batch_mean",
            "serve.cycles",
            "serve.wait_cycles_max",
            "serve.rejected",
            "serve.gen_lag_us.max",
        ] {
            report.set(name, 0.0);
        }
    }
}

/// The traced repetitions of call `i`: the same call under its
/// `TimedProbe`, then `blas::gemm` on the same inputs, each checked.
#[allow(clippy::too_many_arguments)]
fn traced_repetitions(
    cfg: &StrassenConfig,
    p: &Prepared,
    i: usize,
    work: &mut [f64],
    traced: &mut Traced,
    log: &mut SpanLog,
    pass_id: u64,
    report: &mut Report,
) {
    let probe = traced.probes[i].take().expect("probe returned after every call");
    let c = reset(p, work);
    let t = Instant::now();
    let ((), probe) = trace::with_probe(probe, || call(cfg, p, c));
    let dt = t.elapsed();
    traced.probes[i] = Some(probe);
    traced.traced += dt;
    log.push("dgefmm.traced", pass_id, 0, t, t + dt);
    report.check(within_tol(p, work));

    let s = &p.spec;
    let c = reset(p, work);
    let t = Instant::now();
    blas::gemm(&GemmConfig::auto(), s.alpha, s.op_a, p.data.a.as_ref(), s.op_b, p.data.b.as_ref(), s.beta, c);
    let dt = t.elapsed();
    traced.gemm += dt;
    log.push("blas.gemm", pass_id, 0, t, t + dt);
    report.check(within_tol(p, work));
}

fn ms_per_pass(ns: u64, passes: u64) -> f64 {
    ns as f64 / 1e6 / passes as f64
}

fn layer_metrics(
    cfg: &StrassenConfig,
    prepared: &[Prepared],
    traced: Traced,
    passes: u64,
    report: &mut Report,
) {
    let profiles: Vec<Profile> =
        traced.probes.into_iter().map(|p| p.expect("probe").into_profile()).collect();
    let phase = |ph: Phase| profiles.iter().map(|p| p.phase_total(ph).ns).sum::<u64>();
    let sum = |f: &dyn Fn(&Profile) -> u64| profiles.iter().map(f).sum::<u64>();
    // Every pass runs the same calls, so per-pass counts are exact.
    let per_pass = |v: u64| (v / passes) as f64;

    let shapes: Vec<_> = prepared.iter().map(|p| (p.spec.m, p.spec.k, p.spec.n)).collect();
    let depths: Vec<u32> = shapes.iter().map(|&(m, k, n)| planned_depth(cfg, m, k, n)).collect();
    report.set("strassen.depth", depths.iter().copied().max().unwrap_or(0) as f64);
    report.set("strassen.leaf_calls", per_pass(sum(&|p| p.trace.gemm_calls() + 7 * p.trace.fused_nodes())));
    report.set("strassen.add_passes", per_pass(sum(&|p| p.trace.add_passes())));
    report.set(
        "strassen.peel_fixups",
        per_pass(sum(&|p| p.trace.ger_calls() + p.trace.gemv_calls() + p.trace.dot_calls())),
    );
    let total = sum(&|p| p.trace.total_ns);
    let other = sum(&|p| p.other_ns());
    report.set("strassen.call_ms", ms_per_pass(total, passes));
    report.set(
        "strassen.add_pass_ms",
        ms_per_pass(phase(Phase::Add) + phase(Phase::Copy) + phase(Phase::Scale) + phase(Phase::Pad), passes),
    );
    report.set("strassen.fused_ms", ms_per_pass(phase(Phase::Fused), passes));
    report.set("strassen.peel_ms", ms_per_pass(phase(Phase::Peel), passes));
    report.set("strassen.gemm_leaf_ms", ms_per_pass(phase(Phase::GemmLeaf), passes));
    report.set("strassen.staging_ms", ms_per_pass(sum(&|p| p.trace.staging_ns), passes));
    report.set("strassen.unattributed_ms", ms_per_pass(other, passes));
    report.set("strassen.unattributed_frac", other as f64 / total.max(1) as f64);
    report.set("strassen.speedup_vs_gemm", traced.gemm.as_secs_f64() / traced.untraced.as_secs_f64());
    report.set("blas.gemm.gflops", traced.flops / traced.gemm.as_secs_f64() / 1e9);

    let high_water = profiles.iter().map(|p| p.trace.ws_high_water).max().unwrap_or(0);
    let vs_table1 = profiles
        .iter()
        .zip(prepared)
        .map(|(p, c)| {
            let s = &c.spec;
            let bound = opcount::memory::dgefmm_bound(s.m as u128, s.k as u128, s.n as u128, s.beta == 0.0);
            p.trace.ws_high_water as f64 / bound
        })
        .fold(0.0, f64::max);
    report.set("strassen.workspace_elems", high_water as f64);
    report.set("strassen.workspace_vs_table1", vs_table1);
    report.set("trace.overhead", traced.traced.as_secs_f64() / traced.untraced.as_secs_f64() - 1.0);
    report.notes.push(format!(
        "strassen phases leave {:.2}% of traced dgefmm wall time unattributed",
        100.0 * other as f64 / total.max(1) as f64
    ));
    layers::blas_layer(report, &shapes, &depths);
}

/// Fresh-process set-up: pool spawn, the blocking probe, arena and pack
/// buffer growth, and the first call of the workload, to a checked
/// result. Returns the seconds from before the pool starts to the result
/// and the host-speed probe rate taken right after.
pub fn setup_child(spec: CallSpec) -> Result<(f64, f64), String> {
    let data = spec.materialize();
    let mut c = data.c0.clone();
    let t = Instant::now();
    pool::set_num_threads(crate::POOL_WORKERS).map_err(|e| e.to_string())?;
    pool::current_num_threads();
    let cfg = StrassenConfig::dgefmm();
    let s = &spec;
    dgefmm(&cfg, s.alpha, s.op_a, data.a.as_ref(), s.op_b, data.b.as_ref(), s.beta, c.as_mut());
    let dt = t.elapsed().as_secs_f64();
    let p = prepare(&cfg, spec);
    if within_tol(&p, c.as_slice()) {
        Ok((dt, crate::speed::probe_gops()))
    } else {
        Err(format!("first call {}x{}x{} outside tolerance", s.m, s.k, s.n))
    }
}
