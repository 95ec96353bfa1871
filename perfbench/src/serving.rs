//! The `serve_small` workload: small mixed shapes sent through
//! `serve::Server` with `ServerConfig::default()`, first as an open loop
//! at a fixed Poisson rate, then as a closed loop with a bounded window.
//!
//! One client thread does everything: it sleeps to each due time (never
//! spins), harvests completions with `Ticket::try_take`, and checks each
//! result bitwise against an inline `dgefmm` replay under
//! `server.config_for(m, k, n)` — the serving determinism contract.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use matrix::Matrix;
use serve::{Completed, Request, Server, ServerConfig, Ticket};
use strassen::{dgefmm, planned_depth, trace, Phase, TimedProbe};

use crate::layers;
use crate::report::{middle_mean, p50_p99, peak_rss_mib, windowed_p50_p99, Report, SpanLog};
use crate::speed::{probe_gops, SpeedLog};
use crate::POOL_WORKERS;
use crate::workload::{
    closed_picks, serve_pool, Arrivals, CallSpec, ServeOperands, OPEN_LOOP_RATE, SERVE_POOL,
};

/// Outstanding tickets the closed loop keeps (half the default queue,
/// so admission never sheds).
const WINDOW: usize = 128;

/// Share of the run spent in the open-loop phase; the closed loop, whose
/// rate drifts more between runs, gets the rest.
const OPEN_SHARE: f64 = 0.3;

/// Windows the open loop is cut into; its reported latency percentiles
/// are medians over them (see [`windowed_p50_p99`]).
const WINDOWS: usize = 10;

/// Segments the measured closed loop is cut into. The host-speed probe
/// runs between them while the server is idle, and the reported rate is
/// the mean of the middle half of the segments' scaled rates.
const SEGMENTS: usize = 20;

/// Unmeasured closed-loop traffic before the measured phases.
const WARMUP: Duration = Duration::from_secs(5);

/// Inline replays per pool entry in the traced strassen/blas replay.
const REPLAY_PASSES: u64 = 3;

struct Pool {
    specs: Vec<CallSpec>,
    operands: ServeOperands,
    /// [`digest`] of each entry's inline replay.
    expected: Vec<u64>,
}

impl Pool {
    fn new(server: &Server, seed: u64) -> Pool {
        let specs = serve_pool(seed);
        let operands = ServeOperands::new(seed);
        let expected = specs.iter().map(|s| digest(&replay(server, s, &request(&operands, s)))).collect();
        Pool { specs, operands, expected }
    }

    /// A fresh request for pool entry `idx` (requests own their operands).
    fn request(&self, idx: usize) -> Request {
        request(&self.operands, &self.specs[idx])
    }

    /// Bitwise equality with the inline replay, by digest.
    fn matches(&self, idx: usize, done: &Completed) -> bool {
        digest(&done.c) == self.expected[idx]
    }
}

/// A 64-bit digest of a matrix's shape and bit patterns, so that the
/// expected result of every pool entry fits in one word. Each of four
/// lanes takes every fourth element through xor, an odd multiply and a
/// rotation — a bijection of the lane — so two results that differ in
/// one element always differ in that lane; the lanes are then folded.
fn digest(c: &Matrix<f64>) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |lane: u64, x: u64| (lane ^ x).wrapping_mul(K).rotate_left(31);
    let mut lanes = [c.nrows() as u64, c.ncols() as u64, 1, 2];
    let words = c.as_slice();
    let mut chunks = words.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, x.to_bits());
        }
    }
    for (lane, x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = step(*lane, x.to_bits());
    }
    lanes.iter().fold(words.len() as u64, |h, &lane| step(h, lane))
}

fn bitwise_eq(got: &Matrix<f64>, want: &Matrix<f64>) -> bool {
    got.nrows() == want.nrows()
        && got.ncols() == want.ncols()
        && got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn request(operands: &ServeOperands, spec: &CallSpec) -> Request {
    let (a, b) = operands.operands(spec);
    Request { alpha: spec.alpha, op_a: spec.op_a, a, op_b: spec.op_b, b }
}

fn replay(server: &Server, s: &CallSpec, r: &Request) -> Matrix<f64> {
    let mut c = Matrix::zeros(s.m, s.n);
    dgefmm(
        &server.config_for(s.m, s.k, s.n),
        r.alpha,
        r.op_a,
        r.a.as_ref(),
        r.op_b,
        r.b.as_ref(),
        0.0,
        c.as_mut(),
    );
    c
}

/// What one phase observed.
struct Observed {
    start: Instant,
    /// Flops of the completed requests.
    flops: f64,
    completed: u64,
    /// Whether the per-request samples below are kept. Only the open
    /// loop keeps them: a closed loop completes millions of requests, and
    /// growing vectors that large would load the client thread and the
    /// heap the server allocates from.
    keep_samples: bool,
    /// Latency from due time, µs.
    latency_us: Vec<f64>,
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
    batch_sum: f64,
    wait_cycles_max: u64,
    lag_max_us: f64,
    wall: Duration,
}

/// A submitted request: its pool index, request id, and when it was due
/// and submitted.
#[derive(Clone, Copy)]
struct Meta {
    idx: usize,
    req: u64,
    due: Instant,
    submitted: Instant,
}

struct InFlight {
    ticket: Ticket,
    meta: Meta,
}

struct Client<'a> {
    server: &'a Server,
    pool: &'a Pool,
    spans: Option<&'a mut SpanLog>,
    next_req: u64,
}

impl Observed {
    fn new(keep_samples: bool) -> Observed {
        Observed {
            start: Instant::now(),
            flops: 0.0,
            completed: 0,
            keep_samples,
            latency_us: Vec::new(),
            queue_us: Vec::new(),
            exec_us: Vec::new(),
            batch_sum: 0.0,
            wait_cycles_max: 0,
            lag_max_us: 0.0,
            wall: Duration::ZERO,
        }
    }

    /// Completions per second over the phase.
    fn rate(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }
}

impl Client<'_> {
    /// Submit pool entry `idx` (already cloned into `req`) that was due
    /// at `due`. A rejection counts as a failed output.
    fn submit(&mut self, idx: usize, req: Request, due: Instant, report: &mut Report) -> Option<InFlight> {
        self.next_req += 1;
        let submitted = Instant::now();
        match self.server.submit(req) {
            Ok(ticket) => Some(InFlight { ticket, meta: Meta { idx, req: self.next_req, due, submitted } }),
            Err(_) => {
                report.check(false);
                None
            }
        }
    }

    /// Check a completion and file its timings.
    fn complete(&mut self, f: Meta, done: Completed, phase: &mut Observed, report: &mut Report) {
        report.check(self.pool.matches(f.idx, &done));
        let lag_ns = f.submitted.saturating_duration_since(f.due).as_nanos() as u64;
        phase.flops += self.pool.specs[f.idx].flops();
        phase.completed += 1;
        if phase.keep_samples {
            phase.latency_us.push((lag_ns + done.latency_ns) as f64 / 1e3);
            phase.queue_us.push(done.queue_ns as f64 / 1e3);
            phase.exec_us.push(done.exec_ns as f64 / 1e3);
        }
        phase.batch_sum += done.batch as f64;
        phase.wait_cycles_max = phase.wait_cycles_max.max(done.wait_cycles);
        if let Some(log) = self.spans.as_deref_mut() {
            let (due, sub) = (log.ns(f.due), log.ns(f.submitted));
            let id = log.push_ns("serve.request", 0, f.req, due, sub + done.latency_ns);
            log.push_ns("serve.submit_lag", id, f.req, due, sub);
            log.push_ns("serve.queue", id, f.req, sub, sub + done.queue_ns);
            log.push_ns("serve.exec", id, f.req, sub + done.queue_ns, sub + done.queue_ns + done.exec_ns);
        }
    }

    /// Open loop: Poisson arrivals at [`OPEN_LOOP_RATE`] for `duration`.
    fn open_loop(&mut self, seed: u64, duration: Duration, report: &mut Report) -> Observed {
        precise_sleep();
        let mut phase = Observed::new(true);
        let mut outstanding: Vec<InFlight> = Vec::new();
        let start = phase.start;
        for (due_ns, idx) in Arrivals::new(seed) {
            let due = start + Duration::from_nanos(due_ns);
            if due_ns as f64 >= duration.as_nanos() as f64 {
                break;
            }
            // Prepare the request before sleeping so the copy is off the
            // submit path; harvest whatever finished meanwhile.
            let req = self.pool.request(idx);
            let mut i = 0;
            while i < outstanding.len() {
                if let Some(done) = outstanding[i].ticket.try_take() {
                    let f = outstanding.swap_remove(i);
                    self.complete(f.meta, done, &mut phase, report);
                } else {
                    i += 1;
                }
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6;
            phase.lag_max_us = phase.lag_max_us.max(lag);
            if let Some(f) = self.submit(idx, req, due, report) {
                outstanding.push(f);
            }
        }
        for f in outstanding {
            let done = f.ticket.wait();
            self.complete(f.meta, done, &mut phase, report);
        }
        phase.wall = start.elapsed();
        phase
    }

    /// Closed loop: keep [`WINDOW`] tickets outstanding for `duration`,
    /// waiting on the oldest before submitting the next.
    fn closed_loop(
        &mut self,
        picks: &mut impl Iterator<Item = usize>,
        duration: Duration,
        report: &mut Report,
    ) -> Observed {
        let mut phase = Observed::new(false);
        let mut window: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        let start = phase.start;
        loop {
            let submitting = start.elapsed() < duration;
            if submitting && window.len() < WINDOW {
                if let Some(idx) = picks.next() {
                    let req = self.pool.request(idx);
                    let now = Instant::now();
                    if let Some(f) = self.submit(idx, req, now, report) {
                        window.push_back(f);
                    }
                    continue;
                }
            }
            let Some(f) = window.pop_front() else { break };
            let done = f.ticket.wait();
            self.complete(f.meta, done, &mut phase, report);
        }
        phase.wall = start.elapsed();
        phase
    }

    /// Closed loop for `duration` in [`SEGMENTS`] equal parts, the host
    /// probed with every pool worker's core busy before the first part
    /// and after each. Returns the merged phase and each part's rate at
    /// the reference host speed: a rate `r` between probes reading `g0`
    /// and `g1` Gop/s is reported as `r · 2 · REFERENCE_GOPS / (g0 + g1)`.
    fn segmented_closed_loop(
        &mut self,
        picks: &mut impl Iterator<Item = usize>,
        duration: Duration,
        speed: &mut SpeedLog,
        report: &mut Report,
    ) -> (Observed, Vec<f64>) {
        speed.probe_cores(POOL_WORKERS);
        let mut before = speed.last_scale();
        let mut scaled = Vec::with_capacity(SEGMENTS);
        let mut phase: Option<Observed> = None;
        for _ in 0..SEGMENTS {
            let part = self.closed_loop(picks, duration / SEGMENTS as u32, report);
            speed.probe_cores(POOL_WORKERS);
            let after = speed.last_scale();
            scaled.push(part.rate() / (0.5 * (before + after)));
            before = after;
            phase = Some(match phase {
                Some(p) => merge(p, part),
                None => part,
            });
        }
        (phase.expect("SEGMENTS > 0"), scaled)
    }
}

/// Run `serve_small` for `seconds` and fill `report` with the end-to-end
/// metrics, or (with `spans`) the per-layer metrics.
pub fn run(seed: u64, seconds: f64, spans: Option<&mut SpanLog>, report: &mut Report) {
    let server = Server::start(ServerConfig::default());
    let pool = Pool::new(&server, seed);
    let traced = spans.is_some();
    let mut client = Client { server: &server, pool: &pool, spans: None, next_req: 0 };

    // Warm-up: every pool entry once, closed loop, checked.
    let mut warm = 0..SERVE_POOL;
    client.closed_loop(&mut warm, Duration::from_secs(3600), report);
    // Then unmeasured traffic until the heap and the pool settle: without
    // it the closed-loop rate climbs by up to half over the first 20 s.
    client.closed_loop(&mut closed_picks(!seed), WARMUP, report);

    // Host-speed probes before the open loop and around each closed-loop
    // segment, while the server is idle; the closed-loop rates are scaled
    // by them.
    let mut speed = SpeedLog::default();
    speed.probe_cores(POOL_WORKERS);
    client.spans = spans;
    let open_time = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let open = client.open_loop(seed, open_time, report);

    let closed_time = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let mut picks = closed_picks(seed);
    let stats_before = server.stats();
    let pool_before = pool::pool_stats();
    let spans = client.spans.take();
    // Traced, half the closed loop runs untraced and half records spans:
    // the difference in rate is the span log's overhead.
    let plain_time = if traced { closed_time / 2 } else { closed_time };
    let (plain, mut scaled_rates) = client.segmented_closed_loop(&mut picks, plain_time, &mut speed, report);
    let (closed, overhead) = if traced {
        client.spans = spans;
        let logged = client.closed_loop(&mut picks, closed_time / 2, report);
        let overhead = plain.rate() / logged.rate() - 1.0;
        (merge(plain, logged), overhead)
    } else {
        (plain, 0.0)
    };
    let stats = server.stats();
    let rps = middle_mean(&mut scaled_rates);
    let mean_flops = closed.flops / closed.completed.max(1) as f64;
    let (p50, p99) = windowed_p50_p99(&open.latency_us, WINDOWS);
    let Observed { latency_us: open_latency, queue_us: mut queue, exec_us: mut exec, .. } = open;
    report.set("gflops", rps * mean_flops / 1e9);
    report.set("serve_rps", rps);
    report.set("serve.latency_us.p50", p50);
    report.set("serve.latency_us.p99", p99);
    report.set("host.probe_gops", speed.median_gops());
    let arena = stats
        .arena_high_water
        .values()
        .copied()
        .max()
        .unwrap_or(0)
        .max(strassen::tls_arena_capacity_elements::<f64>());
    report.set(
        "workspace_mib",
        (arena + blas::level3::pack_buf_capacity_words()) as f64 * 8.0 / (1u64 << 20) as f64,
    );
    report.set("peak_rss_mib", peak_rss_mib());
    report.notes.push(format!(
        "open loop: {} requests at {OPEN_LOOP_RATE} req/s over {:.2} s (latency from due time; generator lag max {:.1} us); \
         closed loop: {} requests, window {WINDOW}, {:.2} s, {:.0} req/s unscaled; host probe {:.3} Gop/s per core",
        open_latency.len(),
        open.wall.as_secs_f64(),
        open.lag_max_us,
        closed.completed,
        closed.wall.as_secs_f64(),
        closed.rate(),
        speed.median_gops()
    ));

    if traced {
        let (q50, q99) = p50_p99(&mut queue);
        let (e50, e99) = p50_p99(&mut exec);
        report.set("serve.queue_us.p50", q50);
        report.set("serve.queue_us.p99", q99);
        report.set("serve.exec_us.p50", e50);
        report.set("serve.exec_us.p99", e99);
        report.set("serve.batch_mean", closed.batch_sum / closed.completed.max(1) as f64);
        report.set("serve.cycles", (stats.batches - stats_before.batches) as f64);
        report.set("serve.wait_cycles_max", open.wait_cycles_max.max(closed.wait_cycles_max) as f64);
        report.set("serve.rejected", (stats.rejected_full + stats.rejected_shutdown) as f64);
        report.set("serve.gen_lag_us.max", open.lag_max_us);
        report.set("trace.overhead", overhead);
        layers::pool_layer(report, &pool_before, closed.wall);
        replay_layers(&server, &pool, report);
    }
    let final_stats = server.shutdown();
    report.notes.push(format!(
        "server: {} completed, {} dispatch cycles",
        final_stats.completed, final_stats.batches
    ));
}

/// Shrink this thread's timer slack from the default 50 µs to 1 µs, so
/// the client's sleeps end close to each due time instead of adding up to
/// 50 µs to every open-loop latency. Best effort: on failure the lag
/// still shows in `serve.gen_lag_us.max`.
#[cfg(target_os = "linux")]
fn precise_sleep() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes
    // only the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleep() {}

fn merge(a: Observed, b: Observed) -> Observed {
    let cat = |mut x: Vec<f64>, y: Vec<f64>| {
        x.extend(y);
        x
    };
    Observed {
        start: a.start,
        flops: a.flops + b.flops,
        completed: a.completed + b.completed,
        keep_samples: a.keep_samples,
        latency_us: cat(a.latency_us, b.latency_us),
        queue_us: cat(a.queue_us, b.queue_us),
        exec_us: cat(a.exec_us, b.exec_us),
        batch_sum: a.batch_sum + b.batch_sum,
        wait_cycles_max: a.wait_cycles_max.max(b.wait_cycles_max),
        lag_max_us: a.lag_max_us.max(b.lag_max_us),
        wall: a.wall + b.wall,
    }
}

/// `strassen.*` and `blas.*` for served traffic: the pool replayed inline
/// on this thread under a `TimedProbe`, next to plain `blas::gemm` on the
/// same operands.
fn replay_layers(server: &Server, pool: &Pool, report: &mut Report) {
    let mut probe = TimedProbe::new();
    let (mut fmm, mut gemm, mut flops) = (Duration::ZERO, Duration::ZERO, 0.0);
    for _ in 0..REPLAY_PASSES {
        for (i, s) in pool.specs.iter().enumerate() {
            let r = pool.request(i);
            let cfg = server.config_for(s.m, s.k, s.n);
            let mut c = Matrix::<f64>::zeros(s.m, s.n);
            let t = Instant::now();
            let ((), p) = trace::with_probe(probe, || {
                dgefmm(&cfg, r.alpha, r.op_a, r.a.as_ref(), r.op_b, r.b.as_ref(), 0.0, c.as_mut())
            });
            fmm += t.elapsed();
            probe = p;
            let t = Instant::now();
            blas::gemm(&cfg.gemm, r.alpha, r.op_a, r.a.as_ref(), r.op_b, r.b.as_ref(), 0.0, c.as_mut());
            gemm += t.elapsed();
            flops += s.flops();
        }
    }
    let prof = probe.into_profile();
    let tr = &prof.trace;
    let per_pass = |v: u64| (v / REPLAY_PASSES) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / REPLAY_PASSES as f64;
    let shapes: Vec<_> = pool.specs.iter().map(|s| (s.m, s.k, s.n)).collect();
    let depths: Vec<u32> =
        shapes.iter().map(|&(m, k, n)| planned_depth(&server.config_for(m, k, n), m, k, n)).collect();
    report.set("strassen.depth", depths.iter().copied().max().unwrap_or(0) as f64);
    report.set("strassen.leaf_calls", per_pass(tr.gemm_calls() + 7 * tr.fused_nodes()));
    report.set("strassen.add_passes", per_pass(tr.add_passes()));
    report.set("strassen.peel_fixups", per_pass(tr.ger_calls() + tr.gemv_calls() + tr.dot_calls()));
    report.set("strassen.call_ms", ms(tr.total_ns));
    let phase = |ph: Phase| prof.phase_total(ph).ns;
    report.set(
        "strassen.add_pass_ms",
        ms(phase(Phase::Add) + phase(Phase::Copy) + phase(Phase::Scale) + phase(Phase::Pad)),
    );
    report.set("strassen.fused_ms", ms(phase(Phase::Fused)));
    report.set("strassen.peel_ms", ms(phase(Phase::Peel)));
    report.set("strassen.gemm_leaf_ms", ms(phase(Phase::GemmLeaf)));
    report.set("strassen.staging_ms", ms(tr.staging_ns));
    report.set("strassen.unattributed_ms", ms(prof.other_ns()));
    report.set("strassen.unattributed_frac", prof.other_ns() as f64 / tr.total_ns.max(1) as f64);
    report.set("strassen.speedup_vs_gemm", gemm.as_secs_f64() / fmm.as_secs_f64());
    report.set("blas.gemm.gflops", flops / gemm.as_secs_f64() / 1e9);
    report.set("strassen.workspace_elems", tr.ws_high_water as f64);
    let bound = shapes
        .iter()
        .map(|&(m, k, n)| opcount::memory::dgefmm_bound(m as u128, k as u128, n as u128, true))
        .fold(0.0, f64::max);
    report.set("strassen.workspace_vs_table1", tr.ws_high_water as f64 / bound);
    report.notes.push(format!(
        "strassen phases leave {:.2}% of traced dgefmm wall time unattributed (inline replay of the request pool)",
        100.0 * prof.other_ns() as f64 / tr.total_ns.max(1) as f64
    ));
    layers::blas_layer(report, &shapes, &depths);
}

/// Fresh-process set-up: pool spawn, `Server::start` (machine profile and
/// tune cache), and the first request, to a checked result.
pub fn setup_child(seed: u64) -> Result<(f64, f64), String> {
    let spec = serve_pool(seed)[0];
    let req = request(&ServeOperands::new(seed), &spec);
    let t = Instant::now();
    pool::set_num_threads(crate::POOL_WORKERS).map_err(|e| e.to_string())?;
    let server = Server::start(ServerConfig::default());
    let done = server.submit(req.clone()).map_err(|r| format!("{:?}", r.reason))?.wait();
    let dt = t.elapsed().as_secs_f64();
    let want = replay(&server, &spec, &req);
    server.shutdown();
    if bitwise_eq(&done.c, &want) {
        Ok((dt, probe_gops()))
    } else {
        Err("first served result differs from the inline replay".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tells_apart_one_changed_element_and_the_shape() {
        let a = matrix::random::uniform(7, 5, 3);
        let base = digest(&a);
        assert_eq!(digest(&a.clone()), base);
        for idx in [0, 3, 34] {
            let mut b = a.clone();
            let x = &mut b.as_mut_slice()[idx];
            *x = f64::from_bits(x.to_bits() ^ 1);
            assert_ne!(digest(&b), base, "element {idx}");
        }
        let t = Matrix::from_fn(5, 7, |i, j| a.as_slice()[i * 7 + j]);
        assert_ne!(digest(&t), base);
    }
}
