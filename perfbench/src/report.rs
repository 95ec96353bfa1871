//! Metric registry, the printed report, the host record and the span log.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One metric the benchmark prints: its name and unit as `BENCHMARK.json`
/// lists them, which way is better, and a note printed beside it — what
/// an end-to-end metric measures, or which end-to-end metric a per-layer
/// metric should move on which workloads.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str, moves: &'static str) -> Spec {
    Spec { name, unit, better, moves }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec(
        "gflops",
        "GFLOP/s",
        "higher",
        "library: one pass at median scaled call times; serve: serve_rps x mean request flops",
    ),
    spec("serve_rps", "1/s", "higher", "passes (library) or requests (serve) completed per second"),
    spec("ok_frac", "ratio", "higher", "1 − failed_frac: outputs that passed their check / attempted"),
    spec("setup_s", "s", "lower", "fresh process to first checked result (scaled), median of 7"),
    spec("workspace_mib", "MiB", "lower", "workspace arena plus pack buffers after the workload's products"),
    spec("peak_rss_mib", "MiB", "lower", "peak resident set of the benchmark process"),
];

/// Per-layer metrics, from the traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("strassen.depth", "count", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.leaf_calls", "count", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.add_passes", "count", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.peel_fixups", "count", "lower", "gflops on rect_odd_update"),
    spec("strassen.call_ms", "ms", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.add_pass_ms", "ms", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.fused_ms", "ms", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.peel_ms", "ms", "lower", "gflops on rect_odd_update"),
    spec("strassen.gemm_leaf_ms", "ms", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.staging_ms", "ms", "lower", "gflops on rect_odd_update"),
    spec("strassen.unattributed_ms", "ms", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.unattributed_frac", "ratio", "lower", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.speedup_vs_gemm", "ratio", "higher", "gflops on square_pow2, rect_odd_update"),
    spec("strassen.workspace_elems", "count", "lower", "workspace_mib on square_pow2, rect_odd_update"),
    spec("strassen.workspace_vs_table1", "ratio", "lower", "workspace_mib on square_pow2, rect_odd_update"),
    spec("blas.gemm.gflops", "GFLOP/s", "higher", "gflops, serve_rps on all workloads"),
    spec("blas.gemm.leaf_gflops", "GFLOP/s", "higher", "gflops, serve_rps on all workloads"),
    spec("blas.gemm.peak_gflops", "GFLOP/s", "higher", "gflops, serve_rps on all workloads"),
    spec("blas.add.gbps", "GB/s", "higher", "gflops on square_pow2, rect_odd_update"),
    spec("blas.stream.gbps", "GB/s", "higher", "ceiling for blas.add.gbps (no ratio: arrays < 4x LLC)"),
    spec("blas.fused.pack_a_gbps", "GB/s", "higher", "gflops on square_pow2, rect_odd_update"),
    spec("blas.fused.pack_b_gbps", "GB/s", "higher", "gflops on square_pow2, rect_odd_update"),
    spec("blas.fused.gflops", "GFLOP/s", "higher", "gflops on square_pow2, rect_odd_update"),
    spec("blas.ger_gbps", "GB/s", "higher", "gflops on rect_odd_update"),
    spec("blas.gemv_gbps", "GB/s", "higher", "gflops on rect_odd_update"),
    spec("pool.jobs", "count", "higher", "serve_rps, serve.latency_us.p99 on serve_small"),
    spec("pool.steals", "count", "lower", "serve_rps, serve.latency_us.p99 on serve_small"),
    spec("pool.helper_pops", "count", "higher", "serve_rps, serve.latency_us.p99 on serve_small"),
    spec("pool.utilization", "ratio", "higher", "serve_rps, serve.latency_us.p99 on serve_small"),
    spec(
        "serve.latency_us.p50",
        "us",
        "lower",
        "pass (scaled) or open-loop request from due time; not gated",
    ),
    spec("serve.latency_us.p99", "us", "lower", "tail of the same samples; not gated (see README)"),
    spec("serve.queue_us.p50", "us", "lower", "serve.latency_us.p50 on serve_small"),
    spec("serve.queue_us.p99", "us", "lower", "serve.latency_us.p99 on serve_small"),
    spec("serve.exec_us.p50", "us", "lower", "serve_rps, serve.latency_us.p50 on serve_small"),
    spec("serve.exec_us.p99", "us", "lower", "serve_rps, serve.latency_us.p99 on serve_small"),
    spec("serve.batch_mean", "count", "higher", "serve_rps on serve_small"),
    spec("serve.cycles", "count", "lower", "serve_rps on serve_small"),
    spec("serve.wait_cycles_max", "count", "lower", "serve.latency_us.p99 on serve_small"),
    spec("serve.rejected", "count", "lower", "ok_frac on serve_small"),
    spec("serve.gen_lag_us.max", "us", "lower", "validity of serve.latency_us.p50 and .p99 on serve_small"),
    spec("trace.overhead", "ratio", "lower", "traced run against the untraced run, all workloads"),
    spec(
        "host.probe_gops",
        "Gop/s",
        "higher",
        "none: the host-speed yardstick timed end-to-end metrics are scaled by",
    ),
];

/// Metric values of one run plus its correctness tally.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form context lines printed ahead of the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The printed report: context lines, one line per metric of `specs`
    /// with its unit, and last the one-line JSON result.
    ///
    /// # Panics
    /// If a metric of `specs` was never set — a benchmark bug.
    pub fn render(&self, specs: &[Spec]) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let mut json = String::new();
        for (i, s) in specs.iter().enumerate() {
            let v = *self.values.get(s.name).unwrap_or_else(|| panic!("metric {} was not measured", s.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", s.name);
            let _ = writeln!(out, "{:<28} {:>20} {:<8} {:<6} {}", s.name, v, s.unit, s.better, s.moves);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", s.name, s.unit);
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        out
    }
}

/// Median and 99th percentile (nearest rank) of `samples`.
pub fn p50_p99(samples: &mut [f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    samples.sort_by(f64::total_cmp);
    let rank = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1];
    (rank(0.5), rank(0.99))
}

/// Median and 99th percentile of a run, made robust to the short stalls
/// a shared host injects: `samples` (in arrival order) is cut into
/// `windows` consecutive chunks, each chunk's percentiles are taken, and
/// the median over the chunks is returned.
pub fn windowed_p50_p99(samples: &[f64], windows: usize) -> (f64, f64) {
    let chunk = samples.len().div_ceil(windows.max(1)).max(1);
    let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) =
        samples.chunks(chunk).map(|c| p50_p99(&mut c.to_vec())).unzip();
    (median(&mut p50s), median(&mut p99s))
}

/// The median of `values` (the mean of the two middle ones for an even
/// count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// The mean of the middle half of `values` (the interquartile mean): it
/// averages more of them than the median does and still ignores the
/// outlying quarters at either end.
pub fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// One line describing the host: core counts, pool size, kernel class,
/// cache sizes and the derived GEMM blocking.
pub fn host_line() -> String {
    let cache = blas::level3::CacheInfo::detect();
    let bp = blas::level3::BlockingParams::auto_f64();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} physical_cores={} pool_workers={} kernel={:?} l1d={}K l2={}K l3={}K \
         mc={} kc={} nc={}",
        pool::machine_threads(),
        pool::current_num_threads(),
        blas::level3::kernel_class(),
        cache.l1d / 1024,
        cache.l2 / 1024,
        cache.l3 / 1024,
        bp.mc,
        bp.kc,
        bp.nc
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A span recorded from the benchmark's side of a call into a layer.
pub struct Span {
    pub id: u64,
    /// Span that caused this one (0 = none).
    pub parent: u64,
    /// Served-request id shared by every span of one request (0 = none).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of a traced run, written out once at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Vec::new(), cap, dropped: 0 }
    }

    /// Nanoseconds from the log's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span and return its id (0 if the log is full).
    pub fn push(&mut self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(name, parent, req, start_ns, end_ns)
    }

    pub fn push_ns(&mut self, name: &'static str, parent: u64, req: u64, start_ns: u64, end_ns: u64) -> u64 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        id
    }

    /// Set the end of span `id` (a no-op for 0, the full-log id).
    pub fn close(&mut self, id: u64, end_ns: u64) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as JSON lines (one object per span) under
    /// `perfbench/out/`, returning the path written.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/spans-{workload}-{seed}.jsonl");
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name) && s.name.len() <= 64, "bad name {}", s.name);
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(!s.unit.is_empty() && s.unit.len() <= 16, "bad unit for {}", s.name);
            assert!(s.better == "higher" || s.better == "lower");
        }
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s" && s.unit == "s" && s.better == "lower"));
    }

    #[test]
    fn every_metric_prints_with_its_unit() {
        for specs in [END_TO_END, PER_LAYER] {
            let mut r = Report::default();
            for (i, s) in specs.iter().enumerate() {
                r.set(s.name, 1.5 + i as f64);
            }
            r.check(true);
            let text = r.render(specs);
            let last = text.lines().last().unwrap();
            let doc = Json::parse(last).expect("last line is one JSON object");
            assert_eq!(doc.get("correct").map(|j| matches!(j, Json::Bool(true))), Some(true));
            assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Object(metrics)) = doc.get("metrics") else { panic!("metrics object") };
            assert_eq!(metrics.len(), specs.len());
            for (s, (name, m)) in specs.iter().zip(metrics) {
                assert_eq!(name, s.name);
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(s.unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(text.lines().any(|l| l.starts_with(s.name) && l.contains(s.unit)));
            }
        }
    }

    #[test]
    fn middle_mean_drops_the_outer_quarters() {
        assert_eq!(middle_mean(&mut [100.0, 2.0, 4.0, -50.0]), 3.0);
        assert_eq!(middle_mean(&mut [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1e9]), 4.5);
        assert_eq!(middle_mean(&mut [7.0]), 7.0);
        assert_eq!(middle_mean(&mut []), 0.0);
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let mut r = Report::default();
        for s in END_TO_END {
            r.set(s.name, 1.0);
        }
        r.check(true);
        r.check(false);
        let last = r.render(END_TO_END).lines().last().unwrap().to_string();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    /// `BENCHMARK.json` names exactly these metrics, with these units and
    /// directions, and the workloads this benchmark runs.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = doc.get(key).and_then(Json::items).expect(key);
            assert_eq!(items.len(), specs.len(), "{key}");
            for (item, s) in items.iter().zip(specs) {
                assert_eq!(item.get("name").and_then(Json::as_str), Some(s.name));
                assert_eq!(item.get("unit").and_then(Json::as_str), Some(s.unit));
                assert_eq!(item.get("better").and_then(Json::as_str), Some(s.better));
                if key == "end_to_end" {
                    let bound = item.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{}", s.name);
                }
            }
        }
        let names: Vec<_> = doc
            .get("workloads")
            .and_then(Json::items)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(names, crate::workload::WORKLOADS);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p50_p99(&mut v), (50.0, 99.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // One stalled window out of five does not move the result.
        let mut run: Vec<f64> = (0..500).map(|i| f64::from(i % 100 + 1)).collect();
        run[150..200].fill(1e6);
        assert_eq!(windowed_p50_p99(&run, 5), (50.0, 99.0));
    }
}
