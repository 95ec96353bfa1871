//! Per-layer measurements of the `blas` and `pool` crates, timed from
//! the outside around calls into their public functions.
//!
//! Rates are medians over short rounds; byte rates count *computed*
//! bytes (array sizes × reads and writes), not measured memory traffic.

use std::hint::black_box;
use std::time::{Duration, Instant};

use blas::level3::fused::{pack_a_sum, pack_b_sum};
use blas::level3::{gemm_fused, DestSpec, SumOperand, MR, NR};
use blas::{GemmConfig, Op, VecMut, VecRef};
use matrix::{random, Matrix};

use crate::report::{median, Report};

/// Time budget of one per-layer rate.
const BUDGET: Duration = Duration::from_millis(150);

/// Stream arrays: 64 MiB each. The rule of thumb asks for 4× the LLC,
/// which on hosts with hundreds of MiB of LLC would need gigabytes, so
/// `blas.stream.gbps` is reported without a ratio to it.
const STREAM_ELEMS: usize = 8 << 20;

/// Run `f` (which does `work` units per call) in rounds until `BUDGET`
/// has passed and return the median rate in units per second.
fn rate(work: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily grown buffers
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed() < BUDGET {
        let t = Instant::now();
        f();
        rates.push(work / t.elapsed().as_secs_f64().max(1e-9));
    }
    median(&mut rates)
}

fn operands(shapes: &[(usize, usize, usize)]) -> Vec<(Matrix<f64>, Matrix<f64>, Matrix<f64>)> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| {
            let s = 9000 + i as u64;
            (random::uniform(m, k, s), random::uniform(k, n, s + 1), Matrix::zeros(m, n))
        })
        .collect()
}

/// GFLOP/s of `blas::gemm` with `GemmConfig::auto()` over `shapes`.
fn gemm_gflops(shapes: &[(usize, usize, usize)]) -> f64 {
    let cfg = GemmConfig::auto();
    let mut ops = operands(shapes);
    let flops: f64 = shapes.iter().map(|&(m, k, n)| 2.0 * (m * k * n) as f64).sum();
    rate(flops, || {
        for (a, b, c) in ops.iter_mut() {
            blas::gemm(&cfg, 1.0, Op::NoTrans, a.as_ref(), Op::NoTrans, b.as_ref(), 0.0, c.as_mut());
        }
        black_box(&ops);
    }) / 1e9
}

/// In-cache GEMM ceiling: a product whose operands fit in L2.
fn peak_gflops() -> f64 {
    let kc = GemmConfig::auto().kc;
    gemm_gflops(&[(8 * MR, kc, 16 * NR)])
}

/// Add-pass bandwidth of `blas::add::add_into` on `quads` (rows, cols),
/// in computed bytes (two reads and one write per element).
fn add_gbps(quads: &[(usize, usize)]) -> f64 {
    let mut mats: Vec<_> = quads
        .iter()
        .map(|&(r, c)| {
            (random::uniform::<f64>(r, c, 1), random::uniform::<f64>(r, c, 2), Matrix::zeros(r, c))
        })
        .collect();
    let bytes: f64 = quads.iter().map(|&(r, c)| 24.0 * (r * c) as f64).sum();
    rate(bytes, || {
        for (a, b, c) in mats.iter_mut() {
            blas::add::add_into(c.as_mut(), a.as_ref(), b.as_ref());
        }
        black_box(&mats);
    }) / 1e9
}

/// Streaming ceiling: `add_into` over three arrays of [`STREAM_ELEMS`].
fn stream_gbps() -> f64 {
    let (r, c) = (4096, STREAM_ELEMS / 4096);
    let a = Matrix::<f64>::from_fn(r, c, |i, j| (i + j) as f64);
    let b = Matrix::<f64>::from_fn(r, c, |i, j| (i * j) as f64);
    let mut out = Matrix::<f64>::zeros(r, c);
    rate(24.0 * (r * c) as f64, || {
        blas::add::add_into(out.as_mut(), a.as_ref(), b.as_ref());
        black_box(&out);
    }) / 1e9
}

/// The fused kernels on a leaf-shaped two-term sum `(A₀ + A₁)(B₀ + B₁)`:
/// `(pack_a GB/s, pack_b GB/s, gemm_fused GFLOP/s)`.
fn fused_rates(m: usize, k: usize, n: usize) -> (f64, f64, f64) {
    let cfg = GemmConfig::auto();
    let (a0, a1) = (random::uniform::<f64>(m, k, 11), random::uniform::<f64>(m, k, 12));
    let (b0, b1) = (random::uniform::<f64>(k, n, 13), random::uniform::<f64>(k, n, 14));
    let sa = SumOperand::new(Op::NoTrans, &[(1.0, a0.as_ref()), (1.0, a1.as_ref())]);
    let sb = SumOperand::new(Op::NoTrans, &[(1.0, b0.as_ref()), (-1.0, b1.as_ref())]);
    let (mc, kc, nc) = (cfg.mc, cfg.kc, cfg.nc);
    let mut buf = vec![0.0f64; (mc.max(nc) + MR.max(NR)) * kc];
    let pack_a = rate(24.0 * (m * k) as f64, || {
        for pc in (0..k).step_by(kc) {
            for ic in (0..m).step_by(mc) {
                pack_a_sum(&sa, ic, pc, mc.min(m - ic), kc.min(k - pc), &mut buf);
            }
        }
        black_box(&buf);
    }) / 1e9;
    let pack_b = rate(24.0 * (k * n) as f64, || {
        for jc in (0..n).step_by(nc) {
            for pc in (0..k).step_by(kc) {
                pack_b_sum(&sb, pc, jc, kc.min(k - pc), nc.min(n - jc), &mut buf);
            }
        }
        black_box(&buf);
    }) / 1e9;
    let mut c = Matrix::<f64>::zeros(m, n);
    let gflops = rate(2.0 * (m * k * n) as f64, || {
        gemm_fused(&cfg, 1.0, &sa, &sb, &mut [DestSpec::init(c.as_mut(), 1.0, 0.0)]);
        black_box(&c);
    }) / 1e9;
    (pack_a, pack_b, gflops)
}

/// Peeling-fixup kernels on an `m × k × n` shape: `(GER GB/s, GEMV GB/s)`
/// in computed bytes (GER reads and writes `m·n`, GEMV reads `m·k`).
fn ger_gemv_gbps(m: usize, k: usize, n: usize) -> (f64, f64) {
    let mut c = random::uniform::<f64>(m, n, 21);
    let a = random::uniform::<f64>(m, k, 22);
    let (x, y, v) = (vec![0.5f64; m], vec![0.25f64; n], vec![0.125f64; k]);
    let mut out = vec![0.0f64; m];
    let ger = rate(16.0 * (m * n) as f64, || {
        blas::level2::ger(1e-3, VecRef::from_slice(&x), VecRef::from_slice(&y), c.as_mut());
        black_box(&c);
    }) / 1e9;
    let gemv = rate(8.0 * (m * k) as f64, || {
        blas::level2::gemv(
            1.0,
            Op::NoTrans,
            a.as_ref(),
            VecRef::from_slice(&v),
            0.0,
            VecMut::from_slice(&mut out),
        );
        black_box(&out);
    }) / 1e9;
    (ger, gemv)
}

/// Leaf shape of an `m × k × n` call recursing `depth` levels with
/// dynamic peeling (each level halves the even part).
fn leaf_shape(m: usize, k: usize, n: usize, depth: u32) -> (usize, usize, usize) {
    (0..depth).fold((m, k, n), |(m, k, n), _| (m / 2, k / 2, n / 2))
}

/// Quadrant shapes `(rows, cols)` the add passes of levels `1..=depth`
/// work on (at least one level, so a leaf-only workload still gets a
/// rate): the `A`, `B` and `C` quadrants of each level.
fn quadrant_shapes(m: usize, k: usize, n: usize, depth: u32) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut mm, mut kk, mut nn) = (m, k, n);
    for _ in 0..depth.max(1) {
        (mm, kk, nn) = ((mm / 2).max(1), (kk / 2).max(1), (nn / 2).max(1));
        out.extend([(mm, kk), (kk, nn), (mm, nn)]);
    }
    out
}

/// Every `blas.*` per-layer metric for a workload whose calls have the
/// given `shapes` and planned `depths`.
pub fn blas_layer(report: &mut Report, shapes: &[(usize, usize, usize)], depths: &[u32]) {
    let leaves: Vec<_> = shapes.iter().zip(depths).map(|(&(m, k, n), &d)| leaf_shape(m, k, n, d)).collect();
    let quads: Vec<_> =
        shapes.iter().zip(depths).flat_map(|(&(m, k, n), &d)| quadrant_shapes(m, k, n, d)).collect();
    report.set("blas.gemm.leaf_gflops", gemm_gflops(&leaves));
    report.set("blas.gemm.peak_gflops", peak_gflops());
    report.set("blas.add.gbps", add_gbps(&quads));
    report.set("blas.stream.gbps", stream_gbps());
    // The largest leaf stands in for the fused path's operand sums.
    let &(m, k, n) = leaves.iter().max_by_key(|&&(m, k, n)| m * k * n).expect("at least one shape");
    let (pa, pb, fg) = fused_rates(m, k, n);
    report.set("blas.fused.pack_a_gbps", pa);
    report.set("blas.fused.pack_b_gbps", pb);
    report.set("blas.fused.gflops", fg);
    // Peeling fixups act on the full (odd) call shape.
    let &(m, k, n) = shapes.iter().max_by_key(|&&(m, k, n)| m * k * n).expect("at least one shape");
    let (ger, gemv) = ger_gemv_gbps(m, k, n);
    report.set("blas.ger_gbps", ger);
    report.set("blas.gemv_gbps", gemv);
    report.notes.push(format!(
        "blas.stream.gbps: 3 arrays of {} MiB each; no ratio to the LLC is reported",
        (STREAM_ELEMS * 8) >> 20
    ));
}

/// `pool.*` per-layer metrics from two `pool_stats` snapshots taken
/// `wall` apart.
pub fn pool_layer(report: &mut Report, before: &pool::PoolStats, wall: Duration) {
    let d = pool::pool_stats().since(before);
    report.set("pool.jobs", d.total_jobs() as f64);
    report.set("pool.steals", d.workers.iter().map(|w| w.steals).sum::<u64>() as f64);
    report.set("pool.helper_pops", d.helper_pops as f64);
    report.set("pool.utilization", d.utilization(wall.as_nanos() as u64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_quadrant_shapes_follow_peeling() {
        assert_eq!(leaf_shape(1025, 513, 2049, 2), (256, 128, 512));
        assert_eq!(quadrant_shapes(64, 32, 16, 0), vec![(32, 16), (16, 8), (32, 8)]);
        assert_eq!(quadrant_shapes(9, 9, 9, 2).len(), 6);
    }
}
