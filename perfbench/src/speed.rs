//! Host-speed probe: the benchmark's own yardstick for how fast the host
//! is running at the moment.
//!
//! Shared hosts drift between fast and slow phases that last tens of
//! seconds and scale every kernel's wall time alike: across runs the
//! ratio of `dgefmm` to `blas::gemm` time stays within about 1% while
//! both move by up to 40%. A fixed multiply-add loop that lives in this
//! file — never in code a change may touch — measures that drift next to
//! the workload, and the timed metrics are reported at the reference
//! speed [`REFERENCE_GOPS`]: a time `t` measured while the probe reads
//! `g` Gop/s is reported as `t · g / REFERENCE_GOPS`.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use crate::report::median;

/// Probe rate the timed metrics are scaled to: a round number within the
/// 8–11 Gop/s the probe reads on a shared 2-core AVX-512 host. Only its
/// ratio to the measured rate matters, and it is the same constant for
/// every commit measured.
pub const REFERENCE_GOPS: f64 = 10.0;

const LANES: usize = 32;
const REPS: usize = 40_000;

/// One probe sample in Gop/s: `REPS` rounds of `acc ← acc·x + y` over
/// `LANES` independent accumulators (L1-resident, throughput-bound).
fn sample() -> f64 {
    let mut acc = [1.0f64; LANES];
    let (x, y) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    let t = Instant::now();
    for _ in 0..REPS {
        for a in acc.iter_mut() {
            *a = *a * x + y;
        }
        black_box(&mut acc);
    }
    (2 * LANES * REPS) as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// The probe rate right now: median of five samples (about 2 ms).
pub fn probe_gops() -> f64 {
    let mut rates: Vec<f64> = (0..5).map(|_| sample()).collect();
    median(&mut rates)
}

/// The probe rate per core with `threads` cores busy: one probe on each
/// of `threads` threads at once, the mean of their rates. Served traffic
/// keeps every pool worker busy, so its yardstick loads as many cores.
pub fn probe_gops_cores(threads: usize) -> f64 {
    let start = Barrier::new(threads);
    let rates: Vec<f64> = std::thread::scope(|s| {
        let probes: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    probe_gops()
                })
            })
            .collect();
        probes.into_iter().map(|p| p.join().expect("probe thread panicked")).collect()
    });
    rates.iter().sum::<f64>() / threads as f64
}

/// Probe rates taken across a run.
#[derive(Default)]
pub struct SpeedLog {
    rates: Vec<f64>,
}

impl SpeedLog {
    pub fn probe(&mut self) {
        self.rates.push(probe_gops());
    }

    /// Probe with `threads` cores busy (see [`probe_gops_cores`]).
    pub fn probe_cores(&mut self, threads: usize) {
        self.rates.push(probe_gops_cores(threads));
    }

    /// Median probe rate of the run.
    pub fn median_gops(&self) -> f64 {
        median(&mut self.rates.clone())
    }

    /// Speed of the host at the latest probe relative to the reference:
    /// divide a time measured next to it by this to report it.
    pub fn last_scale(&self) -> f64 {
        self.rates.last().expect("probed at least once") / REFERENCE_GOPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_follow_the_probe() {
        let log = SpeedLog { rates: vec![4.0, 8.0, 16.0] };
        assert_eq!(log.median_gops(), 8.0);
        assert_eq!(log.last_scale(), 16.0 / REFERENCE_GOPS);
        assert!(probe_gops() > 0.0);
        assert!(probe_gops_cores(2) > 0.0);
    }
}
