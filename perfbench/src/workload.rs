//! The three workloads, as pure functions of the seed.
//!
//! Everything a run feeds the library — shapes, α/β/op draws, operand
//! values and the open-loop arrival schedule — is derived here from the
//! `--seed` argument alone, so two runs with one seed see identical
//! inputs (the tests at the bottom pin that).

use blas::Op;
use matrix::{random, Matrix};
use rng::Rng;
use testkit::Gen;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["square_pow2", "rect_odd_update", "serve_small"];

/// Requests per second offered by the open-loop phase of `serve_small`:
/// a constant well below the saturated closed-loop rate.
pub const OPEN_LOOP_RATE: f64 = 4000.0;

/// Seeded request templates `serve_small` draws from. Large enough that
/// the mix of shapes (and so the work per request and the spread over
/// server buckets) barely moves between seeds: at 2048 the mean work per
/// request still moved by ±3% between seeds.
pub const SERVE_POOL: usize = 16384;

/// Seeded `80 × 80` operand bases; each request's operands are top-left
/// corners of two of them.
const SERVE_BASES: usize = 8;

/// One library call: `C ← α op(A) op(B) + β C₀`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CallSpec {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub op_a: Op,
    pub op_b: Op,
    pub alpha: f64,
    pub beta: f64,
    /// Seed of this call's operand values.
    pub data_seed: u64,
}

/// Materialized operands of one [`CallSpec`].
pub struct CallData {
    pub a: Matrix<f64>,
    pub b: Matrix<f64>,
    /// Prior contents of `C` (all zeros when `β = 0`).
    pub c0: Matrix<f64>,
}

impl CallSpec {
    /// `2mkn`, the conventional flop count of the product.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Stored shapes of `A` and `B` (before `op` applies).
    pub fn stored_shapes(&self) -> ((usize, usize), (usize, usize)) {
        let a = if self.op_a == Op::Trans { (self.k, self.m) } else { (self.m, self.k) };
        let b = if self.op_b == Op::Trans { (self.n, self.k) } else { (self.k, self.n) };
        (a, b)
    }

    pub fn materialize(&self) -> CallData {
        let ((ar, ac), (br, bc)) = self.stored_shapes();
        let c0 = if self.beta == 0.0 {
            Matrix::zeros(self.m, self.n)
        } else {
            random::uniform(self.m, self.n, rng::mix(self.data_seed, 3))
        };
        CallData {
            a: random::uniform(ar, ac, rng::mix(self.data_seed, 1)),
            b: random::uniform(br, bc, rng::mix(self.data_seed, 2)),
            c0,
        }
    }
}

fn stream(seed: u64, salt: u64) -> Rng {
    Rng::seed_from_u64(rng::mix(seed, salt))
}

/// `square_pow2`: the paper's square `β = 0` case at n = 1024 and 2048.
pub fn square_pow2(seed: u64) -> Vec<CallSpec> {
    [1024usize, 2048]
        .iter()
        .enumerate()
        .map(|(i, &n)| CallSpec {
            m: n,
            k: n,
            n,
            op_a: Op::NoTrans,
            op_b: Op::NoTrans,
            alpha: 1.0,
            beta: 0.0,
            data_seed: rng::mix(seed, 100 + i as u64),
        })
        .collect()
}

/// Shape templates of `rect_odd_update`: `(m, k, n, op_a, op_b)`. Every
/// dimension is odd, so each level peels; two are thin in one dimension
/// (the asymmetric eq.-(15) cutoff), and three transpose an operand.
const RECT_TEMPLATES: [(usize, usize, usize, Op, Op); 5] = [
    (1537, 769, 1025, Op::NoTrans, Op::Trans),
    (2049, 513, 1537, Op::Trans, Op::NoTrans),
    (999, 1999, 601, Op::NoTrans, Op::NoTrans),
    (1921, 1281, 515, Op::Trans, Op::Trans),
    (701, 1401, 1401, Op::NoTrans, Op::NoTrans),
];

/// `rect_odd_update`: the templates above, each dimension moved by a
/// seeded even offset in `[-16, 16]` (so it stays odd), with a seeded
/// `α ∈ [0.5, 1.5) \ {1}` and `β ∈ {0.5, 1}`.
pub fn rect_odd_update(seed: u64) -> Vec<CallSpec> {
    let mut rng = stream(seed, 200);
    let mut jitter = |d: usize| d - 16 + 2 * rng.bounded_u64(17) as usize;
    let dims: Vec<(usize, usize, usize)> =
        RECT_TEMPLATES.iter().map(|&(m, k, n, _, _)| (jitter(m), jitter(k), jitter(n))).collect();
    let mut rng = stream(seed, 201);
    RECT_TEMPLATES
        .iter()
        .zip(dims)
        .enumerate()
        .map(|(i, (&(_, _, _, op_a, op_b), (m, k, n)))| {
            let mut alpha = 0.5 + rng.next_f64();
            if alpha == 1.0 {
                alpha = 0.75;
            }
            let beta = if rng.gen_bool() { 0.5 } else { 1.0 };
            CallSpec { m, k, n, op_a, op_b, alpha, beta, data_seed: rng::mix(seed, 300 + i as u64) }
        })
        .collect()
}

/// The library call list of a library workload.
pub fn library_calls(workload: &str, seed: u64) -> Option<Vec<CallSpec>> {
    match workload {
        "square_pow2" => Some(square_pow2(seed)),
        "rect_odd_update" => Some(rect_odd_update(seed)),
        _ => None,
    }
}

/// Largest served dimension `accuracy::draw_shape` produces.
pub const SERVE_MAX_DIM: usize = 80;

/// The request templates of `serve_small`: shapes from
/// `accuracy::draw_shape` (every dimension ≤ 80, about half odd), a
/// seeded α and transpose flags; `β = 0`, as the server always uses.
/// Entry 0 is always the largest admissible request (80³, both operands
/// transposed), so the workspace high-water does not depend on which
/// shapes a seed happens to draw.
pub fn serve_pool(seed: u64) -> Vec<CallSpec> {
    let mut g = Gen::new(rng::mix(seed, 400), 1.0);
    (0..SERVE_POOL)
        .map(|i| {
            let (m, k, n) = if i == 0 {
                (SERVE_MAX_DIM, SERVE_MAX_DIM, SERVE_MAX_DIM)
            } else {
                accuracy::draw_shape(&mut g)
            };
            let alpha = if g.bool() { 1.0 } else { g.f64_in(-2.0, 2.0) };
            let op_a = if i == 0 || g.bool() { Op::Trans } else { Op::NoTrans };
            let op_b = if i == 0 || g.bool() { Op::Trans } else { Op::NoTrans };
            CallSpec { m, k, n, op_a, op_b, alpha, beta: 0.0, data_seed: rng::mix(seed, 500 + i as u64) }
        })
        .collect()
}

/// Operand values of `serve_small` requests: corners of a few seeded
/// bases, so a large request pool needs no per-request storage.
pub struct ServeOperands {
    bases: Vec<Matrix<f64>>,
}

impl ServeOperands {
    pub fn new(seed: u64) -> ServeOperands {
        let bases = (0..SERVE_BASES)
            .map(|i| random::uniform(SERVE_MAX_DIM, SERVE_MAX_DIM, rng::mix(seed, 800 + i as u64)))
            .collect();
        ServeOperands { bases }
    }

    /// Freshly copied stored operands `(A, B)` of `spec`.
    pub fn operands(&self, spec: &CallSpec) -> (Matrix<f64>, Matrix<f64>) {
        let ((ar, ac), (br, bc)) = spec.stored_shapes();
        let base = |salt: u64| &self.bases[(rng::mix(spec.data_seed, salt) % SERVE_BASES as u64) as usize];
        (
            base(1).as_ref().submatrix(0, 0, ar, ac).to_owned_matrix(),
            base(2).as_ref().submatrix(0, 0, br, bc).to_owned_matrix(),
        )
    }
}

/// The open-loop arrival schedule of `serve_small`: Poisson arrivals at
/// [`OPEN_LOOP_RATE`] (independent users), each naming the pool entry it
/// sends. Infinite; the run takes as many as fit in its time.
pub struct Arrivals {
    gaps: Rng,
    picks: Rng,
    due_ns: f64,
}

impl Arrivals {
    pub fn new(seed: u64) -> Arrivals {
        Arrivals { gaps: stream(seed, 600), picks: stream(seed, 601), due_ns: 0.0 }
    }
}

impl Iterator for Arrivals {
    /// `(due time in ns after the phase start, pool index)`.
    type Item = (u64, usize);

    fn next(&mut self) -> Option<(u64, usize)> {
        // Inverse-CDF exponential gap; 1 − u ∈ (0, 1] keeps ln finite.
        let u = 1.0 - self.gaps.next_f64();
        self.due_ns += -u.ln() * 1e9 / OPEN_LOOP_RATE;
        let pick = self.picks.bounded_u64(SERVE_POOL as u64) as usize;
        Some((self.due_ns as u64, pick))
    }
}

/// The closed-loop pick sequence of `serve_small`: which pool entry each
/// successive submission sends.
pub fn closed_picks(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = stream(seed, 700);
    std::iter::repeat_with(move || rng.bounded_u64(SERVE_POOL as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(square_pow2(seed), square_pow2(seed));
            assert_eq!(rect_odd_update(seed), rect_odd_update(seed));
            assert_eq!(serve_pool(seed), serve_pool(seed));
            let a: Vec<_> = Arrivals::new(seed).take(1000).collect();
            let b: Vec<_> = Arrivals::new(seed).take(1000).collect();
            assert_eq!(a, b);
            let a: Vec<_> = closed_picks(seed).take(1000).collect();
            let b: Vec<_> = closed_picks(seed).take(1000).collect();
            assert_eq!(a, b);
        }
        let spec = rect_odd_update(7)[1];
        let (x, y) = (spec.materialize(), spec.materialize());
        assert_eq!((x.a, x.b, x.c0), (y.a, y.b, y.c0));
        let spec = serve_pool(7)[5];
        assert_eq!(ServeOperands::new(7).operands(&spec), ServeOperands::new(7).operands(&spec));
    }

    #[test]
    fn seeds_change_the_draws() {
        assert_ne!(rect_odd_update(1), rect_odd_update(2));
        assert_ne!(serve_pool(1), serve_pool(2));
        assert_ne!(square_pow2(1)[0].data_seed, square_pow2(2)[0].data_seed);
        let a: Vec<_> = Arrivals::new(1).take(10).collect();
        let b: Vec<_> = Arrivals::new(2).take(10).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn rect_shapes_stay_odd_and_in_range() {
        for seed in 0..50 {
            for c in rect_odd_update(seed) {
                for d in [c.m, c.k, c.n] {
                    assert!(d % 2 == 1 && (480..=2065).contains(&d), "{c:?}");
                }
                assert!(c.alpha != 1.0 && (0.5..1.5).contains(&c.alpha));
                assert!(c.beta == 0.5 || c.beta == 1.0);
            }
        }
    }

    #[test]
    fn serve_shapes_are_small_and_arrivals_keep_the_rate() {
        let pool = serve_pool(3);
        assert!(pool.iter().all(|c| c.m.max(c.k).max(c.n) <= SERVE_MAX_DIM));
        let odd = pool.iter().filter(|c| c.m % 2 == 1).count();
        assert!(odd > SERVE_POOL / 3, "about half the dimensions are odd, got {odd}");
        let last = Arrivals::new(3).take(20_000).last().unwrap().0 as f64 / 1e9;
        let rate = 20_000.0 / last;
        assert!((rate / OPEN_LOOP_RATE - 1.0).abs() < 0.05, "rate {rate}");
    }
}
