//! STRASSEN1: the paper's first computation schedule (Section 3.2).
//!
//! In the `β = 0` case the four quadrants of `C` double as temporaries
//! for intermediate products, so only two workspace temporaries are
//! needed: `X` of `m/2 × max(k/2, n/2)` and `Y` of `k/2 × n/2`, for a
//! recursion-total bound of `(m·max(k,n) + kn)/3` extra elements —
//! `2m²/3` in the square case (Table 1).
//!
//! For `β ≠ 0` (only reachable when the schedule is *forced* via
//! [`Scheme::Strassen1`](crate::config::Scheme::Strassen1); DGEFMM's Auto
//! policy prefers STRASSEN2 there) the product is staged in four extra
//! `m/2 × n/2` quadrant temporaries and then folded into `C`, matching
//! the paper's six-temporary general STRASSEN1 with its
//! `m·max(k,n)/4 + mn + kn/4` per-level footprint.
//!
//! Stage identities (Winograd's variant, 7 multiplies / 15 adds):
//!
//! ```text
//! S1 = A21+A22  S2 = S1−A11  S3 = A11−A21  S4 = A12−S2
//! T1 = B12−B11  T2 = B22−T1  T3 = B22−B12  T4 = T2−B21
//! P1 = A11·B11  P2 = A12·B21  P3 = S4·B22  P4 = A22·T4
//! P5 = S1·T1    P6 = S2·T2    P7 = S3·T3
//! C11 = P1+P2           C12 = P1+P6+P5+P3
//! C21 = P1+P6+P7−P4     C22 = P1+P6+P7+P5
//! ```

use crate::config::StrassenConfig;
use crate::dispatch::fmm;
use crate::trace::add::{accum, accum_sub, add_into, axpby, rsub_into, sub_into};
use matrix::{MatMut, MatRef, Scalar};

/// `C ← α A B` (β = 0) with products formed directly in `C`'s quadrants.
///
/// Requires even `m, k, n`. `ws` must hold at least
/// `m/2·max(k/2,n/2) + k/2·n/2` elements plus the recursive requirement.
pub(crate) fn strassen1_beta_zero<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, n) = (a.nrows(), b.ncols());
    let k = a.ncols();
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);
    let quadrants = c.split_quadrants(m2, n2);
    run_schedule(cfg, alpha, a, b, quadrants, (m2, k2, n2), ws, depth);
}

/// `C ← α A B + β C` via STRASSEN1 with four extra product quadrants
/// (the forced-STRASSEN1 general case, Section 3.2's six-temporary form).
pub(crate) fn strassen1_general<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
    ws: &mut [T],
    depth: usize,
) {
    let (m, n) = (a.nrows(), b.ncols());
    let k = a.ncols();
    debug_assert!(m % 2 == 0 && k % 2 == 0 && n % 2 == 0);
    let (m2, k2, n2) = (m / 2, k / 2, n / 2);

    // Stage the product's quadrants in workspace (the β=0 schedule only
    // ever touches C through its four quadrants, so it can write into
    // four detached buffers just as well), then fold Q + βC into C.
    let (q_buf, rest) = ws.split_at_mut(4 * m2 * n2);
    let (q11_buf, q_rest) = q_buf.split_at_mut(m2 * n2);
    let (q12_buf, q_rest) = q_rest.split_at_mut(m2 * n2);
    let (q21_buf, q22_buf) = q_rest.split_at_mut(m2 * n2);

    let ld = m2.max(1);
    let quadrants = (
        MatMut::from_slice(&mut *q11_buf, m2, n2, ld),
        MatMut::from_slice(&mut *q12_buf, m2, n2, ld),
        MatMut::from_slice(&mut *q21_buf, m2, n2, ld),
        MatMut::from_slice(&mut *q22_buf, m2, n2, ld),
    );
    run_schedule(cfg, alpha, a, b, quadrants, (m2, k2, n2), rest, depth);

    let (c11, c12, c21, c22) = c.split_quadrants(m2, n2);
    for (qb, cq) in [(&*q11_buf, c11), (&*q12_buf, c12), (&*q21_buf, c21), (&*q22_buf, c22)] {
        let q = MatRef::from_slice(qb, m2, n2, ld);
        axpby(T::ONE, q, beta, cq);
    }
}

/// The STRASSEN1 β=0 schedule proper, operating on explicitly provided
/// output quadrants (either `C`'s own, or staged workspace buffers).
fn run_schedule<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    cq: (MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>),
    dims: (usize, usize, usize),
    ws: &mut [T],
    depth: usize,
) {
    let (m2, k2, n2) = dims;
    let (a11, a12, a21, a22) = a.quadrants(m2, k2);
    let (b11, b12, b21, b22) = b.quadrants(k2, n2);
    let (mut c11, mut c12, mut c21, mut c22) = cq;

    let (x_buf, rest) = ws.split_at_mut(m2 * k2.max(n2));
    let (y_buf, rest) = rest.split_at_mut(k2 * n2);
    let mut y = MatMut::from_slice(y_buf, k2, n2, k2.max(1));

    {
        // X viewed as m2×k2 while it holds A-operand sums.
        let mut x = MatMut::from_slice(&mut x_buf[..m2 * k2], m2, k2, m2.max(1));

        sub_into(x.rb_mut(), a11, a21); // X = S3
        sub_into(y.rb_mut(), b22, b12); // Y = T3
        fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, c21.rb_mut(), rest, depth + 1); // C21 = αP7

        add_into(x.rb_mut(), a21, a22); // X = S1
        sub_into(y.rb_mut(), b12, b11); // Y = T1
        fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, c22.rb_mut(), rest, depth + 1); // C22 = αP5

        accum_sub(x.rb_mut(), a11); // X = S2 = S1 − A11
        rsub_into(y.rb_mut(), b22); // Y = T2 = B22 − T1
        fmm(cfg, alpha, x.as_ref(), y.as_ref(), T::ZERO, c12.rb_mut(), rest, depth + 1); // C12 = αP6

        rsub_into(x.rb_mut(), a12); // X = S4 = A12 − S2
        fmm(cfg, alpha, x.as_ref(), b22, T::ZERO, c11.rb_mut(), rest, depth + 1);
        // C11 = αP3
    }

    // X re-viewed as m2×n2 to hold P1 through the final combinations.
    let mut xp = MatMut::from_slice(&mut x_buf[..m2 * n2], m2, n2, m2.max(1));
    fmm(cfg, alpha, a11, b11, T::ZERO, xp.rb_mut(), rest, depth + 1); // X = αP1

    accum(c12.rb_mut(), xp.as_ref()); // C12 = αU2 = α(P1+P6)
    accum(c21.rb_mut(), c12.as_ref()); // C21 = αU3
    accum(c12.rb_mut(), c22.as_ref()); // C12 = αU4
    accum(c22.rb_mut(), c21.as_ref()); // C22 = αU7  (final)
    accum(c12.rb_mut(), c11.as_ref()); // C12 = αU5  (final)

    accum_sub(y.rb_mut(), b21); // Y = T4 = T2 − B21
    fmm(cfg, alpha, a22, y.as_ref(), T::ZERO, c11.rb_mut(), rest, depth + 1); // C11 = αP4
    accum_sub(c21.rb_mut(), c11.as_ref()); // C21 = α(U3 − P4)  (final)

    fmm(cfg, alpha, a12, b21, T::ZERO, c11.rb_mut(), rest, depth + 1); // C11 = αP2
    accum(c11.rb_mut(), xp.as_ref()); // C11 = α(P1+P2)  (final)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::{norms, random, Matrix};

    fn cfg_stop_everything() -> StrassenConfig {
        // Children always fall straight to GEMM: isolates ONE level of
        // this schedule from the rest of the dispatcher.
        StrassenConfig::dgefmm().cutoff(CutoffCriterion::Simple { tau: usize::MAX / 2 }).max_depth(1)
    }

    #[test]
    fn one_level_beta_zero_schedule_is_exactly_winograd() {
        let cfg = StrassenConfig::dgefmm().cutoff(CutoffCriterion::Never).max_depth(1).fused(false);
        let (m, k, n) = (12, 8, 10);
        let a = random::uniform::<f64>(m, k, 1);
        let b = random::uniform::<f64>(k, n, 2);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut ws = vec![0.0; crate::required_workspace(&cfg, m, k, n, true)];
        strassen1_beta_zero(&cfg, 2.0, a.as_ref(), b.as_ref(), c.as_mut(), &mut ws, 0);
        let mut expect = Matrix::<f64>::zeros(m, n);
        gemm(
            &GemmConfig::naive(),
            2.0,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.0,
            expect.as_mut(),
        );
        norms::assert_allclose(c.as_ref(), expect.as_ref(), 1e-13, "strassen1 one level");
    }

    #[test]
    fn general_form_accumulates_beta() {
        let cfg = cfg_stop_everything();
        let (m, k, n) = (8, 6, 4);
        let a = random::uniform::<f64>(m, k, 3);
        let b = random::uniform::<f64>(k, n, 4);
        let c0 = random::uniform::<f64>(m, n, 5);
        let mut c = c0.clone();
        let need =
            crate::workspace::per_level_elements(crate::workspace::ResolvedScheme::Strassen1General, m, k, n);
        let mut ws = vec![0.0; need];
        strassen1_general(&cfg, 1.5, a.as_ref(), b.as_ref(), -2.0, c.as_mut(), &mut ws, 0);
        let mut expect = c0.clone();
        gemm(
            &GemmConfig::naive(),
            1.5,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            -2.0,
            expect.as_mut(),
        );
        norms::assert_allclose(c.as_ref(), expect.as_ref(), 1e-13, "strassen1 general");
    }
}
