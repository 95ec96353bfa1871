//! Fused Strassen/GEMM kernels: operand-sum packing and
//! multi-destination write-back.
//!
//! A Strassen product has the shape `P = (Σ γ_t · A_t)(Σ γ_t · B_t)`
//! followed by `C_d += δ_d · P` for one or more quadrants `C_d`. The
//! classical schedules materialize the operand sums into temporaries and
//! sweep the quadrant updates as standalone add passes; both cost a full
//! read+write of quadrant-sized data per pass. Following Huang et al.
//! (*Strassen's Algorithm Reloaded* / the BLIS practical-Strassen line),
//! this module folds the sums into the GEMM *packing* step — the packed
//! panel is built from `Σ γ_t · op(X_t)` element-wise, at no extra memory
//! traffic since packing reads the operands anyway — and folds the
//! quadrant updates into the micro-tile *write-back*, scattering each
//! `MR x NR` accumulator into every destination while it is still in
//! registers.
//!
//! [`gemm_fused`] computes, for each destination `d`:
//!
//! ```text
//! C_d ← α · δ_d · (Σ γ_t op(A_t)) (Σ γ_t op(B_t)) + β_d · C_d
//! ```
//!
//! where `β_d` is optional (absent means pure accumulation, `β_d = 1`).
//!
//! # Example
//!
//! One fused call computes `P = (A1 + A2) · B` and scatters `+P` and `−P`
//! into two destinations — the shape of a Winograd product feeding two
//! `C` quadrants — without materializing `A1 + A2` or `P`:
//!
//! ```
//! use blas::level2::Op;
//! use blas::level3::fused::{gemm_fused, DestSpec, SumOperand};
//! use blas::level3::{gemm, GemmConfig};
//! use matrix::{norms, random, Matrix};
//!
//! let (m, k, n) = (24, 20, 28);
//! let a1 = random::uniform::<f64>(m, k, 1);
//! let a2 = random::uniform::<f64>(m, k, 2);
//! let b = random::uniform::<f64>(k, n, 3);
//! let cfg = GemmConfig::blocked();
//!
//! let mut c_plus = Matrix::zeros(m, n);
//! let mut c_minus = Matrix::zeros(m, n);
//! let a_sum = SumOperand::new(Op::NoTrans, &[(1.0, a1.as_ref()), (1.0, a2.as_ref())]);
//! let b_sum = SumOperand::single(Op::NoTrans, b.as_ref());
//! let mut dests =
//!     [DestSpec::init(c_plus.as_mut(), 1.0, 0.0), DestSpec::init(c_minus.as_mut(), -1.0, 0.0)];
//! gemm_fused(&cfg, 1.0, &a_sum, &b_sum, &mut dests);
//!
//! // Reference: materialize the sum, then a plain GEMM per destination.
//! let mut a12 = Matrix::zeros(m, k);
//! blas::add::add_into(a12.as_mut(), a1.as_ref(), a2.as_ref());
//! let mut want = Matrix::zeros(m, n);
//! gemm(&cfg, 1.0, Op::NoTrans, a12.as_ref(), Op::NoTrans, b.as_ref(), 0.0, want.as_mut());
//! assert!(norms::rel_diff(c_plus.as_ref(), want.as_ref()) < 1e-13);
//! let mut neg = Matrix::zeros(m, n);
//! gemm(&cfg, -1.0, Op::NoTrans, a12.as_ref(), Op::NoTrans, b.as_ref(), 0.0, neg.as_mut());
//! assert!(norms::rel_diff(c_minus.as_ref(), neg.as_ref()) < 1e-13);
//! ```

use super::blocked::{clamp_blocking, pack_a, pack_b, panel_lens};
use super::kernel::{microkernel, microkernel_x2, AccTile, MR, NR};
use super::packbuf::{with_pack_bufs, with_pack_slab};
use super::parallel::{fork, Balanced, MIN_PARALLEL_FLOPS};
use super::{scale_c, GemmAlgo, GemmConfig};
use crate::level2::Op;
use matrix::{MatMut, MatRef, Scalar};

/// Maximum number of `γ_t · X_t` terms a [`SumOperand`] can carry — the
/// Winograd schedule needs up to four (e.g. `A12 − S2 = A12 − A21 − A22 +
/// A11`).
pub const MAX_TERMS: usize = 4;

/// Maximum number of destinations per fused multiply — a Strassen product
/// feeds at most all four `C` quadrants (`P1` in the Winograd schedule).
pub const MAX_DESTS: usize = 4;

/// A linear combination `Σ γ_t · X_t` of equally-shaped matrix views,
/// with one transpose op applied to the whole sum. The combination is
/// never materialized; [`pack_a_sum`]/[`pack_b_sum`] evaluate it
/// element-wise while packing.
#[derive(Clone, Copy)]
pub struct SumOperand<'a, T> {
    op: Op,
    terms: [(T, MatRef<'a, T>); MAX_TERMS],
    len: usize,
}

impl<'a, T: Scalar> SumOperand<'a, T> {
    /// Build a sum from `(γ_t, X_t)` terms. All views must share one
    /// shape; `op` applies to the summed result (equivalently to every
    /// term, since transposition is linear).
    ///
    /// # Panics
    /// If `terms` is empty, has more than [`MAX_TERMS`] entries, or the
    /// shapes disagree.
    pub fn new(op: Op, terms: &[(T, MatRef<'a, T>)]) -> Self {
        assert!(
            !terms.is_empty() && terms.len() <= MAX_TERMS,
            "SumOperand: need 1..={MAX_TERMS} terms, got {}",
            terms.len()
        );
        let (r, c) = (terms[0].1.nrows(), terms[0].1.ncols());
        for (_, t) in terms {
            assert!(
                t.nrows() == r && t.ncols() == c,
                "SumOperand: term shapes disagree ({r}x{c} vs {}x{})",
                t.nrows(),
                t.ncols()
            );
        }
        let mut stored = [terms[0]; MAX_TERMS];
        stored[..terms.len()].copy_from_slice(terms);
        // Padding entries alias term 0 but with γ = 0, so even an
        // accidental read past `len` contributes nothing.
        for slot in stored.iter_mut().skip(terms.len()) {
            slot.0 = T::ZERO;
        }
        Self { op, terms: stored, len: terms.len() }
    }

    /// A single-term operand `op(X)` (γ = 1) — plain GEMM semantics.
    pub fn single(op: Op, x: MatRef<'a, T>) -> Self {
        Self::new(op, &[(T::ONE, x)])
    }

    /// Dimensions of the sum *after* applying `op`.
    pub fn dims(&self) -> (usize, usize) {
        let (r, c) = (self.terms[0].1.nrows(), self.terms[0].1.ncols());
        match self.op {
            Op::NoTrans => (r, c),
            Op::Trans => (c, r),
        }
    }

    /// Element `(i, j)` of `op(Σ γ_t X_t)`.
    ///
    /// # Safety
    /// `(i, j)` must be in bounds for the op-applied shape.
    #[inline(always)]
    unsafe fn at_unchecked(&self, i: usize, j: usize) -> T {
        let (si, sj) = match self.op {
            Op::NoTrans => (i, j),
            Op::Trans => (j, i),
        };
        let (g0, x0) = &self.terms[0];
        let mut v = *g0 * *x0.get_unchecked(si, sj);
        for (g, x) in &self.terms[1..self.len] {
            v = g.mul_add(*x.get_unchecked(si, sj), v);
        }
        v
    }
}

/// One destination of a fused multiply: `c ← δ · P + β · c`, where the
/// scale `β` is optional (absent means accumulate into `c` as-is).
pub struct DestSpec<'a, T> {
    c: MatMut<'a, T>,
    delta: T,
    beta: Option<T>,
}

impl<'a, T: Scalar> DestSpec<'a, T> {
    /// First touch of a quadrant: apply BLAS β-semantics (`β = 0`
    /// overwrites without reading), then accumulate `δ · P`.
    pub fn init(c: MatMut<'a, T>, delta: T, beta: T) -> Self {
        Self { c, delta, beta: Some(beta) }
    }

    /// Subsequent touch: accumulate `δ · P` into the existing contents.
    pub fn update(c: MatMut<'a, T>, delta: T) -> Self {
        Self { c, delta, beta: None }
    }
}

/// The `L` column slices (one per term) covering rows `row0..row0+rows`
/// of stored column `j`, plus the matching γ coefficients.
#[inline(always)]
fn term_cols<'s, T: Scalar, const L: usize>(
    sum: &'s SumOperand<'_, T>,
    j: usize,
    row0: usize,
    rows: usize,
) -> ([&'s [T]; L], [T; L]) {
    let mut cols = [&[] as &[T]; L];
    let mut gammas = [T::ZERO; L];
    for t in 0..L {
        let (g, x) = &sum.terms[t];
        cols[t] = &x.col(j)[row0..row0 + rows];
        gammas[t] = *g;
    }
    (cols, gammas)
}

/// `dst[r] ← Σ_t γ_t · cols_t[r]` with the term loop unrolled at compile
/// time — the vectorizable core of the `NoTrans` packing fast path.
#[inline(always)]
fn fill_sum_rows<T: Scalar, const L: usize>(dst: &mut [T], cols: &[&[T]; L], gammas: &[T; L]) {
    debug_assert!(cols.iter().all(|c| c.len() == dst.len()));
    for (r, d) in dst.iter_mut().enumerate() {
        // SAFETY: every slice in `cols` has dst.len() elements.
        let mut v = unsafe { gammas[0] * *cols[0].get_unchecked(r) };
        for t in 1..L {
            v = unsafe { gammas[t].mul_add(*cols[t].get_unchecked(r), v) };
        }
        *d = v;
    }
}

/// `NoTrans` fast path of [`pack_a_sum`]: stored columns are contiguous,
/// so each `MR`-row segment is a straight-line `Σ γ_t · col_t` loop.
///
/// The loop order is column-outer / panel-inner so every source column is
/// read in one contiguous pass — the sources are typically quadrant views
/// with large leading dimensions, where revisiting a column once per
/// `MR`-row panel would touch the same pages over and over.
fn pack_a_sum_nt<T: Scalar, const L: usize>(
    a: &SumOperand<'_, T>,
    ic: usize,
    pc: usize,
    mb: usize,
    kb: usize,
    buf: &mut [T],
) {
    let panels = mb.div_ceil(MR);
    for kk in 0..kb {
        let (cols, gammas) = term_cols::<T, L>(a, pc + kk, ic, mb);
        for q in 0..panels {
            let row0 = q * MR;
            let rows = MR.min(mb - row0);
            let mut seg = [&[] as &[T]; L];
            for t in 0..L {
                seg[t] = &cols[t][row0..row0 + rows];
            }
            let dst = &mut buf[q * MR * kb + kk * MR..q * MR * kb + kk * MR + MR];
            fill_sum_rows(&mut dst[..rows], &seg, &gammas);
            for d in dst.iter_mut().skip(rows) {
                *d = T::ZERO;
            }
        }
    }
}

/// `NoTrans` fast path of [`pack_b_sum`]: iterate stored columns so the
/// reads are contiguous (the writes stride by `NR`).
fn pack_b_sum_nt<T: Scalar, const L: usize>(
    b: &SumOperand<'_, T>,
    pc: usize,
    jc: usize,
    kb: usize,
    nb: usize,
    buf: &mut [T],
) {
    let panels = nb.div_ceil(NR);
    for q in 0..panels {
        let col0 = q * NR;
        let cols_in_panel = NR.min(nb - col0);
        let base = q * NR * kb;
        let panel = &mut buf[base..base + NR * kb];
        for cc in 0..cols_in_panel {
            let (cols, gammas) = term_cols::<T, L>(b, jc + col0 + cc, pc, kb);
            for (kk, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                // SAFETY: every slice in `cols` has kb elements and the
                // panel holds kb NR-wide chunks.
                let mut v = unsafe { gammas[0] * *cols[0].get_unchecked(kk) };
                for t in 1..L {
                    v = unsafe { gammas[t].mul_add(*cols[t].get_unchecked(kk), v) };
                }
                chunk[cc] = v;
            }
        }
        for chunk in panel.chunks_exact_mut(NR) {
            for d in chunk.iter_mut().skip(cols_in_panel) {
                *d = T::ZERO;
            }
        }
    }
}

/// Pack the `mb x kb` block of `op(Σ γ_t A_t)` starting at `(ic, pc)`
/// into `buf`, in exactly the row-panel layout the
/// blocked kernel's private `pack_a` uses.
pub fn pack_a_sum<T: Scalar>(
    a: &SumOperand<'_, T>,
    ic: usize,
    pc: usize,
    mb: usize,
    kb: usize,
    buf: &mut [T],
) {
    let panels = mb.div_ceil(MR);
    debug_assert!(buf.len() >= panels * MR * kb);
    if a.op == Op::NoTrans {
        // Dispatch on the term count so the sum loop unrolls and the
        // contiguous-column inner loop vectorizes.
        match a.len {
            1 => return pack_a_sum_nt::<T, 1>(a, ic, pc, mb, kb, buf),
            2 => return pack_a_sum_nt::<T, 2>(a, ic, pc, mb, kb, buf),
            3 => return pack_a_sum_nt::<T, 3>(a, ic, pc, mb, kb, buf),
            _ => return pack_a_sum_nt::<T, 4>(a, ic, pc, mb, kb, buf),
        }
    }
    for q in 0..panels {
        let row0 = q * MR;
        let rows = MR.min(mb - row0);
        let base = q * MR * kb;
        for kk in 0..kb {
            let dst = &mut buf[base + kk * MR..base + kk * MR + MR];
            for (r, d) in dst.iter_mut().enumerate().take(rows) {
                // SAFETY: ic+row0+r < ic+mb <= sum rows, pc+kk < sum cols.
                *d = unsafe { a.at_unchecked(ic + row0 + r, pc + kk) };
            }
            for d in dst.iter_mut().skip(rows) {
                *d = T::ZERO;
            }
        }
    }
}

/// Pack the `kb x nb` block of `op(Σ γ_t B_t)` starting at `(pc, jc)`
/// into `buf`, in exactly the column-panel layout the
/// blocked kernel's private `pack_b` uses.
pub fn pack_b_sum<T: Scalar>(
    b: &SumOperand<'_, T>,
    pc: usize,
    jc: usize,
    kb: usize,
    nb: usize,
    buf: &mut [T],
) {
    let panels = nb.div_ceil(NR);
    debug_assert!(buf.len() >= panels * NR * kb);
    if b.op == Op::NoTrans {
        match b.len {
            1 => return pack_b_sum_nt::<T, 1>(b, pc, jc, kb, nb, buf),
            2 => return pack_b_sum_nt::<T, 2>(b, pc, jc, kb, nb, buf),
            3 => return pack_b_sum_nt::<T, 3>(b, pc, jc, kb, nb, buf),
            _ => return pack_b_sum_nt::<T, 4>(b, pc, jc, kb, nb, buf),
        }
    }
    for q in 0..panels {
        let col0 = q * NR;
        let cols = NR.min(nb - col0);
        let base = q * NR * kb;
        for kk in 0..kb {
            let dst = &mut buf[base + kk * NR..base + kk * NR + NR];
            for (cc, d) in dst.iter_mut().enumerate().take(cols) {
                // SAFETY: pc+kk < sum rows, jc+col0+cc < sum cols.
                *d = unsafe { b.at_unchecked(pc + kk, jc + col0 + cc) };
            }
            for d in dst.iter_mut().skip(cols) {
                *d = T::ZERO;
            }
        }
    }
}

/// Macro-kernel with multi-destination write-back: each `MR x NR`
/// accumulator tile is scattered into every destination with its folded
/// coefficient while still in registers.
///
/// `first_k` marks the first `pc` block: β-semantics of `init`
/// destinations are folded into that block's write-back, so `β = 0`
/// becomes a pure streaming store (no pre-sweep, no read of `C`) and a
/// general β costs one fused read-scale-accumulate pass instead of a
/// separate scale sweep plus a read-modify-write pass.
fn scatter_tile<T: Scalar>(
    dests: &mut [DestSpec<'_, T>],
    coeffs: &[T],
    acc: &AccTile<T>,
    i0: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    first_k: bool,
) {
    for (dest, &coeff) in dests.iter_mut().zip(coeffs) {
        let beta = if first_k { dest.beta } else { None };
        let ld = dest.c.ld();
        // Hoist the destination base pointer: at leaf-sized `kb`
        // the per-column slice checks of safe indexing cost as
        // much as the micro-kernel itself.
        let base = dest.c.as_mut_ptr();
        for (cc, acc_col) in acc.iter().enumerate().take(cols) {
            // SAFETY: rows i0..i0+rows of column j0+cc are in
            // bounds by construction of the blocking, and `dests`
            // holds exclusive borrows of disjoint matrices.
            let cseg = unsafe { core::slice::from_raw_parts_mut(base.add((j0 + cc) * ld + i0), rows) };
            match beta {
                Some(b) if b == T::ZERO => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d = coeff * v;
                    }
                }
                Some(b) => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d = b * *d + coeff * v;
                    }
                }
                None => {
                    for (d, &v) in cseg.iter_mut().zip(acc_col) {
                        *d += coeff * v;
                    }
                }
            }
        }
    }
}

fn macrokernel_multi<T: Scalar>(
    mb: usize,
    kb: usize,
    nb: usize,
    packed_a: &[T],
    packed_b: &[T],
    dests: &mut [DestSpec<'_, T>],
    coeffs: &[T],
    ic: usize,
    jc: usize,
    first_k: bool,
) {
    let mpanels = mb.div_ceil(MR);
    let npanels = nb.div_ceil(NR);
    for qn in 0..npanels {
        let col0 = qn * NR;
        let cols = NR.min(nb - col0);
        let pb = &packed_b[qn * NR * kb..(qn + 1) * NR * kb];
        // A-row panels in pairs, so AVX-512 parts run the fused
        // 2·MR x NR micro-kernel (see `super::kernel::microkernel_x2`).
        let mut qm = 0;
        while qm + 2 <= mpanels {
            let pa0 = &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
            let pa1 = &packed_a[(qm + 1) * MR * kb..(qm + 2) * MR * kb];
            let mut acc0: AccTile<T> = [[T::ZERO; MR]; NR];
            let mut acc1: AccTile<T> = [[T::ZERO; MR]; NR];
            microkernel_x2(kb, pa0, pa1, pb, &mut acc0, &mut acc1);
            let rows0 = MR.min(mb - qm * MR);
            let rows1 = MR.min(mb - (qm + 1) * MR);
            scatter_tile(dests, coeffs, &acc0, ic + qm * MR, jc + col0, rows0, cols, first_k);
            scatter_tile(dests, coeffs, &acc1, ic + (qm + 1) * MR, jc + col0, rows1, cols, first_k);
            qm += 2;
        }
        if qm < mpanels {
            let pa = &packed_a[qm * MR * kb..(qm + 1) * MR * kb];
            let mut acc: AccTile<T> = [[T::ZERO; MR]; NR];
            microkernel(kb, pa, pb, &mut acc);
            let rows = MR.min(mb - qm * MR);
            scatter_tile(dests, coeffs, &acc, ic + qm * MR, jc + col0, rows, cols, first_k);
        }
    }
}

/// Fused multiply: `C_d ← α δ_d (Σ γ_t op(A_t))(Σ γ_t op(B_t)) + β_d C_d`
/// for every destination `d`, with the operand sums evaluated during
/// packing and the destination updates performed at tile write-back.
///
/// # Panics
/// On dimension mismatch between the operand sums and any destination,
/// or if `dests` is empty or longer than [`MAX_DESTS`].
pub fn gemm_fused<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    a: &SumOperand<'_, T>,
    b: &SumOperand<'_, T>,
    dests: &mut [DestSpec<'_, T>],
) {
    assert!(
        !dests.is_empty() && dests.len() <= MAX_DESTS,
        "gemm_fused: need 1..={MAX_DESTS} destinations, got {}",
        dests.len()
    );
    let (m, ka) = a.dims();
    let (kb_dim, n) = b.dims();
    assert_eq!(ka, kb_dim, "gemm_fused: inner dimensions disagree ({ka} vs {kb_dim})");
    for dest in dests.iter() {
        assert!(
            dest.c.nrows() == m && dest.c.ncols() == n,
            "gemm_fused: destination is {}x{}, expected {m}x{n}",
            dest.c.nrows(),
            dest.c.ncols()
        );
    }
    let k = ka;
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        // Degenerate product: only the β-semantics of `init`
        // destinations remain to be applied.
        for dest in dests.iter_mut() {
            if let Some(beta) = dest.beta {
                scale_c(beta, &mut dest.c);
            }
        }
        return;
    }
    let mut coeffs = [T::ZERO; MAX_DESTS];
    for (slot, dest) in coeffs.iter_mut().zip(dests.iter()) {
        *slot = alpha * dest.delta;
    }

    let (mc, kc, nc) = clamp_blocking(cfg, m, k, n);
    let (a_len, b_len) = panel_lens(mc, kc, nc);
    with_pack_bufs::<T, _>(a_len, b_len, |packed_a, packed_b| {
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                pack_b_sum(b, pc, jc, kb, nb, packed_b);
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    pack_a_sum(a, ic, pc, mb, kb, packed_a);
                    macrokernel_multi(
                        mb,
                        kb,
                        nb,
                        packed_a,
                        packed_b,
                        dests,
                        &coeffs[..dests.len()],
                        ic,
                        jc,
                        pc == 0,
                    );
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Whole-level fused executor: every sub-product of one Strassen
// recursion level through a single 5-loop nest with shared packed
// panels.

/// Largest supported block grid (`g ≤ 4`, i.e. up to two flattened
/// Strassen levels — 4 x 4 quarter-blocks).
pub const MAX_GRID: usize = 4;
const MAX_GRID_BLOCKS: usize = MAX_GRID * MAX_GRID;

/// Up to [`MAX_TERMS`] signed block references `(γ, q)` over a `g x g`
/// partition, `q = block_row · g + block_col` flattened. Coefficients are
/// small integers (`±1` in every Strassen-family schedule).
#[derive(Clone, Copy, Debug)]
pub struct BlockTerms {
    /// `(γ, flat block index)` entries; slots at `len..` are ignored.
    pub t: [(i8, u8); MAX_TERMS],
    /// Number of live entries (`1..=MAX_TERMS`).
    pub len: u8,
}

impl BlockTerms {
    /// A single-term reference `γ · X_q`.
    pub const fn single(gamma: i8, q: u8) -> Self {
        BlockTerms { t: [(gamma, q), (0, 0), (0, 0), (0, 0)], len: 1 }
    }

    /// Build from a slice of `(γ, q)` terms.
    ///
    /// # Panics
    /// If `terms` is empty or longer than [`MAX_TERMS`].
    pub fn new(terms: &[(i8, u8)]) -> Self {
        assert!(
            !terms.is_empty() && terms.len() <= MAX_TERMS,
            "BlockTerms: need 1..={MAX_TERMS} terms, got {}",
            terms.len()
        );
        let mut t = [(0i8, 0u8); MAX_TERMS];
        t[..terms.len()].copy_from_slice(terms);
        BlockTerms { t, len: terms.len() as u8 }
    }

    /// Live `(γ, q)` entries.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (i8, u8)> + '_ {
        self.t[..self.len as usize].iter().copied()
    }
}

/// One fused sub-product `(Σ γ A_q)(Σ γ B_q) → Σ δ C_q` of a block
/// schedule, all operands addressed over the same `g x g` partition.
#[derive(Clone, Copy, Debug)]
pub struct BlockProduct {
    /// A-operand terms.
    pub a: BlockTerms,
    /// B-operand terms.
    pub b: BlockTerms,
    /// Destination blocks with their δ coefficients.
    pub c: BlockTerms,
}

/// Pack-slab requirement (elements of `T`) of one [`gemm_fused_level`]
/// call at shape `m x k x n` over a `g x g` grid: one slot per grid block
/// of A and of B plus one combination buffer each, all at the
/// problem-clamped panel sizes. Exposed for the Table-1 memory
/// accounting tests.
pub fn fused_level_pack_elements(cfg: &GemmConfig, m: usize, k: usize, n: usize, g: usize) -> usize {
    let (bm, bk, bn) = (m / g, k / g, n / g);
    let (mc, kc, nc) = clamp_blocking(cfg, bm, bk, bn);
    let (a_len, b_len) = panel_lens(mc, kc, nc);
    (g * g + 1) * (a_len + b_len)
}

/// `dst ← Σ_t γ_t · slots[q_t]`, reusing the unrolled AXPY core of the
/// packing fast paths. Packed layouts are position-identical across
/// slots (same `(mb, kb)` or `(kb, nb)`), and packing is linear in its
/// source — `pack(Σ γ X) = Σ γ pack(X)`, zero padding included — so
/// combining after packing equals packing the combination.
fn combine_packed<T: Scalar>(dst: &mut [T], terms: &BlockTerms, slots: &[T], slot_len: usize) {
    let lt = terms.len as usize;
    let mut srcs = [&[] as &[T]; MAX_TERMS];
    let mut gammas = [T::ZERO; MAX_TERMS];
    for t in 0..lt {
        let (gm, q) = terms.t[t];
        let base = q as usize * slot_len;
        srcs[t] = &slots[base..base + dst.len()];
        gammas[t] = T::from_f64(gm as f64);
    }
    match lt {
        1 => fill_sum_rows(dst, &[srcs[0]], &[gammas[0]]),
        2 => fill_sum_rows(dst, &[srcs[0], srcs[1]], &[gammas[0], gammas[1]]),
        3 => fill_sum_rows(dst, &[srcs[0], srcs[1], srcs[2]], &[gammas[0], gammas[1], gammas[2]]),
        _ => fill_sum_rows(dst, &srcs, &gammas),
    }
}

/// One column strip of `C` per grid block column (`bm·g` rows each);
/// entries at `g..` are empty. A column group of the fused level owns
/// the same columns of every strip.
type Strips<'a, T> = [MatMut<'a, T>; MAX_GRID];

/// Split every strip at column `w` (empty strips stay empty).
fn split_strips<'a, T>(strips: Strips<'a, T>, w: usize) -> (Strips<'a, T>, Strips<'a, T>) {
    let [(l0, r0), (l1, r1), (l2, r2), (l3, r3)] = strips.map(|s| {
        let at = w.min(s.ncols());
        s.split_cols(at)
    });
    ([l0, l1, l2, l3], [r0, r1, r2, r3])
}

/// Execute a whole fused block schedule — e.g. one Strassen recursion
/// level — through a single 5-loop nest with **shared packed panels**:
///
/// ```text
/// for jc (nc-wide slices of every C/B block column range)
///   for pc (kc-deep rank slices)            B-block panels packed once,
///     for ic (mc-tall slices)               A-block panels packed once,
///       for each product: combine γ-weighted packed panels, multiply,
///                         scatter into its δ-weighted C blocks
/// ```
///
/// Compared to one [`gemm_fused`] call per product (which re-packs its
/// operand sums from scratch), every grid block of `A` and `B` is packed
/// **once per cache block** and reused by all products that reference
/// it — for Strassen's 7-product schedule that cuts B-packing traffic
/// from 12 quadrant passes to 4 and A-packing from 12 to 4, and operand
/// sums become cheap linear combinations of already-packed panels.
///
/// With the pool-parallel kernel ([`GemmAlgo::BlockedParallel`]) and at
/// least [`MIN_PARALLEL_FLOPS`] of multiply work, the jc loop is split
/// into balanced `NR`-quantized column groups, one per worker: each group
/// runs the whole nest above over its own columns of every block, with
/// its own pack slab, writing only its own columns. Every element still
/// sees the same operation sequence, so the result is bitwise the serial
/// one; serial is the one-group case of the same code.
///
/// Semantics, for each product `p` in order:
/// `C_q ← α δ_q (Σ γ A_blk)(Σ γ B_blk) + [β C_q]` where `β` applies on
/// the first product that touches block `q` (BLAS semantics: `β = 0`
/// overwrites without reading). Blocks no product touches are scaled by
/// `β` directly.
///
/// All of `m`, `k`, `n` must be divisible by `g`.
///
/// # Panics
/// On dimension mismatch, `g` out of `1..=`[`MAX_GRID`], indices outside
/// the grid, malformed term counts, or a product listing the same
/// destination block twice.
pub fn gemm_fused_level<T: Scalar>(
    cfg: &GemmConfig,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
    products: &[BlockProduct],
    g: usize,
) {
    assert!((1..=MAX_GRID).contains(&g), "gemm_fused_level: grid {g} outside 1..={MAX_GRID}");
    let (m, k) = (a.nrows(), a.ncols());
    let n = b.ncols();
    assert_eq!(b.nrows(), k, "gemm_fused_level: inner dimensions disagree");
    assert!(
        c.nrows() == m && c.ncols() == n,
        "gemm_fused_level: destination is {}x{}, expected {m}x{n}",
        c.nrows(),
        c.ncols()
    );
    assert!(
        m % g == 0 && k % g == 0 && n % g == 0,
        "gemm_fused_level: {m}x{k}x{n} not divisible by grid {g}"
    );
    let g2 = g * g;
    for p in products {
        for terms in [&p.a, &p.b, &p.c] {
            let lt = terms.len as usize;
            assert!((1..=MAX_TERMS).contains(&lt), "gemm_fused_level: term count {lt}");
            assert!(terms.iter().all(|(_, q)| (q as usize) < g2), "block index outside grid");
        }
        let lc = p.c.len as usize;
        assert!(lc <= MAX_DESTS, "gemm_fused_level: {lc} destinations");
        for i in 0..lc {
            for j in i + 1..lc {
                assert_ne!(p.c.t[i].1, p.c.t[j].1, "product lists destination block twice");
            }
        }
    }
    let (bm, bk, bn) = (m / g, k / g, n / g);

    // First product touching each C block — that touch carries β.
    let mut first_touch = [usize::MAX; MAX_GRID_BLOCKS];
    for (pi, p) in products.iter().enumerate() {
        for (_, q) in p.c.iter() {
            if first_touch[q as usize] == usize::MAX {
                first_touch[q as usize] = pi;
            }
        }
    }

    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 || products.is_empty() {
        scale_c(beta, &mut c);
        return;
    }
    // Blocks outside the schedule still owe their β scaling.
    for (q, &first) in first_touch.iter().enumerate().take(g2) {
        if first == usize::MAX {
            scale_c(beta, &mut c.submatrix_mut((q / g) * bm, (q % g) * bn, bm, bn));
        }
    }

    let (mc, kc, nc) = clamp_blocking(cfg, bm, bk, bn);
    let work = products.len().saturating_mul(bm).saturating_mul(bk).saturating_mul(bn);
    let ways = if cfg.algo == GemmAlgo::BlockedParallel && work >= MIN_PARALLEL_FLOPS {
        pool::current_num_threads()
    } else {
        1
    };
    let groups = Balanced::new(bn.div_ceil(NR), ways);
    let col0 = |gi: usize| (groups.start(gi) * NR).min(bn);

    let mut rest = c;
    let strips: Strips<'_, T> = std::array::from_fn(|bc| {
        let strip = std::mem::replace(&mut rest, MatMut::from_slice(&mut [], 0, 0, 1));
        if bc + 1 < g {
            let (head, tail) = strip.split_cols(bn);
            rest = tail;
            head
        } else {
            strip
        }
    });
    let level = FusedLevel { alpha, beta, a, b, products, first_touch, g, bm, bk, bn, mc, kc, nc };
    fork(0, 0, groups.parts(), strips, &|s, lo, mid| split_strips(s, col0(mid) - col0(lo)), &|gi, s| {
        level.column_group(col0(gi), s)
    });
}

/// The loop-invariant state of one [`gemm_fused_level`] call, shared by
/// its column groups.
struct FusedLevel<'a, T> {
    alpha: T,
    beta: T,
    a: MatRef<'a, T>,
    b: MatRef<'a, T>,
    products: &'a [BlockProduct],
    first_touch: [usize; MAX_GRID_BLOCKS],
    g: usize,
    bm: usize,
    bk: usize,
    bn: usize,
    mc: usize,
    kc: usize,
    nc: usize,
}

impl<T: Scalar> FusedLevel<'_, T> {
    /// The whole jc/pc/ic nest over block columns `j0 .. j0 + w` of every
    /// grid block, where `w` is the strips' width.
    fn column_group(&self, j0: usize, mut strips: Strips<'_, T>) {
        let &FusedLevel { alpha, beta, a, b, products, first_touch, g, bm, bk, bn, mc, kc, nc } = self;
        let g2 = g * g;
        let w = strips[0].ncols();
        // A narrower group leases a narrower B panel; the one-group case
        // is exactly the serial requirement (`fused_level_pack_elements`).
        let nc = nc.min(w.next_multiple_of(NR));
        let (a_len, b_len) = panel_lens(mc, kc, nc);
        let ld = strips[0].ld();
        let bases: [*mut T; MAX_GRID] = std::array::from_fn(|bc| strips[bc].as_mut_ptr());

        with_pack_slab::<T, _>((g2 + 1) * (a_len + b_len), |slab| {
            // Slab layout: one pack slot per grid block plus one
            // combination buffer, for A then B.
            let (a_region, b_region) = slab.split_at_mut((g2 + 1) * a_len);
            let (a_slots, comb_a) = a_region.split_at_mut(g2 * a_len);
            let (b_slots, comb_b) = b_region.split_at_mut(g2 * b_len);

            for jc in (0..w).step_by(nc) {
                let nb = nc.min(w - jc);
                for pc in (0..bk).step_by(kc) {
                    let kb = kc.min(bk - pc);
                    // Which block slots hold current data for this cache block.
                    let mut b_valid = [false; MAX_GRID_BLOCKS];
                    let b_used = nb.div_ceil(NR) * NR * kb;
                    for ic in (0..bm).step_by(mc) {
                        let mb = mc.min(bm - ic);
                        let mut a_valid = [false; MAX_GRID_BLOCKS];
                        let a_used = mb.div_ceil(MR) * MR * kb;
                        for (pi, p) in products.iter().enumerate() {
                            // Lazily pack the grid blocks this product
                            // needs; later products reuse them.
                            for (_, q) in p.a.iter() {
                                let q = q as usize;
                                if !a_valid[q] {
                                    let blk = a.submatrix((q / g) * bm, (q % g) * bk, bm, bk);
                                    let slot = &mut a_slots[q * a_len..q * a_len + a_used];
                                    pack_a(Op::NoTrans, &blk, ic, pc, mb, kb, slot);
                                    a_valid[q] = true;
                                }
                            }
                            for (_, q) in p.b.iter() {
                                let q = q as usize;
                                if !b_valid[q] {
                                    let blk = b.submatrix((q / g) * bk, (q % g) * bn, bk, bn);
                                    let slot = &mut b_slots[q * b_len..q * b_len + b_used];
                                    pack_b(Op::NoTrans, &blk, pc, j0 + jc, kb, nb, slot);
                                    b_valid[q] = true;
                                }
                            }
                            // Operand sums as combinations of packed
                            // panels; a bare `+X_q` term borrows the slot.
                            let pa: &[T] = if p.a.len == 1 && p.a.t[0].0 == 1 {
                                let q = p.a.t[0].1 as usize;
                                &a_slots[q * a_len..q * a_len + a_used]
                            } else {
                                combine_packed(&mut comb_a[..a_used], &p.a, a_slots, a_len);
                                &comb_a[..a_used]
                            };
                            let pb: &[T] = if p.b.len == 1 && p.b.t[0].0 == 1 {
                                let q = p.b.t[0].1 as usize;
                                &b_slots[q * b_len..q * b_len + b_used]
                            } else {
                                combine_packed(&mut comb_b[..b_used], &p.b, b_slots, b_len);
                                &comb_b[..b_used]
                            };

                            let mut coeffs = [T::ZERO; MAX_DESTS];
                            for (slot, (dl, _)) in coeffs.iter_mut().zip(p.c.iter()) {
                                *slot = alpha * T::from_f64(dl as f64);
                            }
                            let mk = |t: usize| {
                                let (dl, q) = p.c.t[t];
                                let q = q as usize;
                                // SAFETY: block `q`'s rows of this group's
                                // strip for block column `q % g`. Grid
                                // blocks are disjoint, a product never
                                // lists the same block twice (checked
                                // above), and the strips are dormant while
                                // the block views are live.
                                let view = unsafe {
                                    MatMut::from_raw_parts(bases[q % g].add((q / g) * bm), bm, w, ld)
                                };
                                let delta = T::from_f64(dl as f64);
                                if pc == 0 && first_touch[q] == pi {
                                    DestSpec::init(view, delta, beta)
                                } else {
                                    DestSpec::update(view, delta)
                                }
                            };
                            let lc = p.c.len as usize;
                            let run = |dests: &mut [DestSpec<'_, T>]| {
                                macrokernel_multi(mb, kb, nb, pa, pb, dests, &coeffs[..lc], ic, jc, true);
                            };
                            match lc {
                                1 => run(&mut [mk(0)]),
                                2 => run(&mut [mk(0), mk(1)]),
                                3 => run(&mut [mk(0), mk(1), mk(2)]),
                                _ => run(&mut [mk(0), mk(1), mk(2), mk(3)]),
                            }
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrix::{random, Matrix};

    fn materialize(sum: &SumOperand<'_, f64>) -> Matrix<f64> {
        let (r, c) = (sum.terms[0].1.nrows(), sum.terms[0].1.ncols());
        Matrix::from_fn(r, c, |i, j| sum.terms[..sum.len].iter().map(|(g, x)| g * x.at(i, j)).sum())
    }

    #[test]
    fn pack_a_sum_matches_pack_a_on_materialized_sum() {
        let x0 = random::uniform::<f64>(11, 9, 1);
        let x1 = random::uniform::<f64>(11, 9, 2);
        let sum = SumOperand::new(Op::NoTrans, &[(1.0, x0.as_ref()), (-1.0, x1.as_ref())]);
        let mat = materialize(&sum);
        let (mb, kb) = (7usize, 5usize);
        let len = mb.div_ceil(MR) * MR * kb;
        let mut got = vec![f64::NAN; len];
        let mut expect = vec![f64::NAN; len];
        pack_a_sum(&sum, 2, 3, mb, kb, &mut got);
        pack_a(Op::NoTrans, &mat.as_ref(), 2, 3, mb, kb, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn pack_b_sum_matches_pack_b_with_transpose() {
        // op(Σ) = (X0 + 2·X1)ᵀ where the stored views are 9x12.
        let x0 = random::uniform::<f64>(9, 12, 3);
        let x1 = random::uniform::<f64>(9, 12, 4);
        let sum = SumOperand::new(Op::Trans, &[(1.0, x0.as_ref()), (2.0, x1.as_ref())]);
        let mat = materialize(&sum); // 9x12; pack with Op::Trans sees 12x9
        let (kb, nb) = (10usize, 8usize);
        let len = nb.div_ceil(NR) * NR * kb;
        let mut got = vec![f64::NAN; len];
        let mut expect = vec![f64::NAN; len];
        pack_b_sum(&sum, 1, 0, kb, nb, &mut got);
        pack_b(Op::Trans, &mat.as_ref(), 1, 0, kb, nb, &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn four_term_sum_and_padding_coeffs_are_inert() {
        let xs: Vec<Matrix<f64>> = (0..4).map(|s| random::uniform::<f64>(6, 6, s as u64)).collect();
        let terms: Vec<(f64, matrix::MatRef<'_, f64>)> =
            xs.iter().zip([1.0, -1.0, -1.0, 1.0]).map(|(x, g)| (g, x.as_ref())).collect();
        let sum = SumOperand::new(Op::NoTrans, &terms);
        let mat = materialize(&sum);
        let mut got = vec![0.0; MR * 6];
        let mut expect = vec![0.0; MR * 6];
        pack_a_sum(&sum, 0, 0, 6, 6, &mut got);
        pack_a(Op::NoTrans, &mat.as_ref(), 0, 0, 6, 6, &mut expect);
        assert_eq!(got, expect);

        // A one-term operand must ignore the padding slots entirely.
        let single = SumOperand::single(Op::NoTrans, xs[0].as_ref());
        let mut got1 = vec![0.0; MR * 6];
        pack_a_sum(&single, 0, 0, 6, 6, &mut got1);
        let mut expect1 = vec![0.0; MR * 6];
        pack_a(Op::NoTrans, &xs[0].as_ref(), 0, 0, 6, 6, &mut expect1);
        assert_eq!(got1, expect1);
    }

    #[test]
    fn fused_multi_dest_matches_separate_gemm_plus_add() {
        // Odd/rectangular shapes so tile edges are exercised.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let (m, k, n) = (13, 9, 17);
        let a0 = random::uniform::<f64>(m, k, 10);
        let a1 = random::uniform::<f64>(m, k, 11);
        let b0 = random::uniform::<f64>(k, n, 12);
        let c0_init = random::uniform::<f64>(m, n, 13);
        let c1_init = random::uniform::<f64>(m, n, 14);

        let alpha = 0.7;
        let a_sum = SumOperand::new(Op::NoTrans, &[(1.0, a0.as_ref()), (-1.0, a1.as_ref())]);
        let b_sum = SumOperand::single(Op::NoTrans, b0.as_ref());

        let mut c0 = c0_init.clone();
        let mut c1 = c1_init.clone();
        {
            let mut dests = [DestSpec::init(c0.as_mut(), 1.0, -0.5), DestSpec::update(c1.as_mut(), -1.0)];
            gemm_fused(&cfg, alpha, &a_sum, &b_sum, &mut dests);
        }

        // Reference: materialize A0 - A1, separate GEMMs per destination.
        let diff = materialize(&a_sum);
        let mut e0 = c0_init.clone();
        let mut e1 = c1_init.clone();
        super::super::gemm_blocked(
            &cfg,
            alpha,
            Op::NoTrans,
            diff.as_ref(),
            Op::NoTrans,
            b0.as_ref(),
            -0.5,
            e0.as_mut(),
        );
        super::super::gemm_blocked(
            &cfg,
            -alpha,
            Op::NoTrans,
            diff.as_ref(),
            Op::NoTrans,
            b0.as_ref(),
            1.0,
            e1.as_mut(),
        );
        matrix::norms::assert_allclose(c0.as_ref(), e0.as_ref(), 1e-12, "dest 0");
        matrix::norms::assert_allclose(c1.as_ref(), e1.as_ref(), 1e-12, "dest 1");
    }

    #[test]
    fn beta_zero_first_touch_clears_nan() {
        let cfg = GemmConfig::blocked();
        let a = Matrix::from_row_major(1, 1, &[2.0]);
        let b = Matrix::from_row_major(1, 1, &[3.0]);
        let mut c = Matrix::from_row_major(1, 1, &[f64::NAN]);
        let a_sum = SumOperand::single(Op::NoTrans, a.as_ref());
        let b_sum = SumOperand::single(Op::NoTrans, b.as_ref());
        let mut dests = [DestSpec::init(c.as_mut(), 1.0, 0.0)];
        gemm_fused(&cfg, 1.0, &a_sum, &b_sum, &mut dests);
        assert_eq!(c.at(0, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "term shapes disagree")]
    fn mismatched_term_shapes_panic() {
        let x0 = Matrix::<f64>::zeros(3, 3);
        let x1 = Matrix::<f64>::zeros(3, 4);
        let _ = SumOperand::new(Op::NoTrans, &[(1.0, x0.as_ref()), (1.0, x1.as_ref())]);
    }

    /// Strassen's 1969 seven-product table over flat 2x2 block indices
    /// (q = row·2 + col).
    fn strassen_table() -> [BlockProduct; 7] {
        let t = BlockTerms::new;
        [
            BlockProduct { a: t(&[(1, 0), (1, 3)]), b: t(&[(1, 0), (1, 3)]), c: t(&[(1, 0), (1, 3)]) },
            BlockProduct { a: t(&[(1, 2), (1, 3)]), b: t(&[(1, 0)]), c: t(&[(1, 2), (-1, 3)]) },
            BlockProduct { a: t(&[(1, 0)]), b: t(&[(1, 1), (-1, 3)]), c: t(&[(1, 1), (1, 3)]) },
            BlockProduct { a: t(&[(1, 3)]), b: t(&[(1, 2), (-1, 0)]), c: t(&[(1, 0), (1, 2)]) },
            BlockProduct { a: t(&[(1, 0), (1, 1)]), b: t(&[(1, 3)]), c: t(&[(-1, 0), (1, 1)]) },
            BlockProduct { a: t(&[(1, 2), (-1, 0)]), b: t(&[(1, 0), (1, 1)]), c: t(&[(1, 3)]) },
            BlockProduct { a: t(&[(1, 1), (-1, 3)]), b: t(&[(1, 2), (1, 3)]), c: t(&[(1, 0)]) },
        ]
    }

    #[test]
    fn fused_level_runs_one_strassen_level() {
        // Odd-ish blocking so every tail path is exercised, β grid.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let table = strassen_table();
        for &(m, k, n) in &[(8usize, 8usize, 8usize), (26, 18, 34), (64, 32, 48)] {
            for beta in [0.0, 1.0, -0.7] {
                let a = random::uniform::<f64>(m, k, 31);
                let b = random::uniform::<f64>(k, n, 32);
                let c0 = random::uniform::<f64>(m, n, 33);
                let mut got = c0.clone();
                gemm_fused_level(&cfg, 1.1, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);
                let mut want = c0.clone();
                super::super::gemm_naive(
                    1.1,
                    Op::NoTrans,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    beta,
                    want.as_mut(),
                );
                let diff = matrix::norms::rel_diff(got.as_ref(), want.as_ref());
                assert!(diff < 1e-12, "{m}x{k}x{n} β={beta}: rel diff {diff:.3e}");
            }
        }
    }

    #[test]
    fn fused_level_grid_one_is_plain_gemm() {
        let cfg = GemmConfig::blocked();
        let (m, k, n) = (20, 12, 16);
        let a = random::uniform::<f64>(m, k, 41);
        let b = random::uniform::<f64>(k, n, 42);
        let c0 = random::uniform::<f64>(m, n, 43);
        let mut got = c0.clone();
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::single(1, 0),
        }];
        gemm_fused_level(&cfg, 0.8, a.as_ref(), b.as_ref(), 0.3, got.as_mut(), &table, 1);
        let mut want = c0.clone();
        super::super::gemm_blocked(
            &cfg,
            0.8,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.3,
            want.as_mut(),
        );
        matrix::norms::assert_allclose(got.as_ref(), want.as_ref(), 1e-13, "grid 1");
    }

    #[test]
    fn fused_level_scales_untouched_blocks_by_beta() {
        // A one-product schedule touching only C block 0: the other three
        // blocks must still see β.
        let cfg = GemmConfig::blocked();
        let a = random::uniform::<f64>(8, 8, 51);
        let b = random::uniform::<f64>(8, 8, 52);
        let mut c = Matrix::from_fn(8, 8, |_, _| 2.0);
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::single(1, 0),
        }];
        gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.5, c.as_mut(), &table, 2);
        // Block (1,1) untouched by the product: pure β scaling.
        assert_eq!(c.at(7, 7), 1.0);
        assert_eq!(c.at(0, 7), 1.0);
        assert_eq!(c.at(7, 0), 1.0);
    }

    #[test]
    fn fused_level_parallel_is_bitwise_serial() {
        let _ = pool::set_num_threads(4);
        let workers = pool::current_num_threads();
        let t = BlockTerms::new;
        // Touches C blocks 0 and 2 only: blocks 1 and 3 get pure β.
        let partial = [
            BlockProduct { a: t(&[(1, 0)]), b: t(&[(1, 0)]), c: t(&[(1, 0)]) },
            BlockProduct { a: t(&[(1, 1)]), b: t(&[(1, 2)]), c: t(&[(1, 0), (-1, 2)]) },
            BlockProduct { a: t(&[(1, 2), (1, 3)]), b: t(&[(1, 0), (-1, 2)]), c: t(&[(1, 2)]) },
            BlockProduct { a: t(&[(1, 3)]), b: t(&[(1, 2)]), c: t(&[(1, 2)]) },
        ];
        let full = strassen_table();
        let (serial, parallel) = (GemmConfig::blocked(), GemmConfig::parallel());
        // Block widths 61 and 73 are not multiples of NR·workers, so the
        // column groups are uneven and the last one ends in a partial tile.
        for (m, k, n) in [(264usize, 264usize, 122usize), (270, 266, 146)] {
            let (bm, bk, bn) = (m / 2, k / 2, n / 2);
            assert_ne!(bn % (NR * workers), 0);
            let a = random::uniform::<f64>(m, k, 61);
            let b = random::uniform::<f64>(k, n, 62);
            for (table, label) in [(&full[..], "strassen"), (&partial[..], "partial")] {
                assert!(table.len() * bm * bk * bn >= MIN_PARALLEL_FLOPS, "{label}: must fork");
                for beta in [0.0, 0.5] {
                    // β = 0 must overwrite NaN without reading it.
                    let c0 = if beta == 0.0 {
                        Matrix::from_fn(m, n, |_, _| f64::NAN)
                    } else {
                        random::uniform::<f64>(m, n, 63)
                    };
                    let mut want = c0.clone();
                    let mut got = c0.clone();
                    gemm_fused_level(&serial, 1.5, a.as_ref(), b.as_ref(), beta, want.as_mut(), table, 2);
                    gemm_fused_level(&parallel, 1.5, a.as_ref(), b.as_ref(), beta, got.as_mut(), table, 2);
                    let ctx = format!("{label} {m}x{k}x{n} β={beta} on {workers} workers");
                    assert!(want.as_slice().iter().all(|x| x.is_finite()), "{ctx}: NaN survived");
                    let bits = |c: &Matrix<f64>| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{ctx}: parallel differs from serial");
                    if label == "partial" {
                        // Untouched blocks 1 and 3 (the right half): β·C,
                        // with β = 0 clearing NaN.
                        let scaled = |i, j| if beta == 0.0 { 0.0 } else { beta * c0.at(i, j) };
                        assert_eq!(got.at(0, n - 1), scaled(0, n - 1), "{ctx}");
                        assert_eq!(got.at(m - 1, bn), scaled(m - 1, bn), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "destination block twice")]
    fn duplicate_destination_blocks_panic() {
        let cfg = GemmConfig::blocked();
        let a = Matrix::<f64>::zeros(4, 4);
        let b = Matrix::<f64>::zeros(4, 4);
        let mut c = Matrix::<f64>::zeros(4, 4);
        let table = [BlockProduct {
            a: BlockTerms::single(1, 0),
            b: BlockTerms::single(1, 0),
            c: BlockTerms::new(&[(1, 0), (-1, 0)]),
        }];
        gemm_fused_level(&cfg, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), &table, 2);
    }

    #[test]
    fn fused_level_matches_per_product_fused_calls() {
        // The shared-panel executor must agree with running each product
        // as its own gemm_fused call (the pre-level formulation) — the
        // combination of packed panels is numerically the packing of the
        // combination because both use the same γ-ordered mul_add chain.
        let cfg = GemmConfig { mc: 16, kc: 12, nc: 20, ..GemmConfig::blocked() };
        let table = strassen_table();
        let (m, k, n) = (26, 18, 34);
        let (bm, bk, bn) = (m / 2, k / 2, n / 2);
        let a = random::uniform::<f64>(m, k, 61);
        let b = random::uniform::<f64>(k, n, 62);
        let c0 = random::uniform::<f64>(m, n, 63);
        let beta = -0.3;

        let mut got = c0.clone();
        gemm_fused_level(&cfg, 1.1, a.as_ref(), b.as_ref(), beta, got.as_mut(), &table, 2);

        let mut want = c0.clone();
        let mut seen = [false; 4];
        fn terms<'s>(
            bt: &BlockTerms,
            src: matrix::MatRef<'s, f64>,
            rdim: usize,
            cdim: usize,
        ) -> Vec<(f64, matrix::MatRef<'s, f64>)> {
            bt.iter()
                .map(|(gm, q)| {
                    let (r, cc) = (q as usize / 2, q as usize % 2);
                    (gm as f64, src.submatrix(r * rdim, cc * cdim, rdim, cdim))
                })
                .collect()
        }
        for p in &table {
            let sa = SumOperand::new(Op::NoTrans, &terms(&p.a, a.as_ref(), bm, bk));
            let sb = SumOperand::new(Op::NoTrans, &terms(&p.b, b.as_ref(), bk, bn));
            let ld = want.as_mut().ld();
            let base = want.as_mut().as_mut_ptr();
            let mut mk = |t: usize| {
                let (dl, q) = p.c.t[t];
                let q = q as usize;
                let view = unsafe {
                    matrix::MatMut::from_raw_parts(base.add((q / 2) * bm + (q % 2) * bn * ld), bm, bn, ld)
                };
                let first = !seen[q];
                seen[q] = true;
                if first {
                    DestSpec::init(view, dl as f64, beta)
                } else {
                    DestSpec::update(view, dl as f64)
                }
            };
            match p.c.len {
                1 => gemm_fused(&cfg, 1.1, &sa, &sb, &mut [mk(0)]),
                _ => gemm_fused(&cfg, 1.1, &sa, &sb, &mut [mk(0), mk(1)]),
            }
        }
        let diff = matrix::norms::rel_diff(got.as_ref(), want.as_ref());
        assert!(diff < 1e-13, "rel diff {diff:.3e}");
    }
}
