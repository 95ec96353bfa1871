//! Seven-temporary Winograd schedule with independent products, executed
//! serially, as a legacy fan-out, or as an explicit task DAG.
//!
//! The low-memory schedules (STRASSEN1/2) serialize the seven recursive
//! products through shared temporaries; that is precisely what makes
//! them small. This schedule materializes all operand sums (`S1..S4`,
//! `T1..T4`) and all seven products up front — the "straightforward
//! implementation" of Section 3.2, costing `mk + kn + (7/4)mn` per level
//! — which makes the products *data-independent* and therefore runnable
//! as parallel tasks. This is the "extend our implementation to use …
//! parallelism" future-work item of Section 5, and the memory-versus-
//! parallelism ablation in the benches.
//!
//! # One schedule, three executions
//!
//! A level is 21 *nodes* — 8 operand adds, 7 products, 2 shared-U
//! updates, 4 quadrant write-backs — whose real data dependencies form a
//! DAG (`S2` needs `S1`, `P6` needs `S2` and `T2`, `C12` needs `U2`,
//! `P5`, `P3`, …). Declaration order is a valid topological order, and
//! executing the node bodies in that order *is* the serial schedule.
//! With `depth < cfg.parallel_depth` the same nodes run on the pool
//! under [`crate::Scheduler`]:
//!
//! - [`Scheduler::TaskDag`]: all 21 nodes go to [`pool::dag`] with their
//!   edges. Products start the moment their operands land (`P1`, `P2`
//!   immediately — they read only `A`/`B` quadrants), write-backs overlap
//!   still-running products, and nodes of nested levels coexist in the
//!   worker deques — work-stealing across recursion levels, no
//!   level-at-a-time join barrier.
//! - [`Scheduler::FanOut`]: the PR-5 shape — adds serial on the calling
//!   thread, the seven products spawned as one scope, join, write-backs
//!   serial. Kept as the fuzzer baseline and ablation point.
//!
//! # Determinism
//!
//! Every execution mode runs the *same node bodies*, and every pair of
//! nodes that touch the same data is ordered by an edge, so each matrix
//! element sees one fixed floating-point op sequence regardless of
//! scheduler, width, thread count, or steal pattern: serial ≡ fan-out ≡
//! DAG, bitwise (β-scaling is folded into each quadrant's write-back
//! node, which changes *when* a quadrant is scaled, never the
//! per-element order scale-then-accumulate). The `parallel_smoke` and
//! `dag_scheduler` suites pin this.
//!
//! # Affinity
//!
//! Product `Pi` carries worker hint `i`, its operand adds carry the same
//! hint, and the `U` updates the hint of the product buffer they mutate.
//! Across levels the mapping is stable, so the worker that packed `P5`'s
//! panels last level sees `P5` again this level while its thread-local
//! pack buffers and arena are still warm. Hints are advisory; stealing
//! still balances the load.
//!
//! # Aliased buffers and `SlicePtr`
//!
//! DAG node closures need overlapping access to the `S`/`T`/`P` arena
//! carve-outs (one node writes `S1`, two read it) which the borrow
//! checker cannot express as simultaneous `&mut`/`&` captures. Bodies
//! therefore capture [`SlicePtr`]s — raw pointer + length — and rebuild
//! views inside the node. Soundness: for every conflicting pair of
//! accesses there is a DAG edge (or program order, in the serial mode),
//! and the executor publishes a completed node's writes before its
//! successors start (mutex-protected scheduling plus Acq/Rel dependency
//! counters), so all access is exclusive-xor-shared with happens-before.

use crate::config::{Scheduler, StrassenConfig};
use crate::dispatch::fmm;
use crate::trace::add::{accum, accum_sub, add_into, scale_in_place, sub_into};
use matrix::{MatMut, MatRef, Scalar};
use pool::dag::DagBuilder;
use pool::ring::tag::strassen_node;

/// Export names for the 21 schedule nodes, indexed by declaration order
/// (= the node id carried in timeline tags). The trace exporter
/// (`probe::timeline`) uses these to label duration events.
pub(crate) const DAG_NODE_NAMES: [&str; 21] = [
    "s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "c11", "u2",
    "u3", "c12", "c21", "c22",
];

/// Raw slice handle for DAG node bodies (see module docs). `Copy` so
/// many closures can capture the same carve-out; every dereference is
/// `unsafe` and justified by a dependency edge.
struct SlicePtr<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for SlicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlicePtr<T> {}

// SAFETY: a SlicePtr is just an address + length into the caller's
// workspace arena, which outlives the level (the DAG run is enclosed in
// the caller's frame). Cross-thread access discipline is the module-doc
// edge argument, not the type's business.
unsafe impl<T: Send> Send for SlicePtr<T> {}

impl<T: Scalar> SlicePtr<T> {
    fn of(s: &mut [T]) -> Self {
        Self { ptr: s.as_mut_ptr(), len: s.len() }
    }

    /// Reconstruct the shared view. SAFETY (caller): no node that writes
    /// this carve-out may be concurrent with this read — guaranteed by a
    /// dependency edge in every execution mode.
    unsafe fn mat<'x>(self, rows: usize, cols: usize) -> MatRef<'x, T> {
        MatRef::from_slice(std::slice::from_raw_parts(self.ptr, self.len), rows, cols, rows.max(1))
    }

    /// Reconstruct the exclusive view. SAFETY (caller): this node must be
    /// the only one touching the carve-out while it runs — guaranteed by
    /// dependency edges in every execution mode.
    unsafe fn mat_mut<'x>(self, rows: usize, cols: usize) -> MatMut<'x, T> {
        MatMut::from_slice(std::slice::from_raw_parts_mut(self.ptr, self.len), rows, cols, rows.max(1))
    }

    /// Reconstruct the exclusive slice (product workspace shares).
    /// SAFETY (caller): as for [`SlicePtr::mat_mut`].
    unsafe fn slice_mut<'x>(self) -> &'x mut [T] {
        std::slice::from_raw_parts_mut(self.ptr, self.len)
    }
}

/// `C ← α A B + β C` with per-product temporaries; the seven products
/// (and, under [`Scheduler::TaskDag`], the add passes too) run as pool
/// tasks while `depth < cfg.parallel_depth`.
pub(crate) fn seven_temp<T: Scalar>(
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

    let (a11, a12, a21, a22) = a.quadrants(m2, k2);
    let (b11, b12, b21, b22) = b.quadrants(k2, n2);

    let (s_buf, rest) = ws.split_at_mut(4 * m2 * k2);
    let (t_buf, rest) = rest.split_at_mut(4 * k2 * n2);
    let (p_buf, rest) = rest.split_at_mut(7 * m2 * n2);

    let s: [SlicePtr<T>; 4] = carve(s_buf, m2 * k2);
    let t: [SlicePtr<T>; 4] = carve(t_buf, k2 * n2);
    let p: [SlicePtr<T>; 7] = carve(p_buf, m2 * n2);

    let (c11, c12, c21, c22) = c.split_quadrants(m2, n2);

    // The product operands, in slot order (α folded into the recursion).
    // `Left`/`Right` resolve S/T carve-outs lazily so each product reads
    // the sums *its* dependency edges produced.
    let prod_ops: [(Operand<T>, Operand<T>); 7] = [
        (Operand::Quad(a11), Operand::Quad(b11)), // P1 = A11·B11
        (Operand::Quad(a12), Operand::Quad(b21)), // P2 = A12·B21
        (Operand::Sum(s[3]), Operand::Quad(b22)), // P3 = S4·B22
        (Operand::Quad(a22), Operand::Sum(t[3])), // P4 = A22·T4
        (Operand::Sum(s[0]), Operand::Sum(t[0])), // P5 = S1·T1
        (Operand::Sum(s[1]), Operand::Sum(t[1])), // P6 = S2·T2
        (Operand::Sum(s[2]), Operand::Sum(t[2])), // P7 = S3·T3
    ];

    if depth >= cfg.parallel_depth {
        serial_level(
            cfg,
            alpha,
            beta,
            (m2, k2, n2),
            (a11, a12, a21, a22),
            (b11, b12, b21, b22),
            &s,
            &t,
            &p,
            prod_ops,
            (c11, c12, c21, c22),
            rest,
            depth,
        );
    } else {
        // Each product gets its own arena share so all seven can be in
        // flight at once (required_workspace sizes for exactly this).
        let share = rest.len() / 7;
        let shares: [SlicePtr<T>; 7] = {
            let mut it = rest.chunks_mut(share.max(1));
            std::array::from_fn(|_| SlicePtr::of(it.next().unwrap_or(&mut [])))
        };
        match cfg.scheduler {
            Scheduler::TaskDag => dag_level(
                cfg,
                alpha,
                beta,
                (m2, k2, n2),
                (a11, a12, a21, a22),
                (b11, b12, b21, b22),
                &s,
                &t,
                &p,
                prod_ops,
                (c11, c12, c21, c22),
                shares,
                depth,
            ),
            Scheduler::FanOut => fanout_level(
                cfg,
                alpha,
                beta,
                (m2, k2, n2),
                (a11, a12, a21, a22),
                (b11, b12, b21, b22),
                &s,
                &t,
                &p,
                prod_ops,
                (c11, c12, c21, c22),
                shares,
                depth,
            ),
        }
    }
}

/// A product operand: an input quadrant view, or an `S`/`T` sum
/// carve-out produced by a pre-add node.
enum Operand<'a, T> {
    Quad(MatRef<'a, T>),
    Sum(SlicePtr<T>),
}

impl<'a, T: Scalar> Operand<'a, T> {
    /// SAFETY (caller): for `Sum`, the producing add node must have
    /// completed (dependency edge).
    unsafe fn view(&self, rows: usize, cols: usize) -> MatRef<'_, T> {
        match self {
            Operand::Quad(q) => *q,
            Operand::Sum(sp) => sp.mat(rows, cols),
        }
    }
}

fn carve<T: Scalar, const N: usize>(buf: &mut [T], each: usize) -> [SlicePtr<T>; N] {
    let mut it = buf.chunks_exact_mut(each.max(1));
    std::array::from_fn(|_| SlicePtr::of(it.next().unwrap_or(&mut [])))
}

/// Stage (1)+(2): the eight operand sums, in canonical node order.
/// SAFETY (caller): exclusive access to the `S`/`T` carve-outs for the
/// duration (serial and fan-out modes run this before any product).
unsafe fn pre_adds<T: Scalar>(
    (m2, k2, n2): (usize, usize, usize),
    (a11, a12, a21, a22): (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    (b11, b12, b21, b22): (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    s: &[SlicePtr<T>; 4],
    t: &[SlicePtr<T>; 4],
) {
    add_into(s[0].mat_mut(m2, k2), a21, a22); // S1 = A21+A22
    sub_into(s[1].mat_mut(m2, k2), s[0].mat(m2, k2), a11); // S2 = S1−A11
    sub_into(s[2].mat_mut(m2, k2), a11, a21); // S3 = A11−A21
    sub_into(s[3].mat_mut(m2, k2), a12, s[1].mat(m2, k2)); // S4 = A12−S2
    sub_into(t[0].mat_mut(k2, n2), b12, b11); // T1 = B12−B11
    sub_into(t[1].mat_mut(k2, n2), b22, t[0].mat(k2, n2)); // T2 = B22−T1
    sub_into(t[2].mat_mut(k2, n2), b22, b12); // T3 = B22−B12
    sub_into(t[3].mat_mut(k2, n2), t[1].mat(k2, n2), b21); // T4 = T2−B21
}

/// Stage (4): shared-U updates and quadrant write-backs, in canonical
/// node order. β is applied per quadrant immediately before its first
/// accumulation — the same per-element scale-then-accumulate sequence as
/// a whole-`C` pre-scale.
/// SAFETY (caller): all seven products completed; exclusive access to
/// `P` carve-outs and `C` quadrants.
#[allow(clippy::too_many_arguments)]
unsafe fn post_adds<T: Scalar>(
    beta: T,
    (m2, n2): (usize, usize),
    p: &[SlicePtr<T>; 7],
    (mut c11, mut c12, mut c21, mut c22): (MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>),
) {
    scale_in_place(beta, c11.rb_mut());
    accum(c11.rb_mut(), p[0].mat(m2, n2));
    accum(c11.rb_mut(), p[1].mat(m2, n2)); // C11 = βC11 + P1+P2

    accum(p[5].mat_mut(m2, n2), p[0].mat(m2, n2)); // P6 := U2 = P1+P6
    accum(p[6].mat_mut(m2, n2), p[5].mat(m2, n2)); // P7 := U3 = U2+P7

    scale_in_place(beta, c12.rb_mut());
    accum(c12.rb_mut(), p[5].mat(m2, n2));
    accum(c12.rb_mut(), p[4].mat(m2, n2));
    accum(c12.rb_mut(), p[2].mat(m2, n2)); // C12 = βC12 + U2+P5+P3

    scale_in_place(beta, c21.rb_mut());
    accum(c21.rb_mut(), p[6].mat(m2, n2));
    accum_sub(c21.rb_mut(), p[3].mat(m2, n2)); // C21 = βC21 + U3−P4

    scale_in_place(beta, c22.rb_mut());
    accum(c22.rb_mut(), p[6].mat(m2, n2));
    accum(c22.rb_mut(), p[4].mat(m2, n2)); // C22 = βC22 + U3+P5
}

/// Serial execution: the canonical node order on the calling thread
/// (products share the whole remaining arena, as only one runs at a
/// time).
#[allow(clippy::too_many_arguments)]
fn serial_level<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    beta: T,
    dims @ (m2, k2, n2): (usize, usize, usize),
    aq: (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    bq: (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    s: &[SlicePtr<T>; 4],
    t: &[SlicePtr<T>; 4],
    p: &[SlicePtr<T>; 7],
    prod_ops: [(Operand<'_, T>, Operand<'_, T>); 7],
    cq: (MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>),
    rest: &mut [T],
    depth: usize,
) {
    // SAFETY: single-threaded, so program order is the dependency order;
    // each view is exclusive while its node body runs.
    unsafe {
        pre_adds(dims, aq, bq, s, t);
        for (slot, (lhs, rhs)) in prod_ops.iter().enumerate() {
            let lhs = lhs.view(m2, k2);
            let rhs = rhs.view(k2, n2);
            fmm(cfg, alpha, lhs, rhs, T::ZERO, p[slot].mat_mut(m2, n2), rest, depth + 1);
        }
        post_adds(beta, (m2, n2), p, cq);
    }
}

/// Legacy fan-out: adds serial, the seven products spawned as one scope
/// (with slot-affinity hints), join, write-backs serial.
#[allow(clippy::too_many_arguments)]
fn fanout_level<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    beta: T,
    dims @ (m2, k2, n2): (usize, usize, usize),
    aq: (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    bq: (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    s: &[SlicePtr<T>; 4],
    t: &[SlicePtr<T>; 4],
    p: &[SlicePtr<T>; 7],
    prod_ops: [(Operand<'_, T>, Operand<'_, T>); 7],
    cq: (MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>),
    shares: [SlicePtr<T>; 7],
    depth: usize,
) {
    // SAFETY: pre_adds completes before any product is spawned; the
    // scope joins before post_adds; each spawned product touches only
    // its own P slot and workspace share.
    unsafe {
        pre_adds(dims, aq, bq, s, t);
        pool::scope(|scope| {
            for (slot, (lhs, rhs)) in prod_ops.into_iter().enumerate() {
                let pslot = p[slot];
                let share = shares[slot];
                // Same (level, node) timeline tags as the DAG mode's
                // product nodes, so traces of either scheduler name the
                // products identically.
                let tag = strassen_node(depth as u8, 8 + slot as u8);
                scope.spawn_tagged(Some(slot), tag, move || {
                    let lhs = lhs.view(m2, k2);
                    let rhs = rhs.view(k2, n2);
                    fmm(cfg, alpha, lhs, rhs, T::ZERO, pslot.mat_mut(m2, n2), share.slice_mut(), depth + 1);
                });
            }
        });
        post_adds(beta, (m2, n2), p, cq);
    }
}

/// Task-DAG execution: all 21 nodes on the pool with their real data
/// dependencies as edges (see module docs for the node table).
#[allow(clippy::too_many_arguments)]
fn dag_level<T: Scalar>(
    cfg: &StrassenConfig,
    alpha: T,
    beta: T,
    (m2, k2, n2): (usize, usize, usize),
    (a11, a12, a21, a22): (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    (b11, b12, b21, b22): (MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>, MatRef<'_, T>),
    s: &[SlicePtr<T>; 4],
    t: &[SlicePtr<T>; 4],
    p: &[SlicePtr<T>; 7],
    prod_ops: [(Operand<'_, T>, Operand<'_, T>); 7],
    (c11, c12, c21, c22): (MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>, MatMut<'_, T>),
    shares: [SlicePtr<T>; 7],
    depth: usize,
) {
    let mut dag = DagBuilder::new();
    let (s, t, p) = (*s, *t, *p);
    // Timeline tag for node id `i` (declaration order, the
    // [`DAG_NODE_NAMES`] index) at this recursion level.
    let ntag = |i: u8| strassen_node(depth as u8, i);

    // Pre-add nodes 0..=7, hinted at the product slot they feed.
    // SAFETY (all node bodies below): every conflicting access pair is
    // ordered by a declared edge — the module-doc discipline.
    let s1 = dag.node_tagged(Some(4), &[], ntag(0), move || unsafe {
        add_into(s[0].mat_mut(m2, k2), a21, a22);
    });
    let s2 = dag.node_tagged(Some(5), &[s1], ntag(1), move || unsafe {
        sub_into(s[1].mat_mut(m2, k2), s[0].mat(m2, k2), a11);
    });
    let s3 = dag.node_tagged(Some(6), &[], ntag(2), move || unsafe {
        sub_into(s[2].mat_mut(m2, k2), a11, a21);
    });
    let s4 = dag.node_tagged(Some(2), &[s2], ntag(3), move || unsafe {
        sub_into(s[3].mat_mut(m2, k2), a12, s[1].mat(m2, k2));
    });
    let t1 = dag.node_tagged(Some(4), &[], ntag(4), move || unsafe {
        sub_into(t[0].mat_mut(k2, n2), b12, b11);
    });
    let t2 = dag.node_tagged(Some(5), &[t1], ntag(5), move || unsafe {
        sub_into(t[1].mat_mut(k2, n2), b22, t[0].mat(k2, n2));
    });
    let t3 = dag.node_tagged(Some(6), &[], ntag(6), move || unsafe {
        sub_into(t[2].mat_mut(k2, n2), b22, b12);
    });
    let t4 = dag.node_tagged(Some(3), &[t2], ntag(7), move || unsafe {
        sub_into(t[3].mat_mut(k2, n2), t[1].mat(k2, n2), b21);
    });

    // Product nodes, hinted at their slot; edges = the sums they read.
    let sum_deps: [&[usize]; 7] = [&[], &[], &[s4], &[t4], &[s1, t1], &[s2, t2], &[s3, t3]];
    let mut prod = [0usize; 7];
    for (slot, (lhs, rhs)) in prod_ops.into_iter().enumerate() {
        let pslot = p[slot];
        let share = shares[slot];
        prod[slot] = dag.node_tagged(Some(slot), sum_deps[slot], ntag(8 + slot as u8), move || unsafe {
            let lhs = lhs.view(m2, k2);
            let rhs = rhs.view(k2, n2);
            fmm(cfg, alpha, lhs, rhs, T::ZERO, pslot.mat_mut(m2, n2), share.slice_mut(), depth + 1);
        });
    }
    let [p1, p2, p3, p4, p5, p6, p7] = prod;

    // Write-back and shared-U nodes. Each C quadrant is owned by exactly
    // one node (the MatMut moves into it); U nodes mutate their P slot.
    let mut c11 = c11;
    dag.node_tagged(None, &[p1, p2], ntag(15), move || unsafe {
        scale_in_place(beta, c11.rb_mut());
        accum(c11.rb_mut(), p[0].mat(m2, n2));
        accum(c11.rb_mut(), p[1].mat(m2, n2));
    });
    let u2 = dag.node_tagged(Some(5), &[p1, p6], ntag(16), move || unsafe {
        accum(p[5].mat_mut(m2, n2), p[0].mat(m2, n2)); // P6 := U2 = P1+P6
    });
    let u3 = dag.node_tagged(Some(6), &[u2, p7], ntag(17), move || unsafe {
        accum(p[6].mat_mut(m2, n2), p[5].mat(m2, n2)); // P7 := U3 = U2+P7
    });
    let mut c12 = c12;
    dag.node_tagged(None, &[u2, p5, p3], ntag(18), move || unsafe {
        scale_in_place(beta, c12.rb_mut());
        accum(c12.rb_mut(), p[5].mat(m2, n2));
        accum(c12.rb_mut(), p[4].mat(m2, n2));
        accum(c12.rb_mut(), p[2].mat(m2, n2));
    });
    let mut c21 = c21;
    dag.node_tagged(None, &[u3, p4], ntag(19), move || unsafe {
        scale_in_place(beta, c21.rb_mut());
        accum(c21.rb_mut(), p[6].mat(m2, n2));
        accum_sub(c21.rb_mut(), p[3].mat(m2, n2));
    });
    let mut c22 = c22;
    dag.node_tagged(None, &[u3, p5], ntag(20), move || unsafe {
        scale_in_place(beta, c22.rb_mut());
        accum(c22.rb_mut(), p[6].mat(m2, n2));
        accum(c22.rb_mut(), p[4].mat(m2, n2));
    });

    dag.run(cfg.parallel_width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutoff::CutoffCriterion;
    use crate::{Scheme, StrassenConfig};
    use blas::level3::{gemm, GemmConfig};
    use blas::Op;
    use matrix::random;

    #[test]
    fn seven_temp_one_level_all_schedulers() {
        let _ = pool::set_num_threads(4);
        let base = StrassenConfig::dgefmm()
            .scheme(Scheme::SevenTemp)
            .cutoff(CutoffCriterion::Never)
            .max_depth(1)
            .fused(false);
        let (m, k, n) = (12, 8, 16);
        let a = random::uniform::<f64>(m, k, 1);
        let b = random::uniform::<f64>(k, n, 2);
        let c0 = random::uniform::<f64>(m, n, 3);
        let mut expect = c0.clone();
        gemm(
            &GemmConfig::naive(),
            0.7,
            Op::NoTrans,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            0.3,
            expect.as_mut(),
        );

        for scheduler in Scheduler::ALL {
            for parallel_depth in [0usize, 1] {
                for width in [1usize, 2, usize::MAX] {
                    let mut cfg = base.scheduler(scheduler).parallel_width(width);
                    cfg.parallel_depth = parallel_depth;
                    let mut c = c0.clone();
                    let mut ws = vec![0.0; crate::required_workspace(&cfg, m, k, n, false)];
                    seven_temp(&cfg, 0.7, a.as_ref(), b.as_ref(), 0.3, c.as_mut(), &mut ws, 0);
                    matrix::norms::assert_allclose(
                        c.as_ref(),
                        expect.as_ref(),
                        1e-13,
                        &format!("seven_temp {scheduler:?} depth={parallel_depth} width={width}"),
                    );
                }
            }
        }
    }
}
