//! Broadcast-aware elementwise ops (numeric-style shape compatibility).
//!
//! Compatibility rule (the NumPy convention): shapes are compared
//! right-aligned, axis by axis; a pair of axis lengths is compatible when
//! they are equal or either is 1. Missing leading axes count as 1. The
//! broadcast result takes the max of each pair.
//!
//! Neither operand is ever materialised at the broadcast shape: iteration
//! walks the output row-major in runs along its innermost axis, where each
//! operand advances by 1 (or stays put, when it is broadcast along that
//! axis); an odometer steps only the outer axes, each operand by its own
//! stride — 0 along broadcast axes. Forward and backward of all three ops
//! share this one walk. Backward reduces the output gradient over the
//! broadcast axes of each parent by accumulating in ascending row-major
//! output order, serially, so gradients are exactly reproducible (and
//! independent of thread count by construction).
//!
//! The pre-existing row/column helpers ([`Tensor::add_row`],
//! [`Tensor::mul_row`], [`Tensor::mul_col`]) are thin wrappers over these
//! ops — they keep their historical shape panics but share this kernel.

use super::{out_grad, result};
use crate::shape::{Shape, MAX_RANK};
use crate::tensor::Tensor;

/// True when `a` and `b` broadcast together (numeric semantics).
pub fn compatible(a: &Shape, b: &Shape) -> bool {
    broadcast_shape(a, b).is_some()
}

/// The broadcast result shape, or `None` when incompatible.
pub fn broadcast_shape(a: &Shape, b: &Shape) -> Option<Shape> {
    let rank = a.rank().max(b.rank());
    let mut dims = [1usize; MAX_RANK];
    for (axis, dim) in dims.iter_mut().enumerate().take(rank) {
        // Right-aligned: axis counted from the trailing end.
        let da = aligned_dim(a, rank, axis);
        let db = aligned_dim(b, rank, axis);
        if da != db && da != 1 && db != 1 {
            return None;
        }
        // A length-1 axis stretches to the other operand's, even to 0.
        *dim = if da == 1 { db } else { da };
    }
    Some(Shape::new(&dims[..rank]))
}

/// Dim of `s` at `axis` of a rank-`rank` right-aligned frame (1 if absent).
fn aligned_dim(s: &Shape, rank: usize, axis: usize) -> usize {
    let offset = rank - s.rank();
    if axis < offset {
        1
    } else {
        s.dim(axis - offset)
    }
}

/// Row-major strides of `s` inside the broadcast frame `out`: 0 along axes
/// where `s` has length 1 but `out` does not.
fn bcast_strides(s: &Shape, out: &Shape) -> [usize; MAX_RANK] {
    let rank = out.rank();
    let own = s.strides();
    let offset = rank - s.rank();
    let mut strides = [0usize; MAX_RANK];
    for axis in 0..rank {
        if axis >= offset && s.dim(axis - offset) == out.dim(axis) {
            strides[axis] = own[axis - offset];
        }
        // Axes where s is absent or length-1 against a longer out axis keep
        // stride 0; a length-1 axis matching a length-1 out axis also gets
        // its true stride via the branch above (they're equal).
    }
    strides
}

/// One run of the broadcast walk: output elements `out..out + len`; each
/// operand starts at its offset and advances by its step, 1 or 0 (0 when
/// it is broadcast along the innermost axis).
#[derive(Debug)]
struct Run {
    out: usize,
    len: usize,
    a: usize,
    a_step: usize,
    b: usize,
    b_step: usize,
}

/// Walk `out` row-major as runs along its innermost axis: the run order,
/// and the element order inside each run, is the row-major element order.
fn for_each_bcast(out: &Shape, a: &Shape, b: &Shape, mut f: impl FnMut(Run)) {
    let rank = out.rank();
    if rank == 0 {
        f(Run { out: 0, len: 1, a: 0, a_step: 0, b: 0, b_step: 0 });
        return;
    }
    let numel = out.numel();
    if numel == 0 {
        return;
    }
    let sa = bcast_strides(a, out);
    let sb = bcast_strides(b, out);
    let inner = rank - 1;
    let len = out.dim(inner);
    let (a_step, b_step) = (sa[inner], sb[inner]);
    let mut idx = [0usize; MAX_RANK];
    let (mut ao, mut bo) = (0usize, 0usize);
    for run in 0..numel / len {
        f(Run { out: run * len, len, a: ao, a_step, b: bo, b_step });
        // Odometer increment over the outer axes, innermost first.
        for axis in (0..inner).rev() {
            idx[axis] += 1;
            ao += sa[axis];
            bo += sb[axis];
            if idx[axis] < out.dim(axis) {
                break;
            }
            idx[axis] = 0;
            ao -= sa[axis] * out.dim(axis);
            bo -= sb[axis] * out.dim(axis);
        }
    }
}

/// The operand elements a run reads: `len` from `offset` when it steps,
/// the single element at `offset` when it is broadcast.
fn span(v: &[f32], offset: usize, step: usize, len: usize) -> &[f32] {
    &v[offset..offset + if step == 1 { len } else { 1 }]
}

/// Forward over one run: `dst[k] = op(x[k·sx], y[k·sy])`. The four step
/// pairs are separate loops so the contiguous ones compile to plain slice
/// sweeps.
fn zip_run(
    dst: &mut [f32],
    x: &[f32],
    sx: usize,
    y: &[f32],
    sy: usize,
    op: impl Fn(f32, f32) -> f32,
) {
    match (sx, sy) {
        (1, 1) => dst.iter_mut().zip(x).zip(y).for_each(|((d, x), y)| *d = op(*x, *y)),
        (1, _) => dst.iter_mut().zip(x).for_each(|(d, x)| *d = op(*x, y[0])),
        (_, 1) => dst.iter_mut().zip(y).for_each(|(d, y)| *d = op(x[0], *y)),
        _ => dst.fill(op(x[0], y[0])),
    }
}

/// Backward over one run: for k in order, `acc[k·sa] = op(acc[k·sa], g[k],
/// y[k·sy])`. A broadcast accumulator (`sa` = 0) folds its run into one
/// element sequentially, the order the per-element walk used.
fn acc_run(
    acc: &mut [f32],
    sa: usize,
    g: &[f32],
    y: &[f32],
    sy: usize,
    op: impl Fn(f32, f32, f32) -> f32,
) {
    match (sa, sy) {
        (1, 1) => acc.iter_mut().zip(g).zip(y).for_each(|((a, g), y)| *a = op(*a, *g, *y)),
        (1, _) => acc.iter_mut().zip(g).for_each(|(a, g)| *a = op(*a, *g, y[0])),
        (_, 1) => acc[0] = g.iter().zip(y).fold(acc[0], |a, (g, y)| op(a, *g, *y)),
        _ => acc[0] = g.iter().fold(acc[0], |a, g| op(a, *g, y[0])),
    }
}

fn require_bcast(a: &Shape, b: &Shape, op: &str) -> Shape {
    broadcast_shape(a, b)
        .unwrap_or_else(|| panic!("{op}: shapes {a} and {b} are not broadcast-compatible"))
}

/// The forward of a broadcasting binary op: `op(a, b)` at every element
/// of the broadcast shape.
fn bcast_forward(a: &Tensor, b: &Tensor, shape: &Shape, op: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut data = vec![0.0f32; shape.numel()];
    let (av, bv) = (a.data(), b.data());
    for_each_bcast(shape, a.shape(), b.shape(), |r| {
        let x = span(&av, r.a, r.a_step, r.len);
        let y = span(&bv, r.b, r.b_step, r.len);
        zip_run(&mut data[r.out..r.out + r.len], x, r.a_step, y, r.b_step, &op);
    });
    data
}

/// The gradient of the operand shaped `own`, reduced over its broadcast
/// axes: `d[own] = op(d[own], g, other)` visited in row-major output order.
/// `other` holds the values of the operand shaped `other_shape` that the
/// derivative reads (`None` for add/sub, which read only the output
/// gradient). The walk is symmetric in its two operands, so the same call
/// serves either side of the op.
fn bcast_backward(
    out: &Shape,
    own: &Shape,
    other_shape: &Shape,
    g: &[f32],
    other: Option<&[f32]>,
    op: impl Fn(f32, f32, f32) -> f32,
) -> Vec<f32> {
    let mut acc = vec![0.0f32; own.numel()];
    for_each_bcast(out, own, other_shape, |r| {
        let gr = &g[r.out..r.out + r.len];
        let dst = &mut acc[r.a..r.a + if r.a_step == 1 { r.len } else { 1 }];
        match other {
            Some(v) => acc_run(dst, r.a_step, gr, span(v, r.b, r.b_step, r.len), r.b_step, &op),
            None => acc_run(dst, r.a_step, gr, gr, 1, &op),
        }
    });
    acc
}

impl Tensor {
    /// Broadcasting `self + other`.
    pub fn add_bcast(&self, other: &Tensor) -> Tensor {
        let shape = require_bcast(self.shape(), other.shape(), "add_bcast");
        let data = bcast_forward(self, other, &shape, |x, y| x + y);
        let (a, b) = (self.clone(), other.clone());
        result(data, shape, vec![self.clone(), other.clone()], "add_bcast", move |out| {
            let g = out_grad(out);
            let (sa, sb, so) = (a.shape(), b.shape(), out.shape());
            if a.tracks_grad() {
                a.accumulate_grad(&bcast_backward(so, sa, sb, &g, None, |d, g, _| d + g));
            }
            if b.tracks_grad() {
                b.accumulate_grad(&bcast_backward(so, sb, sa, &g, None, |d, g, _| d + g));
            }
        })
    }

    /// Broadcasting `self ⊙ other`.
    pub fn mul_bcast(&self, other: &Tensor) -> Tensor {
        let shape = require_bcast(self.shape(), other.shape(), "mul_bcast");
        let data = bcast_forward(self, other, &shape, |x, y| x * y);
        let (a, b) = (self.clone(), other.clone());
        result(data, shape, vec![self.clone(), other.clone()], "mul_bcast", move |out| {
            let g = out_grad(out);
            let (sa, sb, so) = (a.shape(), b.shape(), out.shape());
            if a.tracks_grad() {
                let bv = b.data();
                a.accumulate_grad(&bcast_backward(so, sa, sb, &g, Some(&bv), |d, g, y| d + g * y));
            }
            if b.tracks_grad() {
                let av = a.data();
                b.accumulate_grad(&bcast_backward(so, sb, sa, &g, Some(&av), |d, g, x| d + g * x));
            }
        })
    }

    /// Broadcasting `self - other` (`a + (-1)·b` without the temporary:
    /// same kernel, negated accumulation).
    pub fn sub_bcast(&self, other: &Tensor) -> Tensor {
        let shape = require_bcast(self.shape(), other.shape(), "sub_bcast");
        let data = bcast_forward(self, other, &shape, |x, y| x - y);
        let (a, b) = (self.clone(), other.clone());
        result(data, shape, vec![self.clone(), other.clone()], "sub_bcast", move |out| {
            let g = out_grad(out);
            let (sa, sb, so) = (a.shape(), b.shape(), out.shape());
            if a.tracks_grad() {
                a.accumulate_grad(&bcast_backward(so, sa, sb, &g, None, |d, g, _| d + g));
            }
            if b.tracks_grad() {
                b.accumulate_grad(&bcast_backward(so, sb, sa, &g, None, |d, g, _| d - g));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }

    type BcastCase = (&'static [usize], &'static [usize], Option<&'static [usize]>);

    #[test]
    fn compatibility_matrix_mirrors_numeric_semantics() {
        // (a, b, expected broadcast dims or None)
        let cases: &[BcastCase] = &[
            (&[3], &[3], Some(&[3])),
            (&[2, 3], &[3], Some(&[2, 3])),
            (&[2, 3], &[1], Some(&[2, 3])),
            (&[2, 1], &[1, 3], Some(&[2, 3])),
            (&[4, 1, 5], &[3, 1], Some(&[4, 3, 5])),
            (&[], &[2, 2], Some(&[2, 2])),
            (&[1], &[7], Some(&[7])),
            (&[2, 3], &[2], None),
            (&[3, 2], &[2, 3], None),
            (&[4, 5], &[5, 4], None),
        ];
        for (da, db, want) in cases {
            let (a, b) = (shape(da), shape(db));
            match want {
                Some(dims) => {
                    assert!(compatible(&a, &b), "{a} vs {b} should be compatible");
                    assert_eq!(broadcast_shape(&a, &b).unwrap().dims(), *dims, "{a} vs {b}");
                    // Symmetry.
                    assert_eq!(broadcast_shape(&b, &a).unwrap().dims(), *dims);
                }
                None => {
                    assert!(!compatible(&a, &b), "{a} vs {b} should be rejected");
                    assert!(!compatible(&b, &a));
                }
            }
        }
    }

    #[test]
    fn add_bcast_row_and_col_vectors() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(m.add_bcast(&row).to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let col = Tensor::from_vec(vec![100.0, 200.0], &[2, 1]);
        assert_eq!(m.add_bcast(&col).to_vec(), vec![101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn mul_bcast_outer_product_via_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[1, 3]);
        let y = a.mul_bcast(&b);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(y.to_vec(), vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn bcast_backward_reduces_over_broadcast_axes() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).requires_grad();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).requires_grad();
        m.mul_bcast(&row).sum().backward();
        // d/d m = row broadcast; d/d row = column sums of m.
        assert_eq!(m.grad().unwrap(), vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0]);
        assert_eq!(row.grad().unwrap(), vec![1.0 + 4.0, 2.0 + 5.0, 3.0 + 6.0]);
    }

    #[test]
    fn sub_bcast_negates_broadcast_side() {
        let m = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).requires_grad();
        let v = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let y = m.sub_bcast(&v);
        assert_eq!(y.to_vec(), vec![4.0, 4.0, 6.0, 6.0]);
        y.sum().backward();
        assert_eq!(m.grad().unwrap(), vec![1.0; 4]);
        assert_eq!(v.grad().unwrap(), vec![-2.0, -2.0]);
    }

    #[test]
    fn scalar_broadcasts_against_anything() {
        let s = Tensor::scalar(2.0).requires_grad();
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let y = m.mul_bcast(&s);
        assert_eq!(y.to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
        y.sum().backward();
        assert_eq!(s.grad().unwrap(), vec![10.0]);
        assert_eq!(m.grad().unwrap(), vec![2.0; 4]);
    }

    /// The per-element odometer the run walk replaced: `(out, a, b)`
    /// offsets in row-major output order.
    fn odometer(out: &Shape, a: &Shape, b: &Shape) -> Vec<(usize, usize, usize)> {
        let (rank, sa, sb) = (out.rank(), bcast_strides(a, out), bcast_strides(b, out));
        let mut idx = [0usize; MAX_RANK];
        let (mut ao, mut bo) = (0usize, 0usize);
        let mut steps = Vec::new();
        for i in 0..out.numel() {
            steps.push((i, ao, bo));
            for axis in (0..rank).rev() {
                idx[axis] += 1;
                ao += sa[axis];
                bo += sb[axis];
                if idx[axis] < out.dim(axis) {
                    break;
                }
                idx[axis] = 0;
                ao -= sa[axis] * out.dim(axis);
                bo -= sb[axis] * out.dim(axis);
            }
        }
        steps
    }

    #[test]
    fn runs_expand_to_the_per_element_odometer_up_to_rank_4() {
        let mut shapes = vec![vec![]];
        let mut frontier: Vec<Vec<usize>> = vec![vec![]];
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|s| (1..=3).map(move |n| [s.as_slice(), &[n]].concat()))
                .collect();
            shapes.extend(frontier.iter().cloned());
        }
        for a in shapes.iter().map(|d| shape(d)) {
            for b in shapes.iter().map(|d| shape(d)) {
                let Some(out) = broadcast_shape(&a, &b) else { continue };
                let mut steps = Vec::new();
                for_each_bcast(&out, &a, &b, |r| {
                    assert!(r.a_step <= 1 && r.b_step <= 1, "{a} vs {b}: steps {r:?}");
                    steps.extend(
                        (0..r.len).map(|k| (r.out + k, r.a + k * r.a_step, r.b + k * r.b_step)),
                    );
                });
                assert_eq!(steps, odometer(&out, &a, &b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_length_axes_broadcast_to_empty_results() {
        let m = Tensor::zeros(&[2, 0]).requires_grad();
        let row = Tensor::zeros(&[0]).requires_grad();
        let y = m.add_bcast(&row);
        assert_eq!(y.dims(), &[2, 0]);
        y.sum().backward();
        assert_eq!(m.grad(), Some(vec![]));
        assert_eq!(row.grad(), Some(vec![]));
        let col = Tensor::zeros(&[0, 1]).mul_bcast(&Tensor::zeros(&[3]));
        assert_eq!(col.dims(), &[0, 3]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_shapes_panic() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2]);
        let _ = a.add_bcast(&b);
    }
}
