//! Structural ops: reshape, row gather/scatter, segment sums,
//! concatenation, stacking, slicing. These carry most of the "graph →
//! prompt" plumbing: embedding lookups are [`Tensor::gather_rows`],
//! neighbour aggregation and label means are [`Tensor::segment_sum_rows`]
//! and [`Tensor::segment_mean_rows`], the soft-prompt concat (paper Eq. 7)
//! is [`Tensor::concat_cols`], mini-batch assembly uses
//! [`Tensor::stack_rows`].
//!
//! The backward of every op here that reaches only part of its parent
//! (gathers, segment sums, row and column slices) adds into the rows or
//! columns it touched, in place in the parent's gradient buffer, instead
//! of adding a parent-sized scratch buffer (the buffer is allocated
//! zero-filled on first touch). Every element ends up equal to what the
//! dense form gave; only the sign of an exact zero may differ: an untouched
//! −0 stays −0 where the dense `x + 0.0` made it +0, and a first touch adds
//! into +0 where a copy kept a −0. Neither can move a weight (see
//! `AdamW::step`).

use super::{out_grad, result};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// `dst += src`, element by element.
fn add_into(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
}

/// Scatter-adds gradient rows into the rows of a parent's gradient that
/// an index list names, reusing its scratch across calls.
#[derive(Default)]
struct RowScatter {
    order: Vec<usize>,
    fold: Vec<f32>,
}

impl RowScatter {
    /// `dst[idx[p]] += row(p)` over rows of `d` columns, for every position
    /// `p`. Positions that share an index are first summed into a zeroed
    /// row in position order and added once, so each touched element of
    /// `dst` sees the same additions a dense scratch buffer summed in
    /// position order would have brought it.
    fn add<'g>(
        &mut self,
        dst: &mut [f32],
        d: usize,
        idx: &[usize],
        row: impl Fn(usize) -> &'g [f32],
    ) {
        self.order.clear();
        self.order.extend(0..idx.len());
        // Stable: positions with equal indices keep their order.
        self.order.sort_by_key(|&p| idx[p]);
        for group in self.order.chunk_by(|&p, &q| idx[p] == idx[q]) {
            let i = idx[group[0]];
            let target = &mut dst[i * d..(i + 1) * d];
            if let [p] = group {
                add_into(target, row(*p));
            } else {
                self.fold.clear();
                self.fold.resize(d, 0.0);
                for &p in group {
                    add_into(&mut self.fold, row(p));
                }
                add_into(target, &self.fold);
            }
        }
    }
}

impl Tensor {
    /// Reinterpret the data with a new shape (same number of elements).
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.numel(), "reshape: {} -> {} element mismatch", self.shape(), shape);
        let a = self.clone();
        result(self.to_vec(), shape, vec![self.clone()], "reshape", move |out| {
            if a.tracks_grad() {
                a.accumulate_grad(&out_grad(out));
            }
        })
    }

    /// Gather rows of a rank-2 tensor by index: `[V, D] x indices -> [N, D]`.
    /// Backward scatter-adds into the gathered source rows only, with
    /// repeated indices summed in position order first (this is the
    /// embedding op: a batch touches a few rows of a large table).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let (v, d) = self.shape().as_matrix();
        let src = self.data();
        let mut data = Vec::with_capacity(indices.len() * d);
        for (pos, &i) in indices.iter().enumerate() {
            assert!(i < v, "gather_rows: index {i} out of range {v} at position {pos}");
            data.extend_from_slice(&src[i * d..(i + 1) * d]);
        }
        drop(src);
        let a = self.clone();
        let idx = indices.to_vec();
        let n = indices.len();
        result(data, Shape::new(&[n, d]), vec![self.clone()], "gather_rows", move |out| {
            if a.tracks_grad() {
                let g = out_grad(out);
                a.with_grad_mut(|da| {
                    RowScatter::default().add(da, d, &idx, |p| &g[p * d..(p + 1) * d]);
                });
            }
        })
    }

    /// Sum rows by segment: row `i` of the `[segments.len(), D]` result is
    /// the sum, in position order, of the rows of `self` that `segments[i]`
    /// names, and +0 for an empty segment. One node does what a gather, a
    /// column sum and a stack per segment did; forward and backward are
    /// O(E·D) for E indices in all. Backward scatters the segments in
    /// descending order: the order in which per-segment gather nodes built
    /// in ascending order run in reverse topological order.
    pub fn segment_sum_rows(&self, segments: &[Vec<usize>]) -> Tensor {
        let (v, d) = self.shape().as_matrix();
        let mut offsets = Vec::with_capacity(segments.len() + 1);
        let mut flat = Vec::with_capacity(segments.iter().map(Vec::len).sum());
        offsets.push(0);
        let mut data = vec![0.0f32; segments.len() * d];
        {
            let src = self.data();
            for (i, seg) in segments.iter().enumerate() {
                let row = &mut data[i * d..(i + 1) * d];
                for (pos, &j) in seg.iter().enumerate() {
                    assert!(
                        j < v,
                        "segment_sum_rows: index {j} out of range {v} in segment {i} at {pos}"
                    );
                    add_into(row, &src[j * d..(j + 1) * d]);
                }
                flat.extend_from_slice(seg);
                offsets.push(flat.len());
            }
        }
        let a = self.clone();
        let n = segments.len();
        result(data, Shape::new(&[n, d]), vec![self.clone()], "segment_sum_rows", move |out| {
            if a.tracks_grad() {
                let g = out_grad(out);
                a.with_grad_mut(|da| {
                    let mut scatter = RowScatter::default();
                    for i in (0..n).rev() {
                        let gi = &g[i * d..(i + 1) * d];
                        scatter.add(da, d, &flat[offsets[i]..offsets[i + 1]], |_| gi);
                    }
                });
            }
        })
    }

    /// Mean rows by segment: [`Tensor::segment_sum_rows`] scaled per row by
    /// `1/len`, the same `x·c` forward and `g·c` backward as a per-segment
    /// [`Tensor::mean_axis0`]. An empty segment's +0 sum is scaled by 1, not
    /// by `1/0`: `0·∞` would be NaN.
    pub fn segment_mean_rows(&self, segments: &[Vec<usize>]) -> Tensor {
        let inv_len: Vec<f32> = segments
            .iter()
            .map(|s| if s.is_empty() { 1.0 } else { 1.0 / s.len() as f32 })
            .collect();
        let n = segments.len();
        self.segment_sum_rows(segments).mul_col(&Tensor::from_vec(inv_len, &[n]))
    }

    /// Select a contiguous row range `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let (rows, d) = self.shape().as_matrix();
        assert!(start <= end && end <= rows, "slice_rows: bad range {start}..{end} of {rows}");
        let data = self.data()[start * d..end * d].to_vec();
        let a = self.clone();
        let n = end - start;
        result(data, Shape::new(&[n, d]), vec![self.clone()], "slice_rows", move |out| {
            if a.tracks_grad() {
                let g = out_grad(out);
                a.with_grad_mut(|da| add_into(&mut da[start * d..end * d], &g));
            }
        })
    }

    /// Extract a single row of a rank-2 tensor as a rank-1 tensor.
    pub fn row(&self, index: usize) -> Tensor {
        let (_, d) = self.shape().as_matrix();
        self.slice_rows(index, index + 1).reshape(&[d])
    }

    /// Concatenate two tensors along the last axis: `[N, A] ++ [N, B] -> [N, A+B]`.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        let (n1, a_cols) = self.shape().as_matrix();
        let (n2, b_cols) = other.shape().as_matrix();
        assert_eq!(n1, n2, "concat_cols: row count mismatch {n1} vs {n2}");
        let sa = self.data();
        let sb = other.data();
        let mut data = Vec::with_capacity(n1 * (a_cols + b_cols));
        for r in 0..n1 {
            data.extend_from_slice(&sa[r * a_cols..(r + 1) * a_cols]);
            data.extend_from_slice(&sb[r * b_cols..(r + 1) * b_cols]);
        }
        drop((sa, sb));
        let (a, b) = (self.clone(), other.clone());
        result(
            data,
            Shape::new(&[n1, a_cols + b_cols]),
            vec![self.clone(), other.clone()],
            "concat_cols",
            move |out| {
                let g = out_grad(out);
                let w = a_cols + b_cols;
                if a.tracks_grad() {
                    let mut da = vec![0.0f32; n1 * a_cols];
                    for r in 0..n1 {
                        da[r * a_cols..(r + 1) * a_cols]
                            .copy_from_slice(&g[r * w..r * w + a_cols]);
                    }
                    a.accumulate_grad(&da);
                }
                if b.tracks_grad() {
                    let mut db = vec![0.0f32; n1 * b_cols];
                    for r in 0..n1 {
                        db[r * b_cols..(r + 1) * b_cols]
                            .copy_from_slice(&g[r * w + a_cols..(r + 1) * w]);
                    }
                    b.accumulate_grad(&db);
                }
            },
        )
    }

    /// Concatenate rank-2 tensors along rows: `[[N1,D],[N2,D],..] -> [ΣN, D]`.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let d = parts[0].shape().last_dim();
        let mut total = 0usize;
        for p in parts {
            assert_eq!(p.shape().last_dim(), d, "concat_rows: column mismatch");
            total += p.shape().leading();
        }
        let mut data = Vec::with_capacity(total * d);
        for p in parts {
            data.extend_from_slice(&p.data());
        }
        let owned: Vec<Tensor> = parts.to_vec();
        result(data, Shape::new(&[total, d]), parts.to_vec(), "concat_rows", move |out| {
            let g = out_grad(out);
            let mut offset = 0usize;
            for p in &owned {
                let len = p.numel();
                if p.tracks_grad() {
                    p.accumulate_grad(&g[offset..offset + len]);
                }
                offset += len;
            }
        })
    }

    /// Stack rank-1 tensors of equal length into a rank-2 tensor `[N, D]`.
    pub fn stack_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "stack_rows: empty input");
        let d = parts[0].numel();
        let mut data = Vec::with_capacity(parts.len() * d);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.numel(), d, "stack_rows: length mismatch at {i}");
            data.extend_from_slice(&p.data());
        }
        let owned: Vec<Tensor> = parts.to_vec();
        result(data, Shape::new(&[parts.len(), d]), parts.to_vec(), "stack_rows", move |out| {
            let g = out_grad(out);
            for (i, p) in owned.iter().enumerate() {
                if p.tracks_grad() {
                    p.accumulate_grad(&g[i * d..(i + 1) * d]);
                }
            }
        })
    }

    /// Select a contiguous column range `[start, end)` of a rank-2 tensor
    /// (used to split fused QKV/head projections in attention).
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let (rows, cols) = self.shape().as_matrix();
        assert!(start <= end && end <= cols, "slice_cols: bad range {start}..{end} of {cols}");
        let w = end - start;
        let src = self.data();
        let mut data = Vec::with_capacity(rows * w);
        for r in 0..rows {
            data.extend_from_slice(&src[r * cols + start..r * cols + end]);
        }
        drop(src);
        let a = self.clone();
        result(data, Shape::new(&[rows, w]), vec![self.clone()], "slice_cols", move |out| {
            if a.tracks_grad() {
                let g = out_grad(out);
                a.with_grad_mut(|da| {
                    for r in 0..rows {
                        add_into(&mut da[r * cols + start..r * cols + end], &g[r * w..(r + 1) * w]);
                    }
                });
            }
        })
    }

    /// Select arbitrary rows (with duplicates allowed) — a gather over the
    /// leading axis of a rank-2 tensor, alias of [`Tensor::gather_rows`]
    /// kept for call-site readability in sampling code.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        self.gather_rows(indices)
    }
}

#[cfg(test)]
mod tests {
    use crate::tensor::Tensor;

    #[test]
    fn reshape_preserves_data_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let y = x.reshape(&[4]);
        assert_eq!(y.dims(), &[4]);
        y.mul_scalar(3.0).sum().backward();
        assert_eq!(x.grad().unwrap(), vec![3.0; 4]);
    }

    #[test]
    fn gather_rows_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = w.gather_rows(&[2, 0, 2]);
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_rows_scatter_adds_duplicates() {
        let w = Tensor::zeros(&[3, 2]).requires_grad();
        let g = w.gather_rows(&[1, 1, 2]);
        g.sum().backward();
        // Row 1 gathered twice -> grad 2, row 2 once -> grad 1, row 0 zero.
        assert_eq!(w.grad().unwrap(), vec![0.0, 0.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn slice_rows_and_row() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3]).requires_grad();
        let s = x.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.to_vec(), vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        s.sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(&g[0..3], &[0.0; 3]);
        assert_eq!(&g[3..9], &[1.0; 6]);
        assert_eq!(&g[9..12], &[0.0; 3]);

        let r = x.row(2);
        assert_eq!(r.dims(), &[3]);
        assert_eq!(r.to_vec(), vec![6.0, 7.0, 8.0]);
    }

    #[test]
    fn concat_cols_values_and_grads() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).requires_grad();
        let c = a.concat_cols(&b);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 10.0, 1.0, 1.0, 10.0], &[2, 3]);
        c.mul(&w).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0; 4]);
        assert_eq!(b.grad().unwrap(), vec![10.0, 10.0]);
    }

    #[test]
    fn concat_rows_values_and_grads() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).requires_grad();
        let c = Tensor::concat_rows(&[a.clone(), b.clone()]);
        assert_eq!(c.dims(), &[3, 2]);
        c.mul_scalar(2.0).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![2.0; 2]);
        assert_eq!(b.grad().unwrap(), vec![2.0; 4]);
    }

    #[test]
    fn stack_rows_routes_gradients() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).requires_grad();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).requires_grad();
        let s = Tensor::stack_rows(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 5.0, 5.0], &[2, 2]);
        s.mul(&w).sum().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![5.0, 5.0]);
    }

    #[test]
    fn segment_sum_rows_values_and_grads() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).requires_grad();
        let s = x.segment_sum_rows(&[vec![0, 2], vec![], vec![1, 1]]);
        assert_eq!(s.dims(), &[3, 2]);
        assert_eq!(s.to_vec(), vec![6.0, 8.0, 0.0, 0.0, 6.0, 8.0]);
        let w = Tensor::from_vec(vec![1.0, 1.0, 7.0, 7.0, 10.0, 10.0], &[3, 2]);
        s.mul(&w).sum().backward();
        // Row 1 twice in segment 2, rows 0 and 2 once in segment 0.
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 20.0, 20.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_sum_rows_bad_index_panics() {
        Tensor::zeros(&[2, 2]).segment_sum_rows(&[vec![0], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rows_bad_index_panics() {
        Tensor::zeros(&[2, 2]).gather_rows(&[3]);
    }

    #[test]
    fn slice_cols_values_and_grads() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 4]).requires_grad();
        let s = x.slice_cols(1, 3);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 5.0, 6.0]);
        s.sum().backward();
        assert_eq!(
            x.grad().unwrap(),
            vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
        );
    }

    #[test]
    fn slice_cols_concat_cols_roundtrip() {
        let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let left = x.slice_cols(0, 1);
        let right = x.slice_cols(1, 3);
        let back = left.concat_cols(&right);
        assert_eq!(back.to_vec(), x.to_vec());
    }

    #[test]
    fn empty_slices_and_gathers_are_empty_tensors() {
        let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).requires_grad();
        let rows = x.slice_rows(1, 1);
        let cols = x.slice_cols(2, 2);
        let gathered = x.gather_rows(&[]);
        assert_eq!(rows.dims(), &[0, 3]);
        assert_eq!(cols.dims(), &[2, 0]);
        assert_eq!(gathered.dims(), &[0, 3]);
        for empty in [&rows, &cols, &gathered] {
            assert_eq!(empty.numel(), 0);
            assert!(empty.to_vec().is_empty());
        }
        // Their backward adds nothing: only the direct sum reaches `x`.
        x.sum().add(&rows.sum()).add(&cols.sum()).add(&gathered.sum()).backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 6]);
    }
}
