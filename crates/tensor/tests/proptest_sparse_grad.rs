//! Bitwise oracles for the backward passes that add only into the region of
//! a parent they touched (`gather_rows`, `segment_sum_rows` and its mean
//! form, `slice_rows`, `slice_cols`) and for the run-by-run broadcast walk.
//! Each is checked against a plain reference of the dense scratch-buffer
//! form it replaced: the results must agree bit for bit, except that an
//! exact zero may change sign: an untouched −0 stays −0 where the
//! reference's dense `x + 0.0` made +0, and a first touch adds into +0
//! where the reference copied a −0 over. Either sign is harmless downstream
//! (see `AdamW::step`). NaN payloads are carried through, but when two NaNs
//! meet in one addition, which payload survives depends on the operand
//! order the compiler picks (Rust leaves it open), so a NaN result only has
//! to be NaN.

use cem_tensor::Tensor;
use proptest::prelude::*;

/// An f32 from a selector and random bits: ±0, subnormals, NaN payloads,
/// infinities or an ordinary value.
fn special((sel, bits): (u8, u32)) -> f32 {
    let sign = bits & 0x8000_0000;
    match sel {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(sign | (bits & 0x007F_FFFF).max(1)),
        3 => f32::from_bits(sign | 0x7FC0_0000 | (bits & 0x003F_FFFF)),
        4 => f32::from_bits(sign | 0x7F80_0000),
        _ => (bits % 20_001) as f32 / 1000.0 - 10.0,
    }
}

fn values(raw: &[(u8, u32)]) -> Vec<f32> {
    raw.iter().copied().map(special).collect()
}

/// Raw material for `len` special values.
fn raw(len: usize) -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..10, 0u32..=u32::MAX), len)
}

/// `got` equals `want` bit for bit, is a zero where `want` is one, or is a
/// NaN where `want` is one.
fn assert_bits(got: &[f32], want: &[f32], what: &str) -> TestCaseResult {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same =
            g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0) || (g.is_nan() && w.is_nan());
        prop_assert!(
            same,
            "{what}[{i}]: got {g:?} ({:#010x}), want {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

/// What accumulating a dense parent-sized buffer `da` did: the first
/// touch copies it, later ones add it everywhere.
fn dense_accumulate(existing: Option<&[f32]>, da: Vec<f32>) -> Vec<f32> {
    match existing {
        None => da,
        Some(e) => e.iter().zip(&da).map(|(e, x)| e + x).collect(),
    }
}

/// The dense scatter of a gather's backward: zeroed, then row `idx[p]`
/// += `g` row `p` in position order.
fn dense_scatter(rows: usize, d: usize, idx: &[usize], g: &[f32]) -> Vec<f32> {
    let mut da = vec![0.0f32; rows * d];
    for (p, &i) in idx.iter().enumerate() {
        for c in 0..d {
            da[i * d + c] += g[p * d + c];
        }
    }
    da
}

/// A leaf `[rows, d]` parameter, with `existing` planted as its gradient.
fn leaf(rows: usize, d: usize, existing: Option<&[f32]>) -> Tensor {
    let t = Tensor::from_vec((0..rows * d).map(|i| i as f32).collect(), &[rows, d]).requires_grad();
    if let Some(e) = existing {
        t.set_grad(e);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gather_rows_backward_matches_the_dense_scatter(
        rows in 1usize..7,
        d in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 1..12),
        g_raw in raw(11 * 4),
        e_raw in raw(6 * 4),
        first_touch in 0u8..2,
    ) {
        let idx: Vec<usize> = picks.iter().map(|p| p % rows).collect();
        let g = values(&g_raw[..idx.len() * d]);
        let existing = (first_touch == 0).then(|| values(&e_raw[..rows * d]));
        let w = leaf(rows, d, existing.as_deref());
        w.gather_rows(&idx).backward_with(&g);
        let want = dense_accumulate(existing.as_deref(), dense_scatter(rows, d, &idx, &g));
        assert_bits(&w.grad().unwrap(), &want, "gather_rows grad")?;
    }

    #[test]
    fn segment_sum_rows_matches_the_gather_sum_stack_chain(
        rows in 1usize..7,
        d in 1usize..5,
        seg_raw in prop::collection::vec(prop::collection::vec(0usize..1000, 0..5), 1..7),
        x_raw in raw(6 * 4),
        g_raw in raw(6 * 4),
        h_raw in raw(6 * 4),
        e_raw in raw(6 * 4),
        first_touch in 0u8..2,
        mean_op in 0u8..2,
    ) {
        // Segment count and table height vary independently, as for label
        // means over a token table; `mean_op` 1 checks `segment_mean_rows`
        // against a per-segment `mean_axis0` instead.
        let mean = mean_op == 1;
        let segments: Vec<Vec<usize>> =
            seg_raw.iter().map(|s| s.iter().map(|p| p % rows).collect()).collect();
        let n = segments.len();
        let x_vals = values(&x_raw[..rows * d]);
        let existing = (first_touch == 0).then(|| values(&e_raw[..rows * d]));
        // Seed for [segment output; second consumer `x · 0.5`].
        let seed: Vec<f32> =
            values(&g_raw[..n * d]).into_iter().chain(values(&h_raw[..rows * d])).collect();

        let run = |segment_op: bool| {
            let x = Tensor::from_vec(x_vals.clone(), &[rows, d]).requires_grad();
            if let Some(e) = &existing {
                x.set_grad(e);
            }
            let sums = match (segment_op, mean) {
                (true, false) => x.segment_sum_rows(&segments),
                (true, true) => x.segment_mean_rows(&segments),
                (false, _) => {
                    let reduce = |t: Tensor| if mean { t.mean_axis0() } else { t.sum_axis0() };
                    let parts: Vec<Tensor> = segments
                        .iter()
                        .map(|s| if s.is_empty() { Tensor::zeros(&[d]) } else { reduce(x.gather_rows(s)) })
                        .collect();
                    Tensor::stack_rows(&parts)
                }
            };
            let out = Tensor::concat_rows(&[sums.clone(), x.mul_scalar(0.5)]);
            out.backward_with(&seed);
            (sums.to_vec(), x.grad().unwrap())
        };
        let (got_fwd, got_grad) = run(true);
        let (want_fwd, want_grad) = run(false);
        let fwd_bits: Vec<u32> = got_fwd.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want_fwd.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fwd_bits, want_bits, "segment sums");
        assert_bits(&got_grad, &want_grad, "source grad")?;
    }

    #[test]
    fn slice_rows_adds_into_its_row_range(
        rows in 1usize..7,
        d in 1usize..5,
        a in 0usize..1000,
        b in 0usize..1000,
        g_raw in raw(6 * 4),
        e_raw in raw(6 * 4),
        first_touch in 0u8..2,
    ) {
        // A range `start..end` of `0..rows`, empty when `start == end`.
        let (p, q) = (a % (rows + 1), b % (rows + 1));
        let (start, end) = (p.min(q), p.max(q));
        let g = values(&g_raw[..(end - start) * d]);
        let existing = (first_touch == 0).then(|| values(&e_raw[..rows * d]));
        let x = leaf(rows, d, existing.as_deref());
        x.slice_rows(start, end).backward_with(&g);
        let mut da = vec![0.0f32; rows * d];
        da[start * d..end * d].copy_from_slice(&g);
        assert_bits(&x.grad().unwrap(), &dense_accumulate(existing.as_deref(), da), "slice_rows grad")?;
    }

    #[test]
    fn slice_cols_adds_into_its_column_range(
        rows in 1usize..6,
        cols in 1usize..7,
        a in 0usize..1000,
        b in 0usize..1000,
        g_raw in raw(5 * 6),
        e_raw in raw(5 * 6),
        first_touch in 0u8..2,
    ) {
        let (p, q) = (a % (cols + 1), b % (cols + 1));
        let (start, end) = (p.min(q), p.max(q));
        let w = end - start;
        let g = values(&g_raw[..rows * w]);
        let existing = (first_touch == 0).then(|| values(&e_raw[..rows * cols]));
        let x = leaf(rows, cols, existing.as_deref());
        x.slice_cols(start, end).backward_with(&g);
        let mut da = vec![0.0f32; rows * cols];
        for r in 0..rows {
            da[r * cols + start..r * cols + end].copy_from_slice(&g[r * w..(r + 1) * w]);
        }
        assert_bits(&x.grad().unwrap(), &dense_accumulate(existing.as_deref(), da), "slice_cols grad")?;
    }
}

/// Every shape of rank 0–4 with axis lengths 1–3.
fn small_shapes() -> Vec<Vec<usize>> {
    let mut shapes = vec![vec![]];
    let mut frontier = vec![vec![]];
    for _ in 0..4 {
        frontier = frontier
            .iter()
            .flat_map(|s: &Vec<usize>| (1..=3).map(move |n| [s.as_slice(), &[n]].concat()))
            .collect();
        shapes.extend(frontier.iter().cloned());
    }
    shapes
}

/// Right-aligned broadcast of two dim lists, `None` when incompatible.
fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let dim =
        |s: &[usize], axis: usize| if axis + s.len() < rank { 1 } else { s[axis + s.len() - rank] };
    (0..rank)
        .map(|axis| {
            let (x, y) = (dim(a, axis), dim(b, axis));
            (x == y || x == 1 || y == 1).then_some(x.max(y))
        })
        .collect()
}

/// Flat offset of output multi-index `idx` in operand `s` (stride 0 along
/// its broadcast axes).
fn offset(s: &[usize], out: &[usize], idx: &[usize]) -> usize {
    let lead = out.len() - s.len();
    let mut off = 0;
    for (axis, &n) in s.iter().enumerate() {
        off = off * n + if n == 1 { 0 } else { idx[axis + lead] };
    }
    off
}

/// The per-element odometer: `(out index, a offset, b offset)` in
/// row-major output order.
fn odometer(a: &[usize], b: &[usize], out: &[usize]) -> Vec<(usize, usize, usize)> {
    let numel: usize = out.iter().product();
    let mut idx = vec![0usize; out.len()];
    let mut steps = Vec::with_capacity(numel);
    for i in 0..numel {
        steps.push((i, offset(a, out, &idx), offset(b, out, &idx)));
        for axis in (0..out.len()).rev() {
            idx[axis] += 1;
            if idx[axis] < out[axis] {
                break;
            }
            idx[axis] = 0;
        }
    }
    steps
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn broadcast_ops_match_the_per_element_odometer_up_to_rank_4() {
    type Fwd = fn(f32, f32) -> f32;
    type Bwd = fn(f32, f32, f32) -> f32;
    type Op = fn(&Tensor, &Tensor) -> Tensor;
    // (name, forward, d self += .., d other += .., the op)
    let ops: [(&str, Fwd, Bwd, Bwd, Op); 3] = [
        ("add", |x, y| x + y, |d, g, _| d + g, |d, g, _| d + g, |a, b| a.add_bcast(b)),
        ("sub", |x, y| x - y, |d, g, _| d + g, |d, g, _| d - g, |a, b| a.sub_bcast(b)),
        ("mul", |x, y| x * y, |d, g, y| d + g * y, |d, g, x| d + g * x, |a, b| a.mul_bcast(b)),
    ];
    let shapes = small_shapes();
    let mut pairs = 0;
    for a_dims in &shapes {
        for b_dims in &shapes {
            let Some(out) = broadcast(a_dims, b_dims) else { continue };
            pairs += 1;
            let (na, nb): (usize, usize) = (a_dims.iter().product(), b_dims.iter().product());
            let numel: usize = out.iter().product();
            let av: Vec<f32> = (0..na).map(|i| (i as f32 * 0.37 - 1.1).sin() * 3.0).collect();
            let bv: Vec<f32> = (0..nb).map(|i| (i as f32 * 0.91 + 0.3).cos() * 2.0).collect();
            let g: Vec<f32> = (0..numel).map(|i| (i as f32 * 0.53 - 0.7).sin()).collect();
            let steps = odometer(a_dims, b_dims, &out);
            for (name, fwd, da_op, db_op, op) in ops {
                let a = Tensor::from_vec(av.clone(), a_dims).requires_grad();
                let b = Tensor::from_vec(bv.clone(), b_dims).requires_grad();
                let y = op(&a, &b);
                y.backward_with(&g);
                let (mut want_y, mut want_da, mut want_db) =
                    (vec![0.0f32; numel], vec![0.0f32; na], vec![0.0f32; nb]);
                for &(i, ao, bo) in &steps {
                    want_y[i] = fwd(av[ao], bv[bo]);
                    want_da[ao] = da_op(want_da[ao], g[i], bv[bo]);
                    want_db[bo] = db_op(want_db[bo], g[i], av[ao]);
                }
                let what = format!("{name} {a_dims:?} vs {b_dims:?}");
                assert_eq!(y.dims(), out.as_slice(), "{what}: shape");
                assert_eq!(bits(&y.to_vec()), bits(&want_y), "{what}: forward");
                assert_eq!(bits(&a.grad().unwrap()), bits(&want_da), "{what}: d self");
                assert_eq!(bits(&b.grad().unwrap()), bits(&want_db), "{what}: d other");
            }
        }
    }
    assert!(pairs > 4000, "only {pairs} compatible shape pairs");
}
