//! The per-element implementations that the in-place glue ops replaced,
//! kept as test references, and the properties that pin every rewrite to
//! its reference bit for bit (`to_bits()` equality, not a tolerance) on
//! both kernel backends.
//!
//! A failing case prints a `TESTKIT_SEED=…` line that replays it.

use crate::proptests::on_both_backends;
use crate::simd::BinOp;
use crate::{broadcast_shapes, Shape, Tensor};
use lttf_testkit::prop::{self, Gen};
use lttf_testkit::properties;

/// `t` copied out to `target`, one element at a time with index arithmetic.
fn broadcast_to(t: &Tensor, target: &[usize]) -> Tensor {
    assert_eq!(broadcast_shapes(t.shape(), target), target);
    if t.shape() == target {
        return t.clone();
    }
    let tgt = Shape::new(target);
    let n = tgt.ndim();
    let pad = n - t.ndim();
    let src_strides = t.shape.strides();
    let mut strides = vec![0usize; n];
    for i in 0..t.ndim() {
        strides[pad + i] = if t.shape()[i] == 1 { 0 } else { src_strides[i] };
    }
    let mut out = vec![0.0f32; tgt.numel()];
    let mut idx = vec![0usize; n];
    let mut src_off = 0usize;
    for slot in out.iter_mut() {
        *slot = t.data[src_off];
        for axis in (0..n).rev() {
            idx[axis] += 1;
            src_off += strides[axis];
            if idx[axis] < tgt.dims()[axis] {
                break;
            }
            src_off -= strides[axis] * tgt.dims()[axis];
            idx[axis] = 0;
        }
    }
    Tensor::from_vec(out, target)
}

/// Binary op: same shapes through the lane kernel when `op` names one,
/// otherwise both operands materialized by [`broadcast_to`] and zipped
/// with `f`.
fn zip(a: &Tensor, b: &Tensor, op: Option<BinOp>, f: impl Fn(f32, f32) -> f32) -> Tensor {
    if a.shape() == b.shape() {
        if let Some(op) = op {
            let mut out = vec![0.0f32; a.numel()];
            crate::simd::binary(op, a.data(), b.data(), &mut out);
            return Tensor::from_vec(out, a.shape());
        }
    }
    let target = broadcast_shapes(a.shape(), b.shape());
    let (a, b) = (broadcast_to(a, &target), broadcast_to(b, &target));
    let out = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor::from_vec(out, &target)
}

/// Axes permuted one element at a time with index arithmetic.
fn permute(t: &Tensor, order: &[usize]) -> Tensor {
    let n = t.ndim();
    let src_dims = t.shape();
    let src_strides = t.shape.strides();
    let dst_dims: Vec<usize> = order.iter().map(|&o| src_dims[o]).collect();
    let dst_src_strides: Vec<usize> = order.iter().map(|&o| src_strides[o]).collect();
    let mut out = vec![0.0f32; t.numel()];
    let mut idx = vec![0usize; n];
    let mut src_off = 0usize;
    for slot in out.iter_mut() {
        *slot = t.data[src_off];
        for axis in (0..n).rev() {
            idx[axis] += 1;
            src_off += dst_src_strides[axis];
            if idx[axis] < dst_dims[axis] {
                break;
            }
            src_off -= dst_src_strides[axis] * dst_dims[axis];
            idx[axis] = 0;
        }
    }
    Tensor::from_vec(out, &dst_dims)
}

/// Axis fold that visits every lane element by `(o, e, i)` index
/// arithmetic, whatever `inner` is.
fn reduce_axis(
    t: &Tensor,
    ax: usize,
    init: f32,
    f: impl Fn(f32, f32) -> f32,
    fin: impl Fn(f32, usize) -> f32,
    keepdim: bool,
) -> Tensor {
    let dims = t.shape();
    let extent = dims[ax];
    let outer: usize = dims[..ax].iter().product();
    let inner: usize = dims[ax + 1..].iter().product();
    let mut out = vec![init; outer * inner];
    for (o, lane) in out.chunks_mut(inner.max(1)).enumerate().take(outer) {
        for e in 0..extent {
            let base = (o * extent + e) * inner;
            for (i, slot) in lane.iter_mut().enumerate() {
                *slot = f(*slot, t.data[base + i]);
            }
        }
        for v in lane.iter_mut() {
            *v = fin(*v, extent);
        }
    }
    let mut new_dims = dims.to_vec();
    if keepdim {
        new_dims[ax] = 1;
    } else {
        new_dims.remove(ax);
    }
    Tensor::from_vec(out, &new_dims)
}

/// Softmax as the chain max → broadcast sub → exp → sum → broadcast div.
fn softmax(t: &Tensor, ax: usize) -> Tensor {
    let m = reduce_axis(t, ax, f32::NEG_INFINITY, f32::max, |v, _| v, true);
    let e = zip(t, &m, Some(BinOp::Sub), |a, b| a - b).exp();
    let s = reduce_axis(&e, ax, 0.0, |a, b| a + b, |v, _| v, true);
    zip(&e, &s, Some(BinOp::Div), |a, b| a / b)
}

/// `Ok` when `got` and `want` agree in shape and in every bit.
fn same_bits(what: &str, got: &Tensor, want: &Tensor) -> Result<(), String> {
    if got.shape() != want.shape() {
        return Err(format!(
            "{what}: shape {:?} vs reference {:?}",
            got.shape(),
            want.shape()
        ));
    }
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{what}: element {i} is {x:e}, reference {y:e}"));
        }
    }
    Ok(())
}

/// Run `f` on both backends (see [`on_both_backends`]) and fail on the
/// first backend that reports a mismatch.
fn check_both(f: impl Fn() -> Result<(), String>) -> Result<(), String> {
    let (scalar, simd) = on_both_backends(f);
    scalar.map_err(|e| format!("scalar backend: {e}"))?;
    simd.map_err(|e| format!("simd backend: {e}"))
}

/// Values with both signs and a wide spread, so a reordered operation
/// shows in the low bits.
fn values(rng: &mut lttf_testkit::Xoshiro256PlusPlus, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.next_f32() - 0.5) * 20.0 * (1.0 + 9.0 * rng.next_f32()))
        .collect()
}

/// Two broadcast-compatible operands: a target shape of rank 0–4 with
/// extents 0–4, and each operand a random suffix of it with random axes
/// cut to 1 (leading, middle and trailing broadcasts, size-1 and
/// zero-extent axes all occur).
#[derive(Clone, Debug)]
struct Pair {
    a: Tensor,
    b: Tensor,
}

fn arb_pair() -> Gen<Pair> {
    Gen::new(|rng| {
        let rank = rng.usize_in(0, 5);
        let target: Vec<usize> = (0..rank).map(|_| rng.usize_in(0, 5)).collect();
        let mut operand = || {
            let keep = rng.usize_in(0, rank + 1);
            let dims: Vec<usize> = target[rank - keep..]
                .iter()
                .map(|&d| if rng.usize_in(0, 3) == 0 { 1 } else { d })
                .collect();
            let data = values(rng, dims.iter().product());
            Tensor::from_vec(data, &dims)
        };
        let a = operand();
        let b = operand();
        Pair { a, b }
    })
}

/// A tensor of rank 1–4 with extents 1–5 (zero extents too when `empty`).
fn arb_tensor(empty: bool) -> Gen<Tensor> {
    Gen::new(move |rng| {
        let rank = rng.usize_in(1, 5);
        let lo = usize::from(!empty);
        let dims: Vec<usize> = (0..rank).map(|_| rng.usize_in(lo, 6)).collect();
        let data = values(rng, dims.iter().product());
        Tensor::from_vec(data, &dims)
    })
}

properties! {
    cases = 128;

    fn broadcast_zip_matches_reference(p in arb_pair()) {
        let Pair { a, b } = &p;
        check_both(|| {
            let target = broadcast_shapes(a.shape(), b.shape());
            same_bits("broadcast_to a", &a.broadcast_to(&target), &broadcast_to(a, &target))?;
            same_bits("broadcast_to b", &b.broadcast_to(&target), &broadcast_to(b, &target))?;
            same_bits("add", &a.add(b), &zip(a, b, Some(BinOp::Add), |x, y| x + y))?;
            same_bits("sub", &a.sub(b), &zip(a, b, Some(BinOp::Sub), |x, y| x - y))?;
            same_bits("mul", &a.mul(b), &zip(a, b, Some(BinOp::Mul), |x, y| x * y))?;
            same_bits("div", &a.div(b), &zip(a, b, Some(BinOp::Div), |x, y| x / y))?;
            same_bits("maximum", &a.maximum(b), &zip(a, b, None, f32::max))?;
            same_bits("minimum", &a.minimum(b), &zip(a, b, None, f32::min))
        })?;
    }

    fn permute_matches_reference(t in arb_tensor(true), seed in prop::u64s(0..u64::MAX)) {
        let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(seed);
        let order = rng.permutation(t.ndim());
        check_both(|| same_bits("permute", &t.permute(&order), &permute(&t, &order)))?;
    }

    fn softmax_matches_reference_on_every_axis(t in arb_tensor(true)) {
        check_both(|| {
            for ax in 0..t.ndim() {
                let what = format!("softmax axis {ax}");
                same_bits(&what, &t.softmax(ax as isize), &softmax(&t, ax))?;
            }
            Ok(())
        })?;
    }

    fn axis_reductions_match_reference(t in arb_tensor(true)) {
        check_both(|| {
            for ax in 0..t.ndim() {
                let a = ax as isize;
                let sum = |x: f32, y: f32| x + y;
                let mean = |v: f32, n: usize| v / n as f32;
                let keep = |v: f32, _: usize| v;
                same_bits("sum_axis", &t.sum_axis(a), &reduce_axis(&t, ax, 0.0, sum, keep, false))?;
                same_bits("mean_axis_keepdim", &t.mean_axis_keepdim(a),
                    &reduce_axis(&t, ax, 0.0, sum, mean, true))?;
                same_bits("max_axis", &t.max_axis(a),
                    &reduce_axis(&t, ax, f32::NEG_INFINITY, f32::max, keep, false))?;
                same_bits("min_axis", &t.min_axis(a),
                    &reduce_axis(&t, ax, f32::INFINITY, f32::min, keep, false))?;
            }
            Ok(())
        })?;
    }
}

/// A GRU layer's operands: `x`, `w_ih`, `w_hh`, `b_ih`, `b_hh` and an
/// output gradient.
fn gru_case(b: usize, len: usize, input: usize, hs: usize, seed: u64) -> [Tensor; 6] {
    let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(seed);
    let h3 = 3 * hs;
    let mut tensor = |dims: &[usize], scale: f32| {
        let data = values(&mut rng, dims.iter().product());
        Tensor::from_vec(data, dims).mul_scalar(scale)
    };
    [
        tensor(&[b, len, input], 0.1),
        tensor(&[input, h3], 0.03),
        tensor(&[hs, h3], 0.03),
        tensor(&[h3], 0.03),
        tensor(&[h3], 0.03),
        tensor(&[b, len, hs], 0.1),
    ]
}

/// The time-major stash in the reference's batch-major layout.
fn batch_major(stash: &crate::GruStash) -> crate::GruStash {
    let swap = |t: &Tensor| t.swap_axes(0, 1);
    crate::GruStash {
        r: swap(&stash.r),
        z: swap(&stash.z),
        n: swap(&stash.n),
        ghn: swap(&stash.ghn),
    }
}

properties! {
    cases = 32;

    // Hidden sizes straddle the 8-lane gate kernel, `b·len` crosses the
    // gemm's 256-deep k-tile on the weight gradients, and `hs = 90` puts
    // the recurrent product and each step's `dx` (`k = 3h = 270`) on the
    // tiled path too.
    fn gru_forward_matches_reference(
        b in 0usize..5,
        len in 1usize..70,
        input in 1usize..12,
        hs in prop::select(vec![1usize, 3, 4, 7, 8, 9, 15, 16, 17, 90]),
        seed in prop::u64s(0..u64::MAX)
    ) {
        let [x, w_ih, w_hh, b_ih, b_hh, _] = gru_case(b, len, input, hs, seed);
        check_both(|| {
            let (out, stash) = crate::gru_layer_forward(&x, &w_ih, &w_hh, &b_ih, &b_hh, true);
            let got = batch_major(&stash.expect("stash requested"));
            let (want, want_stash) = crate::gru::reference_layer_forward(&x, &w_ih, &w_hh, &b_ih, &b_hh);
            same_bits("out", &out, &want)?;
            same_bits("r", &got.r, &want_stash.r)?;
            same_bits("z", &got.z, &want_stash.z)?;
            same_bits("n", &got.n, &want_stash.n)?;
            same_bits("ghn", &got.ghn, &want_stash.ghn)?;
            let (lean, none) = crate::gru_layer_forward(&x, &w_ih, &w_hh, &b_ih, &b_hh, false);
            if none.is_some() {
                return Err("stash recorded unasked".into());
            }
            same_bits("out without stash", &lean, &want)
        })?;
    }

    fn gru_backward_matches_reference(
        b in 0usize..5,
        len in 1usize..70,
        input in 1usize..12,
        hs in prop::select(vec![1usize, 3, 4, 7, 8, 9, 15, 16, 17, 90]),
        seed in prop::u64s(0..u64::MAX)
    ) {
        let [x, w_ih, w_hh, b_ih, b_hh, go] = gru_case(b, len, input, hs, seed);
        check_both(|| {
            let (out, stash) = crate::gru_layer_forward(&x, &w_ih, &w_hh, &b_ih, &b_hh, true);
            let stash = stash.expect("stash requested");
            let got = crate::gru_layer_backward(&go, &x, &w_ih, &w_hh, &out, &stash);
            let want = crate::gru::reference_layer_backward(
                &go, &x, &w_ih, &w_hh, &out, &batch_major(&stash),
            );
            same_bits("dx", &got.dx, &want.dx)?;
            same_bits("dw_ih", &got.dw_ih, &want.dw_ih)?;
            same_bits("dw_hh", &got.dw_hh, &want.dw_hh)?;
            same_bits("db_ih", &got.db_ih, &want.db_ih)?;
            same_bits("db_hh", &got.db_hh, &want.db_hh)
        })?;
    }
}

/// A full operand against a repeated trailing row, either side, for every
/// [`BinOp`]: row widths below, at and past one 8-lane vector, the row as
/// `[w]`, `[1, w]` and `[1, 1, w]`, and outputs large enough for the pool
/// to fill in chunks that split rows (at 4 threads, for widths that do not
/// divide the chunk).
#[test]
fn broadcast_rows_match_reference() {
    let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(16);
    for w in [1usize, 7, 8, 16, 17] {
        for lead in [vec![3], vec![2, 5], vec![10_000]] {
            let full_dims: Vec<usize> = lead.iter().copied().chain([w]).collect();
            let full = Tensor::from_vec(values(&mut rng, full_dims.iter().product()), &full_dims);
            let row_data = values(&mut rng, w);
            for row_dims in [vec![w], vec![1, w], vec![1, 1, w]] {
                let row = Tensor::from_vec(row_data.clone(), &row_dims);
                for threads in [Some(1), Some(4)] {
                    lttf_parallel::set_threads_override(threads);
                    let result = check_both(|| {
                        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                            let f: fn(f32, f32) -> f32 = match op {
                                BinOp::Add => |x, y| x + y,
                                BinOp::Sub => |x, y| x - y,
                                BinOp::Mul => |x, y| x * y,
                                BinOp::Div => |x, y| x / y,
                            };
                            let what = format!("{op:?} w {w} full {full_dims:?} row {row_dims:?}");
                            same_bits(
                                &format!("{what}, row right"),
                                &full.broadcast_zip(&row, Some(op), f),
                                &zip(&full, &row, Some(op), f),
                            )?;
                            same_bits(
                                &format!("{what}, row left"),
                                &row.broadcast_zip(&full, Some(op), f),
                                &zip(&row, &full, Some(op), f),
                            )?;
                        }
                        Ok(())
                    });
                    lttf_parallel::set_threads_override(None);
                    result.unwrap_or_else(|e| panic!("threads {threads:?}: {e}"));
                }
            }
        }
    }
}

/// Outputs past the parallel threshold are filled in chunks on the worker
/// pool, and a chunk boundary can split a row; the bits must not move.
#[test]
fn large_glue_ops_match_reference_on_the_pool() {
    let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(15);
    // 3·7·4099 elements: rows of 4099 straddle every 16K-element chunk.
    let a = Tensor::from_vec(values(&mut rng, 3 * 4099), &[3, 1, 4099]);
    let b = Tensor::from_vec(values(&mut rng, 7 * 4099), &[1, 7, 4099]);
    let c = Tensor::from_vec(values(&mut rng, 3 * 7), &[3, 7, 1]);
    let x = Tensor::from_vec(values(&mut rng, 64 * 48 * 40), &[64, 48, 40]);
    for threads in [Some(1), Some(4)] {
        lttf_parallel::set_threads_override(threads);
        let result = check_both(|| {
            same_bits(
                "add",
                &a.add(&b),
                &zip(&a, &b, Some(BinOp::Add), |x, y| x + y),
            )?;
            let ab = a.mul(&b);
            same_bits(
                "mul column",
                &ab.mul(&c),
                &zip(&ab, &c, Some(BinOp::Mul), |x, y| x * y),
            )?;
            same_bits(
                "broadcast_to",
                &c.broadcast_to(&[3, 7, 4099]),
                &broadcast_to(&c, &[3, 7, 4099]),
            )?;
            same_bits("permute", &x.permute(&[2, 0, 1]), &permute(&x, &[2, 0, 1]))?;
            same_bits(
                "head split",
                &x.permute(&[1, 0, 2]),
                &permute(&x, &[1, 0, 2]),
            )?;
            for ax in 0..3 {
                same_bits("softmax", &x.softmax(ax as isize), &softmax(&x, ax))?;
                let keep = |v: f32, _: usize| v;
                let sum = |p: f32, q: f32| p + q;
                same_bits(
                    "sum_axis",
                    &x.sum_axis(ax as isize),
                    &reduce_axis(&x, ax, 0.0, sum, keep, false),
                )?;
            }
            Ok(())
        });
        lttf_parallel::set_threads_override(None);
        result.unwrap_or_else(|e| panic!("threads {threads:?}: {e}"));
    }
}
