//! Differentiable 1-D convolution and moving average.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

impl<'g> Var<'g> {
    /// 1-D convolution over channels-last activations, `[b, L, c_in] *
    /// [c_out, c_in, k] → [b, L', c_out]`, with zero padding and stride,
    /// differentiable in both input and weight (bias, when present, is a
    /// separate `add`).
    pub fn conv1d(self, weight: Var<'g>, padding: usize, stride: usize) -> Var<'g> {
        let v = self.with_value(|x| weight.with_value(|w| x.conv1d(w, None, padding, stride)));
        self.g.push("conv1d", v, || {
            let in_shape = self.shape();
            let w_shape = weight.shape();
            Backward::new(vec![self.id, weight.id], move |ctx, pg| {
                let (x, w) = (ctx.inputs[0], ctx.inputs[1]);
                let gx = Tensor::conv1d_backward_input(&ctx.grad, w, &in_shape, padding, stride);
                pg.add(0, gx);
                let gw = Tensor::conv1d_backward_weight(&ctx.grad, x, &w_shape, padding, stride);
                pg.add(1, gw);
            })
        })
    }

    /// Length-preserving moving average along `axis` with replicate padding
    /// — the differentiable version of [`Tensor::moving_avg`], used by the
    /// series-decomposition block (paper Eq. 9).
    ///
    /// The backward pass distributes each output gradient equally over the
    /// `k` input positions in its window, folding replicate-padding
    /// contributions back onto the edge elements.
    pub fn moving_avg(self, axis: isize, k: usize) -> Var<'g> {
        let v = self.with_value(|t| t.moving_avg(axis, k));
        self.g.push("moving_avg", v, || {
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, moving_avg_backward(ctx.grad, &shape, axis, k))
            })
        })
    }
}

/// `[outer, extent, inner]` view of `shape` around `axis`.
fn split_axis(shape: &[usize], axis: isize) -> (usize, usize, usize) {
    let ax = if axis < 0 {
        (shape.len() as isize + axis) as usize
    } else {
        axis as usize
    };
    let outer = shape[..ax].iter().product();
    let inner = shape[ax + 1..].iter().product();
    (outer, shape[ax], inner)
}

/// Gradient of [`Tensor::moving_avg`] for the output gradient `grad`.
///
/// Output position `t` averaged the padded positions `t..t+k`; padded
/// position `p` reads input `clamp(p - before, 0, extent-1)`. Every
/// `(t, kk)` pair adds `grad[t] / k` into its input row. Each input row
/// gathers its pairs in `(t, kk)` order, [`COLS`] columns at a time in a
/// register accumulator: an interior row takes one `kk` from each `t` of
/// its window, an edge row every `kk` that clamps onto it, added once per
/// pair rather than multiplied by a count. Each element so sees the
/// additions the scatter over `(t, kk)` made, in the same order.
fn moving_avg_backward(mut grad: Tensor, shape: &[usize], axis: isize, k: usize) -> Tensor {
    let (_, extent, inner) = split_axis(shape, axis);
    let before = (k - 1) / 2;
    let inv = 1.0 / k as f32;
    let mut out = Tensor::zeros(shape);
    let plane = extent * inner;
    if plane == 0 {
        return out;
    }
    for g in grad.data_mut() {
        *g *= inv;
    }
    // The `(t, kk)` pairs that land on each input row, in `(t, kk)` order,
    // as offsets of row `t`: an interior row takes the one `kk` of each
    // `t` in its window, the first row every `kk` at or below position 0
    // and the last every `kk` at or past it, so an edge row repeats a `t`.
    let last = extent - 1;
    let mut rows = Vec::with_capacity(extent * k);
    let mut starts = Vec::with_capacity(extent + 1);
    for src in 0..extent {
        starts.push(rows.len());
        let lo = if src == 0 {
            0
        } else {
            (src + before).saturating_sub(k - 1)
        };
        let hi = if src == last {
            extent
        } else {
            (src + before + 1).min(extent)
        };
        for t in lo..hi {
            let p0 = t as isize - before as isize;
            let count = match (src == 0, src == last) {
                (true, true) => k,
                (true, false) => (1 - p0).clamp(0, k as isize) as usize,
                (false, true) => (p0 + k as isize - last as isize).clamp(0, k as isize) as usize,
                (false, false) => 1,
            };
            rows.extend(std::iter::repeat_n(t * inner, count));
        }
    }
    starts.push(rows.len());
    for (gp, op) in grad
        .data()
        .chunks(plane)
        .zip(out.data_mut().chunks_mut(plane))
    {
        for (src, orow) in op.chunks_mut(inner).enumerate() {
            let rows = &rows[starts[src]..starts[src + 1]];
            for (c0, o) in (0..inner).step_by(COLS).zip(orow.chunks_mut(COLS)) {
                let mut acc = [0.0f32; COLS];
                if let Ok(o) = <&mut [f32; COLS]>::try_from(&mut *o) {
                    for &at in rows {
                        let g: &[f32; COLS] = gp[at + c0..at + c0 + COLS]
                            .try_into()
                            .expect("a full column block");
                        for (a, &g) in acc.iter_mut().zip(g) {
                            *a += g;
                        }
                    }
                    *o = acc;
                } else {
                    let w = o.len();
                    for &at in rows {
                        for (a, &g) in acc.iter_mut().zip(&gp[at + c0..at + c0 + w]) {
                            *a += g;
                        }
                    }
                    o.copy_from_slice(&acc[..w]);
                }
            }
        }
    }
    out
}

/// Columns of a [`moving_avg_backward`] accumulator.
const COLS: usize = 16;

/// The moving-average backward as it was: one bounds-checked scatter per
/// element. Kept so a property test can pin [`moving_avg_backward`] to it
/// bit for bit.
#[cfg(test)]
fn reference_moving_avg_backward(grad: &Tensor, shape: &[usize], axis: isize, k: usize) -> Tensor {
    let (outer, extent, inner) = split_axis(shape, axis);
    let before = (k - 1) / 2;
    let inv = 1.0 / k as f32;
    let mut out = Tensor::zeros(shape);
    let gd = grad.data();
    let od = out.data_mut();
    for o in 0..outer {
        for t in 0..extent {
            for kk in 0..k {
                let p = t + kk;
                let src = (p as isize - before as isize).clamp(0, extent as isize - 1) as usize;
                for i in 0..inner {
                    od[(o * extent + src) * inner + i] += gd[(o * extent + t) * inner + i] * inv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{moving_avg_backward, reference_moving_avg_backward};
    use crate::check::grad_check;
    use lttf_tensor::simd::on_both_backends;
    use lttf_tensor::{Rng, Tensor};
    use lttf_testkit::prop::Gen;
    use lttf_testkit::properties;

    fn sample(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::seed(seed))
    }

    #[test]
    fn conv1d_grads() {
        let x = sample(&[2, 5, 2], 1);
        let w = sample(&[3, 2, 3], 2);
        grad_check(
            &[x, w],
            |_, xs| xs[0].conv1d(xs[1], 1, 1).square().sum_all(),
            3e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn conv1d_stride_grads() {
        let x = sample(&[1, 8, 1], 3);
        let w = sample(&[2, 1, 2], 4);
        grad_check(
            &[x, w],
            |_, xs| xs[0].conv1d(xs[1], 0, 2).square().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn moving_avg_grads() {
        let x = sample(&[2, 7, 3], 5);
        grad_check(
            &[x],
            |_, xs| xs[0].moving_avg(1, 3).square().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn moving_avg_even_window_grads() {
        let x = sample(&[1, 6, 2], 6);
        grad_check(
            &[x],
            |_, xs| xs[0].moving_avg(1, 4).square().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn moving_avg_last_axis_grads() {
        let x = sample(&[2, 8], 7);
        grad_check(
            &[x],
            |_, xs| xs[0].moving_avg(-1, 3).square().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    /// A rank-1–4 shape with extents 0–9, an axis of it, and a window of
    /// 1–26; half the time the axis is cut to at most the window, so both
    /// edges of a short axis gather from one `t`.
    fn arb_case() -> Gen<(Vec<usize>, isize, usize, u64)> {
        Gen::new(|rng| {
            let rank = rng.usize_in(1, 5);
            let mut dims: Vec<usize> = (0..rank).map(|_| rng.usize_in(0, 10)).collect();
            let ax = rng.usize_in(0, rank);
            let k = rng.usize_in(1, 27);
            if rng.usize_in(0, 2) == 0 {
                dims[ax] = rng.usize_in(0, k + 1);
            }
            let mut axis = ax as isize;
            if rng.usize_in(0, 2) == 0 {
                axis -= rank as isize;
            }
            (dims, axis, k, rng.next_u64())
        })
    }

    properties! {
        cases = 128;

        // Even and odd windows, windows wider than the axis (every input
        // position clamps to an edge), negative axes, empty extents, and
        // rows wider than one column block with and without a tail.
        fn moving_avg_backward_matches_reference(case in arb_case()) {
            let (dims, axis, k, seed) = case;
            let grad = Tensor::randn(&dims, &mut Rng::seed(seed));
            let (scalar, simd) = on_both_backends(|| -> Result<(), String> {
                let got = moving_avg_backward(grad.clone(), &dims, axis, k);
                let want = reference_moving_avg_backward(&grad, &dims, axis, k);
                for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        return Err(format!("element {i}: {x:e} vs reference {y:e}"));
                    }
                }
                Ok(())
            });
            scalar.map_err(|e| format!("scalar backend: {e}"))?;
            simd.map_err(|e| format!("simd backend: {e}"))?;
        }
    }
}
