//! Differentiable 1-D convolution and moving average.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

impl<'g> Var<'g> {
    /// 1-D convolution `[b, c_in, L] * [c_out, c_in, k] → [b, c_out, L']`
    /// with zero padding and stride, differentiable in both input and
    /// weight (bias, when present, is a separate `add`).
    pub fn conv1d(self, weight: Var<'g>, padding: usize, stride: usize) -> Var<'g> {
        let v = self.with_value(|x| weight.with_value(|w| x.conv1d(w, None, padding, stride)));
        self.g.push("conv1d", v, || {
            let in_shape = self.shape();
            let w_shape = weight.shape();
            Backward::new(vec![self.id, weight.id], move |ctx| {
                let (x, w) = (ctx.inputs[0], ctx.inputs[1]);
                let gx = Tensor::conv1d_backward_input(ctx.grad, w, &in_shape, padding, stride);
                let gw = Tensor::conv1d_backward_weight(ctx.grad, x, &w_shape, padding, stride);
                vec![gx, gw]
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
            Backward::new(vec![self.id], move |ctx| {
                let ax = if axis < 0 {
                    (shape.len() as isize + axis) as usize
                } else {
                    axis as usize
                };
                let extent = shape[ax];
                let before = (k - 1) / 2;
                let outer: usize = shape[..ax].iter().product();
                let inner: usize = shape[ax + 1..].iter().product();
                let inv = 1.0 / k as f32;
                let mut grad = Tensor::zeros(&shape);
                let gd = ctx.grad.data();
                let out = grad.data_mut();
                // Output position t averaged padded positions t..t+k; padded
                // position p maps to input clamp(p - before, 0, extent-1).
                for o in 0..outer {
                    for t in 0..extent {
                        for kk in 0..k {
                            let p = t + kk;
                            let src = (p as isize - before as isize).clamp(0, extent as isize - 1)
                                as usize;
                            for i in 0..inner {
                                out[(o * extent + src) * inner + i] +=
                                    gd[(o * extent + t) * inner + i] * inv;
                            }
                        }
                    }
                }
                vec![grad]
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::check::grad_check;
    use lttf_tensor::{Rng, Tensor};

    fn sample(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::seed(seed))
    }

    #[test]
    fn conv1d_grads() {
        let x = sample(&[2, 2, 5], 1);
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
        let x = sample(&[1, 1, 8], 3);
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
}
