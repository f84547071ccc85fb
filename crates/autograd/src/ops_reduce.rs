//! Differentiable reductions and softmax.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

impl<'g> Var<'g> {
    /// Sum of all elements, as a scalar variable. (`sum` in math notation;
    /// named `sum_all` to avoid clashing with axis sums.)
    pub fn sum_all(self) -> Var<'g> {
        let v = self.with_value(|a| Tensor::scalar(a.sum()));
        self.g.push("sum_all", v, || {
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, Tensor::full(&shape, ctx.grad.item()))
            })
        })
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean_all(self) -> Var<'g> {
        let n = self.with_value(|a| a.numel());
        self.sum_all().mul_scalar(1.0 / n as f32)
    }

    /// Sum along `axis`, keeping it with extent 1.
    pub fn sum_axis_keepdim(self, axis: isize) -> Var<'g> {
        let v = self.with_value(|a| a.sum_axis_keepdim(axis));
        self.g.push("sum_axis_keepdim", v, || {
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, ctx.grad.broadcast_to(&shape))
            })
        })
    }

    /// Mean along `axis`, keeping it with extent 1.
    pub fn mean_axis_keepdim(self, axis: isize) -> Var<'g> {
        let extent = self.with_value(|a| a.size(axis));
        self.sum_axis_keepdim(axis).mul_scalar(1.0 / extent as f32)
    }

    /// Numerically stable softmax along `axis`, with the closed-form
    /// Jacobian-vector backward `dx = y ⊙ (g − Σ(g ⊙ y))`.
    pub fn softmax(self, axis: isize) -> Var<'g> {
        let v = self.with_value(|a| a.softmax(axis));
        self.g.push("softmax", v, || {
            Backward::new(vec![self.id], move |ctx, pg| {
                let y = ctx.out;
                let mut gy = ctx.grad;
                gy.mul_assign(y);
                let s = gy.sum_axis_keepdim(axis);
                pg.add(0, gy.sub(&y.mul(&s)))
            })
        })
    }

    /// Layer-normalize along the last axis with learnable-free statistics:
    /// `(x − μ) / √(σ² + ε)`. Affine scale/shift are applied by callers.
    ///
    /// Implemented as a composite of differentiable primitives, so the
    /// gradient is exact.
    pub fn normalize_last(self, eps: f32) -> Var<'g> {
        let mu = self.mean_axis_keepdim(-1);
        let centered = self.sub(mu);
        let var = centered.square().mean_axis_keepdim(-1);
        let denom = var.add_scalar(eps).sqrt();
        centered.div(denom)
    }
}

#[cfg(test)]
mod tests {
    use crate::check::grad_check;
    use crate::Graph;
    use lttf_tensor::{Rng, Tensor};

    fn sample(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::seed(seed))
    }

    #[test]
    fn sum_all_grad_is_ones() {
        let g = Graph::new();
        let x = g.leaf(sample(&[2, 3], 1));
        let y = x.sum_all();
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn mean_all_grad() {
        let x = sample(&[4], 2);
        grad_check(&[x], |_, xs| xs[0].mean_all().square(), 1e-2).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn sum_axis_grads() {
        let x = sample(&[3, 4], 3);
        grad_check(
            &[x],
            |_, xs| xs[0].sum_axis_keepdim(0).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn mean_axis_grads() {
        let x = sample(&[3, 4], 4);
        grad_check(
            &[x],
            |_, xs| xs[0].mean_axis_keepdim(-1).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn softmax_grads() {
        let x = sample(&[2, 5], 5);
        grad_check(&[x], |_, xs| xs[0].softmax(-1).square().sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn softmax_grad_of_plain_sum_is_zero() {
        // Σ softmax(x) is constant (=rows), so its gradient must vanish.
        let g = Graph::new();
        let x = g.leaf(sample(&[2, 5], 6));
        let y = x.softmax(-1).sum_all();
        let grads = g.backward(y);
        let gx = grads.get(x).unwrap();
        assert!(gx.abs().max() < 1e-5, "max |grad| = {}", gx.abs().max());
    }

    #[test]
    fn normalize_last_grads() {
        let x = sample(&[2, 6], 7);
        grad_check(
            &[x],
            |_, xs| xs[0].normalize_last(1e-5).square().sum_all(),
            3e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn normalize_last_produces_zero_mean_unit_var() {
        let g = Graph::new();
        let x = g.leaf(sample(&[4, 16], 8).mul_scalar(5.0).add_scalar(3.0));
        let y = x.normalize_last(1e-6).value();
        for r in 0..4 {
            let row = y.narrow(0, r, 1);
            assert!(row.mean().abs() < 1e-4);
            assert!((row.var() - 1.0).abs() < 1e-2);
        }
    }
}
