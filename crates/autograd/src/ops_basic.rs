//! Differentiable element-wise arithmetic and activations.

use crate::graph::{Backward, ParentGrads, Var};
use lttf_tensor::{broadcast_shapes, Tensor};
use std::borrow::Cow;

/// Sum-reduce `grad` back to `shape`, undoing broadcasting.
///
/// Axes that were added by broadcasting are summed away; axes that were
/// stretched from extent 1 are summed and kept with extent 1. When no axis
/// is reduced, `grad` itself comes back.
pub fn reduce_to_shape(grad: Tensor, shape: &[usize]) -> Tensor {
    if grad.shape() == shape {
        return grad;
    }
    reduced(&grad, shape)
}

/// [`reduce_to_shape`] of a borrowed gradient whose shape is not `shape`.
fn reduced(grad: &Tensor, shape: &[usize]) -> Tensor {
    let mut g = Cow::Borrowed(grad);
    // Sum away leading axes added by broadcasting.
    while g.ndim() > shape.len() {
        g = Cow::Owned(g.sum_axis(0));
    }
    // Sum (keepdim) axes that were stretched from 1.
    for (axis, (&gs, &ts)) in g.shape().to_vec().iter().zip(shape).enumerate() {
        if ts == 1 && gs != 1 {
            g = Cow::Owned(g.sum_axis_keepdim(axis as isize));
        }
    }
    assert_eq!(
        g.shape(),
        shape,
        "reduce_to_shape failed: grad {:?} cannot reduce to {:?}",
        grad.shape(),
        shape
    );
    g.into_owned()
}

/// Add `grad`, reduced to `shape`, to parent `i` without taking it.
fn add_reduced(pg: &mut ParentGrads<'_>, i: usize, grad: &Tensor, shape: &[usize]) {
    if grad.shape() == shape {
        pg.add_ref(i, grad);
    } else {
        pg.add(i, reduced(grad, shape));
    }
}

/// `grad ⊙ d` for same-shaped operands, in `grad`'s buffer.
fn times(mut grad: Tensor, d: &Tensor) -> Tensor {
    grad.mul_assign(d);
    grad
}

impl<'g> Var<'g> {
    /// Element-wise addition with broadcasting.
    pub fn add(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.add(b)));
        self.g.push("add", v, || {
            let (sa, sb) = (self.shape(), other.shape());
            Backward::new(vec![self.id, other.id], move |ctx, pg| {
                add_reduced(pg, 0, &ctx.grad, &sa);
                pg.add(1, reduce_to_shape(ctx.grad, &sb));
            })
        })
    }

    /// Element-wise subtraction with broadcasting.
    pub fn sub(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.sub(b)));
        self.g.push("sub", v, || {
            let (sa, sb) = (self.shape(), other.shape());
            Backward::new(vec![self.id, other.id], move |ctx, pg| {
                add_reduced(pg, 0, &ctx.grad, &sa);
                let mut neg = ctx.grad;
                neg.map_assign(|v| -v);
                pg.add(1, reduce_to_shape(neg, &sb));
            })
        })
    }

    /// Element-wise multiplication with broadcasting.
    pub fn mul(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.mul(b)));
        self.g.push("mul", v, || {
            let (sa, sb) = (self.shape(), other.shape());
            Backward::new(vec![self.id, other.id], move |ctx, pg| {
                let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
                pg.add(0, reduce_to_shape(ctx.grad.mul(b), &sa));
                // `grad ⊙ a` in the gradient's own buffer when no operand
                // broadcasts it wider.
                let gb = if a.shape() == ctx.grad.shape() {
                    times(ctx.grad, a)
                } else {
                    ctx.grad.mul(a)
                };
                pg.add(1, reduce_to_shape(gb, &sb));
            })
        })
    }

    /// Element-wise division with broadcasting.
    pub fn div(self, other: Var<'g>) -> Var<'g> {
        let v = self.with_value(|a| other.with_value(|b| a.div(b)));
        self.g.push("div", v, || {
            let (sa, sb) = (self.shape(), other.shape());
            Backward::new(vec![self.id, other.id], move |ctx, pg| {
                let (a, b) = (ctx.inputs[0], ctx.inputs[1]);
                let ga = ctx.grad.div(b);
                let gb = ctx.grad.mul(a).neg().div(&b.square());
                pg.add(0, reduce_to_shape(ga, &sa));
                pg.add(1, reduce_to_shape(gb, &sb));
            })
        })
    }

    /// Add a scalar.
    pub fn add_scalar(self, s: f32) -> Var<'g> {
        let v = self.with_value(|a| a.add_scalar(s));
        self.g.push("add_scalar", v, || {
            Backward::new(vec![self.id], |ctx, pg| pg.add(0, ctx.grad))
        })
    }

    /// Multiply by a scalar.
    pub fn mul_scalar(self, s: f32) -> Var<'g> {
        let v = self.with_value(|a| a.mul_scalar(s));
        self.g.push("mul_scalar", v, || {
            Backward::new(vec![self.id], move |ctx, pg| {
                let mut g = ctx.grad;
                g.map_assign(|v| v * s);
                pg.add(0, g);
            })
        })
    }

    /// Negation.
    pub fn neg(self) -> Var<'g> {
        self.mul_scalar(-1.0)
    }

    /// Element-wise natural exponential.
    pub fn exp(self) -> Var<'g> {
        let v = self.with_value(|a| a.exp());
        self.g.push("exp", v, || {
            Backward::new(vec![self.id], |ctx, pg| pg.add(0, times(ctx.grad, ctx.out)))
        })
    }

    /// Element-wise natural logarithm.
    pub fn ln(self) -> Var<'g> {
        let v = self.with_value(|a| a.ln());
        self.g.push("ln", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                pg.add(0, ctx.grad.div(ctx.inputs[0]))
            })
        })
    }

    /// Element-wise square root.
    pub fn sqrt(self) -> Var<'g> {
        let v = self.with_value(|a| a.sqrt());
        self.g.push("sqrt", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                // d/dx √x = 1 / (2√x)
                pg.add(0, ctx.grad.div(&ctx.out.mul_scalar(2.0)))
            })
        })
    }

    /// Element-wise square.
    pub fn square(self) -> Var<'g> {
        let v = self.with_value(|a| a.square());
        self.g.push("square", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let d = ctx.inputs[0].mul_scalar(2.0);
                pg.add(0, times(ctx.grad, &d))
            })
        })
    }

    /// Element-wise absolute value (subgradient 0 at 0).
    pub fn abs(self) -> Var<'g> {
        let v = self.with_value(|a| a.abs());
        self.g.push("abs", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let sign = ctx.inputs[0].map(|x| {
                    if x > 0.0 {
                        1.0
                    } else if x < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                pg.add(0, times(ctx.grad, &sign))
            })
        })
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(self) -> Var<'g> {
        let v = self.with_value(|a| a.tanh());
        self.g.push("tanh", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                // d tanh = 1 - tanh²
                let one_minus = ctx.out.square().neg().add_scalar(1.0);
                pg.add(0, times(ctx.grad, &one_minus))
            })
        })
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(self) -> Var<'g> {
        let v = self.with_value(|a| a.sigmoid());
        self.g.push("sigmoid", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                // dσ = σ(1-σ)
                let d = ctx.out.mul(&ctx.out.neg().add_scalar(1.0));
                pg.add(0, times(ctx.grad, &d))
            })
        })
    }

    /// Element-wise ReLU.
    pub fn relu(self) -> Var<'g> {
        let v = self.with_value(|a| a.relu());
        self.g.push("relu", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let mask = ctx.inputs[0].map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                pg.add(0, times(ctx.grad, &mask))
            })
        })
    }

    /// Element-wise GELU (tanh approximation); gradient computed from the
    /// same approximation.
    pub fn gelu(self) -> Var<'g> {
        let v = self.with_value(|a| a.gelu());
        self.g.push("gelu", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let c = (2.0 / std::f32::consts::PI).sqrt();
                let d = ctx.inputs[0].map(|x| {
                    let inner = c * (x + 0.044_715 * x * x * x);
                    let t = inner.tanh();
                    let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
                    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
                });
                pg.add(0, times(ctx.grad, &d))
            })
        })
    }

    /// Element-wise softplus (stable); gradient is the sigmoid.
    pub fn softplus(self) -> Var<'g> {
        let v = self.with_value(|a| a.softplus());
        self.g.push("softplus", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let d = ctx.inputs[0].sigmoid();
                pg.add(0, times(ctx.grad, &d))
            })
        })
    }

    /// Element-wise ELU (alpha = 1).
    pub fn elu(self) -> Var<'g> {
        let v = self.with_value(|a| a.elu());
        self.g.push("elu", v, || {
            Backward::new(vec![self.id], |ctx, pg| {
                let d = ctx.inputs[0].map(|x| if x > 0.0 { 1.0 } else { x.exp() });
                pg.add(0, times(ctx.grad, &d))
            })
        })
    }

    /// Multiply by a constant mask tensor (used for dropout). The mask is
    /// treated as non-differentiable.
    pub fn mul_mask(self, mask: &Tensor) -> Var<'g> {
        assert_eq!(
            broadcast_shapes(&self.shape(), mask.shape()),
            self.shape(),
            "mask must broadcast to the variable's shape without growing it"
        );
        let v = self.with_value(|a| a.mul(mask));
        self.g.push("mul_mask", v, || {
            let m = mask.clone();
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                let g = if m.shape() == ctx.grad.shape() {
                    times(ctx.grad, &m)
                } else {
                    ctx.grad.mul(&m)
                };
                pg.add(0, reduce_to_shape(g, &shape))
            })
        })
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
    fn add_grads() {
        let a = sample(&[2, 3], 1);
        let b = sample(&[2, 3], 2);
        grad_check(&[a, b], |_, xs| xs[0].add(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
        let _ = Graph::new(); // silence unused import in some cfgs
    }

    #[test]
    fn add_broadcast_grads() {
        let a = sample(&[2, 3], 1);
        let b = sample(&[1, 3], 2);
        grad_check(&[a, b], |_, xs| xs[0].add(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn sub_grads() {
        let a = sample(&[4], 3);
        let b = sample(&[4], 4);
        grad_check(&[a, b], |_, xs| xs[0].sub(xs[1]).square().sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn mul_broadcast_grads() {
        let a = sample(&[2, 3], 5);
        let b = sample(&[3], 6);
        grad_check(&[a, b], |_, xs| xs[0].mul(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn div_grads() {
        let a = sample(&[3], 7);
        let b = sample(&[3], 8).abs_offset();
        grad_check(&[a, b], |_, xs| xs[0].div(xs[1]).sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn unary_grads() {
        let x = sample(&[5], 9);
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].tanh().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].sigmoid().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].exp().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].softplus().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].gelu().sum_all(),
            2e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].elu().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn positive_domain_grads() {
        let x = sample(&[5], 10).abs_offset();
        grad_check(std::slice::from_ref(&x), |_, xs| xs[0].ln().sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].sqrt().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn scalar_op_grads() {
        let x = sample(&[4], 11);
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].mul_scalar(3.0).sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        grad_check(
            std::slice::from_ref(&x),
            |_, xs| xs[0].add_scalar(2.0).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn mask_multiplication_grad() {
        let x = sample(&[6], 12);
        let mask = Tensor::from_slice(&[1.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
        grad_check(
            std::slice::from_ref(&x),
            move |_, xs| xs[0].mul_mask(&mask).sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn forward_values_match_tensor_ops() {
        let g = Graph::new();
        let t = sample(&[3, 3], 13);
        let v = g.leaf(t.clone());
        v.tanh().value().assert_close(&t.tanh(), 1e-6);
        v.relu().value().assert_close(&t.relu(), 1e-6);
        v.mul_scalar(2.0)
            .value()
            .assert_close(&t.mul_scalar(2.0), 1e-6);
    }

    /// Helper: shift samples away from zero for ln/sqrt/div domains.
    trait AbsOffset {
        fn abs_offset(&self) -> Tensor;
    }
    impl AbsOffset for Tensor {
        fn abs_offset(&self) -> Tensor {
            self.abs().add_scalar(0.5)
        }
    }
}
