//! Differentiable shape surgery: reshape, axis swaps, slicing, concat, pad.

use crate::graph::{Backward, Var};
use lttf_tensor::Tensor;

impl<'g> Var<'g> {
    /// Reshape to a new shape with the same element count.
    pub fn reshape(self, shape: &[usize]) -> Var<'g> {
        let v = self.with_value(|a| a.reshape(shape));
        self.g.push("reshape", v, || {
            let old = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, ctx.grad.into_reshape(&old))
            })
        })
    }

    /// Swap two axes (gradient swaps them back).
    pub fn swap_axes(self, a: isize, b: isize) -> Var<'g> {
        let v = self.with_value(|t| t.swap_axes(a, b));
        self.g.push("swap_axes", v, || {
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, ctx.grad.swap_axes(a, b))
            })
        })
    }

    /// Permute axes; the gradient applies the inverse permutation.
    pub fn permute(self, order: &[usize]) -> Var<'g> {
        let v = self.with_value(|t| t.permute(order));
        self.g.push("permute", v, || {
            let mut inverse = vec![0usize; order.len()];
            for (i, &o) in order.iter().enumerate() {
                inverse[o] = i;
            }
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, ctx.grad.permute(&inverse))
            })
        })
    }

    /// Take `[start, start+len)` along `axis`; the gradient scatters back
    /// into a zero tensor of the original shape.
    pub fn narrow(self, axis: isize, start: usize, len: usize) -> Var<'g> {
        let v = self.with_value(|t| t.narrow(axis, start, len));
        self.g.push("narrow", v, || {
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                let ax = if axis < 0 {
                    (shape.len() as isize + axis) as usize
                } else {
                    axis as usize
                };
                let before = start;
                let after = shape[ax] - start - len;
                pg.add(0, ctx.grad.pad_axis(ax as isize, before, after, 0.0))
            })
        })
    }

    /// Select `indices` along `axis` (gather); the gradient scatter-adds.
    pub fn select(self, axis: isize, indices: &[usize]) -> Var<'g> {
        let v = self.with_value(|t| t.select(axis, indices));
        self.g.push("select", v, || {
            let shape = self.shape();
            let idx = indices.to_vec();
            Backward::new(vec![self.id], move |ctx, pg| {
                let ax = if axis < 0 {
                    (shape.len() as isize + axis) as usize
                } else {
                    axis as usize
                };
                let mut grad = Tensor::zeros(&shape);
                let extent = shape[ax];
                let outer: usize = shape[..ax].iter().product();
                let inner: usize = shape[ax + 1..].iter().product();
                let k = idx.len();
                let gd = ctx.grad.data();
                let out = grad.data_mut();
                for o in 0..outer {
                    for (j, &i) in idx.iter().enumerate() {
                        let src = (o * k + j) * inner;
                        let dst = (o * extent + i) * inner;
                        for t in 0..inner {
                            out[dst + t] += gd[src + t];
                        }
                    }
                }
                pg.add(0, grad)
            })
        })
    }

    /// Zero-pad along `axis`; the gradient narrows back.
    pub fn pad_axis(self, axis: isize, before: usize, after: usize) -> Var<'g> {
        let v = self.with_value(|t| t.pad_axis(axis, before, after, 0.0));
        self.g.push("pad_axis", v, || {
            let len = self.with_value(|t| t.size(axis));
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, ctx.grad.narrow(axis, before, len))
            })
        })
    }

    /// Concatenate variables along `axis`; each parent's gradient is the
    /// matching slice of the output gradient.
    ///
    /// # Panics
    /// Panics on an empty list (and on shape mismatches, from the tensor op).
    pub fn concat(vars: &[Var<'g>], axis: isize) -> Var<'g> {
        assert!(!vars.is_empty(), "concat of empty var list");
        let g = vars[0].g;
        let out = {
            let values = g.values.borrow();
            let refs: Vec<&Tensor> = vars.iter().map(|v| g.live(&values, v.id)).collect();
            Tensor::concat(&refs, axis)
        };
        g.push("concat", out, || {
            let extents: Vec<usize> = vars
                .iter()
                .map(|v| v.with_value(|t| t.size(axis)))
                .collect();
            let parents = vars.iter().map(|v| v.id).collect();
            Backward::new(parents, move |ctx, pg| {
                let mut start = 0;
                for (i, &e) in extents.iter().enumerate() {
                    pg.add(i, ctx.grad.narrow(axis, start, e));
                    start += e;
                }
            })
        })
    }

    /// Broadcast to a larger shape; the gradient sum-reduces back.
    pub fn broadcast_to(self, target: &[usize]) -> Var<'g> {
        let v = self.with_value(|t| t.broadcast_to(target));
        self.g.push("broadcast_to", v, || {
            let shape = self.shape();
            Backward::new(vec![self.id], move |ctx, pg| {
                pg.add(0, crate::ops_basic::reduce_to_shape(ctx.grad, &shape))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::check::grad_check;
    use crate::{Graph, Var};
    use lttf_tensor::{Rng, Tensor};

    fn sample(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, &mut Rng::seed(seed))
    }

    #[test]
    fn reshape_grads() {
        let x = sample(&[2, 6], 1);
        grad_check(
            &[x],
            |_, xs| xs[0].reshape(&[3, 4]).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn swap_axes_grads() {
        let x = sample(&[2, 3, 4], 2);
        grad_check(&[x], |_, xs| xs[0].swap_axes(0, 2).square().sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn permute_grads() {
        let x = sample(&[2, 3, 4], 3);
        grad_check(
            &[x],
            |_, xs| xs[0].permute(&[2, 0, 1]).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn narrow_grads() {
        let x = sample(&[3, 5], 4);
        grad_check(&[x], |_, xs| xs[0].narrow(1, 1, 3).square().sum_all(), 1e-2)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn narrow_grad_zero_outside_window() {
        let g = Graph::new();
        let x = g.leaf(sample(&[1, 5], 5));
        let y = x.narrow(1, 1, 2).sum_all();
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn select_grads() {
        let x = sample(&[4, 3], 6);
        grad_check(
            &[x],
            |_, xs| xs[0].select(0, &[2, 0, 2]).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn select_duplicate_indices_accumulate() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let y = x.select(0, &[1, 1]).sum_all();
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn pad_grads() {
        let x = sample(&[2, 3], 7);
        grad_check(
            &[x],
            |_, xs| xs[0].pad_axis(1, 2, 1).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn concat_grads() {
        let a = sample(&[2, 2], 8);
        let b = sample(&[2, 3], 9);
        grad_check(
            &[a, b],
            |_, xs| Var::concat(&[xs[0], xs[1]], 1).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn broadcast_to_grads() {
        let x = sample(&[1, 3], 10);
        grad_check(
            &[x],
            |_, xs| xs[0].broadcast_to(&[4, 3]).square().sum_all(),
            1e-2,
        )
        .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn narrow_concat_round_trip_gradient() {
        // Splitting then concatenating is identity; gradient must be ones.
        let g = Graph::new();
        let x = g.leaf(sample(&[2, 4], 11));
        let left = x.narrow(1, 0, 2);
        let right = x.narrow(1, 2, 2);
        let y = Var::concat(&[left, right], 1).sum_all();
        let grads = g.backward(y);
        assert_eq!(grads.get(x).unwrap().data(), &[1.0; 8]);
    }
}
