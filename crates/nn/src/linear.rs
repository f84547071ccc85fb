//! Fully connected (dense) layer.

use crate::init::xavier_uniform;
use crate::param::{Fwd, ParamId, ParamSet};
use lttf_autograd::Var;
use lttf_tensor::Rng;

/// A dense layer `y = x W + b` applied over the last axis.
///
/// Accepts 2-D `[n, in]` or 3-D `[batch, len, in]` inputs.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_features: usize,
}

impl Linear {
    /// Allocate a linear layer with bias.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut Rng,
    ) -> Self {
        Self::with_bias(ps, name, in_features, out_features, true, rng)
    }

    /// Allocate a linear layer, optionally without bias.
    pub fn with_bias(
        ps: &mut ParamSet,
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut Rng,
    ) -> Self {
        let w = ps.add(
            format!("{name}.weight"),
            xavier_uniform(&[in_features, out_features], in_features, out_features, rng),
        );
        let b = bias.then(|| {
            ps.add(
                format!("{name}.bias"),
                lttf_tensor::Tensor::zeros(&[out_features]),
            )
        });
        Linear { w, b, in_features }
    }

    /// Apply the layer. Input must be 2-D or 3-D with last axis
    /// `in_features`.
    ///
    /// # Panics
    /// Panics on a last-axis mismatch.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let shape = x.shape();
        assert_eq!(
            *shape
                .last()
                .expect("linear input must have at least 1 axis"),
            self.in_features,
            "linear layer expects last axis {}, got {:?}",
            self.in_features,
            shape
        );
        let w = cx.param(self.w);
        match self.b {
            // One tape node: the bias rows go into the product's buffer.
            Some(b) => x.linear(w, cx.param(b)),
            None => x.matmul(w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSet;
    use lttf_autograd::Graph;
    use lttf_tensor::{Rng, Tensor};

    #[test]
    fn forward_shape_2d_and_3d() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let y2 = lin.forward(&cx, g.leaf(Tensor::zeros(&[5, 4])));
        assert_eq!(y2.shape(), vec![5, 3]);
        let y3 = lin.forward(&cx, g.leaf(Tensor::zeros(&[2, 7, 4])));
        assert_eq!(y3.shape(), vec![2, 7, 3]);
    }

    #[test]
    fn bias_shifts_output() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let lin = Linear::new(&mut ps, "l", 2, 2, &mut rng);
        // Set bias to a known value.
        let bias_id = ps.ids().nth(1).unwrap();
        *ps.value_mut(bias_id) = Tensor::from_slice(&[10.0, 20.0]);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let y = lin.forward(&cx, g.leaf(Tensor::zeros(&[1, 2])));
        assert_eq!(y.value().data(), &[10.0, 20.0]);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        use crate::optim::{Adam, Optimizer};
        // Fit y = 2x with a 1x1 linear layer.
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(1);
        let lin = Linear::new(&mut ps, "l", 1, 1, &mut rng);
        let mut opt = Adam::new(0.1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]);
        let t = x.mul_scalar(2.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..100 {
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, true, 0);
            let pred = lin.forward(&cx, g.leaf(x.clone()));
            let loss = pred.sub(g.constant(t.clone())).square().mean_all();
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = g.backward(loss);
            let collected = cx.collect_grads(&grads);
            ps.zero_grad();
            ps.apply_grads(collected);
            opt.step(&mut ps);
        }
        assert!(last < 1e-3, "final loss {last}");
        assert!(last < first.unwrap() / 100.0);
    }

    #[test]
    #[should_panic(expected = "expects last axis")]
    fn wrong_input_width_panics() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        lin.forward(&cx, g.leaf(Tensor::zeros(&[5, 5])));
    }
}
