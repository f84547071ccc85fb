//! TS2Vec (Yue et al. 2022), adapted for forecasting: a stacked causal
//! convolutional encoder produces per-timestep representations; a linear
//! head regresses the horizon from the final representation (standing in
//! for the original's ridge-regression protocol). A temporal-consistency
//! auxiliary loss — representations of neighbouring timestamps are pulled
//! together — substitutes for the original's hierarchical contrastive
//! objective, which needs large augmented batches to be meaningful.
//! The simplification is recorded in DESIGN.md; TS2Vec appears only in
//! the univariate comparison (Table IV).

use crate::config::BaselineConfig;
use lttf_autograd::{Graph, Var};
use lttf_nn::{kaiming_uniform, mse_loss_to, Fwd, Linear, ParamId, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// Convolutional representation encoder + forecasting head.
pub struct Ts2Vec {
    cfg: BaselineConfig,
    convs: Vec<ParamId>,
    input_proj: Linear,
    head: Linear,
    repr_dim: usize,
    aux_weight: f32,
}

impl Ts2Vec {
    /// Allocate a 3-layer convolutional encoder.
    pub fn new(ps: &mut ParamSet, cfg: &BaselineConfig, rng: &mut Rng) -> Self {
        let repr_dim = cfg.hidden;
        let convs = (0..3)
            .map(|i| {
                ps.add(
                    format!("ts2vec.conv{i}"),
                    kaiming_uniform(&[repr_dim, repr_dim, 3], repr_dim * 3, rng),
                )
            })
            .collect();
        Ts2Vec {
            cfg: cfg.clone(),
            convs,
            input_proj: Linear::new(ps, "ts2vec.input", cfg.c_in, repr_dim, rng),
            head: Linear::new(ps, "ts2vec.head", repr_dim, cfg.ly * cfg.c_out, rng),
            repr_dim,
            aux_weight: 0.1,
        }
    }

    /// Per-timestep representations `[b, lx, repr_dim]`.
    fn encode<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let mut h = self.input_proj.forward(cx, x);
        for &w in &self.convs {
            let wv = cx.param(w);
            let c = h.conv1d(wv, 1, 1).gelu();
            h = h.add(c); // residual conv stack
        }
        h
    }

    /// Forward `x: [b, lx, c_in]` → `[b, ly, c_out]`.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let b = x.shape()[0];
        let reprs = self.encode(cx, x);
        let last = reprs
            .narrow(1, self.cfg.lx - 1, 1)
            .reshape(&[b, self.repr_dim]);
        self.head
            .forward(cx, last)
            .reshape(&[b, self.cfg.ly, self.cfg.c_out])
    }

    /// Forecast MSE plus the temporal-consistency auxiliary term.
    pub fn loss<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>, target: &Tensor) -> Var<'g> {
        let b = x.shape()[0];
        let reprs = self.encode(cx, x);
        let last = reprs
            .narrow(1, self.cfg.lx - 1, 1)
            .reshape(&[b, self.repr_dim]);
        let pred = self
            .head
            .forward(cx, last)
            .reshape(&[b, self.cfg.ly, self.cfg.c_out]);
        let forecast = mse_loss_to(pred, target);
        // temporal consistency: neighbouring representations stay close
        let lx = self.cfg.lx;
        let a = reprs.narrow(1, 0, lx - 1);
        let bb = reprs.narrow(1, 1, lx - 1);
        let consistency = a.sub(bb).square().mean_all();
        forecast.add(consistency.mul_scalar(self.aux_weight))
    }

    /// Deterministic prediction.
    pub fn predict(&self, ps: &ParamSet, x: &Tensor) -> Tensor {
        let g = Graph::inference();
        let cx = Fwd::new(&g, ps, false, 0);
        self.forward(&cx, g.leaf(x.clone())).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_univariate() {
        let cfg = BaselineConfig::tiny(1, 12, 6);
        let mut ps = ParamSet::new();
        let m = Ts2Vec::new(&mut ps, &cfg, &mut Rng::seed(0));
        let x = Tensor::randn(&[2, 12, 1], &mut Rng::seed(1));
        assert_eq!(m.predict(&ps, &x).shape(), &[2, 6, 1]);
    }

    #[test]
    fn aux_loss_penalizes_jitter() {
        let cfg = BaselineConfig::tiny(1, 8, 2);
        let mut ps = ParamSet::new();
        let m = Ts2Vec::new(&mut ps, &cfg, &mut Rng::seed(0));
        let y = Tensor::zeros(&[1, 2, 1]);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let x = g.leaf(Tensor::randn(&[1, 8, 1], &mut Rng::seed(1)));
        let loss = m.loss(&cx, x, &y).value().item();
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        use lttf_nn::{Adam, Optimizer};
        let cfg = BaselineConfig::tiny(1, 10, 3);
        let mut ps = ParamSet::new();
        let m = Ts2Vec::new(&mut ps, &cfg, &mut Rng::seed(0));
        let mut opt = Adam::new(5e-3);
        let x = Tensor::randn(&[4, 10, 1], &mut Rng::seed(2));
        let y = Tensor::randn(&[4, 3, 1], &mut Rng::seed(3)).mul_scalar(0.3);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..60 {
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, true, step);
            let loss = m.loss(&cx, g.leaf(x.clone()), &y);
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = g.backward(loss);
            let collected = cx.collect_grads(&grads);
            ps.zero_grad();
            ps.apply_grads(collected);
            opt.step(&mut ps);
        }
        assert!(last < first.unwrap() * 0.8, "{first:?} → {last}");
    }
}
