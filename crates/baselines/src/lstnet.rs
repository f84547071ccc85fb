//! LSTNet (Lai et al. 2018): convolution for short-term local patterns,
//! a recurrent layer for longer dependencies, and a direct output head.
//! As the paper specifies, the highway (autoregressive) and recurrent-skip
//! components are omitted.

use crate::config::BaselineConfig;
use lttf_autograd::{Graph, Var};
use lttf_nn::{kaiming_uniform, mse_loss_to, Fwd, Gru, Linear, ParamId, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// CNN + GRU forecaster.
pub struct LstNet {
    cfg: BaselineConfig,
    conv: ParamId,
    rnn: Gru,
    head: Linear,
    conv_channels: usize,
}

impl LstNet {
    /// Allocate. The convolution uses kernel 6 over time (LSTNet's
    /// default) across all input variables.
    pub fn new(ps: &mut ParamSet, cfg: &BaselineConfig, rng: &mut Rng) -> Self {
        let conv_channels = cfg.hidden;
        let k = 6.min(cfg.lx);
        LstNet {
            cfg: cfg.clone(),
            conv: ps.add(
                "lstnet.conv",
                kaiming_uniform(&[conv_channels, cfg.c_in, k], cfg.c_in * k, rng),
            ),
            rnn: Gru::new(
                ps,
                "lstnet.gru",
                conv_channels,
                cfg.hidden,
                1,
                cfg.dropout,
                rng,
            ),
            head: Linear::new(ps, "lstnet.head", cfg.hidden, cfg.ly * cfg.c_out, rng),
            conv_channels,
        }
    }

    /// Forward `x: [b, lx, c_in]` → `[b, ly, c_out]`.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let b = x.shape()[0];
        let w = cx.param(self.conv);
        let feats = x.conv1d(w, 0, 1).relu(); // [b, lx-k+1, conv_channels]
        debug_assert_eq!(feats.shape()[2], self.conv_channels);
        let out = self.rnn.forward(cx, feats);
        let h = *out.last_hidden.last().expect("layer");
        self.head
            .forward(cx, h)
            .reshape(&[b, self.cfg.ly, self.cfg.c_out])
    }

    /// MSE training loss.
    pub fn loss<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>, target: &Tensor) -> Var<'g> {
        mse_loss_to(self.forward(cx, x), target)
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
    fn forward_shape() {
        let cfg = BaselineConfig::tiny(3, 16, 5);
        let mut ps = ParamSet::new();
        let m = LstNet::new(&mut ps, &cfg, &mut Rng::seed(0));
        let x = Tensor::randn(&[2, 16, 3], &mut Rng::seed(1));
        assert_eq!(m.predict(&ps, &x).shape(), &[2, 5, 3]);
    }

    #[test]
    fn short_inputs_still_work() {
        // kernel is clamped to lx
        let cfg = BaselineConfig::tiny(2, 4, 2);
        let mut ps = ParamSet::new();
        let m = LstNet::new(&mut ps, &cfg, &mut Rng::seed(0));
        let x = Tensor::randn(&[1, 4, 2], &mut Rng::seed(1));
        assert_eq!(m.predict(&ps, &x).shape(), &[1, 2, 2]);
    }

    #[test]
    fn training_reduces_loss() {
        use lttf_nn::{Adam, Optimizer};
        let cfg = BaselineConfig::tiny(2, 12, 3);
        let mut ps = ParamSet::new();
        let m = LstNet::new(&mut ps, &cfg, &mut Rng::seed(0));
        let mut opt = Adam::new(0.01);
        let x = Tensor::randn(&[4, 12, 2], &mut Rng::seed(2));
        let y = x.narrow(1, 9, 3); // "predict" a copy task
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
        assert!(last < first.unwrap() * 0.5, "{first:?} → {last}");
    }
}
