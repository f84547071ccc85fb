//! The normalizing-flow block (paper Section IV-C, Fig. 3b, Eq. 15–17).
//!
//! The flow absorbs the encoder/decoder RNN hidden states:
//!
//! * Eq. 15: `z_e = μ_e(h_e) + σ_e(h_e) ⊙ ε`, `ε ~ N(0, I)`,
//! * Eq. 16: `z_0 = μ_d(h_d) + σ_d(h_d) ⊙ z_e`,
//! * Eq. 17: `z_t = μ_t(h_d, z_{t−1}) + σ_t(h_d, z_{t−1}) ⊙ z_{t−1}`.
//!
//! `z_T` lives in a latent space of width `d_model` and is projected to
//! the `[ly, c_out]` horizon by a final linear head; as Section IV-D
//! specifies, the sampled output is treated as a point estimate and
//! trained with MSE (Eq. 18), not log-likelihood. σ networks are made
//! positive with softplus. Setting the noise to zero yields the flow's
//! mean prediction; sampling many ε gives the uncertainty bands of
//! Figs. 6–7.

use crate::config::FlowMode;
use lttf_autograd::Var;
use lttf_nn::{Fwd, Linear, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// The conditional affine flow head.
pub struct NormalizingFlow {
    mode: FlowMode,
    enc_mu: Linear,
    enc_sigma: Linear,
    dec_mu: Linear,
    dec_sigma: Linear,
    step_mu: Vec<Linear>,
    step_sigma: Vec<Linear>,
    out: Linear,
    d_model: usize,
    ly: usize,
    c_out: usize,
}

impl NormalizingFlow {
    /// Allocate the flow with `steps` transformations (Eq. 17's T).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        mode: FlowMode,
        d_model: usize,
        ly: usize,
        c_out: usize,
        steps: usize,
        rng: &mut Rng,
    ) -> Self {
        let mk = |ps: &mut ParamSet, n: String, rng: &mut Rng| {
            Linear::new(ps, &n, d_model, d_model, rng)
        };
        let mut step_mu = Vec::with_capacity(steps);
        let mut step_sigma = Vec::with_capacity(steps);
        for t in 0..steps {
            step_mu.push(Linear::new(
                ps,
                &format!("{name}.step{t}.mu"),
                2 * d_model,
                d_model,
                rng,
            ));
            step_sigma.push(Linear::new(
                ps,
                &format!("{name}.step{t}.sigma"),
                2 * d_model,
                d_model,
                rng,
            ));
        }
        NormalizingFlow {
            mode,
            enc_mu: mk(ps, format!("{name}.enc.mu"), rng),
            enc_sigma: mk(ps, format!("{name}.enc.sigma"), rng),
            dec_mu: mk(ps, format!("{name}.dec.mu"), rng),
            dec_sigma: mk(ps, format!("{name}.dec.sigma"), rng),
            out: Linear::new(ps, &format!("{name}.out"), d_model, ly * c_out, rng),
            step_mu,
            step_sigma,
            d_model,
            ly,
            c_out,
        }
    }

    /// Number of flow transformations.
    pub fn steps(&self) -> usize {
        self.step_mu.len()
    }

    /// Positive scale from a linear head: `softplus(Wx) + 1e-4`.
    fn sigma<'g>(&self, cx: &Fwd<'g, '_>, lin: &Linear, x: Var<'g>) -> Var<'g> {
        lin.forward(cx, x).softplus().add_scalar(1e-4)
    }

    /// Generate the flow output `Z^out: [b, ly, c_out]`.
    ///
    /// `h_e`, `h_d`: `[b, d_model]` hidden states from the SIRN RNNs.
    /// When `sample` is false the Gaussian noise is zeroed, yielding the
    /// deterministic mean path (used at evaluation time). On an inference
    /// graph only the returned node outlives the call.
    pub fn forward<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        h_e: Var<'g>,
        h_d: Var<'g>,
        sample: bool,
    ) -> Var<'g> {
        let b = h_e.shape()[0];
        let g = cx.graph();
        let mark = g.len();
        let eps = if sample {
            g.constant(cx.noise(&[b, self.d_model]))
        } else {
            g.constant(Tensor::zeros(&[b, self.d_model]))
        };
        // Eq. 15
        let z_e = self
            .enc_mu
            .forward(cx, h_e)
            .add(self.sigma(cx, &self.enc_sigma, h_e).mul(eps));
        let z = match self.mode {
            FlowMode::ZeOnly => z_e,
            FlowMode::ZdOnly => {
                // h_d through the same reparameterization as Eq. 15.
                self.dec_mu
                    .forward(cx, h_d)
                    .add(self.sigma(cx, &self.dec_sigma, h_d).mul(eps))
            }
            FlowMode::ZeZd | FlowMode::Full => {
                // Eq. 16
                let mut z = self
                    .dec_mu
                    .forward(cx, h_d)
                    .add(self.sigma(cx, &self.dec_sigma, h_d).mul(z_e));
                if self.mode == FlowMode::Full {
                    // Eq. 17
                    for (mu, sg) in self.step_mu.iter().zip(&self.step_sigma) {
                        let joint = Var::concat(&[h_d, z], 1);
                        z = mu.forward(cx, joint).add(self.sigma(cx, sg, joint).mul(z));
                    }
                }
                z
            }
            FlowMode::None => panic!("FlowMode::None has no flow output; the model must skip it"),
        };
        let out = self.out.forward(cx, z).reshape(&[b, self.ly, self.c_out]);
        g.release_since(mark, &[out]);
        out
    }

    /// Sample `n` flow outputs and return per-element empirical quantiles
    /// `(lo, hi)` at the given coverage level (e.g. 0.9 → 5%/95%), plus
    /// the mean. Used by the uncertainty showcases (Figs. 6–7).
    #[allow(clippy::too_many_arguments)]
    pub fn quantiles(
        &self,
        ps: &ParamSet,
        h_e: &Tensor,
        h_d: &Tensor,
        n: usize,
        coverage: f32,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor) {
        assert!(n >= 2, "need at least 2 samples");
        assert!((0.0..1.0).contains(&coverage), "coverage in [0,1)");
        let mut draws: Vec<Tensor> = Vec::with_capacity(n);
        for i in 0..n {
            let g = lttf_autograd::Graph::new();
            let cx = Fwd::new(&g, ps, true, seed.wrapping_add(i as u64 * 7919));
            let he = g.leaf(h_e.clone());
            let hd = g.leaf(h_d.clone());
            draws.push(self.forward(&cx, he, hd, true).value());
        }
        let numel = draws[0].numel();
        let shape = draws[0].shape().to_vec();
        let mut mean = vec![0.0f32; numel];
        let mut lo = vec![0.0f32; numel];
        let mut hi = vec![0.0f32; numel];
        let alpha = (1.0 - coverage) / 2.0;
        let lo_idx = ((n as f32 * alpha) as usize).min(n - 1);
        let hi_idx = ((n as f32 * (1.0 - alpha)) as usize).min(n - 1);
        let mut column = vec![0.0f32; n];
        for e in 0..numel {
            for (i, d) in draws.iter().enumerate() {
                column[i] = d.data()[e];
            }
            mean[e] = column.iter().sum::<f32>() / n as f32;
            column.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            lo[e] = column[lo_idx];
            hi[e] = column[hi_idx];
        }
        (
            Tensor::from_vec(mean, &shape),
            Tensor::from_vec(lo, &shape),
            Tensor::from_vec(hi, &shape),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;

    fn build(mode: FlowMode, steps: usize) -> (ParamSet, NormalizingFlow) {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let f = NormalizingFlow::new(&mut ps, "nf", mode, 8, 6, 3, steps, &mut rng);
        (ps, f)
    }

    #[test]
    fn output_shapes_for_all_modes() {
        for mode in [
            FlowMode::Full,
            FlowMode::ZeOnly,
            FlowMode::ZdOnly,
            FlowMode::ZeZd,
        ] {
            let (ps, f) = build(mode, 2);
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, false, 0);
            let he = g.leaf(Tensor::randn(&[2, 8], &mut Rng::seed(1)));
            let hd = g.leaf(Tensor::randn(&[2, 8], &mut Rng::seed(2)));
            let z = f.forward(&cx, he, hd, false);
            assert_eq!(z.shape(), vec![2, 6, 3], "mode {mode:?}");
        }
    }

    #[test]
    fn deterministic_without_sampling() {
        let (ps, f) = build(FlowMode::Full, 2);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let he = g.leaf(Tensor::randn(&[1, 8], &mut Rng::seed(3)));
        let hd = g.leaf(Tensor::randn(&[1, 8], &mut Rng::seed(4)));
        let a = f.forward(&cx, he, hd, false).value();
        let b = f.forward(&cx, he, hd, false).value();
        a.assert_close(&b, 0.0);
    }

    #[test]
    fn sampling_injects_variance() {
        let (ps, f) = build(FlowMode::Full, 2);
        let he = Tensor::randn(&[1, 8], &mut Rng::seed(5));
        let hd = Tensor::randn(&[1, 8], &mut Rng::seed(6));
        let g1 = Graph::new();
        let c1 = Fwd::new(&g1, &ps, true, 1);
        let a = f
            .forward(&c1, g1.leaf(he.clone()), g1.leaf(hd.clone()), true)
            .value();
        let g2 = Graph::new();
        let c2 = Fwd::new(&g2, &ps, true, 2);
        let b = f.forward(&c2, g2.leaf(he), g2.leaf(hd), true).value();
        assert!(a.max_abs_diff(&b) > 1e-6, "samples identical across seeds");
    }

    #[test]
    fn modes_produce_distinct_heads() {
        let he = Tensor::randn(&[1, 8], &mut Rng::seed(7));
        let hd = Tensor::randn(&[1, 8], &mut Rng::seed(8));
        let (ps_full, f_full) = build(FlowMode::Full, 2);
        let (_, f_ze) = build(FlowMode::ZeOnly, 2);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps_full, false, 0);
        let a = f_full
            .forward(&cx, g.leaf(he.clone()), g.leaf(hd.clone()), false)
            .value();
        let b = f_ze.forward(&cx, g.leaf(he), g.leaf(hd), false).value();
        assert!(a.max_abs_diff(&b) > 1e-6);
    }

    #[test]
    #[should_panic(expected = "no flow output")]
    fn none_mode_panics() {
        let (ps, f) = build(FlowMode::None, 1);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let he = g.leaf(Tensor::zeros(&[1, 8]));
        f.forward(&cx, he, he, false);
    }

    #[test]
    fn quantiles_bracket_mean_and_widen_with_coverage() {
        let (ps, f) = build(FlowMode::Full, 2);
        let he = Tensor::randn(&[1, 8], &mut Rng::seed(9));
        let hd = Tensor::randn(&[1, 8], &mut Rng::seed(10));
        let (mean, lo80, hi80) = f.quantiles(&ps, &he, &hd, 50, 0.8, 42);
        let (_, lo95, hi95) = f.quantiles(&ps, &he, &hd, 50, 0.95, 42);
        for e in 0..mean.numel() {
            assert!(lo80.data()[e] <= mean.data()[e] + 1e-4);
            assert!(hi80.data()[e] >= mean.data()[e] - 1e-4);
            assert!(lo95.data()[e] <= lo80.data()[e] + 1e-5);
            assert!(hi95.data()[e] >= hi80.data()[e] - 1e-5);
        }
    }

    #[test]
    fn gradients_flow_through_chain() {
        let (mut ps, f) = build(FlowMode::Full, 3);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let he = g.leaf(Tensor::randn(&[1, 8], &mut Rng::seed(11)));
        let hd = g.leaf(Tensor::randn(&[1, 8], &mut Rng::seed(12)));
        let loss = f.forward(&cx, he, hd, true).square().sum_all();
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        let with_grad = ps.ids().filter(|&id| ps.grad(id).abs().sum() > 0.0).count();
        // every flow parameter participates in Full mode
        assert_eq!(with_grad, ps.len(), "some flow parameters unused");
    }
}
