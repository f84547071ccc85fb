//! The assembled Conformer model (paper Fig. 1) and its training loss
//! (Eq. 18).

use crate::config::{ConformerConfig, FlowMode, HiddenFeed};
use crate::decoder::Decoder;
use crate::encoder::Encoder;
use crate::flow::NormalizingFlow;
use crate::input_repr::InputRepresentation;
use lttf_autograd::{Graph, Var};
use lttf_nn::{mse_loss_to, Fwd, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// Everything one forward pass produces.
pub struct ConformerOutput<'g> {
    /// Decoder prediction `Y^out`, `[b, ly, c_out]`.
    pub y_dec: Var<'g>,
    /// Flow prediction `Z^out`, `[b, ly, c_out]` (absent when
    /// `FlowMode::None`).
    pub y_flow: Option<Var<'g>>,
    /// The encoder hidden state fed to the flow.
    pub h_e: Var<'g>,
    /// The decoder hidden state fed to the flow.
    pub h_d: Var<'g>,
}

/// The Conformer model: input representation → SIRN encoder/decoder →
/// normalizing flow.
pub struct Conformer {
    cfg: ConformerConfig,
    enc_repr: InputRepresentation,
    dec_repr: InputRepresentation,
    encoder: Encoder,
    decoder: Decoder,
    flow: Option<NormalizingFlow>,
}

impl Conformer {
    /// Allocate the model per `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    pub fn new(ps: &mut ParamSet, cfg: &ConformerConfig, rng: &mut Rng) -> Self {
        cfg.validate();
        let enc_repr = InputRepresentation::new(
            ps,
            "enc_repr",
            cfg.input_repr,
            cfg.c_in,
            cfg.d_model,
            cfg.lx,
            &cfg.multiscale_strides,
            cfg.mark_dim,
            rng,
        );
        let dec_repr = InputRepresentation::new(
            ps,
            "dec_repr",
            cfg.input_repr,
            cfg.c_in,
            cfg.d_model,
            cfg.dec_len(),
            &cfg.multiscale_strides,
            cfg.mark_dim,
            rng,
        );
        let encoder = Encoder::new(ps, cfg, rng);
        let decoder = Decoder::new(ps, cfg, rng);
        let flow = (cfg.flow_mode != FlowMode::None).then(|| {
            NormalizingFlow::new(
                ps,
                "flow",
                cfg.flow_mode,
                cfg.d_model,
                cfg.ly,
                cfg.c_out,
                cfg.flow_steps,
                rng,
            )
        });
        Conformer {
            cfg: cfg.clone(),
            enc_repr,
            dec_repr,
            encoder,
            decoder,
            flow,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ConformerConfig {
        &self.cfg
    }

    /// Pick `(h_e, h_d)` per the Table IX switch.
    fn pick_hiddens<'g>(&self, enc: &[Var<'g>], dec: &[Var<'g>]) -> (Var<'g>, Var<'g>) {
        let (first_e, last_e) = (enc[0], *enc.last().expect("encoder layer"));
        let (first_d, last_d) = (dec[0], *dec.last().expect("decoder layer"));
        match self.cfg.hidden_feed {
            HiddenFeed::LastEncLastDec => (last_e, last_d),
            HiddenFeed::FirstEncLastDec => (first_e, last_d),
            HiddenFeed::FirstEncFirstDec => (first_e, first_d),
            HiddenFeed::LastEncFirstDec => (last_e, first_d),
        }
    }

    /// Full forward pass.
    ///
    /// * `x: [b, lx, c_in]`, `x_mark: [b, lx, mark_dim]`
    /// * `dec: [b, dec_len, c_in]` (zero-padded horizon),
    ///   `dec_mark: [b, dec_len, mark_dim]`
    /// * `sample`: draw flow noise (training) or use the mean path (eval).
    pub fn forward<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        x_mark: Option<Var<'g>>,
        dec: Var<'g>,
        dec_mark: Option<Var<'g>>,
        sample: bool,
    ) -> ConformerOutput<'g> {
        let enc_in = self.enc_repr.forward(cx, x, x_mark);
        let enc_out = self.encoder.forward(cx, enc_in);
        let dec_in = self.dec_repr.forward(cx, dec, dec_mark);
        let dec_out = self.decoder.forward(cx, dec_in, enc_out.out);
        let (h_e, h_d) = self.pick_hiddens(&enc_out.hiddens, &dec_out.hiddens);
        let y_flow = self.flow.as_ref().map(|f| f.forward(cx, h_e, h_d, sample));
        ConformerOutput {
            y_dec: dec_out.y,
            y_flow,
            h_e,
            h_d,
        }
    }

    /// The training loss (Eq. 18):
    /// `λ·MSE(Y^out, Y) + (1−λ)·MSE(Z^out, Y)`.
    ///
    /// `target: [b, ly, c_out]` in scaled space.
    #[allow(clippy::too_many_arguments)]
    pub fn loss<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        x_mark: Option<Var<'g>>,
        dec: Var<'g>,
        dec_mark: Option<Var<'g>>,
        target: &Tensor,
    ) -> Var<'g> {
        let out = self.forward(cx, x, x_mark, dec, dec_mark, true);
        let dec_loss = mse_loss_to(out.y_dec, target);
        match out.y_flow {
            Some(zf) => {
                let flow_loss = mse_loss_to(zf, target);
                dec_loss
                    .mul_scalar(self.cfg.lambda)
                    .add(flow_loss.mul_scalar(1.0 - self.cfg.lambda))
            }
            None => dec_loss,
        }
    }

    /// Deterministic point prediction (eval mode, flow mean path):
    /// `λ·Y^out + (1−λ)·Z^out` when the flow is enabled.
    pub fn predict(
        &self,
        ps: &ParamSet,
        x: &Tensor,
        x_mark: &Tensor,
        dec: &Tensor,
        dec_mark: &Tensor,
    ) -> Tensor {
        let g = Graph::inference();
        let cx = Fwd::new(&g, ps, false, 0);
        let marks = (self.cfg.mark_dim > 0).then(|| g.leaf(x_mark.clone()));
        let dmarks = (self.cfg.mark_dim > 0).then(|| g.leaf(dec_mark.clone()));
        let out = self.forward(
            &cx,
            g.leaf(x.clone()),
            marks,
            g.leaf(dec.clone()),
            dmarks,
            false,
        );
        match out.y_flow {
            Some(zf) => out
                .y_dec
                .value()
                .mul_scalar(self.cfg.lambda)
                .add(&zf.value().mul_scalar(1.0 - self.cfg.lambda)),
            None => out.y_dec.value(),
        }
    }

    /// Prediction with uncertainty bands from the flow: returns
    /// `(point, lo, hi)` tensors `[b, ly, c_out]` at the given coverage.
    /// The point estimate blends the decoder output and the flow mean by
    /// λ, as in Fig. 6.
    ///
    /// # Panics
    /// Panics when the flow is disabled (`FlowMode::None`).
    #[allow(clippy::too_many_arguments)]
    pub fn predict_with_uncertainty(
        &self,
        ps: &ParamSet,
        x: &Tensor,
        x_mark: &Tensor,
        dec: &Tensor,
        dec_mark: &Tensor,
        n_samples: usize,
        coverage: f32,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor) {
        self.predict_with_uncertainty_blend(
            ps,
            x,
            x_mark,
            dec,
            dec_mark,
            n_samples,
            coverage,
            seed,
            self.cfg.lambda,
        )
    }

    /// Like [`Conformer::predict_with_uncertainty`], but with an explicit
    /// inference-time blend weight λ (the Fig. 6 sweep renders the same
    /// trained model's bands at several λ values: smaller λ weights the
    /// flow more, widening the interval).
    #[allow(clippy::too_many_arguments)]
    pub fn predict_with_uncertainty_blend(
        &self,
        ps: &ParamSet,
        x: &Tensor,
        x_mark: &Tensor,
        dec: &Tensor,
        dec_mark: &Tensor,
        n_samples: usize,
        coverage: f32,
        seed: u64,
        lambda: f32,
    ) -> (Tensor, Tensor, Tensor) {
        let flow = self
            .flow
            .as_ref()
            .expect("uncertainty requires the normalizing flow (FlowMode != None)");
        let g = Graph::inference();
        let cx = Fwd::new(&g, ps, false, 0);
        let marks = (self.cfg.mark_dim > 0).then(|| g.leaf(x_mark.clone()));
        let dmarks = (self.cfg.mark_dim > 0).then(|| g.leaf(dec_mark.clone()));
        let out = self.forward(
            &cx,
            g.leaf(x.clone()),
            marks,
            g.leaf(dec.clone()),
            dmarks,
            false,
        );
        let y_dec = out.y_dec.value();
        let (flow_mean, lo, hi) = flow.quantiles(
            ps,
            &out.h_e.value(),
            &out.h_d.value(),
            n_samples,
            coverage,
            seed,
        );
        let lam = lambda;
        let point = y_dec.mul_scalar(lam).add(&flow_mean.mul_scalar(1.0 - lam));
        let lo = y_dec.mul_scalar(lam).add(&lo.mul_scalar(1.0 - lam));
        let hi = y_dec.mul_scalar(lam).add(&hi.mul_scalar(1.0 - lam));
        (point, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_data::MARK_DIM;

    fn inputs(
        cfg: &ConformerConfig,
        b: usize,
        seed: u64,
    ) -> (Tensor, Tensor, Tensor, Tensor, Tensor) {
        let mut rng = Rng::seed(seed);
        (
            Tensor::randn(&[b, cfg.lx, cfg.c_in], &mut rng),
            Tensor::randn(&[b, cfg.lx, MARK_DIM], &mut rng),
            Tensor::randn(&[b, cfg.dec_len(), cfg.c_in], &mut rng),
            Tensor::randn(&[b, cfg.dec_len(), MARK_DIM], &mut rng),
            Tensor::randn(&[b, cfg.ly, cfg.c_out], &mut rng),
        )
    }

    #[test]
    fn forward_shapes() {
        let cfg = ConformerConfig::tiny(3, 12, 6);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&cfg, 2, 1);
        let pred = model.predict(&ps, &x, &xm, &d, &dm);
        assert_eq!(pred.shape(), &[2, 6, 3]);
        assert!(!pred.has_non_finite());
    }

    /// `label_len = 0, ly = 1` passes `validate()` and gives a decoder
    /// input one step long, whose `W^R` has no non-zero lag to score.
    #[test]
    fn one_step_decoder_without_label_builds_and_trains() {
        let mut cfg = ConformerConfig::tiny(3, 12, 1);
        cfg.label_len = 0;
        cfg.validate();
        assert_eq!(cfg.dec_len(), 1);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, y) = inputs(&cfg, 2, 5);
        let pred = model.predict(&ps, &x, &xm, &d, &dm);
        assert_eq!(pred.shape(), &[2, 1, 3]);
        assert!(!pred.has_non_finite());
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let loss = model.loss(
            &cx,
            g.leaf(x),
            Some(g.leaf(xm)),
            g.leaf(d),
            Some(g.leaf(dm)),
            &y,
        );
        assert!(loss.value().item().is_finite());
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        for id in ps.ids() {
            assert!(!ps.grad(id).has_non_finite(), "{} grad", ps.name(id));
        }
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let cfg = ConformerConfig::tiny(2, 10, 4);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, y) = inputs(&cfg, 2, 2);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let loss = model.loss(
            &cx,
            g.leaf(x),
            Some(g.leaf(xm)),
            g.leaf(d),
            Some(g.leaf(dm)),
            &y,
        );
        let v = loss.value().item();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
    }

    #[test]
    fn one_training_step_reduces_loss_on_fixed_batch() {
        use lttf_nn::{Adam, Optimizer};
        let cfg = ConformerConfig::tiny(2, 10, 4);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let mut opt = Adam::new(5e-3);
        let (x, xm, d, dm, y) = inputs(&cfg, 4, 3);
        let mut losses = Vec::new();
        for step in 0..25 {
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, true, step);
            let loss = model.loss(
                &cx,
                g.leaf(x.clone()),
                Some(g.leaf(xm.clone())),
                g.leaf(d.clone()),
                Some(g.leaf(dm.clone())),
                &y,
            );
            losses.push(loss.value().item());
            let grads = g.backward(loss);
            let collected = cx.collect_grads(&grads);
            ps.zero_grad();
            ps.apply_grads(collected);
            opt.step(&mut ps);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "no optimization progress: {:?}",
            &losses[..3]
        );
    }

    #[test]
    fn flow_none_skips_generative_head() {
        let mut cfg = ConformerConfig::tiny(2, 10, 4);
        cfg.flow_mode = FlowMode::None;
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&cfg, 1, 4);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let out = model.forward(
            &cx,
            g.leaf(x),
            Some(g.leaf(xm)),
            g.leaf(d),
            Some(g.leaf(dm)),
            false,
        );
        assert!(out.y_flow.is_none());
    }

    #[test]
    fn uncertainty_bands_contain_point() {
        let cfg = ConformerConfig::tiny(2, 10, 4);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&cfg, 1, 5);
        let (point, lo, hi) = model.predict_with_uncertainty(&ps, &x, &xm, &d, &dm, 30, 0.9, 7);
        for e in 0..point.numel() {
            assert!(lo.data()[e] <= hi.data()[e] + 1e-5);
            // the band is centred near the point estimate
            assert!(lo.data()[e] <= point.data()[e] + 0.5);
            assert!(hi.data()[e] >= point.data()[e] - 0.5);
        }
    }

    #[test]
    fn hidden_feed_variants_change_forward() {
        // Build two models with identical weights but different hidden
        // feeds; with a 2-layer encoder the flow sees different latents.
        let mut base = ConformerConfig::tiny(2, 10, 4);
        base.enc_layers = 2;
        let mut ps1 = ParamSet::new();
        let m1 = Conformer::new(&mut ps1, &base, &mut Rng::seed(0));
        let mut other = base.clone();
        other.hidden_feed = HiddenFeed::FirstEncLastDec;
        let mut ps2 = ParamSet::new();
        let m2 = Conformer::new(&mut ps2, &other, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&base, 1, 6);
        let a = m1.predict(&ps1, &x, &xm, &d, &dm);
        let b = m2.predict(&ps2, &x, &xm, &d, &dm);
        assert!(a.max_abs_diff(&b) > 1e-7, "hidden feed has no effect");
    }

    #[test]
    fn deterministic_prediction() {
        let cfg = ConformerConfig::tiny(2, 10, 4);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&cfg, 2, 8);
        let a = model.predict(&ps, &x, &xm, &d, &dm);
        let b = model.predict(&ps, &x, &xm, &d, &dm);
        a.assert_close(&b, 0.0);
    }

    #[test]
    fn inference_tape_holds_under_a_quarter_of_a_recording_one() {
        // Every layer releases its intermediates at its exit on an
        // inference graph; a recording graph keeps them all for backward.
        fn run(g: &Graph, model: &Conformer, ps: &ParamSet, t: &[Tensor; 4]) -> (Tensor, usize) {
            let cx = Fwd::new(g, ps, false, 0);
            let [x, xm, d, dm] = t.each_ref().map(|t| g.leaf(t.clone()));
            let out = model.forward(&cx, x, Some(xm), d, Some(dm), false);
            (out.y_dec.value(), g.held_bytes())
        }
        let cfg = ConformerConfig::tiny(3, 48, 24);
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, &cfg, &mut Rng::seed(0));
        let (x, xm, d, dm, _) = inputs(&cfg, 8, 9);
        let batch = [x, xm, d, dm];
        let (y_inf, held_inf) = run(&Graph::inference(), &model, &ps, &batch);
        let (y_rec, held_rec) = run(&Graph::new(), &model, &ps, &batch);
        assert_eq!(y_inf, y_rec, "releasing values changed the forecast");
        assert!(
            held_inf * 4 < held_rec,
            "inference tape holds {held_inf} bytes against {held_rec} recording"
        );
    }
}
