//! The Stationary and Instant Recurrent Network layer (paper Section
//! IV-B2, Fig. 3a, Eq. 8–11).
//!
//! One SIRN layer:
//! 1. **Eq. 8** — a GRU (the "first RNN block") summarizes the global
//!    signal; its softmaxed outputs gate the input, added to the
//!    sliding-window attention (local patterns) and the input itself.
//! 2. **Eq. 9–10** — iterated series decomposition distills instant
//!    (seasonal) patterns: each iteration convolves the current seasonal
//!    part, adds the windowed-attention reference, and decomposes again.
//! 3. **Eq. 11** — trends from every decomposition are summed into the
//!    "second RNN block"; its outputs plus the final seasonal part are
//!    projected to the layer output.
//!
//! The hidden state of the first RNN is exported — the normalizing flow
//! absorbs it (Section IV-C).

use lttf_autograd::Var;
use lttf_nn::{
    kaiming_uniform, AttentionKind, Fwd, Gru, LayerNorm, Linear, MultiHeadAttention, ParamId,
    ParamSet, SeriesDecomp,
};
use lttf_tensor::Rng;

/// Output of one SIRN layer.
pub struct SirnOutput<'g> {
    /// Layer output, `[b, len, d_model]`.
    pub out: Var<'g>,
    /// Final hidden state of the first RNN block, `[b, d_model]` — the
    /// latent the normalizing flow consumes.
    pub hidden: Var<'g>,
}

/// One SIRN layer; the encoder stacks two, the decoder one (paper
/// defaults). Decoder layers additionally cross-attend to the encoder
/// output between Eq. 8 and the decomposition cascade.
pub struct SirnLayer {
    global_rnn: Gru,
    self_attn: MultiHeadAttention,
    cross_attn: Option<MultiHeadAttention>,
    season_conv: ParamId,
    trend_rnn: Gru,
    out_proj: Linear,
    norm: LayerNorm,
    decomp: SeriesDecomp,
    eta: usize,
    dropout: f32,
}

impl SirnLayer {
    /// Allocate a SIRN layer.
    ///
    /// `rnn_layers` is the GRU depth of both RNN blocks (paper: 1 in the
    /// encoder, 2 in the decoder for multivariate LTTF). `cross = true`
    /// adds the decoder's cross-attention over the encoder output.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        d_model: usize,
        n_heads: usize,
        attention: AttentionKind,
        rnn_layers: usize,
        eta: usize,
        moving_avg: usize,
        dropout: f32,
        cross: bool,
        rng: &mut Rng,
    ) -> Self {
        SirnLayer {
            global_rnn: Gru::new(
                ps,
                &format!("{name}.global_rnn"),
                d_model,
                d_model,
                rnn_layers,
                0.0,
                rng,
            ),
            self_attn: MultiHeadAttention::new(
                ps,
                &format!("{name}.self_attn"),
                attention,
                d_model,
                n_heads,
                dropout,
                rng,
            ),
            cross_attn: cross.then(|| {
                MultiHeadAttention::new(
                    ps,
                    &format!("{name}.cross_attn"),
                    attention,
                    d_model,
                    n_heads,
                    dropout,
                    rng,
                )
            }),
            season_conv: ps.add(
                format!("{name}.season_conv"),
                kaiming_uniform(&[d_model, d_model, 3], d_model * 3, rng),
            ),
            trend_rnn: Gru::new(
                ps,
                &format!("{name}.trend_rnn"),
                d_model,
                d_model,
                rnn_layers,
                0.0,
                rng,
            ),
            out_proj: Linear::new(ps, &format!("{name}.out"), d_model, d_model, rng),
            norm: LayerNorm::new(ps, &format!("{name}.norm"), d_model),
            decomp: SeriesDecomp::new(moving_avg),
            eta: eta.max(1),
            dropout,
        }
    }

    /// Run the layer. `x: [b, len, d_model]`; `cross` is the encoder
    /// output for decoder layers. On an inference graph only `out` and
    /// `hidden` outlive the call.
    ///
    /// # Panics
    /// Panics if `cross` is provided to a layer built without
    /// cross-attention (or vice versa, silently ignores nothing).
    pub fn forward<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        cross: Option<Var<'g>>,
    ) -> SirnOutput<'g> {
        assert_eq!(
            cross.is_some(),
            self.cross_attn.is_some(),
            "cross input must match the layer's cross-attention configuration"
        );
        let mark = cx.graph().len();
        // Eq. (8): global gate + local attention + residual.
        let rnn_out = self.global_rnn.forward(cx, x);
        let hidden = *rnn_out
            .last_hidden
            .last()
            .expect("GRU has at least one layer");
        let gate = rnn_out.outputs.softmax(-1);
        let local = self.self_attn.forward_self(cx, x);
        let mut xin = gate.mul(x).add(local).add(x);

        if let (Some(attn), Some(enc)) = (&self.cross_attn, cross) {
            xin = xin.add(attn.forward(cx, xin, enc, enc));
        }
        xin = cx.dropout(xin, self.dropout);

        // Eq. (9): initial decomposition.
        let (mut seasonal, t0) = self.decomp.forward(xin);
        let mut trend_sum = t0;
        // The windowed-attention reference reused by every distillation
        // iteration (Eq. 10's MHA_W(X^in) term).
        let local_ref = self.self_attn.forward_self(cx, xin);
        let w = cx.param(self.season_conv);
        for _ in 0..self.eta {
            let conv_s = seasonal.conv1d(w, 1, 1);
            let (s, t) = self.decomp.forward(conv_s.add(local_ref));
            seasonal = s;
            trend_sum = trend_sum.add(t);
        }

        // Eq. (11): fuse instant + stationary parts.
        let trend_repr = self.trend_rnn.forward(cx, trend_sum).outputs;
        let fused = self.out_proj.forward(cx, seasonal.add(trend_repr));
        // Residual + layer norm for depth stability (implementation choice,
        // matching standard transformer practice).
        let out = self.norm.forward(cx, fused.add(x));
        cx.graph().release_since(mark, &[out, hidden]);
        SirnOutput { out, hidden }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;
    use lttf_tensor::Tensor;

    fn layer(cross: bool) -> (ParamSet, SirnLayer) {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let l = SirnLayer::new(
            &mut ps,
            "sirn",
            8,
            2,
            AttentionKind::SlidingWindow { w: 2 },
            1,
            2,
            5,
            0.0,
            cross,
            &mut rng,
        );
        (ps, l)
    }

    #[test]
    fn self_layer_shapes() {
        let (ps, l) = layer(false);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[2, 12, 8], &mut Rng::seed(1)));
        let out = l.forward(&cx, x, None);
        assert_eq!(out.out.shape(), vec![2, 12, 8]);
        assert_eq!(out.hidden.shape(), vec![2, 8]);
        assert!(!out.out.value().has_non_finite());
    }

    #[test]
    fn cross_layer_attends_to_encoder() {
        let (ps, l) = layer(true);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[1, 10, 8], &mut Rng::seed(2)));
        let enc_a = g.leaf(Tensor::randn(&[1, 6, 8], &mut Rng::seed(3)));
        let enc_b = g.leaf(Tensor::randn(&[1, 6, 8], &mut Rng::seed(4)));
        let ya = l.forward(&cx, x, Some(enc_a)).out.value();
        let yb = l.forward(&cx, x, Some(enc_b)).out.value();
        assert!(
            ya.max_abs_diff(&yb) > 1e-5,
            "decoder ignores the encoder output"
        );
    }

    #[test]
    #[should_panic(expected = "cross input must match")]
    fn cross_mismatch_panics() {
        let (ps, l) = layer(false);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[1, 10, 8], &mut Rng::seed(2)));
        l.forward(&cx, x, Some(x));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let (mut ps, l) = layer(false);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let x = g.leaf(Tensor::randn(&[1, 12, 8], &mut Rng::seed(5)));
        let out = l.forward(&cx, x, None);
        let loss = out
            .out
            .square()
            .sum_all()
            .add(out.hidden.square().sum_all());
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        let silent: Vec<&str> = ps
            .ids()
            .filter(|&id| ps.grad(id).abs().sum() == 0.0)
            .map(|id| ps.name(id))
            .collect();
        assert!(silent.is_empty(), "parameters without gradient: {silent:?}");
    }

    #[test]
    fn attention_kind_is_swappable() {
        // Table VI swaps the attention inside SIRN; every kind must run.
        for kind in [
            AttentionKind::Full,
            AttentionKind::ProbSparse { factor: 1 },
            AttentionKind::Lsh { n_buckets: 2 },
            AttentionKind::LogSparse,
            AttentionKind::AutoCorrelation { factor: 1 },
        ] {
            let mut ps = ParamSet::new();
            let mut rng = Rng::seed(0);
            let l = SirnLayer::new(&mut ps, "s", 8, 2, kind, 1, 1, 5, 0.0, false, &mut rng);
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, false, 0);
            let x = g.leaf(Tensor::randn(&[1, 12, 8], &mut Rng::seed(6)));
            let out = l.forward(&cx, x, None);
            assert_eq!(out.out.shape(), vec![1, 12, 8], "kind {kind:?}");
        }
    }
}
