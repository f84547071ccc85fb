//! Input representation (paper Section IV-A): multivariate correlation
//! (Eq. 1–2), multiscale dynamics (Eq. 3–4), and their fusion (Eq. 5–6).
//!
//! ### Interpretation notes
//!
//! * **W^R (Eq. 2)** — the paper computes the FFT autocorrelation of each
//!   variable (Eq. 1) and softmaxes it "to highlight informative
//!   variables". We realize this as a per-variable informativeness weight:
//!   each variable's score is its strongest non-zero-lag autocorrelation
//!   (normalized by lag 0), softmaxed across variables and rescaled by
//!   `d_x` so the weighted series keeps the input's magnitude. `W^R X` is
//!   then a data-derived diagonal reweighting of the variables — cheap
//!   (O(d·L log L)) and faithful to the stated intent.
//! * **W^Γ (Table VIII)** — defined as the softmaxed temporal affinity of
//!   the multiscale representation, `Softmax(Γ̄ Γ̄ᵀ/√d)`, an `[L, L]`
//!   mixing matrix along time.

use crate::config::InputReprMode;
use lttf_autograd::Var;
use lttf_fft::autocorrelations;
use lttf_nn::{kaiming_uniform, Fwd, Linear, ParamId, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// The input representation block. One instance per (encoder/decoder)
/// input, since the multiscale weights are tied to the sequence length.
pub struct InputRepresentation {
    mode: InputReprMode,
    conv_w: ParamId,             // W^v ⊙ : [d_model, c_in, 3]
    conv_b: ParamId,             // b^v : [d_model]
    scale_embed: Linear,         // ℰ in Eq. (3): c_in → d_model, shared
    scale_weights: Vec<ParamId>, // W_k^S : [L, L] per stride
    scale_bias: ParamId,         // b^S : [L, d_model]
    time_embed: Option<Linear>,  // mark embedding (0 marks disables)
    strides: Vec<usize>,
    len: usize,
    c_in: usize,
    d_model: usize,
}

impl InputRepresentation {
    /// Allocate for inputs of shape `[b, len, c_in]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        mode: InputReprMode,
        c_in: usize,
        d_model: usize,
        len: usize,
        strides: &[usize],
        mark_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let strides: Vec<usize> = strides.iter().cloned().filter(|&s| s <= len).collect();
        let strides = if strides.is_empty() { vec![1] } else { strides };
        let conv_w = ps.add(
            format!("{name}.conv.weight"),
            kaiming_uniform(&[d_model, c_in, 3], c_in * 3, rng),
        );
        let conv_b = ps.add(format!("{name}.conv.bias"), Tensor::zeros(&[d_model]));
        let scale_embed = Linear::new(ps, &format!("{name}.scale_embed"), c_in, d_model, rng);
        let scale_weights = strides
            .iter()
            .enumerate()
            .map(|(k, _)| {
                // near-identity init so multiscale starts as a mild signal
                let mut w = Tensor::eye(len).mul_scalar(0.5);
                let noise = Tensor::randn(&[len, len], rng).mul_scalar(0.02 / len as f32);
                w = w.add(&noise);
                ps.add(format!("{name}.scale_w{k}"), w)
            })
            .collect();
        let scale_bias = ps.add(format!("{name}.scale_bias"), Tensor::zeros(&[len, d_model]));
        let time_embed = (mark_dim > 0)
            .then(|| Linear::with_bias(ps, &format!("{name}.time"), mark_dim, d_model, false, rng));
        InputRepresentation {
            mode,
            conv_w,
            conv_b,
            scale_embed,
            scale_weights,
            scale_bias,
            time_embed,
            strides,
            len,
            c_in,
            d_model,
        }
    }

    /// Output width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Per-variable correlation weights `W^R` (Eq. 1–2) for a batch:
    /// `[b, 1, c_in]`, softmaxed across variables, rescaled by `c_in`. A
    /// series shorter than 2 has no non-zero lag, so every variable scores
    /// 0 and the weights are uniform.
    fn correlation_weights(x: &Tensor) -> Tensor {
        assert_eq!(x.ndim(), 3, "correlation weights expect [b, len, c_in]");
        let (b, len, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let scores = if len < 2 {
            vec![0.0; b * d]
        } else {
            autocorrelations(x.data(), len, d)
                .chunks_exact(len)
                .map(|r| {
                    let r0 = r[0].max(1e-6);
                    let peak = r[1..len.div_ceil(2).max(2)]
                        .iter()
                        .cloned()
                        .fold(f32::NEG_INFINITY, f32::max);
                    peak / r0
                })
                .collect()
        };
        Tensor::from_vec(scores, &[b, 1, d])
            .softmax(-1)
            .mul_scalar(d as f32)
    }

    /// Multiscale dynamics `Γ̄^S` (Eq. 3–4): sample at each stride, hold-
    /// upsample back to `len`, embed, mix along time with `W_k^S`, sum.
    fn multiscale<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        let mut acc: Option<Var<'g>> = None;
        for (k, &stride) in self.strides.iter().enumerate() {
            // Γ^{S_k}: hold-sample every `stride` steps.
            let idx: Vec<usize> = (0..self.len).map(|t| (t / stride) * stride).collect();
            let sampled = x.select(1, &idx); // [b, len, c_in]
            let embedded = self.scale_embed.forward(cx, sampled); // [b, len, d]
            let wk = cx.param(self.scale_weights[k]); // [len, len]
            let mixed = wk.matmul(embedded); // broadcast batch: [b, len, d]
            acc = Some(match acc {
                Some(a) => a.add(mixed),
                None => mixed,
            });
        }
        acc.expect("at least one stride")
            .add(cx.param(self.scale_bias))
    }

    /// `Conv(inner) + b` per Eq. (5): kernel-3 convolution over time
    /// mapping `c_in → d_model`.
    fn fuse_conv<'g>(&self, cx: &Fwd<'g, '_>, inner: Var<'g>) -> Var<'g> {
        let w = cx.param(self.conv_w);
        let b = cx.param(self.conv_b);
        inner.conv1d(w, 1, 1).add(b)
    }

    /// Temporal mixing matrix `W^Γ = Softmax(Γ̄ Γ̄ᵀ/√d)` for Table VIII.
    fn gamma_mixer<'g>(&self, gamma: Var<'g>) -> Var<'g> {
        let scale = 1.0 / (self.d_model as f32).sqrt();
        gamma
            .matmul(gamma.swap_axes(1, 2))
            .mul_scalar(scale)
            .softmax(-1) // [b, len, len]
    }

    /// Build `X^in` from values `x: [b, len, c_in]` and time features
    /// `marks: [b, len, mark_dim]`. On an inference graph only the
    /// returned node outlives the call.
    pub fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>, marks: Option<Var<'g>>) -> Var<'g> {
        let shape = x.shape();
        assert_eq!(
            shape[1], self.len,
            "input representation built for length {}, got {:?}",
            self.len, shape
        );
        assert_eq!(
            shape[2], self.c_in,
            "expected {} channels, got {:?}",
            self.c_in, shape
        );
        let g = cx.graph();
        let mark = g.len();
        use InputReprMode::*;

        // W^R X (diagonal reweighting) — computed from detached values.
        let wr = g.constant(x.with_value(Self::correlation_weights)); // [b, 1, c_in]
        let rx = x.mul(wr);

        let needs_gamma = !matches!(
            self.mode,
            NoMultiscale | NoCorrelationNoMultiscale | NoRawNoMultiscale
        );
        let gamma = needs_gamma.then(|| self.multiscale(cx, x));

        let mut out = match self.mode {
            Full => self.fuse_conv(cx, rx.add(x)).add(gamma.expect("gamma")),
            NoMultiscale => self.fuse_conv(cx, rx.add(x)),
            NoCorrelation => self.fuse_conv(cx, x).add(gamma.expect("gamma")),
            NoCorrelationNoMultiscale => self.fuse_conv(cx, x),
            NoRaw => self.fuse_conv(cx, rx).add(gamma.expect("gamma")),
            NoRawNoMultiscale => self.fuse_conv(cx, rx),
            Method1 => {
                let wg = self.gamma_mixer(gamma.expect("gamma"));
                self.fuse_conv(cx, wg.matmul(rx).add(x))
            }
            Method2 => {
                let wg = self.gamma_mixer(gamma.expect("gamma"));
                self.fuse_conv(cx, rx.add(wg.matmul(x)))
            }
            Method3 => {
                let wg = self.gamma_mixer(gamma.expect("gamma"));
                self.fuse_conv(cx, rx.add(wg.matmul(x)).add(x))
            }
            Method4 => {
                let wg = self.gamma_mixer(gamma.expect("gamma"));
                wg.matmul(self.fuse_conv(cx, rx.add(x)))
            }
        };
        if let (Some(te), Some(m)) = (&self.time_embed, marks) {
            out = out.add(te.forward(cx, m));
        }
        g.release_since(mark, &[out]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;

    fn build(mode: InputReprMode) -> (ParamSet, InputRepresentation) {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let repr = InputRepresentation::new(&mut ps, "ir", mode, 3, 8, 16, &[1, 4], 5, &mut rng);
        (ps, repr)
    }

    #[test]
    fn all_modes_produce_correct_shape() {
        use InputReprMode::*;
        for mode in [
            Full,
            NoMultiscale,
            NoCorrelation,
            NoCorrelationNoMultiscale,
            NoRaw,
            NoRawNoMultiscale,
            Method1,
            Method2,
            Method3,
            Method4,
        ] {
            let (ps, repr) = build(mode);
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, false, 0);
            let x = g.leaf(Tensor::randn(&[2, 16, 3], &mut Rng::seed(1)));
            let m = g.leaf(Tensor::randn(&[2, 16, 5], &mut Rng::seed(2)));
            let y = repr.forward(&cx, x, Some(m));
            assert_eq!(y.shape(), vec![2, 16, 8], "mode {mode:?}");
            assert!(!y.value().has_non_finite(), "mode {mode:?}");
        }
    }

    #[test]
    fn correlation_weights_prefer_periodic_variables() {
        // var 0: strong period-4 wave; var 1: white noise. The periodic
        // variable should receive the larger weight.
        let len = 32;
        let mut rng = Rng::seed(3);
        let mut data = Vec::with_capacity(len * 2);
        for t in 0..len {
            data.push((2.0 * std::f32::consts::PI * t as f32 / 4.0).sin() * 2.0);
            data.push(rng.normal());
        }
        let x = Tensor::from_vec(data, &[1, len, 2]);
        let w = InputRepresentation::correlation_weights(&x);
        assert_eq!(w.shape(), &[1, 1, 2]);
        assert!(
            w.at(&[0, 0, 0]) > w.at(&[0, 0, 1]),
            "periodic variable not highlighted: {w:?}"
        );
    }

    #[test]
    fn correlation_weights_sum_to_dims() {
        let x = Tensor::randn(&[2, 20, 4], &mut Rng::seed(4));
        let w = InputRepresentation::correlation_weights(&x);
        for b in 0..2 {
            let s: f32 = (0..4).map(|d| w.at(&[b, 0, d])).sum();
            assert!((s - 4.0).abs() < 1e-4, "weights sum {s}");
        }
    }

    #[test]
    fn modes_differ_in_output() {
        let (ps, full) = build(InputReprMode::Full);
        let (_, nog) = {
            // rebuild with same seed so parameters coincide
            let mut ps2 = ParamSet::new();
            let mut rng = Rng::seed(0);
            let r = InputRepresentation::new(
                &mut ps2,
                "ir",
                InputReprMode::NoMultiscale,
                3,
                8,
                16,
                &[1, 4],
                5,
                &mut rng,
            );
            (ps2, r)
        };
        let x = Tensor::randn(&[1, 16, 3], &mut Rng::seed(5));
        let g1 = Graph::new();
        let c1 = Fwd::new(&g1, &ps, false, 0);
        let y1 = full.forward(&c1, g1.leaf(x.clone()), None).value();
        let g2 = Graph::new();
        let c2 = Fwd::new(&g2, &ps, false, 0);
        let y2 = nog.forward(&c2, g2.leaf(x), None).value();
        assert!(y1.max_abs_diff(&y2) > 1e-4, "ablation has no effect");
    }

    #[test]
    fn gradients_reach_all_parameters_in_full_mode() {
        let (mut ps, repr) = build(InputReprMode::Full);
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, true, 0);
        let x = g.leaf(Tensor::randn(&[1, 16, 3], &mut Rng::seed(6)));
        let m = g.leaf(Tensor::randn(&[1, 16, 5], &mut Rng::seed(7)));
        let loss = repr.forward(&cx, x, Some(m)).square().sum_all();
        let grads = g.backward(loss);
        let collected = cx.collect_grads(&grads);
        ps.zero_grad();
        ps.apply_grads(collected);
        for id in ps.ids() {
            assert!(
                ps.grad(id).abs().sum() > 0.0,
                "no gradient for {}",
                ps.name(id)
            );
        }
    }

    #[test]
    fn oversized_strides_are_dropped() {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(0);
        let repr = InputRepresentation::new(
            &mut ps,
            "ir",
            InputReprMode::Full,
            2,
            8,
            8,
            &[1, 100],
            0,
            &mut rng,
        );
        let g = Graph::new();
        let cx = Fwd::new(&g, &ps, false, 0);
        let x = g.leaf(Tensor::randn(&[1, 8, 2], &mut Rng::seed(1)));
        assert_eq!(repr.forward(&cx, x, None).shape(), vec![1, 8, 8]);
    }
}
