//! The generic encoder-decoder Transformer forecaster that instantiates
//! Informer, Longformer, LogTrans, and Reformer — same embedding, same
//! skeleton, different attention (exactly how the paper configures its
//! Transformer baselines).

use crate::config::BaselineConfig;
use lttf_autograd::{Graph, Var};
use lttf_nn::{
    kaiming_uniform, mse_loss_to, AttentionKind, DataEmbedding, Fwd, LayerNorm, Linear,
    MultiHeadAttention, ParamId, ParamSet,
};
use lttf_tensor::{Rng, Tensor};

/// Which published model this instance reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransformerFlavor {
    /// Informer (Zhou et al. 2021): ProbSparse attention + self-attention
    /// distilling convolutions between encoder layers.
    Informer,
    /// Longformer (Beltagy et al. 2020): sliding-window attention combined
    /// with task-motivated global tokens.
    Longformer,
    /// LogTrans (Li et al. 2019): log-sparse attention.
    LogTrans,
    /// Reformer (Kitaev et al. 2020): LSH attention.
    Reformer,
    /// Vanilla Transformer (full attention) — used by the efficiency
    /// comparison.
    Vanilla,
}

impl TransformerFlavor {
    /// The self-attention mechanism this flavor uses.
    pub fn attention(&self) -> AttentionKind {
        match self {
            TransformerFlavor::Informer => AttentionKind::ProbSparse { factor: 1 },
            TransformerFlavor::Longformer => {
                AttentionKind::SlidingWindowGlobal { w: 8, n_global: 4 }
            }
            TransformerFlavor::LogTrans => AttentionKind::LogSparse,
            TransformerFlavor::Reformer => AttentionKind::Lsh { n_buckets: 4 },
            TransformerFlavor::Vanilla => AttentionKind::Full,
        }
    }

    /// Informer adds distilling convolutions between encoder layers.
    fn distil(&self) -> bool {
        matches!(self, TransformerFlavor::Informer)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TransformerFlavor::Informer => "Informer",
            TransformerFlavor::Longformer => "Longformer",
            TransformerFlavor::LogTrans => "LogTrans",
            TransformerFlavor::Reformer => "Reformer",
            TransformerFlavor::Vanilla => "Transformer",
        }
    }
}

/// Position-wise feed-forward block with GELU.
struct FeedForward {
    fc1: Linear,
    fc2: Linear,
}

impl FeedForward {
    fn new(ps: &mut ParamSet, name: &str, d: usize, rng: &mut Rng) -> Self {
        FeedForward {
            fc1: Linear::new(ps, &format!("{name}.fc1"), d, 2 * d, rng),
            fc2: Linear::new(ps, &format!("{name}.fc2"), 2 * d, d, rng),
        }
    }

    fn forward<'g>(&self, cx: &Fwd<'g, '_>, x: Var<'g>) -> Var<'g> {
        self.fc2.forward(cx, self.fc1.forward(cx, x).gelu())
    }
}

struct EncLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    n1: LayerNorm,
    n2: LayerNorm,
    distil_conv: Option<ParamId>,
}

struct DecLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    ffn: FeedForward,
    n1: LayerNorm,
    n2: LayerNorm,
    n3: LayerNorm,
}

/// The generic Transformer forecaster.
pub struct TransformerForecaster {
    flavor: TransformerFlavor,
    cfg: BaselineConfig,
    enc_embed: DataEmbedding,
    dec_embed: DataEmbedding,
    enc_layers: Vec<EncLayer>,
    dec_layers: Vec<DecLayer>,
    proj: Linear,
}

impl TransformerForecaster {
    /// Allocate a forecaster of the given flavor.
    pub fn new(
        ps: &mut ParamSet,
        flavor: TransformerFlavor,
        cfg: &BaselineConfig,
        rng: &mut Rng,
    ) -> Self {
        let d = cfg.d_model;
        let attn = flavor.attention();
        let enc_embed = DataEmbedding::new(
            ps,
            "enc_embed",
            cfg.c_in,
            cfg.mark_dim.max(1),
            d,
            cfg.dropout,
            true,
            rng,
        );
        let dec_embed = DataEmbedding::new(
            ps,
            "dec_embed",
            cfg.c_in,
            cfg.mark_dim.max(1),
            d,
            cfg.dropout,
            true,
            rng,
        );
        let enc_layers = (0..cfg.e_layers)
            .map(|i| EncLayer {
                attn: MultiHeadAttention::new(
                    ps,
                    &format!("enc.l{i}.attn"),
                    attn,
                    d,
                    cfg.n_heads,
                    cfg.dropout,
                    rng,
                ),
                ffn: FeedForward::new(ps, &format!("enc.l{i}.ffn"), d, rng),
                n1: LayerNorm::new(ps, &format!("enc.l{i}.n1"), d),
                n2: LayerNorm::new(ps, &format!("enc.l{i}.n2"), d),
                distil_conv: (flavor.distil() && i + 1 < cfg.e_layers).then(|| {
                    ps.add(
                        format!("enc.l{i}.distil"),
                        kaiming_uniform(&[d, d, 3], d * 3, rng),
                    )
                }),
            })
            .collect();
        let dec_layers = (0..cfg.d_layers)
            .map(|i| DecLayer {
                self_attn: MultiHeadAttention::new(
                    ps,
                    &format!("dec.l{i}.self"),
                    // decoder self-attention is dense in all published
                    // configs at these lengths
                    AttentionKind::Full,
                    d,
                    cfg.n_heads,
                    cfg.dropout,
                    rng,
                ),
                cross_attn: MultiHeadAttention::new(
                    ps,
                    &format!("dec.l{i}.cross"),
                    AttentionKind::Full,
                    d,
                    cfg.n_heads,
                    cfg.dropout,
                    rng,
                ),
                ffn: FeedForward::new(ps, &format!("dec.l{i}.ffn"), d, rng),
                n1: LayerNorm::new(ps, &format!("dec.l{i}.n1"), d),
                n2: LayerNorm::new(ps, &format!("dec.l{i}.n2"), d),
                n3: LayerNorm::new(ps, &format!("dec.l{i}.n3"), d),
            })
            .collect();
        TransformerForecaster {
            flavor,
            cfg: cfg.clone(),
            enc_embed,
            dec_embed,
            enc_layers,
            dec_layers,
            proj: Linear::new(ps, "proj", d, cfg.c_out, rng),
        }
    }

    /// The reproduced model.
    pub fn flavor(&self) -> TransformerFlavor {
        self.flavor
    }

    /// Forward pass → `[b, ly, c_out]`.
    pub fn forward<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        x_mark: Var<'g>,
        dec: Var<'g>,
        dec_mark: Var<'g>,
    ) -> Var<'g> {
        let mut e = self.enc_embed.forward(cx, x, x_mark);
        for layer in &self.enc_layers {
            let a = layer.attn.forward_self(cx, e);
            e = layer.n1.forward(cx, e.add(a));
            let f = layer.ffn.forward(cx, e);
            e = layer.n2.forward(cx, e.add(f));
            if let Some(w) = layer.distil_conv {
                // Informer's distilling: conv + ELU + stride-2 max-pool.
                let wv = cx.param(w);
                e = e
                    .conv1d(wv, 1, 1)
                    .elu()
                    .select(1, &(0..e.shape()[1]).step_by(2).collect::<Vec<_>>());
            }
        }
        let mut d = self.dec_embed.forward(cx, dec, dec_mark);
        for layer in &self.dec_layers {
            let a = layer.self_attn.forward_self(cx, d);
            d = layer.n1.forward(cx, d.add(a));
            let c = layer.cross_attn.forward(cx, d, e, e);
            d = layer.n2.forward(cx, d.add(c));
            let f = layer.ffn.forward(cx, d);
            d = layer.n3.forward(cx, d.add(f));
        }
        let dec_len = d.shape()[1];
        let horizon = d.narrow(1, dec_len - self.cfg.ly, self.cfg.ly);
        self.proj.forward(cx, horizon)
    }

    /// MSE training loss against a scaled target `[b, ly, c_out]`.
    pub fn loss<'g>(
        &self,
        cx: &Fwd<'g, '_>,
        x: Var<'g>,
        x_mark: Var<'g>,
        dec: Var<'g>,
        dec_mark: Var<'g>,
        target: &Tensor,
    ) -> Var<'g> {
        mse_loss_to(self.forward(cx, x, x_mark, dec, dec_mark), target)
    }

    /// Deterministic prediction.
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
        self.forward(
            &cx,
            g.leaf(x.clone()),
            g.leaf(x_mark.clone()),
            g.leaf(dec.clone()),
            g.leaf(dec_mark.clone()),
        )
        .value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_data::MARK_DIM;

    fn inputs(cfg: &BaselineConfig, b: usize, seed: u64) -> (Tensor, Tensor, Tensor, Tensor) {
        let mut rng = Rng::seed(seed);
        (
            Tensor::randn(&[b, cfg.lx, cfg.c_in], &mut rng),
            Tensor::randn(&[b, cfg.lx, MARK_DIM], &mut rng),
            Tensor::randn(&[b, cfg.dec_len(), cfg.c_in], &mut rng),
            Tensor::randn(&[b, cfg.dec_len(), MARK_DIM], &mut rng),
        )
    }

    #[test]
    fn all_flavors_forward() {
        for flavor in [
            TransformerFlavor::Informer,
            TransformerFlavor::Longformer,
            TransformerFlavor::LogTrans,
            TransformerFlavor::Reformer,
            TransformerFlavor::Vanilla,
        ] {
            let cfg = BaselineConfig::tiny(3, 12, 6);
            let mut ps = ParamSet::new();
            let m = TransformerForecaster::new(&mut ps, flavor, &cfg, &mut Rng::seed(0));
            let (x, xm, d, dm) = inputs(&cfg, 2, 1);
            let y = m.predict(&ps, &x, &xm, &d, &dm);
            assert_eq!(y.shape(), &[2, 6, 3], "{flavor:?}");
            assert!(!y.has_non_finite(), "{flavor:?}");
        }
    }

    #[test]
    fn informer_distils_between_layers() {
        // With 2 encoder layers, Informer's first layer halves the length;
        // the model must still produce the right output shape.
        let mut cfg = BaselineConfig::tiny(2, 16, 4);
        cfg.e_layers = 2;
        let mut ps = ParamSet::new();
        let m = TransformerForecaster::new(
            &mut ps,
            TransformerFlavor::Informer,
            &cfg,
            &mut Rng::seed(0),
        );
        let (x, xm, d, dm) = inputs(&cfg, 1, 2);
        let y = m.predict(&ps, &x, &xm, &d, &dm);
        assert_eq!(y.shape(), &[1, 4, 2]);
    }

    #[test]
    fn training_reduces_loss() {
        use lttf_nn::{Adam, Optimizer};
        let cfg = BaselineConfig::tiny(2, 10, 4);
        let mut ps = ParamSet::new();
        let m = TransformerForecaster::new(
            &mut ps,
            TransformerFlavor::Longformer,
            &cfg,
            &mut Rng::seed(0),
        );
        let mut opt = Adam::new(5e-3);
        let (x, xm, d, dm) = inputs(&cfg, 4, 3);
        let y = Tensor::randn(&[4, 4, 2], &mut Rng::seed(4)).mul_scalar(0.3);
        let mut first = None;
        let mut last = 0.0;
        for step in 0..30 {
            let g = Graph::new();
            let cx = Fwd::new(&g, &ps, true, step);
            let loss = m.loss(
                &cx,
                g.leaf(x.clone()),
                g.leaf(xm.clone()),
                g.leaf(d.clone()),
                g.leaf(dm.clone()),
                &y,
            );
            last = loss.value().item();
            first.get_or_insert(last);
            let grads = g.backward(loss);
            let collected = cx.collect_grads(&grads);
            ps.zero_grad();
            ps.apply_grads(collected);
            opt.step(&mut ps);
        }
        assert!(
            last < first.unwrap() * 0.8,
            "no progress: {first:?} → {last}"
        );
    }
}
