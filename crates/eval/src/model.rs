//! A unified wrapper over Conformer and the nine baselines, so the
//! experiment harnesses can iterate "for model in models { train; eval }".

use lttf_autograd::Var;
use lttf_baselines::{
    Autoformer, BaselineConfig, GruForecaster, LstNet, NBeats, TransformerFlavor,
    TransformerForecaster, Ts2Vec,
};
use lttf_conformer::{Conformer, ConformerConfig};
use lttf_data::Batch;
use lttf_nn::{Fwd, ParamSet};
use lttf_tensor::{Rng, Tensor};

/// Which model to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's model.
    Conformer,
    /// Longformer (sliding-window attention Transformer).
    Longformer,
    /// Autoformer (decomposition + auto-correlation).
    Autoformer,
    /// Informer (ProbSparse + distilling).
    Informer,
    /// Reformer (LSH attention).
    Reformer,
    /// LogTrans (log-sparse attention) — univariate table only.
    LogTrans,
    /// LSTNet (CNN + GRU).
    LstNet,
    /// 2-layer GRU.
    Gru,
    /// N-BEATS.
    NBeats,
    /// TS2Vec-style representation encoder — univariate table only.
    Ts2Vec,
}

impl ModelKind {
    /// The multivariate comparison set of Table II/III, in column order.
    pub const TABLE2: [ModelKind; 8] = [
        ModelKind::Conformer,
        ModelKind::Longformer,
        ModelKind::Autoformer,
        ModelKind::Informer,
        ModelKind::Reformer,
        ModelKind::LstNet,
        ModelKind::Gru,
        ModelKind::NBeats,
    ];

    /// The univariate comparison set of Table IV, in column order.
    pub const TABLE4: [ModelKind; 8] = [
        ModelKind::Conformer,
        ModelKind::Autoformer,
        ModelKind::Informer,
        ModelKind::Reformer,
        ModelKind::LogTrans,
        ModelKind::LstNet,
        ModelKind::Gru,
        ModelKind::Ts2Vec,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Conformer => "Conformer",
            ModelKind::Longformer => "Longformer",
            ModelKind::Autoformer => "Autoformer",
            ModelKind::Informer => "Informer",
            ModelKind::Reformer => "Reformer",
            ModelKind::LogTrans => "LogTrans",
            ModelKind::LstNet => "LSTNet",
            ModelKind::Gru => "GRU",
            ModelKind::NBeats => "N-Beats",
            ModelKind::Ts2Vec => "TS2Vec",
        }
    }
}

/// The built model behind a [`TrainedModel`].
///
/// Variants differ widely in size (Conformer holds two input
/// representations, a SIRN stack, and a flow); the enum lives once per
/// experiment, so the size imbalance is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum ModelImpl {
    /// The paper's model.
    Conformer(Conformer),
    /// One of the four generic Transformer flavors.
    Transformer(TransformerForecaster),
    /// Autoformer.
    Autoformer(Autoformer),
    /// GRU seq2seq.
    Gru(GruForecaster),
    /// LSTNet.
    LstNet(LstNet),
    /// N-BEATS.
    NBeats(NBeats),
    /// TS2Vec.
    Ts2Vec(Ts2Vec),
}

/// Anything that can turn a prepared window batch into a forecast.
///
/// This is the seam between model code and the serving subsystem: the
/// batcher in `lttf-serve` is generic over `dyn Forecaster`, so any model
/// the eval harness can build — Conformer or baseline — can be served
/// without the server knowing its architecture.
///
/// Implementations must be deterministic (same batch → same tensor) and
/// `Send`, because the server moves the model onto its batcher thread.
pub trait Forecaster: Send {
    /// Forecast `[b, ly, c_out]` in scaled space for a prepared batch.
    fn forecast(&self, batch: &Batch) -> Tensor;
    /// Human-readable model name for logs and the serving registry.
    fn model_name(&self) -> String;
}

impl Forecaster for TrainedModel {
    fn forecast(&self, batch: &Batch) -> Tensor {
        self.predict_batch(batch)
    }

    fn model_name(&self) -> String {
        self.kind.name().to_string()
    }
}

/// A model plus its parameters: the unit the trainer and the harnesses
/// operate on.
pub struct TrainedModel {
    kind: ModelKind,
    inner: ModelImpl,
    ps: ParamSet,
}

impl TrainedModel {
    /// Build a model of `kind` for `c_in` variables, input `lx`, horizon
    /// `ly`, at width `d_model`/`n_heads`. Seeded for reproducibility.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        kind: ModelKind,
        c_in: usize,
        lx: usize,
        ly: usize,
        d_model: usize,
        n_heads: usize,
        seed: u64,
    ) -> TrainedModel {
        let mut ps = ParamSet::new();
        let mut rng = Rng::seed(seed);
        let mut bcfg = BaselineConfig::new(c_in, lx, ly);
        bcfg.d_model = d_model;
        bcfg.n_heads = n_heads;
        bcfg.hidden = d_model;
        let inner = match kind {
            ModelKind::Conformer => {
                let mut cfg = ConformerConfig::new(c_in, lx, ly);
                cfg.d_model = d_model;
                cfg.n_heads = n_heads;
                ModelImpl::Conformer(Conformer::new(&mut ps, &cfg, &mut rng))
            }
            ModelKind::Longformer => ModelImpl::Transformer(TransformerForecaster::new(
                &mut ps,
                TransformerFlavor::Longformer,
                &bcfg,
                &mut rng,
            )),
            ModelKind::Informer => ModelImpl::Transformer(TransformerForecaster::new(
                &mut ps,
                TransformerFlavor::Informer,
                &bcfg,
                &mut rng,
            )),
            ModelKind::Reformer => ModelImpl::Transformer(TransformerForecaster::new(
                &mut ps,
                TransformerFlavor::Reformer,
                &bcfg,
                &mut rng,
            )),
            ModelKind::LogTrans => ModelImpl::Transformer(TransformerForecaster::new(
                &mut ps,
                TransformerFlavor::LogTrans,
                &bcfg,
                &mut rng,
            )),
            ModelKind::Autoformer => {
                ModelImpl::Autoformer(Autoformer::new(&mut ps, &bcfg, &mut rng))
            }
            ModelKind::Gru => ModelImpl::Gru(GruForecaster::new(&mut ps, &bcfg, &mut rng)),
            ModelKind::LstNet => ModelImpl::LstNet(LstNet::new(&mut ps, &bcfg, &mut rng)),
            ModelKind::NBeats => ModelImpl::NBeats(NBeats::new(&mut ps, &bcfg, &mut rng)),
            ModelKind::Ts2Vec => ModelImpl::Ts2Vec(Ts2Vec::new(&mut ps, &bcfg, &mut rng)),
        };
        TrainedModel { kind, inner, ps }
    }

    /// Wrap a Conformer built from an explicit config (ablation harnesses).
    pub fn from_conformer(cfg: &ConformerConfig, seed: u64) -> TrainedModel {
        let mut ps = ParamSet::new();
        let model = Conformer::new(&mut ps, cfg, &mut Rng::seed(seed));
        TrainedModel {
            kind: ModelKind::Conformer,
            inner: ModelImpl::Conformer(model),
            ps,
        }
    }

    /// The model's kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The parameter set (for checkpointing).
    pub fn params(&self) -> &ParamSet {
        &self.ps
    }

    /// Mutable parameter set (for the trainer and loaders).
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.ps
    }

    /// The wrapped model.
    pub fn inner(&self) -> &ModelImpl {
        &self.inner
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.ps.num_elements()
    }

    /// Training loss for one batch. The target is the scaled horizon.
    pub fn batch_loss<'g>(&self, cx: &Fwd<'g, '_>, batch: &Batch) -> Var<'g> {
        let g = cx.graph();
        let x = g.leaf(batch.x.clone());
        let xm = g.leaf(batch.x_mark.clone());
        let dec = g.leaf(batch.dec.clone());
        let dm = g.leaf(batch.dec_mark.clone());
        match &self.inner {
            ModelImpl::Conformer(m) => m.loss(cx, x, Some(xm), dec, Some(dm), &batch.y),
            ModelImpl::Transformer(m) => m.loss(cx, x, xm, dec, dm, &batch.y),
            ModelImpl::Autoformer(m) => m.loss(cx, x, xm, dec, dm, &batch.y),
            ModelImpl::Gru(m) => m.loss(cx, x, &batch.y),
            ModelImpl::LstNet(m) => m.loss(cx, x, &batch.y),
            ModelImpl::NBeats(m) => m.loss(cx, x, &batch.y),
            ModelImpl::Ts2Vec(m) => m.loss(cx, x, &batch.y),
        }
    }

    /// Deterministic prediction for one batch, `[b, ly, c_out]` (scaled).
    pub fn predict_batch(&self, batch: &Batch) -> Tensor {
        match &self.inner {
            ModelImpl::Conformer(m) => m.predict(
                &self.ps,
                &batch.x,
                &batch.x_mark,
                &batch.dec,
                &batch.dec_mark,
            ),
            ModelImpl::Transformer(m) => m.predict(
                &self.ps,
                &batch.x,
                &batch.x_mark,
                &batch.dec,
                &batch.dec_mark,
            ),
            ModelImpl::Autoformer(m) => m.predict(
                &self.ps,
                &batch.x,
                &batch.x_mark,
                &batch.dec,
                &batch.dec_mark,
            ),
            ModelImpl::Gru(m) => m.predict(&self.ps, &batch.x),
            ModelImpl::LstNet(m) => m.predict(&self.ps, &batch.x),
            ModelImpl::NBeats(m) => m.predict(&self.ps, &batch.x),
            ModelImpl::Ts2Vec(m) => m.predict(&self.ps, &batch.x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_data::synth::{Dataset, SynthSpec};
    use lttf_data::{Split, WindowDataset};

    fn sample_batch() -> Batch {
        let series = Dataset::Etth1.generate(SynthSpec {
            len: 200,
            dims: Some(3),
            seed: 1,
        });
        let ds = WindowDataset::new(&series, Split::Train, (0.7, 0.1), 16, 8, 8);
        ds.batch(&[0, 1])
    }

    /// `predict_batch`'s forward run on a recording graph, which releases
    /// no intermediate values.
    fn recording_predict(m: &TrainedModel, batch: &Batch) -> Tensor {
        let g = lttf_autograd::Graph::new();
        let cx = Fwd::new(&g, &m.ps, false, 0);
        let leaf = |t: &Tensor| g.leaf(t.clone());
        let (x, xm) = (leaf(&batch.x), leaf(&batch.x_mark));
        let (dec, dm) = (leaf(&batch.dec), leaf(&batch.dec_mark));
        match &m.inner {
            ModelImpl::Conformer(c) => {
                let marks = c.config().mark_dim > 0;
                let out = c.forward(&cx, x, marks.then_some(xm), dec, marks.then_some(dm), false);
                let lambda = c.config().lambda;
                match out.y_flow {
                    Some(z) => out
                        .y_dec
                        .value()
                        .mul_scalar(lambda)
                        .add(&z.value().mul_scalar(1.0 - lambda)),
                    None => out.y_dec.value(),
                }
            }
            ModelImpl::Transformer(t) => t.forward(&cx, x, xm, dec, dm).value(),
            ModelImpl::Autoformer(a) => a.forward(&cx, x, xm, dec, dm).value(),
            ModelImpl::Gru(r) => r.forward(&cx, x).value(),
            ModelImpl::LstNet(l) => l.forward(&cx, x).value(),
            ModelImpl::NBeats(n) => n.forward(&cx, x).value(),
            ModelImpl::Ts2Vec(t) => t.forward(&cx, x).value(),
        }
    }

    #[test]
    fn every_kind_builds_and_predicts() {
        let batch = sample_batch();
        for kind in [
            ModelKind::Conformer,
            ModelKind::Longformer,
            ModelKind::Autoformer,
            ModelKind::Informer,
            ModelKind::Reformer,
            ModelKind::LogTrans,
            ModelKind::LstNet,
            ModelKind::Gru,
            ModelKind::NBeats,
            ModelKind::Ts2Vec,
        ] {
            let m = TrainedModel::build(kind, 3, 16, 8, 8, 2, 7);
            assert!(m.num_parameters() > 0, "{kind:?}");
            let y = m.predict_batch(&batch);
            assert_eq!(y.shape(), &[2, 8, 3], "{kind:?}");
            assert!(!y.has_non_finite(), "{kind:?}");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&y),
                bits(&recording_predict(&m, &batch)),
                "{kind:?}: the inference graph's forecast differs from a recording graph's"
            );
        }
    }

    #[test]
    fn batch_loss_is_finite_for_all_kinds() {
        let batch = sample_batch();
        for kind in ModelKind::TABLE2 {
            let m = TrainedModel::build(kind, 3, 16, 8, 8, 2, 3);
            let g = lttf_autograd::Graph::new();
            let cx = Fwd::new(&g, m.params(), true, 0);
            let loss = m.batch_loss(&cx, &batch).value().item();
            assert!(loss.is_finite() && loss > 0.0, "{kind:?}: {loss}");
        }
    }

    #[test]
    fn seeded_builds_are_reproducible() {
        let batch = sample_batch();
        let a = TrainedModel::build(ModelKind::Conformer, 3, 16, 8, 8, 2, 5);
        let b = TrainedModel::build(ModelKind::Conformer, 3, 16, 8, 8, 2, 5);
        a.predict_batch(&batch)
            .assert_close(&b.predict_batch(&batch), 0.0);
    }

    #[test]
    fn table_constant_sets() {
        assert_eq!(ModelKind::TABLE2.len(), 8);
        assert_eq!(ModelKind::TABLE4.len(), 8);
        assert_eq!(ModelKind::TABLE2[0].name(), "Conformer");
    }
}
