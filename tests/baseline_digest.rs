//! Golden baseline digests: the convolutional baselines (LSTNet, TS2Vec
//! and the Informer Transformer with its distilling convolution) and the
//! sliding-window Longformer must keep every forecast and gradient bit.
//!
//! Each model is built at the canonical model's size (c_in 3, lx 48, ly
//! 24, d_model 16, 4 heads, two encoder layers) from parameter seed 7. It
//! forecasts a seeded batch of 4 windows, then takes one training-mode
//! loss and backward pass on a second seeded batch, and the FNV-1a hash of
//! the forecast bits and of every parameter gradient's bits is compared
//! with a digest pinned per kernel backend (DESIGN.md §8). Together the
//! four models run the token-embedding convolution, the LSTNet and TS2Vec
//! convolutions (padding 0 and 1), the Informer distilling convolution and
//! the windowed attention with global tokens and cross-attention lengths,
//! forward and backward.
//!
//! The thread count never changes the bits, so the test passes under every
//! `LTTF_THREADS`; `scripts/ci.sh` runs it across the SIMD × threads matrix.

use lttf::autograd::{Graph, Var};
use lttf::baselines::{BaselineConfig, LstNet, TransformerFlavor, TransformerForecaster, Ts2Vec};
use lttf::data::Batch;
use lttf::nn::{Fwd, ParamSet};
use lttf::tensor::simd::{backend_name, enabled, set_simd_override};
use lttf::tensor::{Rng, Tensor};

mod digest;
use digest::{batch, canonical_config, fnv1a};

/// Models in digest order.
const MODELS: [&str; 4] = ["lstnet", "ts2vec", "informer", "longformer"];

/// `[forecast, gradients]` digests per model on the scalar backend.
const SCALAR: [[u64; 2]; 4] = [
    [0x3da2_77f1_13dc_e88f, 0xb7ac_6e26_7a04_9d85],
    [0x9739_b27e_f80f_9c3c, 0x40e5_cf00_b64c_383c],
    [0x9d77_d153_3584_e13c, 0x45d4_2fc0_6b6f_0dae],
    [0x8abc_494f_3d5f_8f24, 0xc6e4_07f4_47f3_c543],
];
/// `[forecast, gradients]` digests per model on the AVX2+FMA backend.
const AVX2: [[u64; 2]; 4] = [
    [0x4e88_c0e7_2432_b53b, 0x1bcd_500f_60d1_be5a],
    [0x22e2_cf9b_1e48_54fd, 0x58e5_15d5_9191_30e4],
    [0x48ee_933c_faf6_b3ad, 0x2887_23c3_426b_d715],
    [0x82e7_de2c_8d8d_8a6f, 0xc958_c5c5_36b6_7993],
];

/// The baselines' hyper-parameters at the canonical model's size.
fn config() -> BaselineConfig {
    let c = canonical_config();
    let mut cfg = BaselineConfig::new(c.c_in, c.lx, c.ly);
    cfg.label_len = c.label_len;
    cfg.d_model = c.d_model;
    cfg.n_heads = c.n_heads;
    cfg.hidden = c.d_model;
    cfg.e_layers = 2;
    cfg
}

/// One baseline behind the shared calling convention.
enum Model {
    LstNet(LstNet),
    Ts2Vec(Ts2Vec),
    Transformer(TransformerForecaster),
}

impl Model {
    fn build(name: &str, ps: &mut ParamSet, cfg: &BaselineConfig) -> Model {
        let rng = &mut Rng::seed(7);
        match name {
            "lstnet" => Model::LstNet(LstNet::new(ps, cfg, rng)),
            "ts2vec" => Model::Ts2Vec(Ts2Vec::new(ps, cfg, rng)),
            "informer" => Model::Transformer(TransformerForecaster::new(
                ps,
                TransformerFlavor::Informer,
                cfg,
                rng,
            )),
            "longformer" => Model::Transformer(TransformerForecaster::new(
                ps,
                TransformerFlavor::Longformer,
                cfg,
                rng,
            )),
            other => unreachable!("no baseline {other}"),
        }
    }

    fn loss<'g>(&self, cx: &Fwd<'g, '_>, g: &'g Graph, data: &Batch) -> Var<'g> {
        let x = g.leaf(data.x.clone());
        let y = &data.y;
        match self {
            Model::LstNet(m) => m.loss(cx, x, y),
            Model::Ts2Vec(m) => m.loss(cx, x, y),
            Model::Transformer(m) => {
                let (xm, dec, dm) = (
                    g.leaf(data.x_mark.clone()),
                    g.leaf(data.dec.clone()),
                    g.leaf(data.dec_mark.clone()),
                );
                m.loss(cx, x, xm, dec, dm, y)
            }
        }
    }

    fn predict(&self, ps: &ParamSet, data: &Batch) -> Tensor {
        match self {
            Model::LstNet(m) => m.predict(ps, &data.x),
            Model::Ts2Vec(m) => m.predict(ps, &data.x),
            Model::Transformer(m) => {
                m.predict(ps, &data.x, &data.x_mark, &data.dec, &data.dec_mark)
            }
        }
    }
}

/// `[forecast, gradients]` digests of baseline `name` on the backend
/// selected right now.
fn digests(name: &str) -> [u64; 2] {
    let cfg = config();
    let shapes = canonical_config();
    let mut ps = ParamSet::new();
    let model = Model::build(name, &mut ps, &cfg);
    let out = model.predict(&ps, &batch(&shapes, 4, 21));
    assert_eq!(out.shape(), &[4, cfg.ly, cfg.c_out]);
    assert!(!out.has_non_finite(), "{name} forecast is not finite");
    let data = batch(&shapes, 4, 22);
    let g = Graph::new();
    let cx = Fwd::new(&g, &ps, true, 23);
    let loss = model.loss(&cx, &g, &data);
    assert!(loss.value().item().is_finite(), "{name} loss is not finite");
    let grads = g.backward(loss);
    let collected = cx.collect_grads(&grads);
    ps.zero_grad();
    ps.apply_grads(collected);
    [fnv1a([&out]), fnv1a(ps.ids().map(|id| ps.grad(id)))]
}

#[test]
fn baseline_forecasts_and_gradients_match_the_pinned_digests() {
    // The backend the environment selects (`LTTF_SIMD`), then both
    // backends pinned in turn. One test function, so nothing else in this
    // binary races the process-global override.
    for pin in [None, Some(false), Some(true)] {
        set_simd_override(pin);
        let expect = if enabled() { AVX2 } else { SCALAR };
        let backend = backend_name();
        let got = MODELS.map(digests);
        for (i, name) in MODELS.iter().enumerate() {
            println!(
                "{backend} {name}: [{:#018x}, {:#018x}]",
                got[i][0], got[i][1]
            );
        }
        for (i, name) in MODELS.iter().enumerate() {
            for (j, what) in ["forecast", "gradient"].into_iter().enumerate() {
                assert_eq!(
                    got[i][j], expect[i][j],
                    "{name} {what} digest moved on the {backend} backend: {:#018x}, pinned {:#018x}",
                    got[i][j], expect[i][j]
                );
            }
        }
    }
    set_simd_override(None);
}
