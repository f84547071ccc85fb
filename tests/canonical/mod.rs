//! The canonical model and its seeded inputs, shared by the golden-digest
//! test binaries (`forward_digest`, `train_digest`, `baseline_digest`) and
//! `heap_retention`.

use lttf::conformer::ConformerConfig;
use lttf::data::{Batch, MARK_DIM};
use lttf::tensor::{Rng, Tensor};

/// The model behind `lttf bench-serve` and the benchmark ledger: c_in 3,
/// lx 48, ly 24, d_model 16, 4 heads, strides [1, 12].
pub fn canonical_config() -> ConformerConfig {
    let mut cfg = ConformerConfig::new(3, 48, 24);
    cfg.d_model = 16;
    cfg.n_heads = 4;
    cfg.multiscale_strides = vec![1, 12];
    cfg
}

/// A seeded batch of `b` windows shaped for `cfg`, with zero targets.
pub fn batch(cfg: &ConformerConfig, b: usize, seed: u64) -> Batch {
    let mut rng = Rng::seed(seed);
    let dec_len = cfg.label_len + cfg.ly;
    Batch {
        x: Tensor::randn(&[b, cfg.lx, cfg.c_in], &mut rng),
        x_mark: Tensor::randn(&[b, cfg.lx, MARK_DIM], &mut rng),
        dec: Tensor::randn(&[b, dec_len, cfg.c_in], &mut rng),
        dec_mark: Tensor::randn(&[b, dec_len, MARK_DIM], &mut rng),
        y: Tensor::zeros(&[b, cfg.ly, cfg.c_out]),
    }
}
