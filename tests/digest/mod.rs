//! The canonical model, its seeded inputs and the FNV-1a hash shared by
//! the golden-digest test binaries (`forward_digest`, `train_digest`).

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

/// FNV-1a over the shape and the little-endian bits of every value of
/// every tensor, in order.
pub fn fnv1a<'a>(ts: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in ts {
        for &d in t.shape() {
            eat(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}
