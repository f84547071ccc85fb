//! Golden forecast digest: the canonical Conformer's forward pass must keep
//! every output bit.
//!
//! The model is the one behind `lttf bench-serve` and the benchmark ledger
//! (c_in 3, lx 48, ly 24, d_model 16, 4 heads, strides [1, 12], parameter
//! seed 7). It forecasts seeded batch-1 and batch-8 inputs, and the FNV-1a
//! hash of the output bits is compared with a digest pinned per kernel
//! backend (DESIGN.md §8: the scalar and AVX2+FMA backends may differ in
//! the last ulp, so each has its own digest). Any change that moves one bit
//! of a forecast fails here; a change that means to move bits must say so
//! and re-pin the digests.
//!
//! The thread count never changes the bits, so the test passes under every
//! `LTTF_THREADS`; `scripts/ci.sh` runs it across the SIMD × threads matrix.

use lttf::conformer::ConformerConfig;
use lttf::data::{Batch, MARK_DIM};
use lttf::eval::TrainedModel;
use lttf::tensor::simd::{backend_name, enabled, set_simd_override};
use lttf::tensor::{Rng, Tensor};

/// Digests of `[b1, b8]` forecasts on the scalar backend.
const SCALAR: [u64; 2] = [0xf694_2c50_cd9f_0dba, 0x49c1_54fe_ac92_f384];
/// Digests of `[b1, b8]` forecasts on the AVX2+FMA backend.
const AVX2: [u64; 2] = [0xfef9_1e2a_cf75_2a59, 0xf8e2_809b_4e63_e88c];

fn canonical_config() -> ConformerConfig {
    let mut cfg = ConformerConfig::new(3, 48, 24);
    cfg.d_model = 16;
    cfg.n_heads = 4;
    cfg.multiscale_strides = vec![1, 12];
    cfg
}

/// A seeded batch of `b` windows shaped for `cfg`.
fn batch(cfg: &ConformerConfig, b: usize, seed: u64) -> Batch {
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

/// FNV-1a over the shape and the little-endian bits of every value.
fn fnv1a(t: &Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &d in t.shape() {
        eat(&(d as u64).to_le_bytes());
    }
    for v in t.data() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// `[b1, b8]` forecast digests on the backend selected right now.
fn digests() -> [u64; 2] {
    let cfg = canonical_config();
    let model = TrainedModel::from_conformer(&cfg, 7);
    [(1, 11), (8, 88)].map(|(b, seed)| {
        let out = model.predict_batch(&batch(&cfg, b, seed));
        assert_eq!(out.shape(), &[b, cfg.ly, cfg.c_out]);
        assert!(!out.has_non_finite(), "b{b} forecast is not finite");
        fnv1a(&out)
    })
}

fn check(expect: [u64; 2]) {
    let got = digests();
    let backend = backend_name();
    println!("{backend}: [{:#018x}, {:#018x}]", got[0], got[1]);
    for (i, b) in ["b1", "b8"].into_iter().enumerate() {
        assert_eq!(
            got[i], expect[i],
            "{b} forecast digest moved on the {backend} backend: {:#018x}, pinned {:#018x}",
            got[i], expect[i]
        );
    }
}

#[test]
fn canonical_forecasts_match_the_pinned_digests() {
    // The backend the environment selects (`LTTF_SIMD`), then both
    // backends pinned in turn. One test function, so nothing else in this
    // binary races the process-global override.
    for pin in [None, Some(false), Some(true)] {
        set_simd_override(pin);
        check(if enabled() { AVX2 } else { SCALAR });
    }
    set_simd_override(None);
}
