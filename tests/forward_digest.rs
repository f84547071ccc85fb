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

use lttf::eval::TrainedModel;
use lttf::tensor::simd::{backend_name, enabled, set_simd_override};

mod canonical;
mod digest;
use canonical::{batch, canonical_config};
use digest::fnv1a;

/// Digests of `[b1, b8]` forecasts on the scalar backend.
const SCALAR: [u64; 2] = [0xf694_2c50_cd9f_0dba, 0x49c1_54fe_ac92_f384];
/// Digests of `[b1, b8]` forecasts on the AVX2+FMA backend.
const AVX2: [u64; 2] = [0xfef9_1e2a_cf75_2a59, 0xf8e2_809b_4e63_e88c];

/// `[b1, b8]` forecast digests on the backend selected right now.
fn digests() -> [u64; 2] {
    let cfg = canonical_config();
    let model = TrainedModel::from_conformer(&cfg, 7);
    [(1, 11), (8, 88)].map(|(b, seed)| {
        let out = model.predict_batch(&batch(&cfg, b, seed));
        assert_eq!(out.shape(), &[b, cfg.ly, cfg.c_out]);
        assert!(!out.has_non_finite(), "b{b} forecast is not finite");
        fnv1a([&out])
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
