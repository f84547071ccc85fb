//! The window attention's vector `exp` (`simd::libm_exp`) against
//! `f32::exp`, bit for bit, on both kernel backends. The AVX2 backend
//! ports glibc 2.36's `expf` as its FMA build computes it; a failure here
//! means the platform libm is a different algorithm, and the lane kernel
//! cannot keep the per-query planes' bits on this host.

use lttf::tensor::simd::{libm_exp, on_both_backends};

/// `Err` naming the first input of `bits` where `libm_exp` and
/// `f32::exp` return different bits, on either backend.
fn matches_libm(bits: impl Iterator<Item = u32> + Clone) -> Result<(), String> {
    let check = || -> Result<(), String> {
        let mut bits = bits.clone().peekable();
        let mut x: Vec<f32> = Vec::with_capacity(1 << 16);
        let mut y = vec![0.0f32; 1 << 16];
        while bits.peek().is_some() {
            x.clear();
            x.extend(bits.by_ref().take(1 << 16).map(f32::from_bits));
            libm_exp(&x, &mut y[..x.len()]);
            for (&x, &y) in x.iter().zip(&y) {
                let want = x.exp();
                if y.to_bits() != want.to_bits() {
                    return Err(format!(
                        "libm_exp({x:e}) (bits {:#010x}) is {:#010x}, f32::exp gives {:#010x}: \
                         the platform libm's expf differs from the ported glibc 2.36 FMA \
                         algorithm",
                        x.to_bits(),
                        y.to_bits(),
                        want.to_bits()
                    ));
                }
            }
        }
        Ok(())
    };
    let (scalar, simd) = on_both_backends(check);
    scalar.map_err(|e| format!("scalar backend: {e}"))?;
    simd.map_err(|e| format!("simd backend: {e}"))
}

#[test]
fn libm_exp_matches_f32_exp_on_sampled_inputs() {
    let specials = [
        0x8000_0000, // −0.0
        0xff80_0000, // −∞
        0x7fc0_0000, // NaN
        0xffc0_0001, // negative NaN with a payload
        0xff80_0001, // signalling NaN
        0xc2cf_f1b4, // −0x1.9fe368p6: the underflow threshold
        0xc2cf_f1b3,
        0xc2cf_f1b5,
        0xc27c_65d9, // −63.09946: r fused and unfused round differently
        0xc2ae_ac50, // −87.33655: the result leaves the normal range
        0xc2ce_0000, // −103.0: a subnormal result
    ];
    // Dense runs where the result turns subnormal and where it
    // underflows, then a stride over every non-positive float.
    let runs = [0xc2ae_a000u32..0xc2ae_c000, 0xc2cf_e000..0xc2d0_0000];
    let sampled = (0x8000_0000u32..=0xff80_0000).step_by(4099);
    let inputs = specials
        .into_iter()
        .chain(runs.into_iter().flatten())
        .chain(sampled);
    matches_libm(inputs).unwrap_or_else(|e| panic!("{e}"));
}

/// Every non-positive float and negative NaN: 2^31 inputs.
#[test]
#[ignore = "exhaustive: 2^31 inputs, run in release by scripts/ci.sh"]
fn libm_exp_matches_f32_exp_on_every_non_positive_float() {
    matches_libm(0x8000_0000u32..=0xffff_ffff).unwrap_or_else(|e| panic!("{e}"));
}
