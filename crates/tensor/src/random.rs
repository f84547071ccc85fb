//! Seeded random tensor construction.
//!
//! All randomness in the workspace flows through [`Rng`], a thin wrapper
//! over the in-repo xoshiro256++ generator ([`lttf_testkit::rng`]), so
//! that a single `u64` seed reproduces entire experiments bit-for-bit —
//! on every platform, with zero external dependencies.

use crate::tensor::Tensor;
use lttf_testkit::Xoshiro256PlusPlus;

/// A seeded random number generator for tensor construction.
pub struct Rng {
    inner: Xoshiro256PlusPlus,
}

impl Rng {
    /// Create a generator from a `u64` seed.
    pub fn seed(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256PlusPlus::seed_from_u64(seed),
        }
    }

    /// A standard-normal sample via the Box–Muller transform.
    ///
    /// `u1` is drawn from `(0, 1]` — open at zero — so `ln(u1)` is always
    /// finite and `ln(0) = -∞` is impossible by construction. The
    /// rejection loop is belt-and-braces on top of that guard: with
    /// `u1 ≥ 2⁻²⁴` the magnitude is bounded by `√(−2·ln 2⁻²⁴) ≈ 5.8`, so
    /// in practice the first draw is always accepted.
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1: f32 = self.inner.next_f32_open0(); // (0, 1]: ln is finite
            let u2: f32 = self.inner.next_f32(); // [0, 1)
            let v = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            if v.is_finite() {
                return v;
            }
        }
    }

    /// A uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform: empty range {lo}..{hi}");
        loop {
            // `next_f32 < 1` guarantees v < hi mathematically; the retry
            // covers the rounding edge where `lo + f*(hi-lo)` lands on hi.
            let v = lo + self.inner.next_f32() * (hi - lo);
            if v < hi {
                return v;
            }
        }
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.below(n as u64) as usize
    }

    /// A Bernoulli sample with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.inner.next_f32() < p
    }

    /// An exponential sample with rate `lambda`.
    pub fn exponential(&mut self, lambda: f32) -> f32 {
        let u: f32 = self.inner.next_f32_open0(); // (0, 1]: ln is finite
        -u.ln() / lambda
    }

    /// A uniform random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        self.inner.permutation(n)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        self.inner.shuffle(xs);
    }
}

impl Tensor {
    /// A tensor of i.i.d. standard-normal samples.
    pub fn randn(shape: &[usize], rng: &mut Rng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.normal()).collect(), shape)
    }

    /// A tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.uniform(lo, hi)).collect(), shape)
    }

    /// A Bernoulli mask: `keep` with probability `p`, else `0.0`.
    pub fn bernoulli_mask(shape: &[usize], p: f32, keep: f32, rng: &mut Rng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n)
                .map(|_| if rng.bernoulli(p) { keep } else { 0.0 })
                .collect(),
            shape,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_reproducibility() {
        let mut r1 = Rng::seed(42);
        let mut r2 = Rng::seed(42);
        let a = Tensor::randn(&[16], &mut r1);
        let b = Tensor::randn(&[16], &mut r2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn two_seed_42_streams_are_bit_identical() {
        // The workspace-level determinism contract: every distribution
        // helper, not just randn, reproduces bit-for-bit from one seed.
        let mut r1 = Rng::seed(42);
        let mut r2 = Rng::seed(42);
        let a = Tensor::randn(&[64], &mut r1);
        let b = Tensor::randn(&[64], &mut r2);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let u1 = Tensor::rand_uniform(&[64], -1.0, 1.0, &mut r1);
        let u2 = Tensor::rand_uniform(&[64], -1.0, 1.0, &mut r2);
        for (x, y) in u1.data().iter().zip(u2.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let m1 = Tensor::bernoulli_mask(&[64], 0.4, 1.0, &mut r1);
        let m2 = Tensor::bernoulli_mask(&[64], 0.4, 1.0, &mut r2);
        assert_eq!(m1.data(), m2.data());
        assert_eq!(r1.permutation(16), r2.permutation(16));
    }

    #[test]
    fn normal_stream_golden_seed1() {
        // Pins the Box–Muller output stream: a change in the PRNG core,
        // the (0,1] guard, or evaluation order shows up here first.
        let mut rng = Rng::seed(1);
        let got: Vec<u32> = (0..4).map(|_| rng.normal().to_bits()).collect();
        let expect: Vec<u32> = [-0.01175305, -0.050988793, -1.548912, -0.16080318f32]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, expect, "normal(seed=1) stream drifted");
    }

    #[test]
    fn different_seeds_differ() {
        let a = Tensor::randn(&[16], &mut Rng::seed(1));
        let b = Tensor::randn(&[16], &mut Rng::seed(2));
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut rng = Rng::seed(7);
        let t = Tensor::randn(&[20_000], &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        assert!((t.std() - 1.0).abs() < 0.05, "std {}", t.std());
    }

    #[test]
    fn normal_is_always_finite() {
        // The u1 ∈ (0,1] guard makes ln(0) unreachable; exhaust a long
        // stream to back that claim with evidence.
        let mut rng = Rng::seed(0xDEAD_BEEF);
        for _ in 0..100_000 {
            assert!(rng.normal().is_finite());
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::seed(3);
        let t = Tensor::rand_uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(t.min() >= -2.0 && t.max() < 3.0);
        // rough mean check
        assert!((t.mean() - 0.5).abs() < 0.2);
    }

    #[test]
    fn bernoulli_mask_rate() {
        let mut rng = Rng::seed(9);
        let m = Tensor::bernoulli_mask(&[10_000], 0.3, 1.0, &mut rng);
        let rate = m.mean();
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        assert!(m.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::seed(11);
        let mean: f32 = (0..20_000).map(|_| rng.exponential(2.0)).sum::<f32>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed(13);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_matches_shuffle_of_identity() {
        let mut a = Rng::seed(21);
        let mut b = Rng::seed(21);
        let p = a.permutation(32);
        let mut q: Vec<usize> = (0..32).collect();
        b.shuffle(&mut q);
        assert_eq!(p, q);
    }
}
