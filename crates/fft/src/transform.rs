//! Forward and inverse FFT: radix-2 Cooley–Tukey plus Bluestein for
//! arbitrary lengths.
//!
//! Each thread caches the plans it has used: radix-2 twiddles per
//! `(n, direction)` and Bluestein's chirp and chirp spectrum per
//! `(n, direction)`. A cached value has the bits the transform would
//! compute in place of the lookup, so caching changes no output bit.

use std::cell::RefCell;
use std::rc::Rc;
use std::thread::LocalKey;

use crate::complex::Complex;

/// Plans a thread keeps per table; past it the table starts over. The
/// models use a handful of lengths, so this only bounds a caller that
/// sweeps many.
const PLAN_CACHE_CAP: usize = 64;

/// A per-thread table of plans keyed by `(length, inverse)`.
type PlanTable<T> = RefCell<Vec<((usize, bool), Rc<T>)>>;

thread_local! {
    /// Radix-2 twiddles per `(n, inverse)`, see [`twiddles`].
    static TWIDDLES: PlanTable<[Complex]> = const { RefCell::new(Vec::new()) };
    /// Bluestein chirps and chirp spectra per `(n, inverse)`.
    static BLUESTEIN: PlanTable<Bluestein> = const { RefCell::new(Vec::new()) };
}

/// The plan for `(n, sign)` from this thread's `table`, built by `build`
/// on first use. `build` runs outside the table's borrow, so it may use
/// other plans.
fn cached<T: ?Sized>(
    table: &'static LocalKey<PlanTable<T>>,
    n: usize,
    sign: f64,
    build: impl FnOnce() -> Rc<T>,
) -> Rc<T> {
    let key = (n, sign > 0.0);
    let hit = table.with(|t| {
        t.borrow()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, plan)| Rc::clone(plan))
    });
    if let Some(plan) = hit {
        return plan;
    }
    let plan = build();
    table.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() >= PLAN_CACHE_CAP {
            t.clear();
        }
        t.push((key, Rc::clone(&plan)));
    });
    plan
}

/// Twiddle factors of every butterfly stage of a length-`n` radix-2
/// transform, concatenated: stage `len` (2, 4, …, n) holds `w_k` for
/// `k < len/2` at offset `len/2 - 1`. Each stage runs the recurrence
/// `w_0 = 1`, `w_{k+1} = w_k · e^{sign·2πi/len}`; a direct `cis(k·θ)`
/// would round differently and change the transform's bits.
fn twiddles(n: usize, sign: f64) -> Rc<[Complex]> {
    cached(&TWIDDLES, n, sign, || {
        let mut table = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
            let mut w = Complex::from_re(1.0);
            for _ in 0..len / 2 {
                table.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        table.into()
    })
}

/// `L` complex numbers side by side, lane `l` belonging to series `l`:
/// the operand of the one transform core, which runs `L` series at once.
///
/// Every operation spells its `f64` arithmetic exactly as [`Complex`]
/// does, lane by lane — the same operations on the same operands in the
/// same association, with no fused multiply-add — so each lane gets the
/// bits a [`Complex`] transform of its series would. A single series is
/// `L = 1`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes<const L: usize> {
    pub(crate) re: [f64; L],
    pub(crate) im: [f64; L],
}

impl<const L: usize> Lanes<L> {
    pub(crate) const ZERO: Self = Lanes {
        re: [0.0; L],
        im: [0.0; L],
    };

    /// Lane `l` is `re[l] + 0i`, as [`Complex::from_re`].
    pub(crate) fn from_re(re: [f64; L]) -> Self {
        Lanes { re, im: [0.0; L] }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] + o.re[l]),
            im: std::array::from_fn(|l| self.im[l] + o.im[l]),
        }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] - o.re[l]),
            im: std::array::from_fn(|l| self.im[l] - o.im[l]),
        }
    }

    /// `self · w` for one `w` in every lane, as `Complex * Complex`.
    #[inline(always)]
    fn mul_by(self, w: Complex) -> Self {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: std::array::from_fn(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }

    /// `z · conj(z)` in every lane, as `c * c.conj()`.
    #[inline(always)]
    pub(crate) fn power(self) -> Self {
        let im: [f64; L] = std::array::from_fn(|l| -self.im[l]);
        Lanes {
            re: std::array::from_fn(|l| self.re[l] * self.re[l] - self.im[l] * im[l]),
            im: std::array::from_fn(|l| self.re[l] * im[l] + self.im[l] * self.re[l]),
        }
    }

    /// As [`Complex::scale`].
    #[inline(always)]
    pub(crate) fn scale(self, s: f64) -> Self {
        Lanes {
            re: std::array::from_fn(|l| self.re[l] * s),
            im: std::array::from_fn(|l| self.im[l] * s),
        }
    }
}

impl From<Complex> for Lanes<1> {
    fn from(c: Complex) -> Self {
        Lanes {
            re: [c.re],
            im: [c.im],
        }
    }
}

impl From<Lanes<1>> for Complex {
    fn from(v: Lanes<1>) -> Self {
        Complex::new(v.re[0], v.im[0])
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT of `L` series at once.
///
/// `sign = -1.0` gives the forward transform, `+1.0` the (unscaled) inverse.
/// Twiddles come from this thread's table for `(n, sign)`.
///
/// # Panics
/// Panics unless `buf.len()` is a power of two.
#[inline(always)]
fn fft_pow2<const L: usize>(buf: &mut [Lanes<L>], sign: f64) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "fft_pow2 requires power-of-two length, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let tw = twiddles(n, sign);
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let w = &tw[half - 1..len - 1];
        for block in buf.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(w) {
                let a = *u;
                let b = v.mul_by(w);
                *u = a.add(b);
                *v = a.sub(b);
            }
        }
        len <<= 1;
    }
}

/// What Bluestein's algorithm needs for one `(n, sign)`: the chirp
/// `w_k = e^{sign·iπk²/n}` and the radix-2 spectrum of its conjugate,
/// wrapped to length `m`.
struct Bluestein {
    chirp: Vec<Complex>,
    kernel: Vec<Complex>,
}

fn bluestein_plan(n: usize, sign: f64) -> Rc<Bluestein> {
    cached(&BLUESTEIN, n, sign, || {
        let m = (2 * n - 1).next_power_of_two();
        let chirp: Vec<Complex> = (0..n)
            .map(|k| {
                // k² mod 2n avoids precision loss for large k.
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut kernel = vec![Lanes::<1>::ZERO; m];
        kernel[0] = chirp[0].conj().into();
        for k in 1..n {
            let c = chirp[k].conj().into();
            kernel[k] = c;
            kernel[m - k] = c;
        }
        fft_pow2(&mut kernel, -1.0);
        let kernel = kernel.into_iter().map(Complex::from).collect();
        Rc::new(Bluestein { chirp, kernel })
    })
}

/// The DFT of `L` series of length `buf.len()` in place, unscaled:
/// `sign = -1.0` forward, `+1.0` inverse. Powers of two use radix-2
/// Cooley–Tukey, other lengths Bluestein's chirp-z transform through the
/// scratch `work`, which is resized as needed so a caller running many
/// groups allocates it once.
#[inline(always)]
pub(crate) fn dft<const L: usize>(buf: &mut [Lanes<L>], sign: f64, work: &mut Vec<Lanes<L>>) {
    let n = buf.len();
    if n == 0 {
        return;
    }
    if n.is_power_of_two() {
        fft_pow2(buf, sign);
        return;
    }
    let plan = bluestein_plan(n, sign);
    let m = plan.kernel.len();
    work.clear();
    work.resize(m, Lanes::ZERO);
    for ((a, x), &c) in work.iter_mut().zip(buf.iter()).zip(&plan.chirp) {
        *a = x.mul_by(c);
    }
    fft_pow2(work, -1.0);
    for (a, &k) in work.iter_mut().zip(&plan.kernel) {
        *a = a.mul_by(k);
    }
    fft_pow2(work, 1.0);
    let scale = 1.0 / m as f64;
    for ((x, a), &c) in buf.iter_mut().zip(work.iter()).zip(&plan.chirp) {
        *x = a.mul_by(c).scale(scale);
    }
}

/// `x` through [`dft`] as one lane. This and the two transforms below
/// are how the tests reach the transform core, which only
/// [`crate::autocorrelations`] runs outside them.
#[cfg(test)]
fn transform(x: &[Complex], sign: f64) -> Vec<Lanes<1>> {
    let mut buf: Vec<Lanes<1>> = x.iter().map(|&c| c.into()).collect();
    dft(&mut buf, sign, &mut Vec::new());
    buf
}

/// Forward DFT: `X[k] = Σ_t x[t] e^{-2πi kt / n}`.
///
/// Accepts any length: powers of two use radix-2 Cooley–Tukey, other
/// lengths use Bluestein's algorithm. An empty input returns empty.
#[cfg(test)]
pub(crate) fn fft(x: &[Complex]) -> Vec<Complex> {
    transform(x, -1.0).into_iter().map(Complex::from).collect()
}

/// Inverse DFT with `1/n` normalization: `ifft(fft(x)) == x`.
#[cfg(test)]
pub(crate) fn ifft(x: &[Complex]) -> Vec<Complex> {
    let scale = 1.0 / x.len() as f64;
    transform(x, 1.0)
        .into_iter()
        .map(|v| v.scale(scale).into())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT for cross-checking.
    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::zero();
                for (t, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc + v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn fft_matches_naive_dft_pow2() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-9);
    }

    #[test]
    fn fft_matches_naive_dft_arbitrary_lengths() {
        for n in [1usize, 2, 3, 5, 6, 7, 12, 15, 31, 96, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.9).cos()))
                .collect();
            assert_spectra_close(&fft(&x), &dft_naive(&x), 1e-7);
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [8usize, 13, 96] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64 * 0.1 - 0.5, (i as f64).cos()))
                .collect();
            let back = ifft(&fft(&x));
            assert_spectra_close(&back, &x, 1e-8);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::from_re(1.0);
        let spec = fft(&x);
        for c in &spec {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let x = vec![Complex::from_re(2.0); 8];
        let spec = fft(&x);
        assert!((spec[0].re - 16.0).abs() < 1e-9);
        for c in &spec[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_linearity() {
        let n = 12;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_re((i as f64).sin())).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::from_re((i as f64).cos())).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_spectra_close(&fsum, &expect, 1e-9);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::from_re((i as f64 * 0.37).sin()))
            .collect();
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }
}
