//! The transform without plan caching — twiddles and the Bluestein chirp
//! recomputed on every call — kept as a test reference, and the check
//! that the cached transform matches it bit for bit on every length in
//! 1..=300.

use crate::complex::Complex;
use crate::{autocorrelation, fft, ifft, next_pow2};

fn fft_pow2(buf: &mut [Complex], sign: f64) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
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
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::from_re(1.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

fn bluestein(x: &[Complex], sign: f64) -> Vec<Complex> {
    let n = x.len();
    let m = next_pow2(2 * n - 1);
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = (k as u64 * k as u64) % (2 * n as u64);
            Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
        })
        .collect();
    let mut a = vec![Complex::zero(); m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
    }
    let mut b = vec![Complex::zero(); m];
    b[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        b[k] = c;
        b[m - k] = c;
    }
    fft_pow2(&mut a, -1.0);
    fft_pow2(&mut b, -1.0);
    for (av, bv) in a.iter_mut().zip(&b) {
        *av = *av * *bv;
    }
    fft_pow2(&mut a, 1.0);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| (a[k] * chirp[k]).scale(scale)).collect()
}

fn transform(x: &[Complex], sign: f64) -> Vec<Complex> {
    if x.len().is_power_of_two() {
        let mut buf = x.to_vec();
        fft_pow2(&mut buf, sign);
        buf
    } else {
        bluestein(x, sign)
    }
}

fn ref_ifft(x: &[Complex]) -> Vec<Complex> {
    let scale = 1.0 / x.len() as f64;
    transform(x, 1.0).iter().map(|v| v.scale(scale)).collect()
}

fn ref_autocorrelation(x: &[f32]) -> Vec<f32> {
    let n = x.len();
    let mean = x.iter().sum::<f32>() / n as f32;
    let buf: Vec<Complex> = x
        .iter()
        .map(|&v| Complex::from_re((v - mean) as f64))
        .collect();
    let spec = transform(&buf, -1.0);
    let power: Vec<Complex> = spec.iter().map(|&c| c * c.conj()).collect();
    let corr = ref_ifft(&power);
    corr.iter().map(|c| (c.re / n as f64) as f32).collect()
}

fn assert_same_bits(what: &str, n: usize, got: &[Complex], want: &[Complex]) {
    assert_eq!(got.len(), want.len(), "{what} n={n}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what} n={n} bin {k}: {g:?} vs reference {w:?}"
        );
    }
}

/// Every length in 1..=300 (powers of two and Bluestein alike), each
/// transform run twice so both the cold and the warm plan are checked.
/// This many lengths also overflows the per-thread plan table, so the
/// table's reset is exercised. The transform has no SIMD dispatch; it is
/// still run under both backend settings so no backend can change it.
#[test]
fn cached_transforms_match_reference_on_every_length() {
    let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(15);
    for pin in [Some(false), Some(true)] {
        lttf_tensor::simd::set_simd_override(pin);
        for n in 1..=300usize {
            let x: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.next_f64() * 20.0 - 10.0, rng.next_f64() - 0.5))
                .collect();
            let series: Vec<f32> = (0..n).map(|_| rng.next_f32() * 8.0 - 4.0).collect();
            for _ in 0..2 {
                assert_same_bits("fft", n, &fft(&x), &transform(&x, -1.0));
                assert_same_bits("ifft", n, &ifft(&x), &ref_ifft(&x));
                let (got, want) = (autocorrelation(&series), ref_autocorrelation(&series));
                assert_eq!(got.len(), want.len());
                for (lag, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "autocorrelation n={n} lag {lag}: {g} vs {w}"
                    );
                }
            }
        }
    }
    lttf_tensor::simd::set_simd_override(None);
}

/// The four-lane core against the scalar reference, lane by lane: each
/// lane's transform in `f64` bits (an `f32` autocorrelation rounds most
/// `f64` differences away), then the batched autocorrelation series by
/// series: nine series (two full groups and one padded), random,
/// constant, all `+0`, all `−0` and mixed signed zeros, laid out as three
/// `[n, 3]` windows.
#[test]
fn lane_autocorrelations_match_reference() {
    use crate::transform::{dft, Lanes};
    let mut rng = lttf_testkit::Xoshiro256PlusPlus::seed_from_u64(21);
    for n in [1usize, 2, 48, 96, 128, 336] {
        let lanes: [Vec<Complex>; 4] = [
            (0..n)
                .map(|_| Complex::new(rng.next_f64() * 20.0 - 10.0, rng.next_f64() - 0.5))
                .collect(),
            (0..n)
                .map(|_| Complex::from_re(rng.next_f64() - 0.5))
                .collect(),
            vec![Complex::new(-0.0, 0.0); n],
            vec![Complex::from_re(2.5); n],
        ];
        for sign in [-1.0, 1.0] {
            let mut buf: Vec<Lanes<4>> = (0..n)
                .map(|t| Lanes {
                    re: std::array::from_fn(|l| lanes[l][t].re),
                    im: std::array::from_fn(|l| lanes[l][t].im),
                })
                .collect();
            dft(&mut buf, sign, &mut Vec::new());
            for (l, x) in lanes.iter().enumerate() {
                let got: Vec<Complex> =
                    buf.iter().map(|v| Complex::new(v.re[l], v.im[l])).collect();
                assert_same_bits("lane dft", n, &got, &transform(x, sign));
            }
        }
        let mut series: Vec<Vec<f32>> = vec![
            vec![0.0; n],
            vec![-0.0; n],
            vec![3.5; n],
            (0..n)
                .map(|t| if t % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
            (0..n)
                .map(|_| rng.next_f32() * 8.0 - 4.0 + 1000.0)
                .collect(),
        ];
        while series.len() < 9 {
            series.push((0..n).map(|_| rng.next_f32() * 8.0 - 4.0).collect());
        }
        let (windows, d) = (3, 3);
        let mut x = vec![0.0f32; windows * n * d];
        for (s, values) in series.iter().enumerate() {
            for (t, &v) in values.iter().enumerate() {
                x[(s / d) * n * d + t * d + s % d] = v;
            }
        }
        let got = crate::autocorrelations(&x, n, d);
        assert_eq!(got.len(), series.len() * n);
        for (s, values) in series.iter().enumerate() {
            let want = ref_autocorrelation(values);
            for (lag, (g, w)) in got[s * n..(s + 1) * n].iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "n={n} series {s} lag {lag}: {g} vs reference {w}"
                );
            }
        }
    }
}
