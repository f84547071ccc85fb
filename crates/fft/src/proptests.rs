//! Property-based tests of FFT invariants.

use crate::autocorrelation;
use crate::complex::Complex;
use crate::transform::{fft, ifft};
use lttf_testkit::prop::{self, Gen};
use lttf_testkit::{prop_assert, properties};

fn arb_signal() -> Gen<Vec<f64>> {
    prop::vecs(prop::f64s(-100.0..100.0), 1..65)
}

fn arb_signal32() -> Gen<Vec<f32>> {
    prop::vecs(prop::f32s(-10.0..10.0), 4..49)
}

properties! {
    fn ifft_fft_round_trip(sig in arb_signal()) {
        let x: Vec<Complex> = sig.iter().map(|&v| Complex::from_re(v)).collect();
        let back = ifft(&fft(&x));
        for (a, b) in back.iter().zip(&x) {
            prop_assert!((a.re - b.re).abs() < 1e-6, "{} vs {}", a.re, b.re);
            prop_assert!(a.im.abs() < 1e-6);
        }
    }

    fn fft_is_linear(sig in arb_signal(), scale in -5.0f64..5.0) {
        let x: Vec<Complex> = sig.iter().map(|&v| Complex::from_re(v)).collect();
        let sx: Vec<Complex> = x.iter().map(|c| c.scale(scale)).collect();
        let f1: Vec<Complex> = fft(&x).iter().map(|c| c.scale(scale)).collect();
        let f2 = fft(&sx);
        for (a, b) in f1.iter().zip(&f2) {
            prop_assert!((a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5);
        }
    }

    fn parseval_holds(sig in arb_signal()) {
        let x: Vec<Complex> = sig.iter().map(|&v| Complex::from_re(v)).collect();
        let n = x.len() as f64;
        let spec = fft(&x);
        let te: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n;
        prop_assert!((te - fe).abs() < 1e-5 * (1.0 + te));
    }

    fn dc_bin_is_sum(sig in arb_signal()) {
        let x: Vec<Complex> = sig.iter().map(|&v| Complex::from_re(v)).collect();
        let spec = fft(&x);
        let s: f64 = sig.iter().sum();
        prop_assert!((spec[0].re - s).abs() < 1e-6 * (1.0 + s.abs()));
        prop_assert!(spec[0].im.abs() < 1e-6);
    }

    fn real_signal_spectrum_is_hermitian(sig in arb_signal()) {
        let x: Vec<Complex> = sig.iter().map(|&v| Complex::from_re(v)).collect();
        let spec = fft(&x);
        let n = spec.len();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            prop_assert!((a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5);
        }
    }

    fn autocorr_lag0_dominates(sig in arb_signal32()) {
        let r = autocorrelation(&sig);
        for &v in &r[1..] {
            prop_assert!(v <= r[0] + 1e-3);
        }
    }

    fn autocorr_lag0_is_variance(sig in arb_signal32()) {
        let n = sig.len() as f32;
        let mean = sig.iter().sum::<f32>() / n;
        let var = sig.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let r = autocorrelation(&sig);
        prop_assert!((r[0] - var).abs() < 1e-3 * (1.0 + var), "{} vs {}", r[0], var);
    }
}
