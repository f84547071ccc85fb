//! Circular autocorrelation via FFT (paper Eq. 1) and period detection.

use crate::complex::Complex;
use crate::transform::{fft, ifft};
use lttf_tensor::Tensor;

/// Circular autocorrelation of a real series:
/// `r[τ] = iFFT(FFT(x) · conj(FFT(x)))[τ] / n` — the Wiener–Khinchin route
/// the paper takes in Eq. (1).
///
/// The series is mean-centered first so that a constant offset does not
/// swamp the lag structure. Output has the same length as the input;
/// `r[0]` is the (biased) variance times `n / n = ` variance.
pub fn autocorrelation(x: &[f32]) -> Vec<f32> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = x.iter().sum::<f32>() / n as f32;
    let buf: Vec<Complex> = x
        .iter()
        .map(|&v| Complex::from_re((v - mean) as f64))
        .collect();
    let mut power = fft(&buf);
    for c in power.iter_mut() {
        *c = *c * c.conj();
    }
    let corr = ifft(&power);
    corr.iter().map(|c| (c.re / n as f64) as f32).collect()
}

/// Per-variable autocorrelation of a multivariate series.
///
/// * `x`: `[len, dims]` tensor.
///
/// Returns a `[dims, len]` tensor whose row `d` is the autocorrelation of
/// variable `d`. This is the raw material for the paper's Fig. 2 rhythm
/// heatmaps and for the input-representation weights `W^R` (Eq. 2).
///
/// # Panics
/// Panics unless `x` is 2-D.
pub fn autocorrelation_matrix(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "autocorrelation_matrix expects [len, dims]");
    let (len, dims) = (x.shape()[0], x.shape()[1]);
    let mut out = Vec::with_capacity(dims * len);
    let mut series = Vec::with_capacity(len);
    for d in 0..dims {
        series.clear();
        series.extend(x.data().iter().skip(d).step_by(dims));
        out.extend(autocorrelation(&series));
    }
    Tensor::from_vec(out, &[dims, len])
}

/// Return the `k` lags (in `1..=len/2`) with the highest autocorrelation,
/// strongest first. Used by the Autoformer baseline's auto-correlation
/// mechanism to pick candidate periods.
pub fn top_k_periods(x: &[f32], k: usize) -> Vec<usize> {
    let corr = autocorrelation(x);
    let half = corr.len() / 2;
    let mut lags: Vec<usize> = (1..=half.max(1).min(corr.len().saturating_sub(1))).collect();
    lags.sort_by(|&a, &b| {
        corr[b]
            .partial_cmp(&corr[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    lags.truncate(k);
    lags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorr_peak_at_zero_lag() {
        let x: Vec<f32> = (0..64).map(|i| ((i * 7 % 13) as f32) - 6.0).collect();
        let r = autocorrelation(&x);
        let r0 = r[0];
        for (lag, &v) in r.iter().enumerate().skip(1) {
            assert!(v <= r0 + 1e-4, "lag {lag}: {v} > r0 {r0}");
        }
    }

    #[test]
    fn autocorr_of_periodic_signal_peaks_at_period() {
        // Period-16 sine over 128 samples.
        let x: Vec<f32> = (0..128)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 16.0).sin())
            .collect();
        let r = autocorrelation(&x);
        // The autocorrelation at lag 16 should be close to the variance.
        assert!(r[16] > 0.8 * r[0], "r[16]={} r[0]={}", r[16], r[0]);
        // At the half-period it should be strongly negative.
        assert!(r[8] < -0.8 * r[0], "r[8]={} r[0]={}", r[8], r[0]);
    }

    #[test]
    fn autocorr_matches_direct_computation() {
        let x = [1.0f32, 3.0, -2.0, 0.5, 4.0, -1.0, 2.0, 0.0];
        let n = x.len();
        let mean = x.iter().sum::<f32>() / n as f32;
        let c: Vec<f32> = x.iter().map(|v| v - mean).collect();
        let r = autocorrelation(&x);
        for lag in 0..n {
            let direct: f32 = (0..n).map(|t| c[t] * c[(t + lag) % n]).sum::<f32>() / n as f32;
            assert!(
                (r[lag] - direct).abs() < 1e-4,
                "lag {lag}: fft {} vs direct {direct}",
                r[lag]
            );
        }
    }

    #[test]
    fn autocorr_invariant_to_constant_offset() {
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.7).sin()).collect();
        let y: Vec<f32> = x.iter().map(|v| v + 100.0).collect();
        let rx = autocorrelation(&x);
        let ry = autocorrelation(&y);
        for (a, b) in rx.iter().zip(&ry) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn top_k_periods_finds_dominant_cycle() {
        let x: Vec<f32> = (0..192)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin())
            .collect();
        let periods = top_k_periods(&x, 3);
        assert_eq!(periods[0], 24, "periods: {periods:?}");
    }

    #[test]
    fn autocorrelation_matrix_shape_and_rows() {
        // Two variables: one period-8 sine, one noiseless ramp.
        let len = 64;
        let mut data = Vec::with_capacity(len * 2);
        for i in 0..len {
            data.push((2.0 * std::f32::consts::PI * i as f32 / 8.0).sin());
            data.push(i as f32);
        }
        let x = Tensor::from_vec(data, &[len, 2]);
        let m = autocorrelation_matrix(&x);
        assert_eq!(m.shape(), &[2, len]);
        // Row 0 (sine): strong correlation at lag 8.
        assert!(m.at(&[0, 8]) > 0.8 * m.at(&[0, 0]));
    }

    #[test]
    fn empty_series() {
        assert!(autocorrelation(&[]).is_empty());
    }
}
