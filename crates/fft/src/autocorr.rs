//! Circular autocorrelation via FFT (paper Eq. 1) and period detection.

use crate::transform::{dft, Lanes};
use lttf_tensor::Tensor;

/// Series run side by side by [`autocorrelations`].
const LANES: usize = 4;

/// Circular autocorrelations of `L` series of length `buf.len()` at once:
/// `value(l, t)` is element `t` of series `l`, and `out(l, τ, r)` receives
/// its `r[τ]`. `buf` and `work` are scratch.
fn autocorrelate<const L: usize>(
    value: impl Fn(usize, usize) -> f32,
    buf: &mut [Lanes<L>],
    work: &mut Vec<Lanes<L>>,
    mut out: impl FnMut(usize, usize, f32),
) {
    let n = buf.len();
    let means: [f32; L] =
        std::array::from_fn(|l| (0..n).map(|t| value(l, t)).sum::<f32>() / n as f32);
    for (t, slot) in buf.iter_mut().enumerate() {
        *slot = Lanes::from_re(std::array::from_fn(|l| (value(l, t) - means[l]) as f64));
    }
    dft(buf, -1.0, work);
    for c in buf.iter_mut() {
        *c = c.power();
    }
    dft(buf, 1.0, work);
    let scale = 1.0 / n as f64;
    for (lag, c) in buf.iter().enumerate() {
        let c = c.scale(scale);
        for (l, &re) in c.re.iter().enumerate() {
            out(l, lag, (re / n as f64) as f32);
        }
    }
}

/// Circular autocorrelation of a real series:
/// `r[τ] = iFFT(FFT(x) · conj(FFT(x)))[τ] / n` — the Wiener–Khinchin route
/// the paper takes in Eq. (1).
///
/// The series is mean-centered first so that a constant offset does not
/// swamp the lag structure. Output has the same length as the input;
/// `r[0]` is the (biased) variance times `n / n = ` variance.
pub fn autocorrelation(x: &[f32]) -> Vec<f32> {
    let mut r = vec![0.0f32; x.len()];
    let mut buf = vec![Lanes::<1>::ZERO; x.len()];
    autocorrelate(
        |_, t| x[t],
        &mut buf,
        &mut Vec::new(),
        |_, lag, v| r[lag] = v,
    );
    r
}

/// The [`autocorrelation`] of every variable of every window: `x` holds
/// `[windows, len, d]` values, and row `w·d + v` of the `[windows·d, len]`
/// result is variable `v` of window `w`.
///
/// The series run four at a time through one transform, each with the
/// bits [`autocorrelation`] gives it alone; a last group short of four is
/// padded with zero series.
///
/// # Panics
/// Panics unless `x.len()` is a multiple of `len · d`.
pub fn autocorrelations(x: &[f32], len: usize, d: usize) -> Vec<f32> {
    let per_window = len * d;
    let count = match per_window {
        0 => 0,
        _ => {
            assert!(
                x.len().is_multiple_of(per_window),
                "autocorrelations: {} values are not whole [{len}, {d}] windows",
                x.len()
            );
            x.len() / per_window * d
        }
    };
    let span = lttf_obs::span!("autocorr");
    span.bytes((x.len() + count * len) * 4);
    let mut r = vec![0.0f32; count * len];
    let mut buf = vec![Lanes::<LANES>::ZERO; len];
    let mut work = Vec::new();
    for first in (0..count).step_by(LANES) {
        // Series `s` is variable `s mod d` of window `s / d`, its element
        // `t` at `start + t·d`; past the last series, zeros.
        let start: [Option<usize>; LANES] = std::array::from_fn(|l| {
            let s = first + l;
            (s < count).then(|| s / d * per_window + s % d)
        });
        let value = |l: usize, t: usize| start[l].map_or(0.0, |at| x[at + t * d]);
        autocorrelate(value, &mut buf, &mut work, |l, lag, v| {
            if start[l].is_some() {
                r[(first + l) * len + lag] = v;
            }
        });
    }
    r
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
    Tensor::from_vec(autocorrelations(x.data(), len, dims), &[dims, len])
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
