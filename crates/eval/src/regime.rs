//! Regime-shift evaluation harness for streaming/adaptive serving.
//!
//! Long-lived forecast streams drift: the generating process changes
//! level, and a model frozen at train time keeps predicting the old
//! regime. This module provides a deterministic synthetic generator with
//! a single, abrupt level shift at a known row — the cleanest possible
//! probe for test-time adaptation, because everything after the shift is
//! out of distribution by a controlled number of training-set standard
//! deviations — plus a small accumulator for scoring streamed forecasts
//! against the known future.
//!
//! The serving benchmark (`lttf bench-serve --mode stream`) trains a
//! model on the pre-shift half, streams the full series through frozen
//! and adapting servers, and compares post-shift MSE; EXPERIMENTS.md
//! records the methodology and results.

use lttf_tensor::{Rng, Tensor};

/// Generator knobs for a multivariate series with one level shift.
#[derive(Clone, Copy, Debug)]
pub struct RegimeSpec {
    /// Total rows.
    pub len: usize,
    /// Variables (each gets its own phase/amplitude).
    pub dims: usize,
    /// Row at which the new regime begins.
    pub shift_at: usize,
    /// Level jump added to every variable from `shift_at` on, in units
    /// of the series' noise-free amplitude (~1); a shift of 5.0 lands
    /// roughly 5σ outside the pre-shift distribution.
    pub shift: f32,
    /// RNG seed for phases and noise.
    pub seed: u64,
}

impl Default for RegimeSpec {
    fn default() -> Self {
        RegimeSpec {
            len: 1_000,
            dims: 2,
            shift_at: 500,
            shift: 5.0,
            seed: 0,
        }
    }
}

/// Generate the series: per-dimension two-harmonic sinusoids with mild
/// Gaussian noise, plus the level shift. Deterministic in the spec.
///
/// # Panics
/// Panics on a degenerate spec (`len == 0`, `dims == 0`, or a shift row
/// outside the series).
pub fn generate(spec: &RegimeSpec) -> Tensor {
    assert!(spec.len > 0 && spec.dims > 0, "degenerate regime spec");
    assert!(spec.shift_at < spec.len, "shift_at out of range");
    let mut rng = Rng::seed(spec.seed);
    // Per-dimension phase and period offsets so variables are related
    // but not identical.
    let phases: Vec<f32> = (0..spec.dims).map(|_| rng.uniform(0.0, 6.0)).collect();
    let mut data = Vec::with_capacity(spec.len * spec.dims);
    for t in 0..spec.len {
        let x = t as f32;
        for (d, &phase) in phases.iter().enumerate() {
            let base = (x / 24.0 + phase).sin() + 0.5 * (x / 96.0 + 0.3 * d as f32).sin();
            let noise = 0.1 * rng.normal();
            let level = if t >= spec.shift_at { spec.shift } else { 0.0 };
            data.push(base + noise + level);
        }
    }
    Tensor::from_vec(data, &[spec.len, spec.dims])
}

/// The true future of one column: rows `start..start + ly` of `series`
/// at `col` — what a forecast made from the window ending at `start - 1`
/// should have predicted.
///
/// # Panics
/// Panics when the slice runs off the series or `col` is out of range.
pub fn horizon_truth(series: &Tensor, start: usize, ly: usize, col: usize) -> Vec<f32> {
    let shape = series.shape();
    assert_eq!(shape.len(), 2, "series must be [len, dims]");
    assert!(start + ly <= shape[0], "horizon runs off the series");
    assert!(col < shape[1], "column out of range");
    (0..ly).map(|t| series.at(&[start + t, col])).collect()
}

/// Streaming forecast scorer: feed each (prediction, truth) pair as it
/// happens, read MSE/MAE at the end. Splitting accumulation from
/// reporting lets the stream driver score pre- and post-shift windows
/// separately.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErrorAccum {
    se: f64,
    ae: f64,
    n: u64,
}

impl ErrorAccum {
    /// An empty accumulator.
    pub fn new() -> ErrorAccum {
        ErrorAccum::default()
    }

    /// Score one forecast against the realized future.
    ///
    /// # Panics
    /// Panics on length mismatch — a scoring bug, not a data condition.
    pub fn observe(&mut self, pred: &[f32], truth: &[f32]) {
        assert_eq!(pred.len(), truth.len(), "pred/truth length mismatch");
        for (p, t) in pred.iter().zip(truth) {
            let e = (*p - *t) as f64;
            self.se += e * e;
            self.ae += e.abs();
            self.n += 1;
        }
    }

    /// Mean squared error over everything observed (NaN when empty).
    pub fn mse(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.se / self.n as f64
        }
    }

    /// Mean absolute error over everything observed (NaN when empty).
    pub fn mae(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.ae / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_moves_the_level_and_is_deterministic() {
        let spec = RegimeSpec {
            len: 400,
            dims: 2,
            shift_at: 200,
            shift: 5.0,
            seed: 3,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.data(), b.data(), "same spec must generate same bits");
        assert_eq!(a.shape(), &[400, 2]);
        let mean = |t: &Tensor, lo: usize, hi: usize| -> f32 {
            let mut s = 0.0;
            for r in lo..hi {
                s += t.at(&[r, 0]);
            }
            s / (hi - lo) as f32
        };
        let pre = mean(&a, 0, 200);
        let post = mean(&a, 200, 400);
        assert!(
            (post - pre) > 4.0,
            "shift of 5.0 must move the mean: pre {pre} post {post}"
        );
    }

    #[test]
    fn horizon_truth_slices_the_named_column() {
        let series = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        // Rows are [0,1,2], [3,4,5], [6,7,8], [9,10,11].
        assert_eq!(horizon_truth(&series, 1, 2, 2), vec![5.0, 8.0]);
    }

    #[test]
    fn error_accum_matches_hand_mse() {
        let mut acc = ErrorAccum::new();
        assert!(acc.mse().is_nan());
        acc.observe(&[1.0, 2.0], &[0.0, 4.0]);
        // errors 1 and -2: mse (1+4)/2, mae (1+2)/2
        assert!((acc.mse() - 2.5).abs() < 1e-12);
        assert!((acc.mae() - 1.5).abs() < 1e-12);
    }
}
