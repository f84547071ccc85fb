//! Forecast-residual anomaly detection — one of the downstream tasks the
//! paper's introduction motivates. A trained forecaster predicts each
//! window; points whose residual exceeds `k` robust standard deviations
//! of the residual distribution are flagged.

use crate::model::TrainedModel;
use lttf_data::WindowDataset;

/// An anomaly flagged by the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Anomaly {
    /// Window index within the evaluated split.
    pub window: usize,
    /// Horizon step inside the window.
    pub step: usize,
    /// Variable index.
    pub variable: usize,
    /// Residual in scaled space.
    pub residual: f32,
    /// Residual magnitude in robust standard deviations.
    pub score: f32,
}

/// Detection report: the flagged points out of all examined.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// Flagged anomalies, strongest first.
    pub anomalies: Vec<Anomaly>,
    /// Total points examined.
    pub points: usize,
}

/// Run residual-based detection over every window of `set`.
///
/// The residual scale is estimated robustly (median absolute deviation),
/// so the anomalies themselves do not inflate the threshold. `threshold`
/// is in robust standard deviations (3–5 is typical).
///
/// # Panics
/// Panics if `set` is empty or `threshold` is not positive.
pub fn detect_anomalies(
    model: &TrainedModel,
    set: &WindowDataset,
    batch_size: usize,
    threshold: f32,
) -> AnomalyReport {
    assert!(!set.is_empty(), "empty window set");
    assert!(threshold > 0.0, "threshold must be positive");
    // First pass: collect all residuals.
    let mut residuals: Vec<(usize, usize, usize, f32)> = Vec::new();
    for idx in set.sequential_batches(batch_size.max(1)) {
        let batch = set.batch(&idx);
        let pred = model.predict_batch(&batch);
        let (b, ly, d) = (pred.shape()[0], pred.shape()[1], pred.shape()[2]);
        for (bi, &window) in idx.iter().enumerate().take(b) {
            for t in 0..ly {
                for di in 0..d {
                    let r = batch.y.at(&[bi, t, di]) - pred.at(&[bi, t, di]);
                    residuals.push((window, t, di, r));
                }
            }
        }
    }
    // Robust location/scale: median and MAD.
    let mut values: Vec<f32> = residuals.iter().map(|r| r.3).collect();
    let median = percentile(&mut values, 0.5);
    let mut deviations: Vec<f32> = residuals.iter().map(|r| (r.3 - median).abs()).collect();
    let mad = percentile(&mut deviations, 0.5);
    let scale = (1.4826 * mad).max(1e-6);
    // Second pass: flag.
    let mut anomalies: Vec<Anomaly> = residuals
        .iter()
        .filter_map(|&(window, step, variable, residual)| {
            let score = (residual - median).abs() / scale;
            (score > threshold).then_some(Anomaly {
                window,
                step,
                variable,
                residual,
                score,
            })
        })
        .collect();
    anomalies.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    AnomalyReport {
        anomalies,
        points: residuals.len(),
    }
}

/// In-place percentile (linear selection is unnecessary at these sizes).
fn percentile(values: &mut [f32], q: f32) -> f32 {
    assert!(!values.is_empty(), "percentile of empty slice");
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((values.len() - 1) as f32 * q).round() as usize;
    values[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::trainer::{train, TrainOptions};
    use lttf_data::synth::{Dataset, SynthSpec};
    use lttf_data::{Split, TimeSeries, WindowDataset};

    fn trained_on(series: &TimeSeries) -> (TrainedModel, WindowDataset) {
        let mk = |split| WindowDataset::new(series, split, (0.7, 0.1), 24, 8, 12);
        let (train_set, val, test) = (mk(Split::Train), mk(Split::Val), mk(Split::Test));
        let mut model = TrainedModel::build(ModelKind::Gru, series.dims(), 24, 8, 8, 2, 1);
        train(
            &mut model,
            &train_set,
            Some(&val),
            &TrainOptions {
                epochs: 2,
                batch_size: 8,
                lr: 2e-3,
                patience: 0,
                lr_decay: 1.0,
                max_batches: 15,
                clip: 5.0,
                seed: 1,
                val_max_windows: 32,
                ..Default::default()
            },
        );
        (model, test)
    }

    #[test]
    fn clean_series_yields_few_anomalies() {
        let series = Dataset::Ettm1.generate(SynthSpec {
            len: 600,
            dims: Some(2),
            seed: 11,
        });
        let (model, test) = trained_on(&series);
        let report = detect_anomalies(&model, &test, 16, 5.0);
        let rate = report.anomalies.len() as f32 / report.points as f32;
        assert!(rate < 0.02, "false-positive rate {rate}");
    }

    #[test]
    fn injected_spike_is_flagged_and_ranked_first() {
        let mut series = Dataset::Ettm1.generate(SynthSpec {
            len: 600,
            dims: Some(2),
            seed: 12,
        });
        // Inject a large spike into the test region of variable 0.
        let spike_row = 560;
        let old = series.values.at(&[spike_row, 0]);
        series.values.set(&[spike_row, 0], old + 60.0);
        let (model, test) = trained_on(&series);
        let report = detect_anomalies(&model, &test, 16, 4.0);
        assert!(!report.anomalies.is_empty(), "spike missed");
        let top = report.anomalies[0];
        assert_eq!(top.variable, 0, "wrong variable flagged first: {top:?}");
        assert!(top.score > 4.0);
    }

    #[test]
    fn threshold_monotonicity() {
        let series = Dataset::Wind.generate(SynthSpec {
            len: 600,
            dims: Some(2),
            seed: 13,
        });
        let (model, test) = trained_on(&series);
        let loose = detect_anomalies(&model, &test, 16, 2.0);
        let strict = detect_anomalies(&model, &test, 16, 6.0);
        assert!(loose.anomalies.len() >= strict.anomalies.len());
    }

    #[test]
    fn percentile_median() {
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut v, 0.5), 2.0);
        let mut v = vec![5.0];
        assert_eq!(percentile(&mut v, 0.5), 5.0);
    }
}
