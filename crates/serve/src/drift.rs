//! Streaming input-distribution drift detection for the serving tier.
//!
//! Long-horizon forecast quality degrades exactly when the serving-time
//! input distribution drifts away from training (the source paper's
//! distribution pillar). A [`DriftMonitor`] watches every incoming
//! request window: per-feature streaming sketches (Welford mean/var +
//! P² quantiles, O(1) memory) accumulate over rotating time windows and
//! are compared against the [`ReferenceProfile`] fitted on the training
//! split and stored in the checkpoint's v2 sidecar meta. The per-feature
//! divergence score is a normalized z-style statistic:
//!
//! ```text
//! score_f = max(|μ_w − μ_r|, |σ_w − σ_r|, |q50_w − q50_r|) / max(σ_r, ε)
//! ```
//!
//! i.e. "how many training standard deviations has the feature's mean,
//! spread, or median moved". A score above [`DriftConfig::threshold`]
//! on any input feature raises `lttf_drift_alert` — the trigger the
//! planned test-time-adaptation loop (ROADMAP item 3) consumes.
//! Predictions are sketched too (`prediction_score`), but as an
//! advisory gauge only: an alert fires on *inputs*, which are
//! attributable to traffic rather than to the model.
//!
//! Checkpoints without a stored profile get a monitor that reports
//! `available = false` and never alerts — old checkpoints keep serving.

use std::sync::Mutex;
use std::time::Instant;

use lttf_obs::sketch::{FeatureSketch, ReferenceProfile};

/// Drift-evaluation knobs.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Rotating evaluation window in milliseconds: scores describe the
    /// last `window_ms` of traffic, not the process lifetime.
    pub window_ms: u64,
    /// Per-feature score (training std units) at or above which the
    /// alert fires.
    pub threshold: f64,
    /// Minimum time steps in a window before it is scored (tiny windows
    /// have too much sampling noise to act on).
    pub min_count: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window_ms: 10_000,
            threshold: 1.0,
            min_count: 64,
        }
    }
}

/// Per-feature divergence plus the overall verdict, as of one instant.
#[derive(Clone, Debug)]
pub(crate) struct DriftStatus {
    /// False when the checkpoint carried no reference profile; every
    /// other field is zero/false and the alert can never fire.
    pub(crate) available: bool,
    /// Per-input-feature divergence scores in training std units
    /// (empty until a window reaches `min_count`).
    pub(crate) scores: Vec<f64>,
    /// Advisory divergence of the model's own predictions vs. the
    /// reference target-column stats (not part of the alert).
    pub(crate) prediction_score: f64,
    /// True when any input-feature score is at or above the threshold.
    pub(crate) alert: bool,
    /// Time steps in the window the scores were computed over.
    pub(crate) window_count: u64,
    /// The configured alert threshold, echoed for dashboards.
    pub(crate) threshold: f64,
}

impl DriftStatus {
    fn unavailable(threshold: f64) -> DriftStatus {
        DriftStatus {
            available: false,
            scores: Vec::new(),
            prediction_score: 0.0,
            alert: false,
            window_count: 0,
            threshold,
        }
    }
}

/// Scores computed from one completed (or sufficiently full) window.
#[derive(Clone)]
struct Scored {
    period: u64,
    scores: Vec<f64>,
    prediction_score: f64,
    count: u64,
}

struct Inner {
    /// Period id the live sketches belong to.
    period: u64,
    /// One sketch per input feature, over the current period.
    features: Vec<FeatureSketch>,
    /// Sketch of prediction values over the current period.
    predictions: FeatureSketch,
    /// Last period that reached `min_count` and was scored.
    completed: Option<Scored>,
}

/// Streaming drift monitor for one model (shared by its replicas).
pub struct DriftMonitor {
    profile: Option<ReferenceProfile>,
    target_col: usize,
    cfg: DriftConfig,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl DriftMonitor {
    /// Monitor against `profile` (None → permanently unavailable);
    /// `target_col` selects the reference feature predictions are
    /// compared to.
    pub fn new(profile: Option<ReferenceProfile>, target_col: usize, cfg: DriftConfig) -> DriftMonitor {
        let n = profile.as_ref().map_or(0, |p| p.features.len());
        DriftMonitor {
            profile,
            target_col,
            cfg,
            epoch: Instant::now(),
            inner: Mutex::new(Inner {
                period: 0,
                features: vec![FeatureSketch::new(); n],
                predictions: FeatureSketch::new(),
                completed: None,
            }),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Fold an incoming request's raw (unscaled) values into the current
    /// sketch window. `values` is row-major `[time, features]` as
    /// submitted on the wire. No-op without a profile — the profile-less
    /// path costs one branch.
    pub fn observe_input(&self, values: &[f32]) {
        let Some(profile) = &self.profile else { return };
        let n = profile.features.len();
        if n == 0 || values.len() % n != 0 {
            return; // shape mismatch; rejected elsewhere as a bad request
        }
        let t = self.now_ms();
        let mut inner = self.lock_rolled(t);
        for (i, &v) in values.iter().enumerate() {
            inner.features[i % n].record(v as f64);
        }
    }

    /// Fold one forecast's raw-unit output values into the prediction
    /// sketch. No-op without a profile.
    pub fn observe_prediction(&self, values: &[f32]) {
        if self.profile.is_none() {
            return;
        }
        let t = self.now_ms();
        let mut inner = self.lock_rolled(t);
        for &v in values {
            inner.predictions.record(v as f64);
        }
    }

    /// Current drift verdict. Scores the live window once it holds
    /// `min_count` time steps; before that, falls back to the most
    /// recently completed window if it is at most one period old
    /// (older completions describe traffic that stopped — stale, so
    /// dropped). Test hook: [`DriftMonitor::status_at`].
    pub(crate) fn status(&self) -> DriftStatus {
        self.status_at(self.now_ms())
    }

    /// [`DriftMonitor::status`] at an explicit milliseconds-since-start
    /// time, for deterministic window-rotation tests.
    pub(crate) fn status_at(&self, t_ms: u64) -> DriftStatus {
        let Some(profile) = &self.profile else {
            return DriftStatus::unavailable(self.cfg.threshold);
        };
        let period = t_ms / self.cfg.window_ms;
        let mut inner = self.lock_rolled(t_ms);
        let live_count = inner.features.first().map_or(0, |s| s.count());
        let scored = if live_count >= self.cfg.min_count {
            let s = score(profile, &inner.features, &inner.predictions, self.target_col, period);
            inner.completed = Some(s.clone());
            Some(s)
        } else {
            inner
                .completed
                .clone()
                .filter(|c| period.saturating_sub(c.period) <= 1)
        };
        match scored {
            None => DriftStatus {
                available: true,
                scores: Vec::new(),
                prediction_score: 0.0,
                alert: false,
                window_count: live_count,
                threshold: self.cfg.threshold,
            },
            Some(s) => DriftStatus {
                available: true,
                alert: s.scores.iter().any(|&v| v >= self.cfg.threshold),
                scores: s.scores,
                prediction_score: s.prediction_score,
                window_count: s.count,
                threshold: self.cfg.threshold,
            },
        }
    }

    /// Lock the sketches, rolling the window first: when the period
    /// advanced, the outgoing window is scored (if full enough) into
    /// `completed` and fresh sketches start the new period.
    fn lock_rolled(&self, t_ms: u64) -> std::sync::MutexGuard<'_, Inner> {
        let period = t_ms / self.cfg.window_ms;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if period != inner.period {
            if let Some(profile) = &self.profile {
                let count = inner.features.first().map_or(0, |s| s.count());
                if count >= self.cfg.min_count {
                    let s = score(
                        profile,
                        &inner.features,
                        &inner.predictions,
                        self.target_col,
                        inner.period,
                    );
                    inner.completed = Some(s);
                }
            }
            let n = inner.features.len();
            inner.features = vec![FeatureSketch::new(); n];
            inner.predictions = FeatureSketch::new();
            inner.period = period;
        }
        inner
    }
}

/// Normalized divergence of one window's sketches vs. the reference.
fn score(
    profile: &ReferenceProfile,
    features: &[FeatureSketch],
    predictions: &FeatureSketch,
    target_col: usize,
    period: u64,
) -> Scored {
    let one = |sketch: &FeatureSketch, reference: &lttf_obs::sketch::FeatureStats| {
        let w = sketch.stats();
        let denom = reference.std.max(1e-9);
        let mean_shift = (w.mean - reference.mean).abs();
        let std_shift = (w.std - reference.std).abs();
        let median_shift = (w.q50 - reference.q50).abs();
        mean_shift.max(std_shift).max(median_shift) / denom
    };
    let scores: Vec<f64> = features
        .iter()
        .zip(&profile.features)
        .map(|(s, r)| one(s, r))
        .collect();
    let prediction_score = profile
        .features
        .get(target_col)
        .filter(|_| predictions.count() > 0)
        .map_or(0.0, |r| one(predictions, r));
    Scored {
        period,
        scores,
        prediction_score,
        count: features.first().map_or(0, |s| s.count()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_obs::sketch::FeatureStats;

    fn profile2() -> ReferenceProfile {
        ReferenceProfile {
            features: vec![
                FeatureStats { mean: 0.0, std: 1.0, q10: -1.28, q50: 0.0, q90: 1.28 },
                FeatureStats { mean: 5.0, std: 2.0, q10: 2.44, q50: 5.0, q90: 7.56 },
            ],
            count: 1000,
        }
    }

    #[test]
    fn no_profile_is_unavailable_and_silent() {
        let m = DriftMonitor::new(None, 0, DriftConfig::default());
        m.observe_input(&[1.0; 8]);
        m.observe_prediction(&[1.0; 8]);
        let s = m.status();
        assert!(!s.available && !s.alert);
        assert!(s.scores.is_empty());
    }

    #[test]
    fn in_distribution_traffic_stays_quiet() {
        let cfg = DriftConfig { min_count: 8, ..DriftConfig::default() };
        let m = DriftMonitor::new(Some(profile2()), 1, cfg);
        // Rows near the reference: a −σ/0/0/+σ cycle keeps each window's
        // mean and median on the reference exactly and its std within
        // ~0.3 reference stds.
        for i in 0..16 {
            let step = [-1.0f32, 0.0, 0.0, 1.0][i % 4];
            m.observe_input(&[step, 5.0 + 2.0 * step]);
        }
        let s = m.status();
        assert!(s.available);
        assert_eq!(s.scores.len(), 2);
        assert!(!s.alert, "scores {:?}", s.scores);
        assert!(s.scores.iter().all(|&v| v < 0.5), "{:?}", s.scores);
    }

    #[test]
    fn shifted_traffic_alerts_on_the_shifted_feature() {
        let cfg = DriftConfig { min_count: 8, ..DriftConfig::default() };
        let m = DriftMonitor::new(Some(profile2()), 1, cfg);
        // Feature 0 in distribution; feature 1 shifted by +5 std.
        for i in 0..16 {
            let step = [-1.0f32, 0.0, 0.0, 1.0][i % 4];
            m.observe_input(&[step, 15.0 + 2.0 * step]);
        }
        let s = m.status();
        assert!(s.alert);
        assert!(s.scores[0] < 0.5, "{:?}", s.scores);
        assert!(s.scores[1] > 3.0, "{:?}", s.scores);
        // Prediction score is advisory: matching predictions stay low.
        for _ in 0..16 {
            m.observe_prediction(&[5.0, 7.0, 3.0, 5.0]);
        }
        let s = m.status();
        assert!(s.prediction_score < 1.0, "{}", s.prediction_score);
    }

    #[test]
    fn below_min_count_reports_no_scores() {
        let cfg = DriftConfig { min_count: 64, ..DriftConfig::default() };
        let m = DriftMonitor::new(Some(profile2()), 0, cfg);
        for _ in 0..4 {
            m.observe_input(&[99.0, 99.0]); // wildly off
        }
        let s = m.status();
        assert!(s.available && !s.alert);
        assert!(s.scores.is_empty(), "4 < min_count must not score");
        assert_eq!(s.window_count, 4);
    }

    #[test]
    fn window_rotation_completes_and_expires() {
        let cfg = DriftConfig { window_ms: 100, threshold: 1.0, min_count: 4 };
        let m = DriftMonitor::new(Some(profile2()), 0, cfg);
        for _ in 0..8 {
            m.observe_input(&[40.0, 5.0]);
        }
        // Move to the next period: the shifted window was completed and
        // is still fresh, so the alert persists even though the live
        // sketch is empty.
        let s = m.status_at(150);
        assert!(s.alert, "completed window carries over one period");
        // Two periods with no traffic: the completion is stale.
        let s = m.status_at(350);
        assert!(!s.alert);
        assert!(s.scores.is_empty());
    }
}
