//! Checkpoint loading and the named-model registry.
//!
//! A served model is three things round-tripped from disk: the parameter
//! checkpoint (`<base>.params`, with the train-split scaler statistics in
//! its metadata section), the sidecar config (`<base>.config`), and the
//! [`StandardScaler`] rebuilt from that metadata so the server can accept
//! **raw** input windows and answer in raw units — clients never see
//! scaled space.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use lttf_conformer::ConformerConfig;
use lttf_data::{time_features, Batch, StandardScaler, MARK_DIM};
use lttf_eval::{Forecaster, TrainedModel};
use lttf_nn::{load_params_with_meta, save_params_with_meta};
use lttf_obs::sketch::ReferenceProfile;
use lttf_tensor::Tensor;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Checkpoint metadata entries carrying the scaler statistics and target
/// variable, as written by `lttf train`. Floats use shortest round-trip
/// formatting, so the rebuilt scaler is bit-identical to the fitted one.
pub fn scaler_meta(
    scaler: &StandardScaler,
    target: &str,
    target_col: usize,
) -> Vec<(String, String)> {
    let join = |v: &[f32]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    vec![
        ("scaler.mean".to_string(), join(scaler.mean())),
        ("scaler.std".to_string(), join(scaler.std())),
        ("target".to_string(), target.to_string()),
        ("target_col".to_string(), target_col.to_string()),
    ]
}

fn parse_floats(s: &str, what: &str) -> io::Result<Vec<f32>> {
    s.split(',')
        .map(|v| {
            v.parse::<f32>()
                .map_err(|_| bad(format!("bad float '{v}' in checkpoint meta '{what}'")))
        })
        .collect()
}

/// Rebuild the scaler from checkpoint metadata written via [`scaler_meta`].
pub fn scaler_from_meta(meta: &[(String, String)]) -> io::Result<StandardScaler> {
    let get = |k: &str| {
        meta.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| bad(format!("checkpoint metadata missing '{k}'")))
    };
    let mean = parse_floats(get("scaler.mean")?, "scaler.mean")?;
    let std = parse_floats(get("scaler.std")?, "scaler.std")?;
    if mean.is_empty() || mean.len() != std.len() {
        return Err(bad("checkpoint scaler metadata is inconsistent"));
    }
    if std.iter().any(|&s| !(s > 0.0 && s.is_finite())) {
        return Err(bad("checkpoint scaler std entries must be positive"));
    }
    Ok(StandardScaler::from_parts(mean, std))
}

/// A prepared (scaled, mark-augmented) input window for one request —
/// the unit the batcher stacks into a forward pass.
pub struct Window {
    x: Tensor,
    xm: Tensor,
    dec: Tensor,
    dm: Tensor,
}

impl std::fmt::Debug for Window {
    /// Shapes only — a window's payload is thousands of floats.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("x", &self.x.shape())
            .field("xm", &self.xm.shape())
            .field("dec", &self.dec.shape())
            .field("dm", &self.dm.shape())
            .finish()
    }
}

/// A checkpointed model plus everything needed to serve raw inputs:
/// config, scaler, and target variable.
pub struct LoadedModel {
    model: TrainedModel,
    cfg: ConformerConfig,
    scaler: StandardScaler,
    target: String,
    target_col: usize,
    /// Training-time input distribution profile for drift detection
    /// (`drift.*` checkpoint meta). `None` for checkpoints written before
    /// the profile existed — the server then serves with drift reporting
    /// marked unavailable.
    profile: Option<ReferenceProfile>,
    /// Load-harness calibration knob: when set, a batch forward takes at
    /// least this long (the batcher sleeps out the remainder). Never set
    /// on the production path; see [`LoadedModel::set_service_floor_ms`].
    service_floor: Option<std::time::Duration>,
}

impl LoadedModel {
    /// Load `<base>.params` + `<base>.config`. The checkpoint must carry
    /// scaler metadata (i.e. have been written by `lttf train` or
    /// [`scaler_meta`]).
    pub fn load(base: &str) -> io::Result<LoadedModel> {
        let (cfg, target) = ConformerConfig::load_sidecar(&format!("{base}.config"))?;
        let mut model = TrainedModel::from_conformer(&cfg, 0);
        let meta = load_params_with_meta(model.params_mut(), format!("{base}.params"))?;
        let scaler = scaler_from_meta(&meta)?;
        if scaler.dims() != cfg.c_in {
            return Err(bad(format!(
                "scaler has {} columns but the model expects {}",
                scaler.dims(),
                cfg.c_in
            )));
        }
        let target_col = meta
            .iter()
            .find(|(k, _)| k == "target_col")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        if target_col >= cfg.c_in {
            return Err(bad(format!(
                "target_col {target_col} out of range for {} variables",
                cfg.c_in
            )));
        }
        // Absent drift meta is fine (pre-profile checkpoint); present
        // but malformed meta is corruption and refuses to load.
        let profile = ReferenceProfile::from_meta(&meta).map_err(bad)?;
        if let Some(p) = &profile {
            if p.features.len() != cfg.c_in {
                return Err(bad(format!(
                    "drift profile has {} features but the model expects {}",
                    p.features.len(),
                    cfg.c_in
                )));
            }
        }
        Ok(LoadedModel {
            model,
            cfg,
            scaler,
            target,
            target_col,
            profile,
            service_floor: None,
        })
    }

    /// Write `<base>.params` + `<base>.config` — a checkpoint
    /// [`LoadedModel::load`] (and the server's `reload` command) accepts.
    /// The scaler metadata round-trips bit-for-bit.
    pub fn save(&self, base: &str) -> io::Result<()> {
        self.cfg.save_sidecar(&self.target, &format!("{base}.config"))?;
        let mut meta = scaler_meta(&self.scaler, &self.target, self.target_col);
        if let Some(p) = &self.profile {
            meta.extend(p.to_meta());
        }
        save_params_with_meta(self.model.params(), &meta, format!("{base}.params"))
    }

    /// Wrap an in-memory model (tests and benches skip the filesystem).
    pub fn from_parts(
        model: TrainedModel,
        cfg: ConformerConfig,
        scaler: StandardScaler,
        target: String,
        target_col: usize,
    ) -> LoadedModel {
        assert_eq!(scaler.dims(), cfg.c_in, "scaler/model dims mismatch");
        assert!(target_col < cfg.c_in, "target_col out of range");
        LoadedModel {
            model,
            cfg,
            scaler,
            target,
            target_col,
            profile: None,
            service_floor: None,
        }
    }

    /// Attach a training-time reference profile (written into the
    /// checkpoint meta by [`LoadedModel::save`], consumed by the drift
    /// monitor).
    pub fn with_profile(mut self, profile: ReferenceProfile) -> LoadedModel {
        assert_eq!(
            profile.features.len(),
            self.cfg.c_in,
            "profile/model dims mismatch"
        );
        self.profile = Some(profile);
        self
    }

    /// The training-time distribution profile, when the checkpoint
    /// carried one.
    pub fn profile(&self) -> Option<&ReferenceProfile> {
        self.profile.as_ref()
    }

    /// Column index of the forecast target among the input variables.
    pub fn target_col(&self) -> usize {
        self.target_col
    }

    /// Set a minimum wall-clock duration per batch forward (0 clears it).
    ///
    /// This is a **load-harness calibration knob**, used by `lttf
    /// bench-serve` to stand in for a heavier model than the synthetic
    /// bench model — and, on small CI hosts, to isolate the serving
    /// tier's replica scaling from model compute (a sleeping replica
    /// yields its core; a computing one cannot). It is never set by
    /// `lttf serve` or any production path.
    pub fn set_service_floor_ms(&mut self, ms: f64) {
        self.service_floor = (ms > 0.0).then(|| std::time::Duration::from_secs_f64(ms / 1e3));
    }

    /// The model's hyper-parameters.
    pub fn cfg(&self) -> &ConformerConfig {
        &self.cfg
    }

    /// The forecast variable's column name.
    pub fn target(&self) -> &str {
        &self.target
    }

    /// Expected `values` length per request: `lx * c_in`.
    pub fn window_len(&self) -> usize {
        self.cfg.lx * self.cfg.c_in
    }

    /// Validate and prepare one raw request window: scale it with the
    /// training scaler and assemble encoder/decoder inputs and calendar
    /// marks exactly as `lttf forecast` does for the end of a CSV.
    pub fn make_window(&self, values: &[f32], t0: i64, dt: i64) -> Result<Window, String> {
        let (lx, ly, label, c) = (self.cfg.lx, self.cfg.ly, self.cfg.label_len, self.cfg.c_in);
        if values.len() != lx * c {
            return Err(format!(
                "expected {} values (lx {lx} x c_in {c}), got {}",
                lx * c,
                values.len()
            ));
        }
        if dt <= 0 {
            return Err("dt must be positive".to_string());
        }
        let raw = Tensor::from_vec(values.to_vec(), &[lx, c]);
        let scaled = self.scaler.transform(&raw);
        let x = scaled.clone().reshape(&[1, lx, c]);
        let mut mark_rows = Vec::with_capacity(lx * MARK_DIM);
        for t in 0..lx {
            mark_rows.extend_from_slice(&time_features(t0 + dt * t as i64));
        }
        let xm = Tensor::from_vec(mark_rows, &[1, lx, MARK_DIM]);
        // decoder warm start: the last `label` scaled steps, then zeros
        let dec_known = scaled.narrow(0, lx - label, label);
        let dec = Tensor::concat(&[&dec_known, &Tensor::zeros(&[ly, c])], 0)
            .reshape(&[1, label + ly, c]);
        let mut dm_rows = Vec::with_capacity((label + ly) * MARK_DIM);
        for t in lx - label..lx + ly {
            dm_rows.extend_from_slice(&time_features(t0 + dt * t as i64));
        }
        let dm = Tensor::from_vec(dm_rows, &[1, label + ly, MARK_DIM]);
        Ok(Window { x, xm, dec, dm })
    }

    /// One no-grad forward over a stack of prepared windows, returning
    /// each request's raw-space target forecast (`ly` values per window).
    ///
    /// Every kernel on the forward path is row-independent, so the result
    /// for a window is bit-identical whether it is served alone or inside
    /// a batch — the e2e tests pin this down.
    pub fn forecast_rows(&self, windows: &[&Window]) -> Vec<Vec<f32>> {
        assert!(!windows.is_empty(), "empty forecast batch");
        let floor_from = self.service_floor.map(|floor| (std::time::Instant::now(), floor));
        let cat = |f: fn(&Window) -> &Tensor| {
            let parts: Vec<&Tensor> = windows.iter().map(|w| f(w)).collect();
            Tensor::concat(&parts, 0)
        };
        let b = windows.len();
        let (ly, c_out) = (self.cfg.ly, self.cfg.c_out);
        let batch = Batch {
            x: cat(|w| &w.x),
            x_mark: cat(|w| &w.xm),
            dec: cat(|w| &w.dec),
            dec_mark: cat(|w| &w.dm),
            y: Tensor::zeros(&[b, ly, c_out]),
        };
        let out = self.model.forecast(&batch);
        // Map the scaled prediction back to raw units of the target
        // variable. Multivariate models predict every column (c_out ==
        // c_in); univariate heads predict the target column alone.
        let col = if c_out == self.cfg.c_in { self.target_col } else { 0 };
        let (m, s) = (self.scaler.mean()[self.target_col], self.scaler.std()[self.target_col]);
        assert_eq!(out.shape(), &[b, ly, c_out], "forecast shape");
        let rows = out
            .data()
            .chunks_exact(ly * c_out)
            .map(|window| {
                window[col..]
                    .iter()
                    .step_by(c_out)
                    .map(|&v| v * s + m)
                    .collect()
            })
            .collect();
        if let Some((t0, floor)) = floor_from {
            if let Some(rest) = floor.checked_sub(t0.elapsed()) {
                std::thread::sleep(rest);
            }
        }
        rows
    }

    /// Convenience: prepare and forecast a single request.
    pub fn forecast_one(&self, values: &[f32], t0: i64, dt: i64) -> Result<Vec<f32>, String> {
        let w = self.make_window(values, t0, dt)?;
        Ok(self.forecast_rows(&[&w]).pop().unwrap())
    }

    /// Clone the current parameter values — the adapter's rollback unit.
    pub fn params_snapshot(&self) -> Vec<Tensor> {
        self.model.params().snapshot()
    }

    /// A private, trainable copy of the model carrying the exact current
    /// parameter values. Parameter registration order is deterministic
    /// for a given config, so rebuild-then-restore is a faithful clone —
    /// the same mechanism [`LoadedModel::load`] uses to revive a
    /// checkpoint. The live model is never handed out mutably; the
    /// adapter fine-tunes this copy and publishes it as a new entry.
    pub fn clone_trained(&self) -> TrainedModel {
        let mut copy = TrainedModel::from_conformer(&self.cfg, 0);
        copy.params_mut().restore(&self.model.params().snapshot());
        copy
    }

    /// Wrap a (fine-tuned) model with this entry's scaler, target,
    /// profile, and calibration floor — the publish half of the adapter's
    /// clone → tune → publish cycle.
    pub fn with_model(&self, model: TrainedModel) -> LoadedModel {
        LoadedModel {
            model,
            cfg: self.cfg.clone(),
            scaler: self.scaler.clone(),
            target: self.target.clone(),
            target_col: self.target_col,
            profile: self.profile.clone(),
            service_floor: self.service_floor,
        }
    }

    /// Build a supervised training example from `lx + ly` raw trailing
    /// rows of a stream: encoder window from the first `lx`, target from
    /// the last `ly`, everything scaled with the serving scaler and
    /// mark-augmented exactly like [`LoadedModel::make_window`]. This is
    /// what the adapter fine-tunes on.
    pub fn make_train_batch(&self, values: &[f32], t0: i64, dt: i64) -> Result<Batch, String> {
        let (lx, ly, label, c) = (self.cfg.lx, self.cfg.ly, self.cfg.label_len, self.cfg.c_in);
        let rows = lx + ly;
        if values.len() != rows * c {
            return Err(format!(
                "expected {} values ((lx {lx} + ly {ly}) x c_in {c}), got {}",
                rows * c,
                values.len()
            ));
        }
        if dt <= 0 {
            return Err("dt must be positive".to_string());
        }
        let raw = Tensor::from_vec(values.to_vec(), &[rows, c]);
        let scaled = self.scaler.transform(&raw);
        let x = scaled.narrow(0, 0, lx).reshape(&[1, lx, c]);
        let mut xm_rows = Vec::with_capacity(lx * MARK_DIM);
        for t in 0..lx {
            xm_rows.extend_from_slice(&time_features(t0 + dt * t as i64));
        }
        let x_mark = Tensor::from_vec(xm_rows, &[1, lx, MARK_DIM]);
        let dec_known = scaled.narrow(0, lx - label, label);
        let c_out = self.cfg.c_out;
        let dec = Tensor::concat(&[&dec_known, &Tensor::zeros(&[ly, c])], 0)
            .reshape(&[1, label + ly, c]);
        let mut dm_rows = Vec::with_capacity((label + ly) * MARK_DIM);
        for t in lx - label..lx + ly {
            dm_rows.extend_from_slice(&time_features(t0 + dt * t as i64));
        }
        let dec_mark = Tensor::from_vec(dm_rows, &[1, label + ly, MARK_DIM]);
        let future = scaled.narrow(0, lx, ly);
        // The label matches the head: every column for multivariate
        // models, the target column alone for univariate heads.
        let y = if c_out == c {
            future.reshape(&[1, ly, c])
        } else {
            let mut col = Vec::with_capacity(ly);
            for t in 0..ly {
                col.push(future.at(&[t, self.target_col]));
            }
            Tensor::from_vec(col, &[1, ly, 1])
        };
        Ok(Batch { x, x_mark, dec, dec_mark, y })
    }
}

/// Named checkpoints, shared across the server's threads.
pub struct Registry {
    models: HashMap<String, Arc<LoadedModel>>,
    default: String,
}

impl Registry {
    /// A registry holding one model under `name`, which is also the
    /// default for requests that name no model.
    pub fn single(name: &str, model: LoadedModel) -> Registry {
        let mut models = HashMap::new();
        models.insert(name.to_string(), Arc::new(model));
        Registry {
            models,
            default: name.to_string(),
        }
    }

    /// Add another named model.
    pub fn insert(&mut self, name: &str, model: LoadedModel) {
        self.models.insert(name.to_string(), Arc::new(model));
    }

    /// Look up by name, falling back to the default model for `None`.
    pub fn get(&self, name: Option<&str>) -> Option<&Arc<LoadedModel>> {
        self.models.get(name.unwrap_or(&self.default))
    }

    /// The default model's name.
    pub fn default_name(&self) -> &str {
        &self.default
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.models.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// A small in-memory model for unit tests across the crate.
#[cfg(test)]
pub(crate) fn tiny_model() -> LoadedModel {
    tiny_model_with_c_in(2)
}

/// [`tiny_model`] over `c_in` input variables (at least 2): its windows
/// do not fit a model with another `c_in`.
#[cfg(test)]
pub(crate) fn tiny_model_with_c_in(c_in: usize) -> LoadedModel {
    use lttf_tensor::Rng;
    let cfg = ConformerConfig::tiny(c_in, 8, 4);
    let model = TrainedModel::from_conformer(&cfg, 3);
    let fit_on = Tensor::randn(&[64, c_in], &mut Rng::seed(9))
        .mul_scalar(3.0)
        .add_scalar(5.0);
    let scaler = StandardScaler::fit(&fit_on);
    LoadedModel::from_parts(model, cfg, scaler, "OT".to_string(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_tensor::Rng;

    #[test]
    fn scaler_meta_round_trips_bit_for_bit() {
        let fit_on = Tensor::randn(&[50, 3], &mut Rng::seed(1)).mul_scalar(0.37);
        let sc = StandardScaler::fit(&fit_on);
        let back = scaler_from_meta(&scaler_meta(&sc, "OT", 2)).unwrap();
        assert_eq!(sc.mean(), back.mean());
        assert_eq!(sc.std(), back.std());
    }

    #[test]
    fn meta_errors_are_clear() {
        assert!(scaler_from_meta(&[]).unwrap_err().to_string().contains("scaler.mean"));
        let broken = vec![
            ("scaler.mean".to_string(), "1.0,abc".to_string()),
            ("scaler.std".to_string(), "1.0,1.0".to_string()),
        ];
        assert!(scaler_from_meta(&broken).unwrap_err().to_string().contains("abc"));
    }

    #[test]
    fn batched_forecast_matches_single_bit_for_bit() {
        let m = tiny_model();
        let mut rng = Rng::seed(4);
        let reqs: Vec<Vec<f32>> = (0..3)
            .map(|_| Tensor::randn(&[m.window_len()], &mut rng).data().to_vec())
            .collect();
        let windows: Vec<Window> = reqs
            .iter()
            .map(|v| m.make_window(v, 1_700_000_000, 3600).unwrap())
            .collect();
        let refs: Vec<&Window> = windows.iter().collect();
        let batched = m.forecast_rows(&refs);
        for (v, b) in reqs.iter().zip(&batched) {
            let single = m.forecast_one(v, 1_700_000_000, 3600).unwrap();
            assert_eq!(&single, b, "batched row diverges from single forward");
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let m = tiny_model();
        let err = m.forecast_one(&[0.0; 5], 0, 60).unwrap_err();
        assert!(err.contains("expected 16 values"), "{err}");
        assert!(m.forecast_one(&vec![0.0; 16], 0, 0).is_err());
    }

    #[test]
    fn profile_round_trips_through_checkpoint_and_absent_is_none() {
        use lttf_obs::sketch::FeatureStats;
        let dir = std::env::temp_dir().join("lttf_serve_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("m").to_str().unwrap().to_string();

        // Without a profile: save → load yields None (backward compat).
        let plain = tiny_model();
        plain.save(&base).unwrap();
        assert!(LoadedModel::load(&base).unwrap().profile().is_none());

        // With a profile: exact round trip.
        let profile = ReferenceProfile {
            features: vec![
                FeatureStats { mean: 1.0, std: 2.0, q10: -1.5, q50: 1.0, q90: 3.5 },
                FeatureStats { mean: 5.0, std: 3.0, q10: 1.2, q50: 5.0, q90: 8.8 },
            ],
            count: 64,
        };
        let m = tiny_model().with_profile(profile.clone());
        m.save(&base).unwrap();
        let back = LoadedModel::load(&base).unwrap();
        assert_eq!(back.profile(), Some(&profile));
        assert_eq!(back.target_col(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_lookup() {
        let reg = Registry::single("demo", tiny_model());
        assert!(reg.get(None).is_some());
        assert!(reg.get(Some("demo")).is_some());
        assert!(reg.get(Some("missing")).is_none());
        assert_eq!(reg.default_name(), "demo");
        assert_eq!(reg.names(), ["demo"]);
    }
}
