//! Seeded input generation: everything the program under test receives.
//!
//! [`Plan`] is pure data derived from `--seed` (a synthetic ETTh1 series,
//! window and session offsets, the training batch order) and carries a
//! digest so two runs can prove they fed the program the same inputs.
//! [`Prepared`] turns a plan into what the workloads send: the canonical
//! model saved as a checkpoint with its drift profile, request lines,
//! session streams, and the expected forecast of every window,
//! precomputed with `LoadedModel::forecast_one`.

use std::io;
use std::path::{Path, PathBuf};

use lttf::conformer::ConformerConfig;
use lttf::data::synth::{Dataset, SynthSpec};
use lttf::data::{StandardScaler, TimeSeries};
use lttf::eval::{fit_reference_profile, TrainedModel};
use lttf::obs::JsonObj;
use lttf::serve::LoadedModel;
use lttf::tensor::Rng;

/// Seed of the canonical model's parameters (the `lttf bench-serve` model).
pub const MODEL_SEED: u64 = 7;
/// Rows of the generated series; 70% of it is the training region.
pub const SERIES_LEN: usize = 2400;
/// Train / validation fractions of the series (test gets the rest).
pub const FRACTIONS: (f32, f32) = (0.7, 0.1);
/// Distinct one-shot request windows, cycled by every serving workload.
pub const WINDOW_POOL: usize = 256;
/// Concurrent streaming sessions in `tcp_mixed`.
pub const SESSIONS: usize = 16;
/// Rows pushed into a session before it is closed and reopened.
pub const SESSION_PUSHES: usize = 64;
/// Windows per training batch.
pub const TRAIN_BATCH: usize = 32;

/// Sub-seed tags: each generated stream draws from its own seed.
const TAG_SERIES: u64 = 1;
const TAG_WINDOWS: u64 = 2;
const TAG_STREAMS: u64 = 3;
/// Training batch order.
pub const TAG_BATCHES: u64 = 6;
/// Training dropout masks.
pub const TAG_DROPOUT: u64 = 7;

/// The model behind `lttf bench-serve` and `BENCH_memory.json`: c_in 3,
/// lx 48, ly 24, label_len 24, d_model 16, 4 heads, strides [1, 12].
pub fn canonical_config() -> ConformerConfig {
    let mut cfg = ConformerConfig::new(3, 48, 24);
    cfg.d_model = 16;
    cfg.n_heads = 4;
    cfg.multiscale_strides = vec![1, 12];
    cfg
}

/// Derive an independent seed for one generated stream (splitmix64).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything generated from one seed, before any model exists.
pub struct Plan {
    /// The `--seed` the plan was generated from.
    pub seed: u64,
    /// A 3-variable synthetic ETTh1 series.
    pub series: TimeSeries,
    /// Rows of the training region (scaler, drift profile, windows).
    pub n_train: usize,
    /// Seconds between rows.
    pub dt: i64,
    /// First row of each one-shot window (`lx + ly` rows fit after it).
    pub windows: Vec<usize>,
    /// First row of each session stream (`SESSION_PUSHES` rows).
    pub streams: Vec<usize>,
}

impl Plan {
    /// Generate the plan for `seed`.
    pub fn new(seed: u64) -> Plan {
        let cfg = canonical_config();
        let series = Dataset::Etth1.generate(SynthSpec {
            len: SERIES_LEN,
            dims: Some(cfg.c_in),
            seed: sub_seed(seed, TAG_SERIES),
        });
        let n_train = (SERIES_LEN as f32 * FRACTIONS.0) as usize;
        let dt = series.timestamps[1] - series.timestamps[0];
        // Windows are sampled across the training region, the traffic a
        // drift monitor fitted on that region stays quiet on.
        let mut rng = Rng::seed(sub_seed(seed, TAG_WINDOWS));
        let windows = (0..WINDOW_POOL)
            .map(|_| rng.below(n_train - cfg.lx - cfg.ly + 1))
            .collect();
        let mut rng = Rng::seed(sub_seed(seed, TAG_STREAMS));
        let streams = (0..SESSIONS)
            .map(|_| rng.below(n_train - SESSION_PUSHES + 1))
            .collect();
        Plan {
            seed,
            series,
            n_train,
            dt,
            windows,
            streams,
        }
    }

    /// `rows` raw rows starting at `start`, flattened `[row][variable]`.
    pub fn rows(&self, start: usize, rows: usize) -> Vec<f32> {
        self.series.values.narrow(0, start, rows).data().to_vec()
    }

    /// Unix timestamp of row `start`.
    pub fn t0(&self, start: usize) -> i64 {
        self.series.timestamps[start]
    }

    /// FNV-1a digest of every generated input: series, offsets and the
    /// first epoch's batch order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &v in self.series.values.data() {
            eat(v.to_bits() as u64);
        }
        for &t in &self.series.timestamps {
            eat(t as u64);
        }
        for &o in self.windows.iter().chain(&self.streams) {
            eat(o as u64);
        }
        let cfg = canonical_config();
        let n_windows = self.n_train - cfg.lx - cfg.ly + 1;
        for i in Rng::seed(sub_seed(self.seed, TAG_BATCHES)).permutation(n_windows) {
            eat(i as u64);
        }
        h
    }
}

/// One precomputed one-shot request.
pub struct OneShot {
    /// Raw window, `lx * c_in` values.
    pub values: Vec<f32>,
    /// Timestamp of the window's first row.
    pub t0: i64,
    /// The request line as a client sends it; `id` is the pool index.
    pub line: String,
    /// `LoadedModel::forecast_one` of the window.
    pub expected: Vec<f32>,
}

/// One session stream: the rows pushed between `open` and `close`.
pub struct Stream {
    /// `SESSION_PUSHES` raw rows, flattened.
    pub rows: Vec<f32>,
    /// Timestamp of the first row.
    pub t0: i64,
    /// The forecast expected after push `k`, for `k >= lx - 1`: entry
    /// `k + 1 - lx` is the one-shot forecast of rows `k + 1 - lx ..= k`.
    pub expected: Vec<Vec<f32>>,
}

/// A plan turned into program inputs and expected outputs.
pub struct Prepared {
    /// The generating plan.
    pub plan: Plan,
    /// Checkpoint base path (`<base>.params` + `<base>.config`).
    pub base: String,
    /// The checkpoint as loaded back: the reference the expected outputs
    /// come from and the replay rebuilds its layers against.
    pub model: LoadedModel,
    /// One-shot requests, cycled in order.
    pub oneshot: Vec<OneShot>,
    /// Session streams, one per session slot.
    pub streams: Vec<Stream>,
}

impl Prepared {
    /// Save the canonical model (train-split scaler and drift profile) as
    /// a checkpoint under `dir`, load it back, and precompute every
    /// expected forecast.
    pub fn new(plan: Plan, dir: &Path) -> io::Result<Prepared> {
        let cfg = canonical_config();
        let train_rows = plan.series.values.narrow(0, 0, plan.n_train);
        let target = plan.series.target;
        let model = LoadedModel::from_parts(
            TrainedModel::from_conformer(&cfg, MODEL_SEED),
            cfg.clone(),
            StandardScaler::fit(&train_rows),
            plan.series.names[target].clone(),
            target,
        )
        .with_profile(fit_reference_profile(&train_rows));
        let base = dir.join("model").to_string_lossy().into_owned();
        model.save(&base)?;
        let model = LoadedModel::load(&base)?;

        let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
        let dt = plan.dt;
        let mut oneshot = Vec::with_capacity(plan.windows.len());
        for (i, &start) in plan.windows.iter().enumerate() {
            let values = plan.rows(start, cfg.lx);
            let t0 = plan.t0(start);
            let expected = model.forecast_one(&values, t0, dt).map_err(bad)?;
            let line = JsonObj::new()
                .int("id", i as u64)
                .nums("values", values.iter().copied())
                .int("t0", t0 as u64)
                .int("dt", dt as u64)
                .finish();
            oneshot.push(OneShot {
                values,
                t0,
                line,
                expected,
            });
        }
        let c = cfg.c_in;
        let mut streams = Vec::with_capacity(plan.streams.len());
        for &start in &plan.streams {
            let rows = plan.rows(start, SESSION_PUSHES);
            let t0 = plan.t0(start);
            let expected = (0..=SESSION_PUSHES - cfg.lx)
                .map(|k| {
                    let window = &rows[k * c..(k + cfg.lx) * c];
                    model.forecast_one(window, t0 + dt * k as i64, dt)
                })
                .collect::<Result<_, _>>()
                .map_err(bad)?;
            streams.push(Stream { rows, t0, expected });
        }
        Ok(Prepared {
            plan,
            base,
            model,
            oneshot,
            streams,
        })
    }
}

/// A private working directory for the checkpoint, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `ledger/.work/<pid>` inside the benchmark's own directory.
    pub fn create() -> io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.work` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let a = Plan::new(1);
        assert_eq!(a.digest(), Plan::new(1).digest());
        assert_ne!(a.digest(), Plan::new(2).digest());
    }
}
