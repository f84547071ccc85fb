//! # lttf-data
//!
//! Time-series data substrate for the Conformer (ICDE 2023) reproduction:
//!
//! * [`TimeSeries`] — a multivariate series with timestamps, variable
//!   names, and a designated target variable,
//! * calendar time features (month/day/weekday/hour/minute, normalized to
//!   `[−0.5, 0.5]` as in Informer),
//! * [`StandardScaler`] — per-variable standardization fitted on the
//!   training split only,
//! * [`WindowDataset`] — the input-`Lx`-predict-`Ly` rolling windows with
//!   stride 1 used by every experiment, plus batching,
//! * [`synth`] — seven seeded generators standing in for the paper's seven
//!   datasets (ECL, Weather, Exchange, ETTh1, ETTm1, Wind, AirDelay); each
//!   reproduces the statistical regime the paper relies on (periodicity,
//!   dimensionality, noise structure, interval regularity). See DESIGN.md
//!   §2 for the substitution rationale.
//!
//! ```
//! use lttf_data::synth::{Dataset, SynthSpec};
//! use lttf_data::{Split, WindowDataset};
//!
//! let series = Dataset::Etth1.generate(SynthSpec { len: 400, dims: Some(7), seed: 1 });
//! let train = WindowDataset::new(&series, Split::Train, (0.7, 0.1), 48, 24, 24);
//! let batch = train.batch(&[0, 1]);
//! assert_eq!(batch.x.shape(), &[2, 48, 7]);   // encoder input
//! assert_eq!(batch.y.shape(), &[2, 24, 7]);   // horizon target
//! ```

#![warn(missing_docs)]

mod csv;
mod scaler;
mod series;
mod window;

pub mod synth;

pub use csv::{read_csv, write_csv};
pub use scaler::StandardScaler;
pub use series::{time_features, Freq, TimeSeries, MARK_DIM};
pub use window::{Batch, Split, WindowDataset};

#[cfg(test)]
mod proptests;
