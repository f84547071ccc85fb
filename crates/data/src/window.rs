//! Rolling input-`Lx`-predict-`Ly` windows with stride 1, train/val/test
//! splitting, and batching — the evaluation protocol of Section V-A3.

use crate::scaler::StandardScaler;
use crate::series::TimeSeries;
use lttf_tensor::{Rng, Tensor};

/// Which split a dataset view draws windows from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Training region.
    Train,
    /// Validation region (follows train).
    Val,
    /// Test region (follows validation).
    Test,
}

/// One batch of windows ready for a model.
pub struct Batch {
    /// Encoder input values, `[b, lx, dims]` (scaled).
    pub x: Tensor,
    /// Encoder time features, `[b, lx, MARK_DIM]`.
    pub x_mark: Tensor,
    /// Decoder input: `label_len` known steps then `ly` zeros,
    /// `[b, label_len + ly, dims]` (scaled).
    pub dec: Tensor,
    /// Decoder time features, `[b, label_len + ly, MARK_DIM]`.
    pub dec_mark: Tensor,
    /// Ground-truth future values, `[b, ly, dims]` (scaled).
    pub y: Tensor,
}

/// Rolling-window view over a [`TimeSeries`], scaled with a
/// [`StandardScaler`] fitted on the training region only.
pub struct WindowDataset {
    scaled: Tensor, // [len, dims] scaled values
    marks: Tensor,  // [len, MARK_DIM]
    scaler: StandardScaler,
    lx: usize,
    ly: usize,
    label_len: usize,
    region_start: usize,
    region_end: usize,
    target: usize,
}

impl WindowDataset {
    /// Build the window view for one split.
    ///
    /// `fractions = (train, val)` as fractions of the series (test gets the
    /// remainder). The scaler is fitted on the train region regardless of
    /// which split is requested. `label_len` is the decoder warm-start
    /// length (Informer-style); it is capped at `lx`.
    ///
    /// Windows are drawn so that both the input and the horizon lie inside
    /// the split region, except that a window's input may reach back into
    /// the previous region (standard practice — the boundary rows of
    /// val/test inputs overlap the end of the previous split).
    ///
    /// # Panics
    /// Panics if the region is too short to hold a single window.
    pub fn new(
        series: &TimeSeries,
        split: Split,
        fractions: (f32, f32),
        lx: usize,
        ly: usize,
        label_len: usize,
    ) -> Self {
        let len = series.len();
        let (ftrain, fval) = fractions;
        assert!(
            ftrain > 0.0 && fval >= 0.0 && ftrain + fval < 1.0,
            "bad fractions"
        );
        let n_train = (len as f32 * ftrain) as usize;
        let n_val = (len as f32 * fval) as usize;
        let label_len = label_len.min(lx);
        let (region_start, region_end) = match split {
            Split::Train => (0, n_train),
            Split::Val => (n_train, n_train + n_val),
            Split::Test => (n_train + n_val, len),
        };
        let train_view = series.values.narrow(0, 0, n_train.max(2));
        let scaler = StandardScaler::fit(&train_view);
        let scaled = scaler.transform(&series.values);
        let ds = WindowDataset {
            scaled,
            marks: series.marks(),
            scaler,
            lx,
            ly,
            label_len,
            region_start,
            region_end,
            target: series.target,
        };
        assert!(
            !ds.is_empty(),
            "split {split:?} of a {len}-step series cannot hold an Lx={lx}, Ly={ly} window"
        );
        ds
    }

    /// Number of windows in this split.
    pub fn len(&self) -> usize {
        // A window is identified by its horizon start `h`, which must
        // satisfy `h >= lx` (room for the input), `h >= region_start`, and
        // `h + ly <= region_end`.
        let first = self.region_start.max(self.lx);
        let last_exclusive = (self.region_end + 1).saturating_sub(self.ly);
        last_exclusive.saturating_sub(first)
    }

    /// True if the split holds no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scaler fitted on the training region.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }

    /// Input length.
    pub fn lx(&self) -> usize {
        self.lx
    }

    /// Prediction length.
    pub fn ly(&self) -> usize {
        self.ly
    }

    /// Target column index.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Assemble the batch for window indices `idx`.
    pub fn batch(&self, idx: &[usize]) -> Batch {
        assert!(!idx.is_empty(), "empty batch");
        let b = idx.len();
        let dims = self.scaled.shape()[1];
        let mark_dim = self.marks.shape()[1];
        let dec_len = self.label_len + self.ly;
        let first = self.region_start.max(self.lx);

        let mut x = Vec::with_capacity(b * self.lx * dims);
        let mut xm = Vec::with_capacity(b * self.lx * mark_dim);
        let mut dec = Vec::with_capacity(b * dec_len * dims);
        let mut dm = Vec::with_capacity(b * dec_len * mark_dim);
        let mut y = Vec::with_capacity(b * self.ly * dims);
        for &i in idx {
            let horizon_start = first + i; // first predicted step
            let input_start = horizon_start - self.lx;
            debug_assert!(horizon_start + self.ly <= self.region_end);
            for t in input_start..horizon_start {
                for d in 0..dims {
                    x.push(self.scaled.at(&[t, d]));
                }
                for d in 0..mark_dim {
                    xm.push(self.marks.at(&[t, d]));
                }
            }
            // decoder: label_len known steps, then zeros for the horizon
            for t in horizon_start - self.label_len..horizon_start {
                for d in 0..dims {
                    dec.push(self.scaled.at(&[t, d]));
                }
            }
            dec.extend(std::iter::repeat_n(0.0, self.ly * dims));
            for t in horizon_start - self.label_len..horizon_start + self.ly {
                for d in 0..mark_dim {
                    dm.push(self.marks.at(&[t, d]));
                }
            }
            for t in horizon_start..horizon_start + self.ly {
                for d in 0..dims {
                    y.push(self.scaled.at(&[t, d]));
                }
            }
        }
        Batch {
            x: Tensor::from_vec(x, &[b, self.lx, dims]),
            x_mark: Tensor::from_vec(xm, &[b, self.lx, mark_dim]),
            dec: Tensor::from_vec(dec, &[b, dec_len, dims]),
            dec_mark: Tensor::from_vec(dm, &[b, dec_len, mark_dim]),
            y: Tensor::from_vec(y, &[b, self.ly, dims]),
        }
    }

    /// Iterate over shuffled training batches of size `batch_size`
    /// (the trailing partial batch is dropped, as is conventional).
    pub fn shuffled_batches(&self, batch_size: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        idx.chunks(batch_size)
            .filter(|c| c.len() == batch_size)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Sequential batches covering every window (for evaluation).
    pub fn sequential_batches(&self, batch_size: usize) -> Vec<Vec<usize>> {
        (0..self.len())
            .collect::<Vec<_>>()
            .chunks(batch_size)
            .map(|c| c.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Freq;

    fn ramp_series(len: usize, dims: usize) -> TimeSeries {
        let values = Tensor::from_vec(
            (0..len * dims).map(|i| (i / dims) as f32).collect(),
            &[len, dims],
        );
        let timestamps: Vec<i64> = (0..len as i64).map(|i| 1_600_000_000 + i * 3600).collect();
        TimeSeries::new(
            values,
            timestamps,
            (0..dims).map(|d| format!("v{d}")).collect(),
            0,
            Freq::Hours(1),
        )
    }

    #[test]
    fn window_counts() {
        let s = ramp_series(100, 2);
        let train = WindowDataset::new(&s, Split::Train, (0.6, 0.2), 10, 5, 5);
        // train region [0, 60): horizons start in [10, 55] → 46 windows
        assert_eq!(train.len(), 46);
        let test = WindowDataset::new(&s, Split::Test, (0.6, 0.2), 10, 5, 5);
        // test region [80, 100): horizons start in [80, 95] → 16 windows
        assert_eq!(test.len(), 16);
    }

    #[test]
    fn batch_shapes() {
        let s = ramp_series(100, 3);
        let ds = WindowDataset::new(&s, Split::Train, (0.7, 0.1), 8, 4, 4);
        let b = ds.batch(&[0, 1, 5]);
        assert_eq!(b.x.shape(), &[3, 8, 3]);
        assert_eq!(b.x_mark.shape(), &[3, 8, crate::MARK_DIM]);
        assert_eq!(b.dec.shape(), &[3, 8, 3]);
        assert_eq!(b.y.shape(), &[3, 4, 3]);
    }

    #[test]
    fn horizon_follows_input_contiguously() {
        // With a ramp and an identity check through the scaler: the first
        // target step must continue exactly where the input stopped.
        let s = ramp_series(200, 1);
        let ds = WindowDataset::new(&s, Split::Train, (0.8, 0.1), 12, 6, 3);
        let b = ds.batch(&[7]);
        let last_in = b.x.at(&[0, 11, 0]);
        let first_out = b.y.at(&[0, 0, 0]);
        // scaled ramp is still a ramp: steps differ by a constant
        let step = b.x.at(&[0, 1, 0]) - b.x.at(&[0, 0, 0]);
        assert!(
            (first_out - last_in - step).abs() < 1e-4,
            "horizon not contiguous: {last_in} → {first_out} (step {step})"
        );
    }

    #[test]
    fn decoder_padding_is_zero() {
        let s = ramp_series(100, 2);
        let ds = WindowDataset::new(&s, Split::Train, (0.7, 0.1), 8, 4, 4);
        let b = ds.batch(&[0]);
        // last `ly` rows of dec are zeros
        let pad = b.dec.narrow(1, 4, 4);
        assert_eq!(pad.abs().max(), 0.0);
        // first `label_len` rows match the tail of x
        let warm = b.dec.narrow(1, 0, 4);
        let tail = b.x.narrow(1, 4, 4);
        warm.assert_close(&tail, 1e-6);
    }

    #[test]
    fn splits_do_not_leak_targets() {
        // The first test window's horizon must start exactly at the test
        // region boundary, never earlier.
        let s = ramp_series(100, 1);
        let test = WindowDataset::new(&s, Split::Test, (0.6, 0.2), 10, 5, 0);
        let b = test.batch(&[0]);
        // horizon starts at row 80 → raw value 80; invert scaling to check
        let raw = test.scaler().inverse_transform(&b.y);
        assert_eq!(raw.at(&[0, 0, 0]).round(), 80.0);
    }

    #[test]
    fn scaler_fitted_on_train_only() {
        let s = ramp_series(100, 1);
        let ds = WindowDataset::new(&s, Split::Test, (0.6, 0.2), 10, 5, 0);
        // train mean is (0..60).mean() = 29.5
        assert!((ds.scaler().mean()[0] - 29.5).abs() < 0.01);
    }

    #[test]
    fn shuffled_batches_cover_unique_windows() {
        let s = ramp_series(100, 1);
        let ds = WindowDataset::new(&s, Split::Train, (0.8, 0.1), 5, 2, 0);
        let mut rng = Rng::seed(1);
        let batches = ds.shuffled_batches(8, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for b in &batches {
            assert_eq!(b.len(), 8);
            for &i in b {
                assert!(seen.insert(i), "duplicate window {i}");
                assert!(i < ds.len());
            }
        }
    }

    #[test]
    fn sequential_batches_cover_all() {
        let s = ramp_series(100, 1);
        let ds = WindowDataset::new(&s, Split::Val, (0.6, 0.2), 5, 2, 0);
        let batches = ds.sequential_batches(7);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn oversized_window_panics() {
        let s = ramp_series(50, 1);
        WindowDataset::new(&s, Split::Val, (0.6, 0.1), 40, 40, 0);
    }
}
