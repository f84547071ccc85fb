//! Per-variable standardization, fitted on the training split only — the
//! preprocessing every baseline in the paper shares.

use lttf_tensor::Tensor;

/// Standardize each column to zero mean and unit variance.
#[derive(Clone, Debug)]
pub struct StandardScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl StandardScaler {
    /// Fit on `x` of shape `[len, dims]`. Columns with zero variance get
    /// `std = 1` so they pass through unchanged (centred).
    pub fn fit(x: &Tensor) -> Self {
        assert_eq!(x.ndim(), 2, "scaler input must be [len, dims]");
        let (len, dims) = (x.shape()[0], x.shape()[1]);
        assert!(len > 0, "cannot fit a scaler on an empty series");
        let mut mean = vec![0.0f32; dims];
        let mut std = vec![0.0f32; dims];
        for d in 0..dims {
            let mut s = 0.0;
            for t in 0..len {
                s += x.at(&[t, d]);
            }
            mean[d] = s / len as f32;
            let mut v = 0.0;
            for t in 0..len {
                let c = x.at(&[t, d]) - mean[d];
                v += c * c;
            }
            let sd = (v / len as f32).sqrt();
            std[d] = if sd > 1e-8 { sd } else { 1.0 };
        }
        StandardScaler { mean, std }
    }

    /// Rebuild a scaler from stored statistics (checkpoint metadata).
    /// `mean` and `std` must be the same non-zero length; every `std`
    /// entry must be positive.
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert!(!mean.is_empty(), "scaler needs at least one column");
        assert_eq!(mean.len(), std.len(), "mean/std length mismatch");
        assert!(
            std.iter().all(|&s| s > 0.0 && s.is_finite()),
            "scaler std entries must be positive and finite"
        );
        StandardScaler { mean, std }
    }

    /// Number of columns the scaler was fitted on.
    pub fn dims(&self) -> usize {
        self.mean.len()
    }

    /// Per-column means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Per-column standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// `(x − μ) / σ` column-wise. Accepts `[len, dims]` or `[b, len, dims]`.
    pub fn transform(&self, x: &Tensor) -> Tensor {
        self.apply(x, |v, m, s| (v - m) / s)
    }

    /// `x·σ + μ` column-wise — undoes [`StandardScaler::transform`].
    pub fn inverse_transform(&self, x: &Tensor) -> Tensor {
        self.apply(x, |v, m, s| v * s + m)
    }

    fn apply(&self, x: &Tensor, f: impl Fn(f32, f32, f32) -> f32) -> Tensor {
        let dims = *x.shape().last().expect("scaler input needs an axis");
        assert_eq!(
            dims,
            self.mean.len(),
            "scaler fitted on {} dims, input has {dims}",
            self.mean.len()
        );
        let mut out = x.clone();
        let data = out.data_mut();
        for (i, v) in data.iter_mut().enumerate() {
            let d = i % dims;
            *v = f(*v, self.mean[d], self.std[d]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_tensor::Rng;

    #[test]
    fn transform_standardizes() {
        let mut rng = Rng::seed(1);
        let x = Tensor::randn(&[500, 3], &mut rng)
            .mul_scalar(4.0)
            .add_scalar(10.0);
        let sc = StandardScaler::fit(&x);
        let y = sc.transform(&x);
        for d in 0..3 {
            let col = y.select(1, &[d]);
            assert!(col.mean().abs() < 1e-4, "mean {}", col.mean());
            assert!((col.std() - 1.0).abs() < 1e-3, "std {}", col.std());
        }
    }

    #[test]
    fn inverse_round_trip() {
        let mut rng = Rng::seed(2);
        let x = Tensor::randn(&[100, 4], &mut rng)
            .mul_scalar(7.0)
            .add_scalar(-3.0);
        let sc = StandardScaler::fit(&x);
        sc.inverse_transform(&sc.transform(&x))
            .assert_close(&x, 1e-3);
    }

    #[test]
    fn constant_column_passthrough() {
        let x = Tensor::from_vec(vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0], &[3, 2]);
        let sc = StandardScaler::fit(&x);
        let y = sc.transform(&x);
        // constant column becomes zeros (centred, std clamped to 1)
        assert_eq!(y.select(1, &[0]).data(), &[0.0, 0.0, 0.0]);
        sc.inverse_transform(&y).assert_close(&x, 1e-5);
    }

    #[test]
    fn transform_3d_batches() {
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0], &[2, 2]);
        let sc = StandardScaler::fit(&x);
        let b = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0, 1.0, 10.0, 3.0, 30.0], &[2, 2, 2]);
        let y = sc.transform(&b);
        assert_eq!(y.shape(), &[2, 2, 2]);
        // both batch rows transformed identically
        y.narrow(0, 0, 1).assert_close(&y.narrow(0, 1, 1), 0.0);
    }

    #[test]
    fn from_parts_matches_fit() {
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0], &[2, 2]);
        let fitted = StandardScaler::fit(&x);
        let rebuilt =
            StandardScaler::from_parts(fitted.mean().to_vec(), fitted.std().to_vec());
        rebuilt.transform(&x).assert_close(&fitted.transform(&x), 0.0);
    }
}
