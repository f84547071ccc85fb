//! Series decomposition (paper Eq. 9): split a series into a stationary
//! trend (moving average) and an instant/seasonal residual.

use lttf_autograd::Var;

/// The decomposition block `X_t = AvgPool(Padding(X)); X_s = X − X_t`.
///
/// Operates on `[batch, len, d]` variables along the time axis (axis 1).
/// The moving average uses replicate padding so the output lengths match
/// the input, exactly as Autoformer/Conformer implement it.
#[derive(Clone, Copy)]
pub struct SeriesDecomp {
    kernel: usize,
}

impl SeriesDecomp {
    /// A decomposition block with moving-average window `kernel`.
    ///
    /// # Panics
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel >= 1, "decomposition kernel must be >= 1");
        SeriesDecomp { kernel }
    }

    /// Split `x` (shape `[batch, len, d]`) into `(seasonal, trend)`.
    pub fn forward<'g>(&self, x: Var<'g>) -> (Var<'g>, Var<'g>) {
        let trend = x.moving_avg(1, self.kernel);
        let seasonal = x.sub(trend);
        (seasonal, trend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lttf_autograd::Graph;
    use lttf_tensor::{Rng, Tensor};

    #[test]
    fn reconstruction_identity() {
        // seasonal + trend == input, by construction.
        let g = Graph::new();
        let x = g.leaf(Tensor::randn(&[2, 16, 3], &mut Rng::seed(1)));
        let d = SeriesDecomp::new(5);
        let (s, t) = d.forward(x);
        s.add(t).value().assert_close(&x.value(), 1e-5);
    }

    #[test]
    fn constant_series_is_pure_trend() {
        let g = Graph::new();
        let x = g.leaf(Tensor::full(&[1, 10, 2], 4.0));
        let (s, t) = SeriesDecomp::new(3).forward(x);
        t.value()
            .assert_close(&Tensor::full(&[1, 10, 2], 4.0), 1e-5);
        assert!(s.value().abs().max() < 1e-5);
    }

    #[test]
    fn trend_captures_ramp() {
        // For a linear ramp the interior of the moving average is the ramp
        // itself, so the seasonal part vanishes away from the edges.
        let len = 20;
        let data: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[1, len, 1]));
        let (s, _) = SeriesDecomp::new(5).forward(x);
        let sv = s.value();
        for i in 3..len - 3 {
            assert!(sv.at(&[0, i, 0]).abs() < 1e-4, "interior residual at {i}");
        }
    }

    #[test]
    fn seasonal_captures_oscillation() {
        // A fast oscillation on a slow trend: the trend output should be
        // smooth (small second difference) while seasonal holds the wiggle.
        let len = 32;
        let data: Vec<f32> = (0..len)
            .map(|i| i as f32 * 0.5 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[1, len, 1]));
        let (s, t) = SeriesDecomp::new(4).forward(x);
        let (sv, tv) = (s.value(), t.value());
        // seasonal must retain the alternating component
        let mut alternating = 0;
        for i in 8..24 {
            if (sv.at(&[0, i, 0]) > 0.0) != (sv.at(&[0, i + 1, 0]) > 0.0) {
                alternating += 1;
            }
        }
        assert!(alternating > 12, "seasonal lost the oscillation");
        // trend second differences are small in the interior
        for i in 8..22 {
            let dd = tv.at(&[0, i + 2, 0]) - 2.0 * tv.at(&[0, i + 1, 0]) + tv.at(&[0, i, 0]);
            assert!(dd.abs() < 0.3, "trend not smooth at {i}: {dd}");
        }
    }
}
