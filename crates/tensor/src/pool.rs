//! The moving average used by series decomposition (Eq. 9).

use crate::tensor::Tensor;
use lttf_parallel::par_chunks_mut;

impl Tensor {
    /// Length-preserving moving average along `axis` with replicate padding —
    /// exactly the `AvgPool(Padding(x))` trend extractor of Autoformer-style
    /// series decomposition (paper Eq. 9).
    ///
    /// The series is padded with `(k-1)/2` leading and `k/2` trailing copies
    /// of the edge values, then averaged with a length-`k` window, so the
    /// output has the same extent along `axis` as the input.
    pub fn moving_avg(&self, axis: isize, k: usize) -> Tensor {
        assert!(k >= 1, "moving_avg window must be >= 1");
        let span = lttf_obs::span!("moving_avg", self.numel() >= crate::obs_min_work());
        span.bytes(self.numel() * 2 * 4);
        let ax = self.shape.normalize_axis(axis);
        let before = (k - 1) / 2;
        let after = k / 2;
        let padded = self.pad_axis_replicate(ax as isize, before, after);
        // Slide a running row-sum along the axis: O(n) total instead of
        // O(n·k) — each step adds the entering row and subtracts the
        // leaving one.
        let dims = padded.shape();
        let extent = dims[ax];
        let out_extent = extent - k + 1;
        let outer: usize = dims[..ax].iter().product();
        let inner: usize = dims[ax + 1..].iter().product();
        let mut out = vec![0.0f32; outer * out_extent * inner];
        let inv = 1.0 / k as f32;
        let src = &padded.data;
        let slide_outer = |o: usize, block: &mut [f32]| {
            let base = o * extent * inner;
            let mut acc = vec![0.0f32; inner];
            for kk in 0..k {
                let row = &src[base + kk * inner..base + (kk + 1) * inner];
                for (a, &v) in acc.iter_mut().zip(row) {
                    *a += v;
                }
            }
            for (slot, &a) in block[..inner].iter_mut().zip(&acc) {
                *slot = a * inv;
            }
            for t in 1..out_extent {
                let leave = &src[base + (t - 1) * inner..base + t * inner];
                let enter = &src[base + (t + k - 1) * inner..base + (t + k) * inner];
                for ((a, &l), &e) in acc.iter_mut().zip(leave).zip(enter) {
                    *a += e - l;
                }
                let orow = &mut block[t * inner..(t + 1) * inner];
                for (slot, &a) in orow.iter_mut().zip(&acc) {
                    *slot = a * inv;
                }
            }
        };
        const PAR_MIN_WORK: usize = 1 << 15;
        let block_len = out_extent * inner;
        if out.is_empty() || inner == 0 {
            // nothing to do for degenerate shapes
        } else if outer >= 2
            && outer * extent * inner >= PAR_MIN_WORK
            && lttf_parallel::num_threads() > 1
        {
            let per = (PAR_MIN_WORK / (extent * inner).max(1)).max(1);
            par_chunks_mut(&mut out, per * block_len, |ci, chunk| {
                for (j, block) in chunk.chunks_mut(block_len).enumerate() {
                    slide_outer(ci * per + j, block);
                }
            });
        } else {
            for (o, block) in out.chunks_mut(block_len).enumerate() {
                slide_outer(o, block);
            }
        }
        let mut new_dims = self.shape.dims().to_vec();
        new_dims[ax] = out_extent.min(new_dims[ax]);
        debug_assert_eq!(out_extent, self.shape.dims()[ax]);
        Tensor::from_vec(out, &new_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_avg_preserves_length() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5.], &[5, 1]);
        let y = x.moving_avg(0, 3);
        assert_eq!(y.shape(), &[5, 1]);
        // with replicate padding: [1,1,2,3,4,5,5]
        y.assert_close(
            &Tensor::from_vec(vec![4.0 / 3.0, 2.0, 3.0, 4.0, 14.0 / 3.0], &[5, 1]),
            1e-6,
        );
    }

    #[test]
    fn moving_avg_window_one_is_identity() {
        let x = Tensor::from_vec(vec![3., 1., 4., 1., 5.], &[5]);
        assert_eq!(x.moving_avg(0, 1).data(), x.data());
    }

    #[test]
    fn moving_avg_constant_series_unchanged() {
        let x = Tensor::full(&[8, 2], 7.0);
        let y = x.moving_avg(0, 4);
        y.assert_close(&x, 1e-6);
    }

    #[test]
    fn moving_avg_even_window() {
        let x = Tensor::from_vec(vec![0., 2., 4., 6.], &[4]);
        // pad before=(2-1)/2=0, after=2/2=1 -> [0,2,4,6,6]
        let y = x.moving_avg(0, 2);
        assert_eq!(y.data(), &[1., 3., 5., 6.]);
    }

    #[test]
    fn moving_avg_on_middle_axis() {
        // [batch=1, len=4, ch=2]: smooth along axis 1
        let x = Tensor::from_vec(vec![1., 10., 3., 30., 5., 50., 7., 70.], &[1, 4, 2]);
        let y = x.moving_avg(1, 3);
        assert_eq!(y.shape(), &[1, 4, 2]);
        // channel 0 padded: [1,1,3,5,7,7] -> [5/3, 3, 5, 19/3]
        assert!((y.at(&[0, 1, 0]) - 3.0).abs() < 1e-6);
        assert!((y.at(&[0, 2, 1]) - 50.0).abs() < 1e-6);
    }
}
